"""Where the benchmark wraps nulog, and the per-layer metrics it reads back.

Each wrapper sits under the name its caller looks up: `nulog.cli.train`
and `nulog.anomaly.train` rather than `nulog.model.train`, because cli and
anomaly import the function by name; `nulog.numerics.matmul` because the
model calls kernels through the module. Kernel backward time is taken by
wrapping the vector-Jacobian closure of each returned tensor.
"""
from __future__ import annotations

from pathlib import Path

from nulog import (anomaly, cli, evaluation, extraction, ingest, masking, model,
                   numerics, persistence)
from nulog.tokenizer import PAD_ID

from spans import Tracer, self_times, subtree_self_sums, totals_by_name

LAYERS = ("ingest", "tokenizer", "masking", "model", "numerics", "extraction",
          "anomaly", "persistence", "evaluation", "cli")
KERNELS = ("matmul", "softmax_rows", "layer_norm_rows", "embedding",
           "cross_entropy", "concat_cols", "add", "relu", "first_row",
           "scale", "transpose")
COMMANDS = ("train", "parse", "eval", "detect")


def _final_loss(tracer: Tracer):
    def after(model, args):
        if model.training_losses:
            tracer.counts["train.final_loss"] = model.training_losses[-1]
    return after


def _count_frame(tracer: Tracer, full: bool):
    counts = tracer.counts

    def after(seq, args):
        if len(seq.tokens) < len(args[0]):
            counts["tokenizer.messages_truncated"] += 1
        if full:
            counts["tokenizer.slots"] += seq.framed_ids.size
            counts["tokenizer.pad_slots"] += int((seq.framed_ids == PAD_ID).sum())
            counts["tokenizer.frame_length"] = max(counts["tokenizer.frame_length"],
                                                   seq.framed_ids.size)
    return after


def _matmul_flop(a, b) -> float:
    batch = max(a.data.shape[0] if a.data.ndim == 3 else 1,
                b.data.shape[0] if b.data.ndim == 3 else 1)
    return 2.0 * batch * a.data.shape[-2] * a.data.shape[-1] * b.data.shape[-1]


def _kernel(tracer: Tracer, name: str):
    fwd, bwd = f"numerics.{name}.fwd", f"numerics.{name}.bwd"
    calls = f"numerics.{name}.calls"
    counts, begin, end = tracer.counts, tracer.begin, tracer.end
    is_matmul = name == "matmul"

    def make(original):
        def wrapper(*args, **kwargs):
            index = begin(fwd)
            try:
                out = original(*args, **kwargs)
            finally:
                end(index)
            counts[calls] += 1
            flop = _matmul_flop(args[0], args[1]) if is_matmul else 0.0
            counts["numerics.matmul.flop"] += flop
            vjp = out._vjp
            if vjp is not None:
                def timed_vjp(g):
                    j = begin(bwd)
                    try:
                        return vjp(g)
                    finally:
                        end(j)
                        # the backward pass forms one product per operand
                        counts["numerics.matmul.flop"] += 2.0 * flop
                out._vjp = timed_vjp
            return out
        return wrapper
    return make


def instrument(tracer: Tracer, full: bool) -> None:
    """Wrap nulog. Always: the training calls, for the final loss, and the
    frame calls, for truncation; both cost next to nothing. With full,
    every layer boundary and every kernel as well."""
    final_loss = _final_loss(tracer)
    tracer.wrap(cli, "train", "model.train", final_loss)
    tracer.wrap(anomaly, "train", "model.train", final_loss)
    count_frame = _count_frame(tracer, full)
    if not full:
        tracer.observe(cli, "frame", count_frame)
        tracer.observe(anomaly, "frame", count_frame)
        return
    counts = tracer.counts

    def vocab_size(vocab, args):
        counts["tokenizer.vocab_size"] = max(counts["tokenizer.vocab_size"], len(vocab))

    for owner in (cli, anomaly):
        tracer.wrap(owner, "frame", "tokenizer.frame", count_frame)
        tracer.wrap(owner, "tokenize", "tokenizer.tokenize")
        tracer.wrap(owner, "build_vocabulary", "tokenizer.vocab", vocab_size)
        tracer.wrap(owner, "compute_frame_length", "tokenizer.vocab")
    tracer.wrap(evaluation, "tokenize", "tokenizer.tokenize")

    tracer.wrap(ingest, "load_loghub_csv", "ingest.load")
    tracer.wrap(ingest, "load_labeled_bgl", "ingest.load")
    tracer.wrap(ingest, "load_config", "ingest.load")

    def one_sample(sample, args):
        counts["masking.samples"] += sample is not None

    def all_samples(samples, args):
        counts["masking.samples"] += len(samples)

    tracer.wrap(masking, "sample_random_mask", "masking.mask", one_sample)
    tracer.wrap(masking, "enumerate_masks", "masking.mask", all_samples)

    def predicted(result, args):
        counts["model.predict_calls"] += 1
        counts["model.predict_rows"] += len(args[1])

    tracer.wrap(model.Model, "forward_logits", "model.forward")
    tracer.wrap(model.Model, "predict_masked_batch", "model.predict", predicted)

    for name in KERNELS:
        tracer.patch(numerics, name, _kernel(tracer, name))
    tracer.wrap(numerics.Tensor, "backward", "numerics.backward")

    def stepped(result, args):
        counts["numerics.optimizer_steps"] += 1

    tracer.wrap(numerics, "optimizer_step", "numerics.optimizer_step", stepped)

    def parsed(result, args):
        counts["extraction.messages"] += len(args[1])
        counts["extraction.templates"] += len(result[1])

    def extracted(result, args):
        counts["extraction.extract_calls"] += 1

    tracer.wrap(extraction, "parse_corpus", "extraction.parse", parsed)
    tracer.wrap(extraction, "extract_template", "extraction.extract", extracted)

    tracer.wrap(anomaly, "run_unsupervised_study", "anomaly.study")
    tracer.wrap(anomaly, "run_supervised_study", "anomaly.study")
    tracer.wrap(anomaly, "_pretrain", "anomaly.pretrain")
    tracer.wrap(anomaly, "fine_tune_supervised", "anomaly.finetune")
    tracer.wrap(anomaly, "token_anomaly_fraction", "anomaly.score")
    tracer.wrap(anomaly, "classify_supervised", "anomaly.classify")

    def saved(result, args):
        counts["persistence.archive_bytes"] = Path(args[1]).stat().st_size

    tracer.wrap(persistence, "save_model", "persistence.save", saved)
    tracer.wrap(persistence, "load_model", "persistence.load")

    tracer.wrap(evaluation, "parsing_accuracy", "evaluation.accuracy")
    tracer.wrap(evaluation, "mean_template_edit_distance", "evaluation.edit_distance")


# (name, unit, better) for every per-layer metric, in report order
PER_LAYER: list[tuple[str, str, str]] = []
for _k in KERNELS:
    PER_LAYER += [(f"numerics.{_k}.fwd_s", "s", "lower"),
                  (f"numerics.{_k}.bwd_s", "s", "lower"),
                  (f"numerics.{_k}.calls", "count", "lower")]
PER_LAYER += [
    ("numerics.matmul.gflop", "GFLOP", "lower"),
    ("numerics.backward_s", "s", "lower"),
    ("numerics.optimizer_step_s", "s", "lower"),
    ("numerics.optimizer_steps", "count", "lower"),
    ("model.train_s", "s", "lower"),
    ("model.forward_s", "s", "lower"),
    ("model.predict_s", "s", "lower"),
    ("model.predict_calls", "count", "lower"),
    ("model.predict_rows_per_call", "count", "higher"),
    ("extraction.parse_s", "s", "lower"),
    ("extraction.extract_self_s", "s", "lower"),
    ("extraction.extract_calls", "count", "lower"),
    ("extraction.cache_hit_rate", "ratio", "higher"),
    ("extraction.templates", "count", "lower"),
    ("tokenizer.tokenize_s", "s", "lower"),
    ("tokenizer.vocab_s", "s", "lower"),
    ("tokenizer.frame_s", "s", "lower"),
    ("tokenizer.vocab_size", "count", "lower"),
    ("tokenizer.frame_length", "count", "lower"),
    ("tokenizer.pad_share", "ratio", "lower"),
    ("tokenizer.messages_truncated", "count", "lower"),
    ("masking.samples", "count", "lower"),
    ("anomaly.pretrain_s", "s", "lower"),
    ("anomaly.score_self_s", "s", "lower"),
    ("anomaly.finetune_s", "s", "lower"),
    ("anomaly.classify_s", "s", "lower"),
    ("ingest.load_s", "s", "lower"),
    ("persistence.save_s", "s", "lower"),
    ("persistence.load_s", "s", "lower"),
    ("persistence.archive_bytes", "bytes", "lower"),
    ("evaluation.accuracy_s", "s", "lower"),
    ("evaluation.edit_distance_s", "s", "lower"),
]
PER_LAYER += [(f"cli.{c}.self_s", "s", "lower") for c in COMMANDS]
PER_LAYER += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS if layer != "cli"]
PER_LAYER += [
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("evaluation.group_accuracy", "ratio", "higher"),
    ("evaluation.template_edit_distance", "chars", "lower"),
    ("anomaly.unsupervised_f1", "ratio", "higher"),
    ("anomaly.supervised_f1", "ratio", "higher"),
    ("cli.failed_share", "ratio", "lower"),
]


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[int, tuple[float, float]]]:
    """Per-layer metrics of one traced cycle, plus for every command span
    its traced wall time and the sum of self times beneath it."""
    spans = tracer.spans
    selfs = self_times(spans)
    own = totals_by_name(spans, selfs)
    total = totals_by_name(spans, [end - start for _, start, end, _ in spans])
    c = tracer.counts
    out: dict[str, float] = {}
    for k in KERNELS:
        out[f"numerics.{k}.fwd_s"] = total[f"numerics.{k}.fwd"]
        out[f"numerics.{k}.bwd_s"] = total[f"numerics.{k}.bwd"]
        out[f"numerics.{k}.calls"] = c[f"numerics.{k}.calls"]
    calls = c["model.predict_calls"]
    out.update({
        "numerics.matmul.gflop": c["numerics.matmul.flop"] / 1e9,
        "numerics.backward_s": own["numerics.backward"],
        "numerics.optimizer_step_s": total["numerics.optimizer_step"],
        "numerics.optimizer_steps": c["numerics.optimizer_steps"],
        "model.train_s": total["model.train"],
        "model.forward_s": total["model.forward"],
        "model.predict_s": total["model.predict"],
        "model.predict_calls": calls,
        "model.predict_rows_per_call": c["model.predict_rows"] / calls if calls else 0.0,
        "extraction.parse_s": total["extraction.parse"],
        "extraction.extract_self_s": own["extraction.extract"],
        "extraction.extract_calls": c["extraction.extract_calls"],
        "extraction.cache_hit_rate": (1.0 - c["extraction.extract_calls"]
                                      / c["extraction.messages"]
                                      if c["extraction.messages"] else 0.0),
        "extraction.templates": c["extraction.templates"],
        "tokenizer.tokenize_s": total["tokenizer.tokenize"],
        "tokenizer.vocab_s": total["tokenizer.vocab"],
        "tokenizer.frame_s": total["tokenizer.frame"],
        "tokenizer.vocab_size": c["tokenizer.vocab_size"],
        "tokenizer.frame_length": c["tokenizer.frame_length"],
        "tokenizer.pad_share": (c["tokenizer.pad_slots"] / c["tokenizer.slots"]
                                if c["tokenizer.slots"] else 0.0),
        "tokenizer.messages_truncated": c["tokenizer.messages_truncated"],
        "masking.samples": c["masking.samples"],
        "anomaly.pretrain_s": total["anomaly.pretrain"],
        "anomaly.score_self_s": own["anomaly.score"],
        "anomaly.finetune_s": total["anomaly.finetune"],
        "anomaly.classify_s": total["anomaly.classify"],
        "ingest.load_s": total["ingest.load"],
        "persistence.save_s": total["persistence.save"],
        "persistence.load_s": total["persistence.load"],
        "persistence.archive_bytes": c["persistence.archive_bytes"],
        "evaluation.accuracy_s": total["evaluation.accuracy"],
        "evaluation.edit_distance_s": total["evaluation.edit_distance"],
    })
    for cmd in COMMANDS:
        out[f"cli.{cmd}.self_s"] = own[f"cli.{cmd}"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for name, v in own.items()
                                     if name.split(".", 1)[0] == layer)
    sums = subtree_self_sums(spans, selfs)
    roots = {i: (end - start, sums[i])
             for i, (_, start, end, parent) in enumerate(spans) if parent < 0}
    return out, roots
