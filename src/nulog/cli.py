"""Command-line pipeline: train, parse, eval, detect.

Every command writes a JSON manifest alongside its primary output so a run
can be reproduced from its recorded inputs and seed; no command reads one.
Exit codes: 2 for I/O problems, 3 for configuration problems (bad flags
and config files that are not UTF-8 included), 4 for data validation
failures (CSV files that are not UTF-8 or that the csv module cannot read
included).
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

from . import anomaly, evaluation, extraction, ingest, persistence
from .errors import ConfigError, ValidationError
from .model import ModelConfig, train
from .tokenizer import UNK_ID, WHITESPACE_FILTER, compile_filter, frame, tokenize

log = logging.getLogger(__name__)

EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_VALIDATION = 4

# one encoder for every parse row's variables; json.dumps with a keyword
# builds a new one per call
_VARIABLES = json.JSONEncoder(ensure_ascii=False)

# the encoder flags every training command takes: name -> help; each name
# is a ModelConfig field (detect's through AnomalyConfig.model) and a
# manifest key, and its default is ModelConfig's
MODEL_DIMS = {
    "d": "embedding width",
    "heads": "attention heads",
    "ffn_hidden": "feed-forward hidden width",
    "blocks": "encoder blocks",
    "batch_size": "training batch size",
}


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit with the config code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def _resolve_seed(value: int | None) -> int:
    """Explicit flag, then the NULOG_SEED environment variable, then
    ModelConfig's seed.

    The seed must fit the archive's u32 seed field, [0, 2**32).
    """
    if value is None:
        env = os.environ.get("NULOG_SEED", str(ModelConfig.seed))
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"NULOG_SEED must be an integer, got {env!r}") from None
    if not 0 <= value < 2 ** 32:
        raise ConfigError(f"seed must be in [0, 2**32), got {value}")
    return value


def _write_manifest(primary_output: str | Path, command: str, dataset: str,
                    config_values: dict, seed: int | None, started: float,
                    outputs: list[str]) -> Path:
    path = Path(f"{primary_output}.manifest.json")
    manifest = {
        "command": command,
        "dataset": dataset,
        "config": config_values,
        "seed": seed,
        "started_unix": round(started, 3),
        "elapsed_seconds": round(time.time() - started, 3),
        "outputs": [str(o) for o in outputs],
    }
    path.write_text(json.dumps(manifest, indent=2, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    return path


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _dataset_config(args) -> ingest.DatasetConfig:
    if args.config:
        return ingest.load_config(args.config)
    return ingest.DatasetConfig(name=Path(args.data).stem,
                                tokenization_filter=WHITESPACE_FILTER)


def cmd_train(args) -> int:
    started = time.time()
    seed = _resolve_seed(args.seed)
    config = _dataset_config(args)
    records = ingest.load_loghub_csv(args.data)
    pattern = compile_filter(config.tokenization_filter)
    token_lists = [tokenize(r.content, pattern) for r in records]
    model = train(token_lists, ModelConfig(
        epochs=config.epochs, seed=seed, tokenization_filter=config.tokenization_filter,
        epsilon=config.epsilon, **_model_dims(args)))
    persistence.save_model(model, args.out_model)
    occurrences = [model.vocab.encode(t) for tokens in token_lists for t in tokens]
    manifest = _write_manifest(
        args.out_model, "train", config.name,
        {
            "data": str(args.data),
            "tokenization_filter": config.tokenization_filter,
            "epochs": config.epochs,
            "epsilon": config.epsilon,
            "min_count": model.config.min_count,
            **_model_dims(args),
            "frame_length": model.config.frame_length,
            "vocab_size": model.config.vocab_size,
            # share of training token occurrences that encode to UNK
            "unknown_share": occurrences.count(UNK_ID) / len(occurrences),
            "final_loss": model.training_losses[-1] if model.training_losses else None,
            "losses": model.training_losses,
            # a multi-threaded BLAS changes training's floats
            "blas_threads": {name: os.environ.get(name) for name in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        seed, started, [args.out_model])
    log.info("trained on %d messages; archive %s, manifest %s",
             len(token_lists), args.out_model, manifest)
    return 0


def cmd_parse(args) -> int:
    started = time.time()
    model = persistence.load_model(args.model)
    epsilon = model.config.epsilon if args.epsilon is None else args.epsilon
    pattern = compile_filter(model.config.tokenization_filter)
    records = ingest.load_loghub_csv(args.data)
    # identical lines parse identically: tokenize, frame, score and format
    # each distinct content once, in first-appearance order
    first_line: dict[str, int] = {}
    for i, r in enumerate(records, start=1):
        first_line.setdefault(r.content, i)
    repeats = list(Counter(r.content for r in records).values())  # same order
    token_lists = [tokenize(content, pattern) for content in first_line]
    corpus = [frame(toks, model.config.frame_length, model.vocab, message_index=i)
              for toks, i in zip(token_lists, first_line.values())]
    parsed, templates, built, scored = extraction.parse_corpus(model, corpus, epsilon)
    row_of = {content: (p.template_id, p.template, _VARIABLES.encode(p.variables))
              for content, p in zip(first_line, parsed)}
    rows = [(r.line_id, *row_of[r.content]) for r in records]
    _write_csv(args.out, ["line_id", "template_id", "template", "variables"], rows)
    counts = Counter(row[1] for row in rows)
    templates_path = Path(args.out).with_suffix(".templates.csv")
    _write_csv(templates_path, ["template_id", "template", "count"],
               [(tid, template, counts[tid]) for tid, template in enumerate(templates)])
    _write_manifest(args.out, "parse", Path(args.data).stem,
                    {"data": str(args.data), "model": str(args.model),
                     "epsilon": epsilon,
                     "tokenization_filter": model.config.tokenization_filter,
                     "lines": len(records), "distinct_lines": len(corpus),
                     "masked_samples": sum(n * len(seq.tokens)
                                           for n, seq in zip(repeats, corpus)),
                     "masked_inputs": built,
                     "masked_inputs_scored": scored,
                     # lines that frame() cut short; their cut tokens
                     # are variables
                     "messages_truncated": sum(n for n, seq in zip(repeats, corpus)
                                               if seq.cut)},
                    None, started, [args.out, templates_path])
    log.info("parsed %d messages into %d templates", len(records), len(templates))
    return 0


def _evaluate_pair(parsed_path, truth_path, pattern) -> tuple[float, float | None]:
    parsed = ingest.read_table(parsed_path, ("line_id", "template_id", "template"))
    truth = ingest.read_table(truth_path, ("LineId", "EventId"))
    line_ids = ingest.line_ids((row["line_id"] for row in parsed), parsed_path,
                               "line_id")
    truth_ids = ingest.line_ids((row["LineId"] for row in truth), truth_path, "LineId")
    predicted_groups = {i: row["template_id"] for i, row in zip(line_ids, parsed)}
    truth_groups = {i: row["EventId"] for i, row in zip(truth_ids, truth)}
    pa = evaluation.parsing_accuracy(predicted_groups, truth_groups)
    distance = None
    if "EventTemplate" in truth[0]:
        by_line = {i: row["template"] for i, row in zip(line_ids, parsed)}
        distance = evaluation.mean_template_edit_distance(
            [by_line[i] for i in truth_ids], [row["EventTemplate"] for row in truth],
            pattern)
    return pa, distance


def cmd_eval(args) -> int:
    """Score a batch of jobs; --parsed/--truth is a batch of one job with
    no config."""
    started = time.time()
    if args.batch and (args.parsed or args.truth or args.dataset):
        raise ConfigError("--batch takes its parsed, truth and dataset from the "
                          "jobs file; drop --parsed, --truth and --dataset")
    pattern = WHITESPACE_FILTER
    if args.config:
        pattern = ingest.load_config(args.config).tokenization_filter
    if args.batch:
        jobs = ingest.read_table(args.batch, ("dataset", "parsed", "truth"),
                                 optional=("config",))
        if not jobs:
            raise ValidationError(f"{args.batch}: no evaluation jobs")
        dataset_label = f"batch of {len(jobs)}"
    elif args.parsed and args.truth:
        dataset_label = args.dataset or Path(args.truth).stem
        jobs = [{"dataset": dataset_label, "parsed": args.parsed, "truth": args.truth}]
    else:
        raise ConfigError("eval needs --parsed and --truth (or --batch)")
    rows = []
    accuracies = []
    for job in jobs:
        job_pattern = pattern
        if job.get("config"):
            job_pattern = ingest.load_config(job["config"]).tokenization_filter
        pa, distance = _evaluate_pair(job["parsed"], job["truth"], job_pattern)
        accuracies.append(pa)
        rows.append((job["dataset"], f"{pa:.6f}",
                     "" if distance is None else f"{distance:.6f}"))
    _write_csv(args.out, ["dataset", "parsing_accuracy", "mean_edit_distance"], rows)
    outputs = [args.out]
    if args.batch:
        summary = evaluation.robustness_summary(accuracies)
        robustness_path = Path(args.out).with_suffix(".robustness.csv")
        _write_csv(robustness_path, ["min", "q1", "median", "q3", "max"],
                   [tuple(f"{summary[k]:.6f}"
                          for k in ("min", "q1", "median", "q3", "max"))])
        outputs.append(robustness_path)
    _write_manifest(args.out, "eval", dataset_label,
                    {"parsed": args.parsed, "truth": args.truth,
                     "batch": args.batch, "tokenization_filter": pattern},
                    None, started, outputs)
    return 0


def cmd_detect(args) -> int:
    started = time.time()
    if args.sweep and args.mode != "unsupervised":
        raise ConfigError("--sweep applies to unsupervised mode only")
    seed = _resolve_seed(args.seed)
    records = ingest.load_labeled_bgl(args.data, fraction=args.fraction)
    model_config = replace(anomaly.AnomalyConfig().model, epsilon=args.epsilon, seed=seed,
                           tokenization_filter=args.filter or anomaly.DEFAULT_FILTER,
                           **_model_dims(args))
    config = anomaly.AnomalyConfig(delta=args.delta, normal_only=args.train_normal_only,
                                   model=model_config)
    if args.mode == "unsupervised":
        metrics, verdicts, model = anomaly.run_unsupervised_study(records, config)
    else:
        metrics, verdicts, model = anomaly.run_supervised_study(records, config)
    _write_csv(args.out, ["line_id", "fraction", "verdict", "label"],
               [(v.line_id, f"{v.fraction:.6f}", v.verdict, v.label)
                for v in verdicts])
    metrics_path = Path(args.out).with_suffix(".metrics.csv")
    _write_csv(metrics_path,
               ["accuracy", "precision", "recall", "f1",
                "true_positives", "false_positives", "true_negatives",
                "false_negatives"],
               [(f"{metrics.accuracy:.6f}", f"{metrics.precision:.6f}",
                 f"{metrics.recall:.6f}", f"{metrics.f1:.6f}",
                 metrics.true_positives, metrics.false_positives,
                 metrics.true_negatives, metrics.false_negatives)])
    outputs = [args.out, metrics_path]
    if args.sweep:
        sweep_path = Path(args.out).with_suffix(".sweep.csv")
        sweep_rows = [(f"{delta:.1f}", f"{m.accuracy:.6f}", f"{m.precision:.6f}",
                       f"{m.recall:.6f}", f"{m.f1:.6f}")
                      for delta, m in anomaly.sweep_deltas(
                          [v.fraction for v in verdicts],
                          [v.label for v in verdicts])]
        _write_csv(sweep_path, ["delta", "accuracy", "precision", "recall", "f1"],
                   sweep_rows)
        outputs.append(sweep_path)
    _write_manifest(args.out, "detect", Path(args.data).stem,
                    {"data": str(args.data), "mode": args.mode,
                     "epsilon": args.epsilon, "delta": args.delta,
                     "fraction": args.fraction,
                     "train_normal_only": args.train_normal_only,
                     "tokenization_filter": model_config.tokenization_filter,
                     **_model_dims(args),
                     "min_count": model.config.min_count,
                     "vocab_size": model.config.vocab_size,
                     "frame_length": model.config.frame_length},
                    seed, started, outputs)
    log.info("%s detection: accuracy %.4f precision %.4f recall %.4f F1 %.4f",
             args.mode, metrics.accuracy, metrics.precision, metrics.recall,
             metrics.f1)
    return 0


def _add_model_dims(parser: argparse.ArgumentParser) -> None:
    for name, text in MODEL_DIMS.items():
        default = getattr(ModelConfig, name)
        parser.add_argument(f"--{name.replace('_', '-')}", type=int, default=default,
                            help=f"{text} (default {default})")


def _model_dims(args) -> dict[str, int]:
    return {name: getattr(args, name) for name in MODEL_DIMS}


def build_parser() -> _Parser:
    parser = _Parser(prog="nulog",
                     description="Self-supervised log template extraction "
                                 "and anomaly detection.")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    p_train = sub.add_parser("train", help="train a masked-token model")
    p_train.add_argument("--data", required=True,
                         help="CSV with LineId and Content columns")
    p_train.add_argument("--config", help="key=value dataset config file")
    p_train.add_argument("--out-model", required=True,
                         help="output archive path")
    p_train.add_argument("--seed", type=int,
                         help=f"RNG seed (default: NULOG_SEED or {ModelConfig.seed})")
    _add_model_dims(p_train)
    p_train.set_defaults(func=cmd_train)

    p_parse = sub.add_parser("parse", help="extract templates with a trained "
                                           "model, tokenized by its filter")
    p_parse.add_argument("--data", required=True,
                         help="CSV with LineId and Content columns")
    p_parse.add_argument("--model", required=True, help="trained model archive")
    p_parse.add_argument("--epsilon", type=int,
                         help="top-rank threshold (default: the one the "
                              "archive records)")
    p_parse.add_argument("--out", required=True, help="parsed-message CSV path")
    p_parse.set_defaults(func=cmd_parse)

    p_eval = sub.add_parser("eval", help="score parsed output against truth")
    p_eval.add_argument("--parsed", help="parsed-message CSV from the parse step")
    p_eval.add_argument("--truth",
                        help="structured CSV with LineId/EventId columns")
    p_eval.add_argument("--batch",
                        help="CSV of jobs with dataset,parsed,truth[,config] columns")
    p_eval.add_argument("--config",
                        help="dataset config supplying the normalization filter")
    p_eval.add_argument("--dataset", help="dataset label for the report")
    p_eval.add_argument("--out", required=True, help="evaluation report CSV path")
    p_eval.set_defaults(func=cmd_eval)

    p_detect = sub.add_parser("detect", help="run an anomaly case study")
    p_detect.add_argument("--data", required=True,
                          help="raw log with a leading alert field per line")
    p_detect.add_argument("--mode", required=True,
                          choices=["unsupervised", "supervised"])
    p_detect.add_argument("--epsilon", type=int, default=ModelConfig.epsilon,
                          help=f"top-rank threshold (default {ModelConfig.epsilon})")
    p_detect.add_argument("--delta", type=float, default=anomaly.AnomalyConfig.delta,
                          help="surprising-token fraction threshold "
                               f"(default {anomaly.AnomalyConfig.delta})")
    p_detect.add_argument("--fraction", type=float, default=1.0,
                          help="leading fraction of the file to use (default 1.0)")
    p_detect.add_argument("--filter",
                          help="tokenization filter (default: alert-log filter)")
    p_detect.add_argument("--train-normal-only", action="store_true",
                          help="drop labeled anomalies from the training split")
    p_detect.add_argument("--sweep", action="store_true",
                          help="also report metrics over a grid of deltas")
    p_detect.add_argument("--seed", type=int,
                          help=f"RNG seed (default: NULOG_SEED or {ModelConfig.seed})")
    p_detect.add_argument("--out", required=True, help="verdict CSV path")
    _add_model_dims(p_detect)
    p_detect.set_defaults(func=cmd_detect)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"nulog: i/o error: {exc}\n")
        return EXIT_IO
    except ConfigError as exc:
        sys.stderr.write(f"nulog: config error: {exc}\n")
        return EXIT_CONFIG
    except ValidationError as exc:
        sys.stderr.write(f"nulog: validation error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
