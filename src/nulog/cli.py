"""Command-line pipeline: train, parse, eval, detect.

Every command writes a JSON manifest alongside its primary output so a run
can be reproduced from its recorded inputs and seed. Exit codes: 2 for I/O
problems, 3 for configuration problems (bad flags included), 4 for data
validation failures.
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
from pathlib import Path

from . import anomaly, evaluation, extraction, ingest, persistence
from .errors import ConfigError, ValidationError
from .model import ModelConfig, train
from .tokenizer import (WHITESPACE_FILTER, build_vocabulary, compile_filter,
                        compute_frame_length, frame, tokenize)

log = logging.getLogger(__name__)

EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_VALIDATION = 4

DEFAULT_SEED = 7

# the encoder flags every training command takes: name -> (default, help);
# each name is a ModelConfig and an AnomalyConfig field and a manifest key
MODEL_DIMS = {
    "d": (256, "embedding width"),
    "heads": (4, "attention heads"),
    "ffn_hidden": (512, "feed-forward hidden width"),
    "blocks": (1, "encoder blocks"),
    "batch_size": (32, "training batch size"),
}


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit with the config code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def _resolve_seed(value: int | None) -> int:
    """Explicit flag, then the NULOG_SEED environment variable, then 7.

    The seed must fit the archive's u32 seed field, [0, 2**32).
    """
    if value is None:
        env = os.environ.get("NULOG_SEED", str(DEFAULT_SEED))
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


def _count_truncated(token_lists: list[list[str]], corpus,
                     repeats: list[int]) -> int:
    """Lines that frame() cut short because the frame holds fewer tokens;
    the i-th token list stands for repeats[i] lines."""
    return sum(n for n, seq, tokens in zip(repeats, corpus, token_lists)
               if len(seq.tokens) < len(tokens))


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
    vocab = build_vocabulary(token_lists)
    frame_length = compute_frame_length(token_lists)
    corpus = [frame(toks, frame_length, vocab, message_index=i)
              for i, toks in enumerate(token_lists, start=1)]
    model_config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                               epochs=config.epochs, seed=seed, **_model_dims(args))
    model = train(corpus, model_config, vocab=vocab)
    persistence.save_model(model, args.out_model)
    manifest = _write_manifest(
        args.out_model, "train", config.name,
        {
            "data": str(args.data),
            "tokenization_filter": config.tokenization_filter,
            "epochs": config.epochs,
            "epsilon": config.epsilon,
            **_model_dims(args),
            "frame_length": frame_length, "vocab_size": len(vocab),
            "final_loss": model.training_losses[-1] if model.training_losses else None,
            "losses": model.training_losses,
        },
        seed, started, [args.out_model])
    log.info("trained on %d messages; archive %s, manifest %s",
             len(corpus), args.out_model, manifest)
    return 0


def _recorded_config(model_path: str | Path) -> dict:
    """The config object of the training manifest next to the archive, {}
    without one. A recorded epsilon must be an int, a filter a str."""
    path = Path(f"{model_path}.manifest.json")
    if not path.exists():
        return {}
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError(f"{path}: the manifest is not a JSON object")
    config = manifest.get("config", {})
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: 'config' is not a JSON object")
    for key, kind in (("epsilon", int), ("tokenization_filter", str)):
        if key in config and type(config[key]) is not kind:
            raise ConfigError(f"{path}: config key {key!r} must be of type "
                              f"{kind.__name__}, got {config[key]!r}")
    return config


def cmd_parse(args) -> int:
    started = time.time()
    model = persistence.load_model(args.model)
    recorded = _recorded_config(args.model)
    epsilon = args.epsilon
    if epsilon is None:
        epsilon = recorded.get("epsilon")
        if epsilon is None:
            epsilon = 50
            log.warning("no --epsilon and no manifest next to %s; using %d",
                        args.model, epsilon)
    filter_pattern = args.filter or recorded.get("tokenization_filter",
                                                 WHITESPACE_FILTER)
    pattern = compile_filter(filter_pattern)
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
    parsed, templates, scored = extraction.parse_corpus(model, corpus, epsilon)
    row_of = {content: (p.template_id, p.template,
                        json.dumps(p.variables, ensure_ascii=False))
              for content, p in zip(first_line, parsed)}
    rows = [(r.line_id, *row_of[r.content]) for r in records]
    _write_csv(args.out, ["line_id", "template_id", "template", "variables"], rows)
    counts = Counter(row[1] for row in rows)
    templates_path = Path(args.out).with_suffix(".templates.csv")
    _write_csv(templates_path, ["template_id", "template", "count"],
               [(tid, template, counts[tid]) for tid, template in enumerate(templates)])
    _write_manifest(args.out, "parse", Path(args.data).stem,
                    {"data": str(args.data), "model": str(args.model),
                     "epsilon": epsilon, "tokenization_filter": filter_pattern,
                     "lines": len(records), "distinct_lines": len(corpus),
                     "masked_samples": sum(n * len(seq.tokens)
                                           for n, seq in zip(repeats, corpus)),
                     "masked_inputs_scored": scored,
                     "messages_truncated": _count_truncated(token_lists, corpus,
                                                            repeats)},
                    None, started, [args.out, templates_path])
    log.info("parsed %d messages into %d templates", len(records), len(templates))
    return 0


def _read_table(path: str | Path, required: tuple[str, ...]) -> list[dict]:
    """The rows of a CSV with the required columns; every row must have a
    cell in each of them."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise ingest.SchemaError(f"{path}: missing columns {missing}")
        rows = list(reader)
    for position, row in enumerate(rows, start=1):
        for column in required:
            if row[column] is None:
                raise ingest.SchemaError(
                    f"{path}: data row {position} has no {column} cell")
    return rows


def _parsed_line_id(row: dict, path) -> int:
    try:
        return int(row["line_id"])
    except ValueError:
        raise ingest.SchemaError(
            f"{path}: non-integer line_id {row['line_id']!r}") from None


def _evaluate_pair(parsed_path, truth_path, pattern) -> tuple[float, float | None]:
    parsed = _read_table(parsed_path, ("line_id", "template_id", "template"))
    truth = ingest.load_loghub_csv(truth_path)
    if any(r.event_id is None for r in truth):
        raise ingest.SchemaError(f"{truth_path}: EventId column required")
    line_ids = [_parsed_line_id(row, parsed_path) for row in parsed]
    ingest.reject_repeats(line_ids, parsed_path, "line_id")
    predicted_groups = {i: row["template_id"] for i, row in zip(line_ids, parsed)}
    truth_groups = {r.line_id: r.event_id for r in truth}
    pa = evaluation.parsing_accuracy(predicted_groups, truth_groups)
    distance = None
    if all(r.template is not None for r in truth):
        by_line = {i: row["template"] for i, row in zip(line_ids, parsed)}
        pairs = [(by_line[r.line_id], r.template) for r in truth]
        distance = evaluation.mean_template_edit_distance(
            [p for p, _ in pairs], [t for _, t in pairs], pattern)
    return pa, distance


def cmd_eval(args) -> int:
    started = time.time()
    pattern = WHITESPACE_FILTER
    if args.config:
        pattern = ingest.load_config(args.config).tokenization_filter
    outputs = [args.out]
    if args.batch:
        jobs = _read_table(args.batch, ("dataset", "parsed", "truth"))
        if not jobs:
            raise ValidationError(f"{args.batch}: no evaluation jobs")
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
        _write_csv(args.out, ["dataset", "parsing_accuracy", "mean_edit_distance"],
                   rows)
        summary = evaluation.robustness_summary(accuracies)
        robustness_path = Path(args.out).with_suffix(".robustness.csv")
        _write_csv(robustness_path, ["min", "q1", "median", "q3", "max"],
                   [tuple(f"{summary[k]:.6f}"
                          for k in ("min", "q1", "median", "q3", "max"))])
        outputs.append(robustness_path)
        dataset_label = f"batch of {len(jobs)}"
    else:
        if not args.parsed or not args.truth:
            raise ConfigError("eval needs --parsed and --truth (or --batch)")
        pa, distance = _evaluate_pair(args.parsed, args.truth, pattern)
        dataset_label = args.dataset or Path(args.truth).stem
        _write_csv(args.out, ["dataset", "parsing_accuracy", "mean_edit_distance"],
                   [(dataset_label, f"{pa:.6f}",
                     "" if distance is None else f"{distance:.6f}")])
    _write_manifest(args.out, "eval", dataset_label,
                    {"parsed": args.parsed, "truth": args.truth,
                     "batch": args.batch, "tokenization_filter": pattern},
                    None, started, outputs)
    return 0


def cmd_detect(args) -> int:
    started = time.time()
    seed = _resolve_seed(args.seed)
    records = ingest.load_labeled_bgl(args.data, fraction=args.fraction)
    config = anomaly.AnomalyConfig(
        epsilon=args.epsilon, delta=args.delta, seed=seed,
        tokenization_filter=args.filter or anomaly.DEFAULT_FILTER,
        normal_only=args.train_normal_only, **_model_dims(args))
    if args.mode == "unsupervised":
        metrics, verdicts = anomaly.run_unsupervised_study(records, config)
    else:
        metrics, verdicts = anomaly.run_supervised_study(records, config)
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
    if args.sweep and args.mode == "unsupervised":
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
                     "tokenization_filter": config.tokenization_filter,
                     **_model_dims(args)},
                    seed, started, outputs)
    log.info("%s detection: accuracy %.4f precision %.4f recall %.4f F1 %.4f",
             args.mode, metrics.accuracy, metrics.precision, metrics.recall,
             metrics.f1)
    return 0


def _add_model_dims(parser: argparse.ArgumentParser) -> None:
    for name, (default, text) in MODEL_DIMS.items():
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
                         help="RNG seed (default: NULOG_SEED or 7)")
    _add_model_dims(p_train)
    p_train.set_defaults(func=cmd_train)

    p_parse = sub.add_parser("parse", help="extract templates with a trained model")
    p_parse.add_argument("--data", required=True,
                         help="CSV with LineId and Content columns")
    p_parse.add_argument("--model", required=True, help="trained model archive")
    p_parse.add_argument("--epsilon", type=int,
                         help="top-rank threshold (default: training manifest)")
    p_parse.add_argument("--filter",
                         help="tokenization filter override (default: manifest)")
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
    p_detect.add_argument("--epsilon", type=int, default=50,
                          help="top-rank threshold (default 50)")
    p_detect.add_argument("--delta", type=float, default=0.5,
                          help="surprising-token fraction threshold (default 0.5)")
    p_detect.add_argument("--fraction", type=float, default=1.0,
                          help="leading fraction of the file to use (default 1.0)")
    p_detect.add_argument("--filter",
                          help="tokenization filter (default: alert-log filter)")
    p_detect.add_argument("--train-normal-only", action="store_true",
                          help="drop labeled anomalies from the training split")
    p_detect.add_argument("--sweep", action="store_true",
                          help="also report metrics over a grid of deltas")
    p_detect.add_argument("--seed", type=int,
                          help="RNG seed (default: NULOG_SEED or 7)")
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
