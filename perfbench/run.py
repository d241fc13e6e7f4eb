"""Benchmark for nulog: train, parse and detect on seeded synthetic corpora.

Run from the root of a nulog checkout:

    python3 perfbench/run.py --workload synth2k-unique --seed 1 --seconds 40 --trace 0

The run generates its corpus from --seed, runs the workload's nulog
commands in process through nulog.cli.main, one at a time, repeating the
set while another one fits in --seconds, and checks every output. It
prints one line per metric, then as its last line a JSON object with
"correct", "attempted" and "failed" (counted in commands) and "metrics".
With --trace 0 the metrics are the end-to-end ones, medians over the
repeats. With --trace 1 it runs the set once untraced and once with every
layer wrapped, and reports per-layer metrics of the traced run. The exit
code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread unless the caller chose otherwise: at this model's matrix
# sizes a second thread on a 2-core machine gave no speed-up and doubled
# the run-to-run spread. Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import checks  # noqa: E402
import corpora  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
APACHE_CONFIG = ROOT / "configs" / "apache.conf"
OUT = ROOT / ".perfbench"

WORKLOADS = ("synth2k-unique", "synth2k-repeat", "bgl-longtail")
BGL_LINES = 600
SETUP_REPEATS = 7
# parse of synth2k-repeat takes half a second; repeat it until this much
# parse time has passed and keep the median, so that one hiccup does not
# decide the run's label rate
PARSE_SECONDS = 2.0

# (name, unit) of every end-to-end metric, as BENCHMARK.json lists them
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("train_msgs_per_s", "1/s"),
    ("label_msgs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
# reported on every run next to the end-to-end metrics, without a bound
REPORTED = {
    "parse_msgs_per_s": "1/s",
    "detect_unsupervised_msgs_per_s": "1/s",
    "detect_supervised_msgs_per_s": "1/s",
    "train_final_loss": "nats",
    "group_accuracy": "ratio",
    "template_edit_distance": "chars",
    "detect_unsupervised_f1": "ratio",
    "detect_supervised_f1": "ratio",
    "failed_share": "ratio",
}


class Cycle:
    """One pass over the workload's commands and what checking it found."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.metrics: dict[str, float] = {}
        self.fingerprint: dict[str, object] = {}
        self.problems: list[str] = []
        self.commands = 0
        self.commands_failed = 0
        self.messages = 0
        self.messages_failed = 0

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())


def generate(workload: str, seed: int, work: Path) -> corpora.Corpus:
    if workload == "bgl-longtail":
        corpus = corpora.bgl_longtail(seed, BGL_LINES)
        corpora.write_alert_log(corpus, work / "input.log")
    else:
        corpus = corpora.synth(workload, seed)
        corpora.write_loghub(corpus, work / "input.csv", work / "truth.csv")
    return corpus


def setup(workload: str, seed: int, work: Path) -> tuple[corpora.Corpus, float]:
    """Start-up of a fresh interpreter importing nulog, plus generating and
    writing the corpus; the median of SETUP_REPEATS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nulog.cli"], env=env,
                       cwd=ROOT, check=True, timeout=120)
        corpus = generate(workload, seed, work)
        times.append(time.perf_counter() - start)
    return corpus, statistics.median(times)


def run_command(cycle: Cycle, tracer, key: str, argv: list[str], lines: int) -> bool:
    """Run one nulog command in process, timed under key; a raise or a
    non-zero exit fails the command and every line it was given."""
    from nulog import cli
    cmd = argv[0]
    cycle.commands += 1
    cycle.messages += lines
    start = time.perf_counter()
    try:
        code = tracer.call(f"cli.{cmd}", cli.main, argv)
    except Exception:
        traceback.print_exc()
        code = "an exception"
    cycle.seconds[key] = time.perf_counter() - start
    if code != 0:
        cycle.problems.append(f"nulog {cmd} ended with {code}")
        cycle.commands_failed += 1
        cycle.messages_failed += lines
        return False
    return True


def truncated(tracer) -> int:
    return int(tracer.counts["tokenizer.messages_truncated"])


def synth_cycle(cycle: Cycle, tracer, corpus: corpora.Corpus, work: Path,
                parse_seconds: float) -> None:
    n = len(corpus.contents)
    data, truth = str(work / "input.csv"), str(work / "truth.csv")
    archive, parsed, report = work / "model.nulog", work / "parsed.csv", work / "report.csv"
    ok = run_command(cycle, tracer, "train",
                     ["train", "--data", data, "--config", str(APACHE_CONFIG),
                      "--out-model", str(archive)], n)
    cut_in_train = truncated(tracer)
    parses: list[float] = []
    while ok and (not parses or sum(parses) < parse_seconds):
        ok = run_command(cycle, tracer, "parse",
                         ["parse", "--data", data, "--model", str(archive),
                          "--out", str(parsed)], n)
        parses.append(cycle.seconds["parse"])
    if ok:
        cycle.seconds["parse"] = statistics.median(parses)
    ok = ok and run_command(cycle, tracer, "eval",
                            ["eval", "--parsed", str(parsed), "--truth", truth,
                             "--config", str(APACHE_CONFIG), "--out", str(report)], n)
    tracer.restore()  # the checks below call nulog too; keep them out of the spans
    if not ok:
        return
    problem = checks.archive_resave_problem(archive, work / "resaved.nulog")
    if problem:
        cycle.problems.append(problem)
    rows = checks.read_rows(parsed)
    bad = checks.parse_failures(rows, corpus.contents, corpus.filter_pattern)
    cycle.problems.extend(bad[:5])
    # a line truncated while parsing also fails to rebuild, so it is in bad
    cycle.messages_failed += cut_in_train + len(bad)
    predicted = {int(r["line_id"]): r["template_id"] for r in rows}
    accuracy = checks.group_accuracy(
        predicted, dict(enumerate(corpus.event_ids, start=1)))
    reported = checks.read_rows(report)[0]
    if abs(float(reported["parsing_accuracy"]) - accuracy) > 1e-6:
        cycle.problems.append(f"eval reports group accuracy "
                              f"{reported['parsing_accuracy']}, rows give {accuracy:.6f}")
    from nulog.ingest import load_config
    epochs = load_config(APACHE_CONFIG).epochs
    cycle.metrics.update({
        "train_msgs_per_s": n * epochs / cycle.seconds["train"],
        "label_msgs_per_s": n / cycle.seconds["parse"],
        "parse_msgs_per_s": n / cycle.seconds["parse"],
        "group_accuracy": accuracy,
        "template_edit_distance": float(reported["mean_edit_distance"]),
    })
    cycle.fingerprint.update({"archive_sha256": checks.sha256(archive),
                              "parsed_sha256": checks.sha256(parsed),
                              "group_accuracy": accuracy})


def bgl_cycle(cycle: Cycle, tracer, corpus: corpora.Corpus, work: Path) -> None:
    from nulog.anomaly import AnomalyConfig
    defaults = AnomalyConfig()
    n = len(corpus.contents)
    cut = int(n * defaults.train_fraction)
    labels = ["normal" if a == "-" else "anomaly" for a in corpus.alerts[cut:]]
    succeeded, truncations = {}, {}
    for mode in ("unsupervised", "supervised"):
        before = truncated(tracer)
        succeeded[mode] = run_command(
            cycle, tracer, f"detect_{mode}",
            ["detect", "--data", str(work / "input.log"), "--mode", mode,
             "--out", str(work / f"{mode}.csv")], n)
        truncations[mode] = truncated(tracer) - before
    tracer.restore()  # the checks below stay out of the spans
    for mode in ("unsupervised", "supervised"):
        if not succeeded[mode]:
            continue
        out = work / f"{mode}.csv"
        # a truncated message is scored on part of its tokens
        failed = truncations[mode]
        rows = checks.read_rows(out)
        expected = [str(i) for i in range(cut + 1, n + 1)]
        if [r["line_id"] for r in rows] != expected:
            cycle.problems.append(f"detect {mode} wrote {len(rows)} rows, not one "
                                  f"per test line {cut + 1}..{n}")
            failed = max(failed, abs(len(expected) - len(rows)))
        elif [r["label"] for r in rows] != labels:
            cycle.problems.append(f"detect {mode} mislabels the test lines")
        verdicts = [r["verdict"] for r in rows]
        if not set(verdicts) <= {"normal", "anomaly"}:
            cycle.problems.append(f"detect {mode} wrote verdicts {sorted(set(verdicts))}")
        score = checks.f1(verdicts, [r["label"] for r in rows])
        reported = float(checks.read_rows(out.with_suffix(".metrics.csv"))[0]["f1"])
        if abs(reported - score) > 1e-6:
            cycle.problems.append(f"detect {mode} reports F1 {reported}, rows give {score:.6f}")
        cycle.messages_failed += failed
        cycle.metrics[f"detect_{mode}_f1"] = score
        cycle.metrics[f"detect_{mode}_msgs_per_s"] = n / cycle.seconds[f"detect_{mode}"]
        cycle.fingerprint[f"{mode}_sha256"] = checks.sha256(out)
    if all(succeeded.values()):
        # supervised detect pretrains and then fine-tunes on the training split
        epochs = defaults.epochs_unsupervised + defaults.epochs_finetune
        cycle.metrics["train_msgs_per_s"] = cut * epochs / cycle.seconds["detect_supervised"]
        cycle.metrics["label_msgs_per_s"] = cycle.metrics["detect_unsupervised_msgs_per_s"]


def run_cycle(workload: str, corpus: corpora.Corpus, work: Path, full: bool):
    from layers import instrument
    from spans import Tracer
    cycle, tracer = Cycle(), Tracer()
    instrument(tracer, full)
    try:
        if workload == "bgl-longtail":
            bgl_cycle(cycle, tracer, corpus, work)
        else:
            # the traced pass parses once, so its per-layer counts are per parse
            synth_cycle(cycle, tracer, corpus, work, 0.0 if full else PARSE_SECONDS)
    finally:
        tracer.restore()
    if cycle.commands_failed == 0:
        cycle.metrics["wall_s"] = cycle.wall
        cycle.metrics["train_final_loss"] = tracer.counts["train.final_loss"]
    cycle.metrics["failed_share"] = cycle.messages_failed / cycle.messages
    if tracer.missing:
        print(f"not found in nulog, not measured: {', '.join(tracer.missing)}",
              file=sys.stderr)
    return cycle, tracer


def source_digest() -> str:
    """Hash of the program and benchmark sources and the config they read."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")) + [APACHE_CONFIG]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read through ctypes when it is loaded."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(seed: int, digest: str) -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "source_sha256": digest,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def check_repeatable(workload: str, seed: int, digest: str,
                     cycles: list[Cycle]) -> list[str]:
    """Outputs of one source tree at one seed must not change: across the
    cycles of this run, and against the first run recorded in OUT/state."""
    prints = [c.fingerprint for c in cycles if c.fingerprint]
    if not prints:
        return []
    problems = [f"cycle {i + 1} differs from cycle 1: {p} vs {prints[0]}"
                for i, p in enumerate(prints) if p != prints[0]]
    state = OUT / "state" / f"{digest[:16]}-{workload}-{seed}.json"
    if state.exists():
        recorded = json.loads(state.read_text(encoding="utf-8"))
        if recorded != prints[0]:
            problems.append(f"outputs differ from an earlier run of the same "
                            f"sources and seed: {prints[0]} vs {recorded}")
    else:
        state.parent.mkdir(parents=True, exist_ok=True)
        partial = state.with_suffix(".tmp")
        partial.write_text(json.dumps(prints[0], sort_keys=True), encoding="utf-8")
        partial.replace(state)
    return problems


def median_metrics(cycles: list[Cycle]) -> dict[str, float]:
    names = {name for c in cycles for name in c.metrics}
    return {name: statistics.median(c.metrics[name] for c in cycles if name in c.metrics)
            for name in names}


def trace_metrics(workload, seed, env, untraced: Cycle, traced: Cycle, tracer):
    from layers import COMMANDS, PER_LAYER, layer_metrics
    values, roots = layer_metrics(tracer)
    problems = []
    for index, (wall, summed) in roots.items():
        name = tracer.spans[index][0]
        print(f"{name}: traced wall {wall:.6f} s, sum of self times {summed:.6f} s")
        if abs(wall - summed) > 1e-6 * max(1.0, wall):
            problems.append(f"{name}: self times sum to {summed}, not {wall}")
    traced_wall = sum(wall for wall, _ in roots.values())
    quality = traced.metrics
    values.update({
        "cli.self_s": sum(values[f"cli.{c}.self_s"] for c in COMMANDS),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced.wall,
        "evaluation.group_accuracy": quality.get("group_accuracy", 0.0),
        "evaluation.template_edit_distance": quality.get("template_edit_distance", 0.0),
        "anomaly.unsupervised_f1": quality.get("detect_unsupervised_f1", 0.0),
        "anomaly.supervised_f1": quality.get("detect_supervised_f1", 0.0),
        "cli.failed_share": quality["failed_share"],
    })
    print(f"tracing overhead: {values['trace.overhead_s']:.3f} s "
          f"(traced wall {traced_wall:.3f} s, untraced {untraced.wall:.3f} s)")
    path = OUT / f"trace-{workload}.jsonl"
    tracer.write(path, {"workload": workload, "seed": seed, "env": env})
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nulog" / "cli.py").is_file() or not APACHE_CONFIG.is_file():
        sys.stderr.write(f"{ROOT} is not the root of a nulog checkout "
                         f"(src/nulog and configs/apache.conf are needed)\n")
        return 2
    os.environ.pop("NULOG_SEED", None)
    sys.path.insert(0, str(SRC))
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    corpus, setup_s = setup(args.workload, args.seed, work)
    digest = source_digest()
    env = environment(args.seed, digest)
    print("env", json.dumps(env, sort_keys=True))
    print("corpus", json.dumps({"workload": args.workload, **corpus.stats()}))
    cycles = []
    start = time.perf_counter()
    if args.trace:
        untraced, _ = run_cycle(args.workload, corpus, work, full=False)
        traced, tracer = run_cycle(args.workload, corpus, work, full=True)
        cycles = [untraced, traced]
        metrics, problems = trace_metrics(args.workload, args.seed, env,
                                          untraced, traced, tracer)
    else:
        while True:
            cycles.append(run_cycle(args.workload, corpus, work, full=False)[0])
            typical = statistics.median(c.wall for c in cycles)
            if time.perf_counter() - start + typical > args.seconds:
                break
        values = median_metrics(cycles)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = []
        missing = [name for name, _ in END_TO_END if name not in values]
        if missing:
            problems.append(f"no value for {missing}")
        metrics = {name: (values[name], unit) for name, unit in END_TO_END
                   if name in values}
        for name, unit in REPORTED.items():
            if name in values:
                print(f"metric {name} {values[name]:.6g} {unit}")
    problems += [p for c in cycles for p in c.problems]
    problems += check_repeatable(args.workload, args.seed, digest, cycles)
    print(f"cycles: {len(cycles)}; command seconds: "
          + "; ".join(", ".join(f"{k} {v:.3f}" for k, v in c.seconds.items())
                      for c in cycles))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(c.commands for c in cycles),
        "failed": sum(c.commands_failed for c in cycles),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
