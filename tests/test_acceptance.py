"""Acceptance gate. Each test checks one numbered criterion at its stated
tolerance and prints a single ACCEPTANCE line with the outcome.

Benchmark criteria (1-7) need the public log datasets on disk; they skip
with instructions when the files are absent. The data root is ./data or
the NULOG_DATA_ROOT environment variable, laid out as:

    <root>/loghub_2k/<Name>/<Name>_2k.log_structured.csv   (criteria 1-6)
    <root>/BGL/BGL.log                                     (criterion 7)

Property criteria (8-9) run unconditionally.
"""
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import synth
from nulog.anomaly import AnomalyConfig, run_supervised_study, run_unsupervised_study
from nulog.cli import main
from nulog.evaluation import (levenshtein, mean_template_edit_distance,
                              parsing_accuracy)
from nulog.extraction import constant_masks, parse_corpus
from nulog.ingest import load_config, load_labeled_bgl, load_loghub_csv
from nulog.masking import enumerate_masks
from nulog.model import Model, ModelConfig, train
from nulog.numerics import (Tensor, cross_entropy, finite_difference_check,
                            softmax_rows)
from nulog.persistence import load_model, save_model
from nulog.tokenizer import (CLS_ID, PAD_ID, UNK_ID, TokenSequence,
                             build_vocabulary, compile_filter,
                             compute_frame_length, frame, tokenize)

DATA_ROOT = Path(os.environ.get("NULOG_DATA_ROOT", "data"))
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BENCHMARKS = ("Apache", "HDFS", "BGL", "HPC", "Windows", "HealthApp",
              "Android", "OpenStack", "Mac", "Spark")


# conftest.py replays these in the terminal summary, after output capture
# ends, so the lines are visible in a default pytest run
ACCEPTANCE_LINES: list[str] = []


def announce(number: int, status: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {number}: {status}"
    if detail:
        line += f" - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)


def structured_csv(name: str) -> Path:
    return DATA_ROOT / "loghub_2k" / name / f"{name}_2k.log_structured.csv"


def require_files(number: int, paths) -> None:
    missing = [str(p) for p in paths if not Path(p).exists()]
    if missing:
        reason = (f"benchmark data not present: {', '.join(missing)} "
                  f"(offline environment; see README for the data layout)")
        announce(number, "SKIP", reason)
        pytest.skip(reason)


def check(number: int, ok: bool, detail: str) -> None:
    announce(number, "PASS" if ok else "FAIL", detail)
    assert ok, f"criterion {number}: {detail}"


def run_benchmark(name: str, seed: int = 7):
    """Full pipeline on one 2k benchmark: train, parse, group accuracy."""
    config = load_config(CONFIG_DIR / f"{name.lower()}.conf")
    records = load_loghub_csv(structured_csv(name))
    pattern = compile_filter(config.tokenization_filter)
    token_lists = [tokenize(r.content, pattern) for r in records]
    vocab = build_vocabulary(token_lists)
    frame_length = compute_frame_length(token_lists)
    seqs = [frame(toks, frame_length, vocab, message_index=r.line_id)
            for r, toks in zip(records, token_lists)]
    model_config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                               epochs=config.epochs, seed=seed)
    model = train(seqs, model_config, vocab=vocab)
    parsed, _, _ = parse_corpus(model, seqs, config.epsilon)
    predicted = {r.line_id: p.template_id for r, p in zip(records, parsed)}
    truth = {r.line_id: r.event_id for r in records}
    pa = parsing_accuracy(predicted, truth)
    return pa, records, parsed, config


def test_criterion_1_apache_accuracy_within_time_budget():
    require_files(1, [structured_csv("Apache")])
    started = time.monotonic()
    pa, _, _, _ = run_benchmark("Apache")
    elapsed = time.monotonic() - started
    check(1, pa >= 0.99 and elapsed <= 300,
          f"Apache PA {pa:.4f} (need >= 0.99) in {elapsed:.0f}s (budget 300s)")


def test_criterion_2_hdfs_median_of_three():
    require_files(2, [structured_csv("HDFS")])
    scores = [run_benchmark("HDFS", seed=seed)[0] for seed in (7, 8, 9)]
    median = statistics.median(scores)
    check(2, median >= 0.95,
          f"HDFS PA median {median:.4f} of {[f'{s:.4f}' for s in scores]} "
          f"(need >= 0.95)")


def test_criterion_3_bgl_accuracy():
    require_files(3, [structured_csv("BGL")])
    pa, _, _, _ = run_benchmark("BGL")
    check(3, pa >= 0.93, f"BGL PA {pa:.4f} (need >= 0.93)")


def test_criterion_4_hpc_accuracy():
    require_files(4, [structured_csv("HPC")])
    pa, _, _, _ = run_benchmark("HPC")
    check(4, pa >= 0.88, f"HPC PA {pa:.4f} (need >= 0.88)")


def test_criterion_5_ten_dataset_median():
    require_files(5, [structured_csv(name) for name in BENCHMARKS])
    scores = {}
    for name in BENCHMARKS:
        scores[name] = run_benchmark(name)[0]
    median = statistics.median(scores.values())
    detail = ", ".join(f"{n} {s:.3f}" for n, s in scores.items())
    check(5, median >= 0.93, f"median PA {median:.4f} (need >= 0.93): {detail}")


def test_criterion_6_edit_distance_beats_whole_message_baseline():
    require_files(6, [structured_csv("HDFS"), structured_csv("Mac")])
    results = {}
    for name in ("HDFS", "Mac"):
        _, records, parsed, config = run_benchmark(name)
        predicted = [p.template for p in parsed]
        truth = [r.template for r in records]
        contents = [r.content for r in records]
        distance = mean_template_edit_distance(predicted, truth,
                                               config.tokenization_filter)
        # the whole-message baseline: every message is its own template
        baseline = mean_template_edit_distance(contents, truth,
                                               config.tokenization_filter)
        results[name] = (distance, baseline)
    ok = all(2 * distance <= baseline for distance, baseline in results.values())
    hdfs_distance = results["HDFS"][0]
    detail = "; ".join(
        f"{name} ED {distance:.2f} vs baseline {baseline:.2f}"
        for name, (distance, baseline) in results.items())
    detail += (f"; HDFS mean ED {hdfs_distance:.2f} "
               f"({'<=' if hdfs_distance <= 6.0 else '>'} 6.0 indicative)")
    check(6, ok, detail + " (need 2x better than baseline on both)")


def test_criterion_7_bgl_anomaly_detection():
    raw = DATA_ROOT / "BGL" / "BGL.log"
    require_files(7, [raw])
    with open(raw, encoding="utf-8", errors="replace") as fh:
        total = sum(1 for line in fh if line.strip())
    fraction = min(1.0, 20001 / total) if total > 20000 else 1.0
    records = load_labeled_bgl(raw, fraction=fraction)
    assert len(records) >= min(total, 20000)
    config = AnomalyConfig(seed=7)
    unsup_metrics, _ = run_unsupervised_study(records, config)
    sup_metrics, _ = run_supervised_study(records, config)
    ok = unsup_metrics.f1 >= 0.90 and sup_metrics.f1 >= 0.95
    check(7, ok,
          f"{len(records)} lines: unsupervised F1 {unsup_metrics.f1:.4f} "
          f"(need >= 0.90), supervised F1 {sup_metrics.f1:.4f} (need >= 0.95)")


def _check_gradients() -> str:
    # the central-difference probe needs evaluation points where no relu
    # pre-activation sits within the step of its kink; these seed pairs
    # were screened for that, so any residual error is a real tape bug
    config = ModelConfig(vocab_size=20, frame_length=6, d=8, heads=2,
                         ffn_hidden=16, blocks=1, seed=7)
    worst = 0.0
    for init_seed, data_seed in ((0, 1), (4, 5), (10, 11)):
        model = Model(config, rng=np.random.default_rng(init_seed),
                      dtype=np.float64)
        rng = np.random.default_rng(data_seed)
        ids = rng.integers(0, config.vocab_size, size=(3, config.frame_length))
        ids[:, 0] = CLS_ID
        targets = rng.integers(0, config.vocab_size, size=3)

        def loss_fn():
            return cross_entropy(model.forward_logits(ids), targets)

        worst = max(worst, finite_difference_check(loss_fn, model.params))
    assert worst <= 1e-3, f"finite-difference gradient error {worst:.2e}"
    return f"gradient error {worst:.1e} over 3 models"


def _check_row_normalization() -> str:
    rng = np.random.default_rng(11)
    for _ in range(1000):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(2, 12))
        probs = softmax_rows(Tensor(rng.normal(0, 5, size=(rows, cols)))).data
        assert np.all(np.abs(probs.sum(axis=-1) - 1.0) <= 1e-6)
    config = ModelConfig(vocab_size=15, frame_length=5, d=8, heads=2,
                         ffn_hidden=16, seed=3)
    model = Model(config, rng=np.random.default_rng(3))
    for _ in range(1000):
        ids = rng.integers(0, 15, size=(5,))
        ids[0] = CLS_ID
        collected: list = []
        x = model.embed(ids[None, :])
        model.encoder_forward(x, collect_attention=collected)
        for weights in collected:
            sums = weights.sum(axis=-1)
            assert np.all(np.abs(sums - 1.0) <= 1e-6)
    return "softmax and attention rows sum to 1 +/- 1e-6 (1000 each)"


def _check_edit_distance() -> str:
    assert levenshtein("kitten", "sitting") == 3
    rng = np.random.default_rng(13)
    alphabet = list("abcde")
    strings = ["".join(rng.choice(alphabet, size=rng.integers(0, 20)))
               for _ in range(600)]
    pairs = 0
    for _ in range(10000):
        a, b, c = (strings[rng.integers(len(strings))] for _ in range(3))
        ab = levenshtein(a, b)
        assert ab == levenshtein(b, a)
        assert (ab == 0) == (a == b)
        assert ab <= levenshtein(a, c) + levenshtein(c, b)
        pairs += 1
    return f"edit-distance axioms on {pairs} random triples"


def _check_accuracy_oracle() -> str:
    assert parsing_accuracy({1: "e1", 2: "e2", 3: "e2"},
                            {1: "e1", 2: "e4", 3: "e5"}) == pytest.approx(1 / 3)
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        labels = int(rng.integers(1, 6))
        predicted = {i: int(rng.integers(labels)) for i in range(n)}
        truth = {i: int(rng.integers(labels)) for i in range(n)}
        correct = 0
        for key in predicted:
            pred_set = {k for k in predicted if predicted[k] == predicted[key]}
            true_set = {k for k in truth if truth[k] == truth[key]}
            correct += pred_set == true_set
        assert parsing_accuracy(predicted, truth) == pytest.approx(correct / n)
    return "group accuracy matches the brute-force oracle on 1000 assignments"


class FixedRowModel:
    """Answers every masked input with the same probability row."""

    def __init__(self, row):
        self.row = row

    def predict_masked_batch(self, samples):
        return np.tile(self.row, (len(samples), 1))


def slot_is_constant(probs, true_id, epsilon) -> bool:
    """constant_masks' verdict on a one-token message whose masked slot gets
    the distribution probs; word i of probs is vocabulary id UNK_ID + 1 + i,
    after the special ids at probability 0."""
    seq = TokenSequence(message_index=0, tokens=["w"],
                        framed_ids=np.array([CLS_ID, UNK_ID + 1 + true_id, PAD_ID]))
    row = np.concatenate([np.zeros(UNK_ID + 1), probs])
    masks, _ = constant_masks(FixedRowModel(row), [seq], epsilon)
    return bool(masks[0][0])


def _check_threshold_monotonicity() -> str:
    rng = np.random.default_rng(19)
    for _ in range(100):
        size = int(rng.integers(2, 40))
        probs = rng.dirichlet(np.ones(size))
        if rng.random() < 0.3:
            probs = np.round(probs, 2)  # provoke ties
            probs = probs / probs.sum()
        true_id = int(rng.integers(size))
        verdicts = [slot_is_constant(probs, true_id, eps)
                    for eps in range(1, size + 1)]
        assert verdicts == sorted(verdicts), "loosening the threshold flipped a constant back to variable"
    return "top-rank constancy is monotone in the threshold (100 trials)"


def _check_archive_round_trip(tmp_path: Path) -> str:
    texts = ["alpha beta 11", "alpha beta 22", "gamma delta off", "gamma on"]
    pattern = compile_filter(r"([ ])")
    token_lists = [tokenize(t, pattern) for t in texts]
    vocab = build_vocabulary(token_lists)
    frame_length = compute_frame_length(token_lists)
    seqs = [frame(toks, frame_length, vocab, message_index=i)
            for i, toks in enumerate(token_lists)]
    config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                         d=8, heads=2, ffn_hidden=16, epochs=2, batch_size=4,
                         seed=7)
    model = train(seqs, config, vocab=vocab)
    first = tmp_path / "a.nulog"
    second = tmp_path / "b.nulog"
    save_model(model, first)
    loaded = load_model(first)
    for name in model.params:
        assert loaded.params[name].data.tobytes() == \
            model.params[name].data.tobytes()
    save_model(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    return "archive round-trip is bitwise identical"


def _check_seed_determinism(tmp_path: Path) -> str:
    corpus = synth.make_corpus(per_template=20, seed=11)
    data = tmp_path / "synth.csv"
    synth.write_content_csv(data, corpus)
    config = tmp_path / "synth.conf"
    config.write_text("name=synth\ntokenization_filter=([ ])\n"
                      "epochs=2\nepsilon=12\n", encoding="utf-8")
    archives = []
    outputs = []
    for run in ("one", "two"):
        model_path = tmp_path / f"{run}.nulog"
        parsed_path = tmp_path / f"{run}.csv"
        assert main(["train", "--data", str(data), "--config", str(config),
                     "--out-model", str(model_path), "--seed", "7",
                     "--d", "16", "--heads", "2", "--ffn-hidden", "32"]) == 0
        assert main(["parse", "--data", str(data), "--model", str(model_path),
                     "--out", str(parsed_path)]) == 0
        archives.append(model_path.read_bytes())
        outputs.append(parsed_path.read_bytes()
                       + parsed_path.with_suffix(".templates.csv").read_bytes())
    assert archives[0] == archives[1], "same seed produced different archives"
    assert outputs[0] == outputs[1], "same seed produced different parse output"
    return "seed 7 reproduces archives and template tables bitwise"


def test_criterion_8_property_suite(tmp_path):
    parts = [
        _check_gradients,
        _check_row_normalization,
        _check_edit_distance,
        _check_accuracy_oracle,
        _check_threshold_monotonicity,
        lambda: _check_archive_round_trip(tmp_path),
        lambda: _check_seed_determinism(tmp_path),
    ]
    details = []
    for part in parts:
        try:
            details.append(part())
        except AssertionError as exc:
            check(8, False, f"{exc} (after: {'; '.join(details) or 'none'})")
            return
    check(8, True, "; ".join(details))


def test_benchmark_machinery_on_synthetic_stand_in(tmp_path, monkeypatch):
    """Not a numbered criterion: drives the same helper the data-gated
    criteria use, over a synthetic dataset in the benchmark layout, so the
    machinery stays verified even where the public datasets are absent.
    500 messages: the default width needs that much repetition before the
    constant and variable rank bands separate at the shipped threshold."""
    corpus = synth.make_corpus(per_template=100, seed=11)
    dataset_dir = tmp_path / "loghub_2k" / "Apache"
    dataset_dir.mkdir(parents=True)
    synth.write_structured_csv(dataset_dir / "Apache_2k.log_structured.csv",
                               corpus)
    monkeypatch.setattr(sys.modules[__name__], "DATA_ROOT", tmp_path)
    pa, records, parsed, config = run_benchmark("Apache")
    assert config.epsilon == 12
    assert len(records) == len(parsed) == len(corpus.contents)
    assert pa == 1.0
    distance = mean_template_edit_distance(
        [p.template for p in parsed], [r.template for r in records],
        config.tokenization_filter)
    assert distance == 0.0


def test_criterion_9_synthetic_oracle_recovery():
    corpus = synth.make_corpus(per_template=100, seed=11)
    pattern = compile_filter(r"([ ])")
    token_lists = [tokenize(c, pattern) for c in corpus.contents]
    vocab = build_vocabulary(token_lists)
    frame_length = compute_frame_length(token_lists)
    seqs = [frame(toks, frame_length, vocab, message_index=i + 1)
            for i, toks in enumerate(token_lists)]
    config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                         d=64, heads=4, ffn_hidden=128, blocks=1, epochs=10,
                         batch_size=32, seed=7)
    model = train(seqs, config, vocab=vocab)
    parsed, templates, _ = parse_corpus(model, seqs, epsilon=12)
    predicted = {i + 1: p.template_id for i, p in enumerate(parsed)}
    truth = {i + 1: event for i, event in enumerate(corpus.event_ids)}
    pa = parsing_accuracy(predicted, truth)
    recovered = sorted(templates)
    expected = sorted(synth.expected_templates())
    ok = pa == 1.0 and recovered == expected
    check(9, ok,
          f"synthetic corpus PA {pa:.4f} (need 1.0), "
          f"{len(templates)} templates recovered "
          f"({'exact match' if recovered == expected else 'set differs'})")
