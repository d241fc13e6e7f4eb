"""Tests for the benchmark's own arithmetic and checks.

Run from the root of the repository: python3 -m pytest perfbench
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import corpora  # noqa: E402
from spans import Tracer, self_times, subtree_self_sums, totals_by_name  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [["root", 0.0, 10.0, -1],
             ["child", 1.0, 5.0, 0],
             ["grandchild", 2.0, 3.0, 1],
             ["child", 6.0, 7.5, 0]]
    assert self_times(spans) == [10.0 - 4.0 - 1.5, 4.0 - 1.0, 1.0, 1.5]
    assert totals_by_name(spans, self_times(spans))["child"] == 3.0 + 1.5


def test_self_times_of_a_tree_sum_to_its_root_duration():
    spans = [["a", 0.0, 3.0, -1], ["b", 0.5, 2.0, 0], ["c", 0.75, 1.0, 1],
             ["d", 5.0, 9.0, -1], ["e", 6.0, 8.0, 3]]
    sums = subtree_self_sums(spans, self_times(spans))
    assert sums[0] == pytest.approx(3.0)
    assert sums[3] == pytest.approx(4.0)
    assert set(sums) == {0, 3}


def test_tracer_records_parents_and_survives_a_raise():
    class Owner:
        @staticmethod
        def inner(x):
            if x < 0:
                raise ValueError(x)
            return x * 2

        @staticmethod
        def outer(x):
            return Owner.inner(x) + 1

    original = Owner.inner
    tracer = Tracer()
    seen = []
    tracer.wrap(Owner, "outer", "layer.outer")
    tracer.wrap(Owner, "inner", "layer.inner", lambda result, args: seen.append(result))
    assert Owner.outer(3) == 7
    with pytest.raises(ValueError):
        Owner.outer(-1)
    tracer.restore()
    assert Owner.inner is original
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("layer.outer", -1), ("layer.inner", 0),
                     ("layer.outer", -1), ("layer.inner", 2)]
    assert all(end >= start for _, start, end, _ in tracer.spans)
    assert seen == [6]


def test_rebuild_fills_placeholders_in_order():
    assert checks.rebuild("User ⟨*⟩ logged in after ⟨*⟩ retries", ["bob", "3"]) == \
        ["User", "bob", "logged", "in", "after", "3", "retries"]
    assert checks.rebuild("", []) == []
    assert checks.rebuild("a ⟨*⟩", []) is None


def _row(line_id, template, variables):
    return {"line_id": str(line_id), "template": template,
            "variables": json.dumps(variables)}


def test_parse_failures_catch_dropped_tokens_and_missing_rows():
    contents = ["a b c", "a b c x y z w", "q"]
    good = [_row(1, "a ⟨*⟩ c", ["b"]), _row(2, "a ⟨*⟩ c x y z w", ["b"]),
            _row(3, "⟨*⟩", ["q"])]
    assert checks.parse_failures(good, contents, r"([ ])") == []
    # the silent-truncation shape: the tail tokens are in neither field
    dropped = [good[0], _row(2, "a ⟨*⟩ c", ["b"]), good[2]]
    problems = checks.parse_failures(dropped, contents, r"([ ])")
    assert len(problems) == 1 and problems[0].startswith("line 2:")
    assert len(checks.parse_failures(good[:2], contents, r"([ ])")) == 1


def test_group_accuracy_matches_nulog():
    from nulog.evaluation import parsing_accuracy
    predicted = {1: "t0", 2: "t0", 3: "t1", 4: "t2", 5: "t2"}
    truth = {1: "E1", 2: "E1", 3: "E2", 4: "E2", 5: "E3"}
    assert checks.group_accuracy(predicted, truth) == parsing_accuracy(predicted, truth)
    assert checks.group_accuracy(predicted, truth) == pytest.approx(0.4)


def test_f1_matches_nulog():
    from nulog.anomaly import compute_metrics
    verdicts = ["anomaly", "normal", "anomaly", "normal", "anomaly"]
    labels = ["anomaly", "anomaly", "normal", "normal", "anomaly"]
    assert checks.f1(verdicts, labels) == pytest.approx(
        compute_metrics(verdicts, labels).f1)
    assert checks.f1(["normal"], ["anomaly"]) == 0.0


def test_corpora_are_seeded_and_shaped():
    assert corpora.synth("synth2k-unique", 3).contents == \
        corpora.synth("synth2k-unique", 3).contents
    unique = corpora.synth("synth2k-unique", 3).stats()
    assert (unique["lines"], unique["vocab_size"], unique["distinct_shapes"]) == \
        (2000, 2428, 1601)
    assert corpora.synth("synth2k-repeat", 3).stats()["vocab_size"] == 36
    bgl = corpora.bgl_longtail(3, 600)
    stats = bgl.stats()
    assert stats["anomaly_share"] == pytest.approx(0.08)
    assert stats["train_length_max"] == 45
    assert stats["length_max"] > stats["train_length_max"]
    assert stats["source"] == "synthetic"


def test_benchmark_json_lists_what_the_run_reports():
    import layers
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
