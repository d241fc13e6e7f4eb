"""Tests for parsing accuracy, edit distance, template normalization, and
the robustness summary. Reference implementations here are deliberately
naive so they cannot share bugs with the vectorized versions.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nulog.errors import ValidationError
from nulog.evaluation import (levenshtein, mean_template_edit_distance,
                              normalize_template, parsing_accuracy,
                              robustness_summary)
from nulog.extraction import PLACEHOLDER


def oracle_accuracy(predicted: dict, truth: dict) -> float:
    """Set-comparison reference, one message at a time."""
    correct = 0
    for key in predicted:
        pred_set = {k for k in predicted if predicted[k] == predicted[key]}
        true_set = {k for k in truth if truth[k] == truth[key]}
        if pred_set == true_set:
            correct += 1
    return correct / len(predicted)


def oracle_levenshtein(a: str, b: str) -> int:
    """Classic full-matrix dynamic program."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + cost)
    return table[m][n]


class TestParsingAccuracy:
    def test_one_of_three_fixture(self):
        # prediction merges two groups: only the singleton survives
        predicted = {1: "e1", 2: "e2", 3: "e2"}
        truth = {1: "e1", 2: "e4", 3: "e5"}
        assert parsing_accuracy(predicted, truth) == pytest.approx(1 / 3)

    def test_perfect_grouping_under_renamed_labels(self):
        predicted = {i: f"p{i % 3}" for i in range(9)}
        truth = {i: f"t{i % 3}" for i in range(9)}
        assert parsing_accuracy(predicted, truth) == 1.0

    def test_split_group_penalizes_every_member(self):
        # truth has one group of four; prediction splits it 2+2
        predicted = {1: "a", 2: "a", 3: "b", 4: "b"}
        truth = {1: "t", 2: "t", 3: "t", 4: "t"}
        assert parsing_accuracy(predicted, truth) == 0.0

    def test_empty_assignment_rejected(self):
        with pytest.raises(ValidationError):
            parsing_accuracy({}, {})

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            parsing_accuracy({1: "a"}, {2: "a"})

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_random_assignments(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 21))
        labels = int(rng.integers(1, 6))
        predicted = {i: f"p{rng.integers(labels)}" for i in range(n)}
        truth = {i: f"t{rng.integers(labels)}" for i in range(n)}
        assert parsing_accuracy(predicted, truth) == pytest.approx(
            oracle_accuracy(predicted, truth))


class TestLevenshtein:
    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3

    @pytest.mark.parametrize("a,b,expected", [
        ("", "", 0),
        ("", "abc", 3),
        ("abc", "", 3),
        ("abc", "abc", 0),
        ("flaw", "lawn", 2),
        ("ab", "ba", 2),
        ("intention", "execution", 5),
    ])
    def test_known_distances(self, a, b, expected):
        assert levenshtein(a, b) == expected

    def test_placeholder_glyphs_are_single_cells(self):
        # the marker is three code points; swapping both brackets costs two
        assert levenshtein(PLACEHOLDER, "(*)") == 2
        assert levenshtein(PLACEHOLDER, "<*>") == 2

    @given(st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_matrix_oracle(self, a, b):
        assert levenshtein(a, b) == oracle_levenshtein(a, b)

    @given(st.text(max_size=25), st.text(max_size=25), st.text(max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_metric_axioms(self, a, b, c):
        ab = levenshtein(a, b)
        assert ab == levenshtein(b, a)
        assert (ab == 0) == (a == b)
        assert ab <= levenshtein(a, c) + levenshtein(c, b)

    @given(st.text(max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_length_difference_lower_bound(self, a):
        b = a[: len(a) // 2]
        assert levenshtein(a, b) == len(a) - len(b)


class TestNormalizeTemplate:
    def test_ascii_marker_rewritten(self):
        assert normalize_template("send <*> bytes") == f"send {PLACEHOLDER} bytes"

    def test_spacing_collapses(self):
        assert normalize_template("a    b  c") == "a b c"

    def test_already_normal_is_fixed_point(self):
        text = f"open {PLACEHOLDER} failed"
        assert normalize_template(text) == text

    def test_filter_controls_the_split(self):
        # '=' is a separator under this filter, so it disappears
        assert normalize_template("key=value", pattern=r"([ |=])") == "key value"

    def test_empty_template(self):
        assert normalize_template("") == ""


class TestMeanTemplateEditDistance:
    def test_identical_lists_score_zero(self):
        templates = ["alpha beta", "gamma <*>"]
        assert mean_template_edit_distance(templates, templates) == 0.0

    def test_marker_convention_does_not_count_as_distance(self):
        predicted = [f"read {PLACEHOLDER} blocks"]
        truth = ["read <*> blocks"]
        assert mean_template_edit_distance(predicted, truth) == 0.0

    def test_mean_over_messages(self):
        predicted = ["abc", "abc"]
        truth = ["abc", "abd"]
        assert mean_template_edit_distance(predicted, truth) == pytest.approx(0.5)

    def test_repeated_pairs_hit_the_cache(self):
        predicted = ["abc"] * 1000
        truth = ["axc"] * 1000
        assert mean_template_edit_distance(predicted, truth) == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            mean_template_edit_distance(["a"], ["a", "b"])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mean_template_edit_distance([], [])

    def test_whole_message_baseline_is_same_metric(self):
        # criterion 6's baseline scores each message as its own template
        contents = ["took 31894842 ns"]
        truth = ["took <*> ns"]
        expected = levenshtein("took 31894842 ns", f"took {PLACEHOLDER} ns")
        assert mean_template_edit_distance(contents, truth) == expected
        assert expected > 0


class TestRobustnessSummary:
    def test_hand_fixture(self):
        # quartiles of 1..4 under linear interpolation
        summary = robustness_summary([4.0, 1.0, 3.0, 2.0])
        assert summary == pytest.approx({"min": 1.0, "q1": 1.75, "median": 2.5,
                                         "q3": 3.25, "max": 4.0})

    def test_single_value(self):
        summary = robustness_summary([0.9])
        assert set(summary.values()) == {0.9}

    def test_matches_percentile(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, size=11).tolist()
        summary = robustness_summary(values)
        expected = np.percentile(values, [0, 25, 50, 75, 100])
        assert list(summary.values()) == pytest.approx(list(expected))

    def test_keys_ordered_for_reporting(self):
        assert list(robustness_summary([1.0, 2.0])) == [
            "min", "q1", "median", "q3", "max"]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            robustness_summary([])
