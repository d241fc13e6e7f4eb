"""Parsing quality metrics: group-wise accuracy, character edit distance
between normalized templates, and spread summaries across datasets.
"""
from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .extraction import PLACEHOLDER
from .tokenizer import WHITESPACE_FILTER, compile_filter, tokenize


def parsing_accuracy(predicted: Mapping, truth: Mapping) -> float:
    """Fraction of messages whose predicted group matches its truth group.

    A message counts as correct only when the set of messages sharing its
    predicted label equals the set sharing its truth label, so splitting or
    merging a group penalizes every member, not just the strays.
    """
    if not predicted or not truth:
        raise ValidationError("cannot score empty assignments")
    if set(predicted) != set(truth):
        raise ValidationError("predicted and truth cover different messages")
    pred_groups: dict = defaultdict(set)
    true_groups: dict = defaultdict(set)
    for key, label in predicted.items():
        pred_groups[label].add(key)
    for key, label in truth.items():
        true_groups[label].add(key)
    correct = sum(1 for key in predicted
                  if pred_groups[predicted[key]] == true_groups[truth[key]])
    return correct / len(predicted)


def levenshtein(a: str, b: str) -> int:
    """Unit-cost character edit distance, two rows at a time.

    The row update is fully vectorized; chained insertions are resolved by
    a prefix minimum over (cost - position). '<U1' keeps one code point per
    cell so non-ASCII template markers compare correctly.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(b) > len(a):
        a, b = b, a
    target = np.array(list(b), dtype="<U1")
    positions = np.arange(len(b) + 1)
    prev = positions.copy()
    for ch in a:
        substitute = prev[:-1] + (target != ch)
        delete = prev[1:] + 1
        row = np.concatenate(([prev[0] + 1], np.minimum(substitute, delete)))
        row -= positions
        np.minimum.accumulate(row, out=row)
        prev = row + positions
    return int(prev[-1])


def normalize_template(template: str, pattern=WHITESPACE_FILTER) -> str:
    """Canonical form for comparing templates from different tools.

    The ASCII '<*>' marker is rewritten to the placeholder glyphs, then the
    string is re-split with the dataset filter and joined on single spaces,
    so spacing and separator conventions stop mattering.
    """
    compiled = compile_filter(pattern)
    replaced = template.replace("<*>", PLACEHOLDER)
    return " ".join(tokenize(replaced, compiled))


def mean_template_edit_distance(predicted: Sequence[str], truth: Sequence[str],
                                pattern=WHITESPACE_FILTER) -> float:
    """Mean per-message edit distance between normalized template pairs."""
    if len(predicted) != len(truth):
        raise ValidationError(
            f"got {len(predicted)} predictions for {len(truth)} truth templates")
    if not predicted:
        raise ValidationError("cannot score an empty template list")
    compiled = compile_filter(pattern)
    cache: dict[tuple[str, str], int] = {}
    total = 0
    for p, t in zip(predicted, truth):
        key = (p, t)
        if key not in cache:
            cache[key] = levenshtein(normalize_template(p, compiled),
                                     normalize_template(t, compiled))
        total += cache[key]
    return total / len(predicted)


def robustness_summary(values: Sequence[float]) -> dict[str, float]:
    """Five-number summary (linear-interpolation quartiles) of a score list."""
    if len(values) == 0:
        raise ValidationError("cannot summarize an empty value list")
    lo, q1, median, q3, hi = np.percentile(np.asarray(values, dtype=np.float64),
                                           [0, 25, 50, 75, 100])
    return {"min": float(lo), "q1": float(q1), "median": float(median),
            "q3": float(q3), "max": float(hi)}
