"""Output checks the benchmark applies to every command it runs.

Each check recomputes a result from the benchmark's own reading of the
inputs instead of trusting the program's report.
"""
from __future__ import annotations

import csv
import hashlib
import json
import re
from collections import defaultdict
from pathlib import Path

from corpora import split_tokens

PLACEHOLDER = "⟨*⟩"


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def rebuild(template: str, variables: list[str]) -> list[str] | None:
    """The token list a template and its variables stand for, or None when
    the placeholders and the variables do not pair up."""
    parts = template.split(" ") if template else []
    if parts.count(PLACEHOLDER) != len(variables):
        return None
    values = iter(variables)
    return [next(values) if part == PLACEHOLDER else part for part in parts]


def parse_failures(rows: list[dict], contents: list[str], pattern: str) -> list[str]:
    """One problem per input line the parse output does not reproduce (a
    missing or misplaced row, or a template and variables that do not
    rebuild the line's tokens), and one for any rows beyond the input."""
    rx = re.compile(pattern)
    problems = []
    if len(rows) > len(contents):
        problems.append(f"parse wrote {len(rows)} rows for {len(contents)} lines")
    for line_id, content in enumerate(contents, start=1):
        if line_id > len(rows):
            problems.append(f"line {line_id}: no parse row")
            continue
        row = rows[line_id - 1]
        if row["line_id"] != str(line_id):
            problems.append(f"line {line_id}: row carries line_id {row['line_id']}")
            continue
        tokens = rebuild(row["template"], json.loads(row["variables"]))
        if tokens != split_tokens(content, rx):
            problems.append(f"line {line_id}: template {row['template']!r} with "
                            f"variables {row['variables']} does not rebuild {content!r}")
    return problems


def group_accuracy(predicted: dict, truth: dict) -> float:
    """Share of messages whose predicted group holds exactly the messages
    of their truth group (Zhu et al., ICSE-SEIP 2019)."""
    pred_groups, true_groups = defaultdict(set), defaultdict(set)
    for key, label in predicted.items():
        pred_groups[label].add(key)
    for key, label in truth.items():
        true_groups[label].add(key)
    correct = sum(pred_groups[predicted[k]] == true_groups[truth[k]] for k in truth)
    return correct / len(truth)


def f1(verdicts: list[str], labels: list[str], positive: str = "anomaly") -> float:
    tp = sum(v == positive and l == positive for v, l in zip(verdicts, labels))
    fp = sum(v == positive and l != positive for v, l in zip(verdicts, labels))
    fn = sum(v != positive and l == positive for v, l in zip(verdicts, labels))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def archive_resave_problem(archive: Path, scratch: Path) -> str | None:
    """Load the archive and save it again; the bytes must not change."""
    from nulog.persistence import load_model, save_model
    save_model(load_model(archive), scratch)
    if scratch.read_bytes() != archive.read_bytes():
        return f"{archive.name}: re-saving after load_model changes the bytes"
    return None
