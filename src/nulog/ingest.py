"""Input handling: structured benchmark CSVs, raw labeled logs, and the
key=value dataset config format.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, SchemaError, ValidationError
from .tokenizer import compile_filter

log = logging.getLogger(__name__)

NORMAL = "normal"
ANOMALY = "anomaly"


@dataclass
class LogRecord:
    """One log message plus whatever ground truth the source carried."""

    line_id: int
    content: str
    event_id: str | None = None
    template: str | None = None
    label: str | None = None


@dataclass
class DatasetConfig:
    """Per-dataset knobs: how to split tokens and how hard to train."""

    name: str
    tokenization_filter: str
    epochs: int = 5
    epsilon: int = 50

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("dataset name must be non-empty")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.epsilon < 1:
            raise ValidationError(f"epsilon must be >= 1, got {self.epsilon}")
        compile_filter(self.tokenization_filter)


_CONFIG_KEYS = ("name", "tokenization_filter", "epochs", "epsilon")
_INT_KEYS = ("epochs", "epsilon")


def load_config(path: str | Path) -> DatasetConfig:
    """Parse a key=value config file.

    Blank lines and lines starting with '#' are skipped. The value is
    everything right of the first '=', stripped, so filter patterns may
    themselves contain '='. Unknown or duplicate keys are rejected with
    their line number.
    """
    fields: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in fields:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            fields[key] = value.strip()
    for required in ("name", "tokenization_filter"):
        if required not in fields:
            raise ConfigError(f"{path}: missing required key {required!r}")
    numbers: dict[str, int] = {}
    for key in _INT_KEYS:
        if key in fields:
            try:
                numbers[key] = int(fields[key])
            except ValueError:
                raise ConfigError(
                    f"{path}: {key} must be an integer, got {fields[key]!r}") from None
    try:
        return DatasetConfig(name=fields["name"],
                             tokenization_filter=fields["tokenization_filter"], **numbers)
    except ValidationError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def reject_repeats(ids, path, column: str) -> None:
    """A repeated line id would silently overwrite the line it repeats."""
    seen = set()
    for line_id in ids:
        if line_id in seen:
            raise SchemaError(f"{path}: {column} {line_id} appears more than once")
        seen.add(line_id)


def load_loghub_csv(path: str | Path) -> list[LogRecord]:
    """Read a benchmark CSV in file order.

    Content is the only required column. LineId, EventId, and EventTemplate
    populate the record when present; otherwise line ids are assigned from
    the row position. A line id may appear once. A header-only file yields
    an empty list.
    """
    records: list[LogRecord] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        if "Content" not in header:
            raise SchemaError(f"{path}: no Content column, found {header}")
        for position, row in enumerate(reader, start=1):
            raw_id = row.get("LineId")
            try:
                line_id = int(raw_id) if raw_id not in (None, "") else position
            except ValueError:
                raise SchemaError(
                    f"{path}: LineId {raw_id!r} on data row {position} "
                    f"is not an integer") from None
            if row["Content"] is None:
                raise SchemaError(f"{path}: data row {position} has no Content cell")
            records.append(LogRecord(line_id=line_id, content=row["Content"],
                                     event_id=row.get("EventId"),
                                     template=row.get("EventTemplate")))
    reject_repeats((r.line_id for r in records), path, "LineId")
    return records


def load_labeled_bgl(path: str | Path, fraction: float = 1.0) -> list[LogRecord]:
    """Read a raw alert-prefixed log where the first whitespace-delimited
    field is '-' for normal lines and an alert code otherwise.

    Only the leading alert field is stripped from the content; the rest of
    the line (timestamps included) is kept verbatim. With fraction < 1 the
    leading int(n * fraction) lines are returned, preserving file order.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"fraction must be in (0, 1], got {fraction}")
    path = Path(path)
    with open(path, encoding="utf-8", errors="replace") as fh:
        total = sum(1 for line in fh if line.strip())
    if total == 0:
        raise ValidationError(f"{path}: no log lines")
    keep = max(1, int(total * fraction))
    records: list[LogRecord] = []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split(None, 1)
            alert = parts[0]
            content = parts[1] if len(parts) > 1 else ""
            label = NORMAL if alert == "-" else ANOMALY
            records.append(LogRecord(line_id=len(records) + 1,
                                     content=content, label=label))
            if len(records) >= keep:
                break
    log.info("loaded %d/%d lines from %s (%d anomalies)",
             len(records), total, path.name,
             sum(1 for r in records if r.label == ANOMALY))
    return records
