"""Input handling: structured benchmark CSVs, raw labeled logs, and the
key=value dataset config format.
"""
from __future__ import annotations

import csv
import io
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
    # newline=None splits lines at \n, \r and \r\n, as open() does
    text = io.StringIO(_utf8(path, ConfigError), newline=None)
    for lineno, raw in enumerate(text, start=1):
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


def _utf8(path: str | Path, error: type[Exception]) -> str:
    """The text of a UTF-8 file; an undecodable byte is an error of the
    given type that names its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 ({exc.reason} at byte "
                    f"{exc.start})") from None


def read_table(path: str | Path, required: tuple[str, ...],
               optional: tuple[str, ...] = ()) -> list[dict]:
    """The rows of a CSV whose header names every required column.

    Blank rows are skipped. A row must have one cell per header column, no
    more and no fewer; only a column listed in optional may be left off a
    row, and then reads as None. A file that is not UTF-8, or that the csv
    module cannot read (a cell over its field size limit, say), is a
    SchemaError naming the line.
    """
    reader = csv.reader(io.StringIO(_utf8(path, SchemaError), newline=""))
    try:
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}, found {header}")
        width = len(header)
        rows: list[dict] = []
        for cells in reader:
            if not cells:
                continue
            if len(cells) > width:
                raise SchemaError(f"{path}: data row {len(rows) + 1} has more cells "
                                  f"than the header")
            row = dict(zip(header, cells))
            for column in header[len(cells):]:
                if column not in optional:
                    raise SchemaError(
                        f"{path}: data row {len(rows) + 1} has no {column} cell")
                row[column] = None
            rows.append(row)
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None
    return rows


def line_ids(cells, path, column: str) -> list[int]:
    """The integer line id of each data row, in order. An id may appear
    once: a repeat would silently overwrite the line it repeats."""
    ids: list[int] = []
    for position, raw in enumerate(cells, start=1):
        try:
            ids.append(int(raw))
        except ValueError:
            raise SchemaError(f"{path}: {column} {raw!r} on data row {position} "
                              f"is not an integer") from None
    seen = set()
    for line_id in ids:
        if line_id in seen:
            raise SchemaError(f"{path}: {column} {line_id} appears more than once")
        seen.add(line_id)
    return ids


def load_loghub_csv(path: str | Path) -> list[LogRecord]:
    """Read a benchmark CSV in file order, as read_table reads it.

    Content is the only required column. LineId, EventId, and EventTemplate
    populate the record when present; a missing or empty LineId is the row
    position. A header-only file yields an empty list.
    """
    rows = read_table(path, ("Content",))
    ids = line_ids((row.get("LineId") or position
                    for position, row in enumerate(rows, start=1)), path, "LineId")
    # positional arguments: keywords cost a third of this loop
    return [LogRecord(i, row["Content"], row.get("EventId"), row.get("EventTemplate"))
            for i, row in zip(ids, rows)]


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
        lines = [raw.rstrip("\n") for raw in fh if raw.strip()]
    if not lines:
        raise ValidationError(f"{path}: no log lines")
    records: list[LogRecord] = []
    for line_id, line in enumerate(lines[:max(1, int(len(lines) * fraction))], start=1):
        alert, content = (line.split(None, 1) + [""])[:2]
        records.append(LogRecord(line_id, content,
                                 label=NORMAL if alert == "-" else ANOMALY))
    log.info("loaded %d/%d lines from %s (%d anomalies)",
             len(records), len(lines), path.name,
             sum(1 for r in records if r.label == ANOMALY))
    return records
