"""Seeded generators for the benchmark's synthetic corpora.

Every corpus is synthetic: no line comes from a real system. The same
seed always gives byte-identical files, and each generator returns the
ground truth the benchmark scores against.
"""
from __future__ import annotations

import csv
import random
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path

SOURCE = "synthetic"

# None marks a variable slot. Five events whose variables are either all
# distinct (unique) or drawn from one small shared pool (repeat).
SYNTH_TEMPLATES = [
    ["Connection", "from", None, "closed", "by", "peer"],
    ["User", None, "logged", "in", "after", None, "retries"],
    ["Disk", "quota", "exceeded", "on", "volume", None],
    ["Service", "heartbeat", "OK"],
    ["Failed", "to", "allocate", None, "bytes", "for", "buffer", None],
]
SYNTH_PER_TEMPLATE = 400
REPEAT_POOL = 8

# Same split rule as the detect command's default alert-log filter.
ALERT_FILTER = r"([ |:|\(|\)|=|,])|(core.)|(\.{2,})"
TRAIN_FRACTION = 0.8
ANOMALY_SHARE = 0.08

# (label, weight, body). A body is a list of parts: a str is a constant, a
# callable draws a variable value, and "REGS" expands to a register dump
# whose length gives the corpus its long tail. Anomalous events are rare.
_HEX = "0123456789abcdef"


def _hex(rng: random.Random, width: int = 8) -> str:
    return "0x" + "".join(rng.choice(_HEX) for _ in range(width))


def _num(lo: int, hi: int):
    return lambda rng: str(rng.randint(lo, hi))


_BGL_EVENTS = [
    ("-", 30, ["instruction", "cache", "parity", "error", "corrected"]),
    ("-", 20, ["generating", "core", _num(100, 9999)]),
    ("-", 15, ["ciod", "LOGIN", "chdir", "failed", "No", "such", "file", "or",
               "directory"]),
    ("-", 12, ["total", "of", _num(1, 99), "ddr", "error(s)", "detected", "and",
               "corrected", "over", _num(100, 99999), "seconds"]),
    ("-", 8, ["ciod", "Message", "code", _num(0, 9), "is", "not", "3", "or", "4"]),
    ("-", 6, ["CE", "sym", _num(0, 31), "at", _hex, "mask", _hex]),
    ("-", 2, ["program", "interrupt", "fp", "cr", "state", "REGS"]),
    ("KERNDTLB", 6, ["data", "TLB", "error", "interrupt"]),
    ("KERNRTSP", 3, ["rts", "panic!", "-", "stopping", "execution"]),
    ("KERNMC", 2, ["machine", "check", "interrupt", "REGS"]),
    ("APPSEV", 2, ["ciod", "Error", "reading", "message", "prefix", "after",
                   "LOGIN_MESSAGE", "on", "CioStream", "socket", "to",
                   _num(1, 254)]),
]
# share of anomaly lines drawn from a frequent event, relabelled
_RELABEL_SHARE = 0.01
_REGS_TRAIN_MAX = 15
_REGS_TAIL = 24


def split_tokens(content: str, rx: re.Pattern) -> list[str]:
    """Split at every match of rx, dropping the matches and empty pieces.

    This is the documented tokenizer rule, written out here so that the
    benchmark checks nulog's output against its own reading of the input.
    """
    tokens, last = [], 0
    for m in rx.finditer(content):
        if m.start() > last:
            tokens.append(content[last:m.start()])
        last = max(last, m.end())
    if last < len(content):
        tokens.append(content[last:])
    return tokens


@dataclass
class Corpus:
    """One generated corpus: raw lines plus the truth needed to score them."""

    workload: str
    contents: list[str]
    event_ids: list[str] = field(default_factory=list)
    truth_templates: list[str] = field(default_factory=list)
    alerts: list[str] = field(default_factory=list)
    filter_pattern: str = r"([ ])"

    def tokens(self) -> list[list[str]]:
        rx = re.compile(self.filter_pattern)
        return [split_tokens(content, rx) for content in self.contents]

    def stats(self) -> dict:
        """Shape of the corpus, recorded with every result."""
        toks = self.tokens()
        lengths = sorted(len(t) for t in toks)
        deciles = statistics.quantiles(lengths, n=10, method="inclusive")
        out = {
            "source": SOURCE,
            "lines": len(self.contents),
            "vocab_size": len({t for ts in toks for t in ts}) + 4,
            "distinct_shapes": len({tuple(t) for t in toks}),
            "length_p50": statistics.median(lengths),
            "length_p90": deciles[8],
            "length_max": lengths[-1],
            "anomaly_share": (sum(a != "-" for a in self.alerts) / len(self.alerts)
                              if self.alerts else 0.0),
        }
        if self.alerts:
            cut = int(len(toks) * TRAIN_FRACTION)
            out["train_length_max"] = max(len(t) for t in toks[:cut])
        return out


def synth(workload: str, seed: int) -> Corpus:
    """2,000 lines from five fixed events, interleaved at random.

    "synth2k-unique" gives every variable slot a corpus-unique value;
    "synth2k-repeat" draws every variable from one pool of REPEAT_POOL values.
    """
    rng = random.Random(f"{workload}:{seed}")
    unique = workload == "synth2k-unique"
    pool = [f"v{rng.randrange(10**6):06d}" for _ in range(REPEAT_POOL)]
    order = [k for k in range(len(SYNTH_TEMPLATES)) for _ in range(SYNTH_PER_TEMPLATE)]
    rng.shuffle(order)
    corpus = Corpus(workload=workload, contents=[])
    counter = 0
    for k in order:
        parts = []
        for part in SYNTH_TEMPLATES[k]:
            if part is not None:
                parts.append(part)
            elif unique:
                counter += 1
                parts.append(f"val{counter:05d}x{rng.randint(10, 98)}")
            else:
                parts.append(rng.choice(pool))
        corpus.contents.append(" ".join(parts))
        corpus.event_ids.append(f"E{k + 1}")
        corpus.truth_templates.append(
            " ".join("<*>" if p is None else p for p in SYNTH_TEMPLATES[k]))
    return corpus


def _bgl_header(rng: random.Random, t: int) -> list[str]:
    rack = f"R{rng.randint(0, 7):02d}-M{rng.randint(0, 1)}-N{rng.randint(0, 15)}"
    node = f"{rack}-C:J{rng.randint(2, 17):02d}-U{rng.randint(0, 1)}1"
    day = 3 + t // 86400
    stamp = (f"2005-06-{day:02d}-{(t // 3600) % 24:02d}.{(t // 60) % 60:02d}."
             f"{t % 60:02d}.{rng.randint(0, 999999):06d}")
    return [str(1117838570 + t), f"2005.06.{day:02d}", node, stamp, node,
            "RAS", "KERNEL", "INFO"]


def _bgl_body(event, rng: random.Random, regs: int) -> list[str]:
    out = []
    for part in event[2]:
        if part == "REGS":
            out.extend(f"r{i:02d}={_hex(rng)}" for i in range(regs))
        elif callable(part):
            out.append(part(rng))
        else:
            out.append(part)
    return out


def _exact_counts(events, total: int) -> list[int]:
    """Split total across events by weight, largest remainder first."""
    weight = sum(e[1] for e in events)
    shares = [total * e[1] / weight for e in events]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(len(events)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def bgl_longtail(seed: int, lines: int) -> Corpus:
    """An alert-prefixed stream ('-' is normal) with a long length tail.

    ANOMALY_SHARE of the lines are anomalies, mostly from rare events.
    Event counts are exact and only their order, values and register-dump
    lengths follow the seed, so every seed costs about the same. The
    longest dump in the leading TRAIN_FRACTION of the stream always has
    _REGS_TRAIN_MAX registers; a few dumps in the tail are longer, so they
    exceed the frame the detector sizes on its training split.
    """
    rng = random.Random(f"bgl-longtail:{seed}")
    normal = [e for e in _BGL_EVENTS if e[0] == "-"]
    anomalous = [e for e in _BGL_EVENTS if e[0] != "-"]
    dump = next(e for e in anomalous if "REGS" in e[2])
    cut = int(lines * TRAIN_FRACTION)
    tail = max(3, lines // 200)
    n_anomalous = round(lines * ANOMALY_SHARE) - tail
    relabelled = round(lines * _RELABEL_SHARE)
    events = []
    for group, count in ((normal, lines - tail - n_anomalous),
                         (anomalous, n_anomalous - relabelled)):
        for event, k in zip(group, _exact_counts(group, count)):
            events.extend([event] * k)
    for event, k in zip(normal, _exact_counts(normal, relabelled)):
        events.extend([("KERNDTLB",) + event[1:]] * k)
    rng.shuffle(events)
    tail_rows = set(rng.sample(range(cut, lines), tail))
    regs = [min(_REGS_TRAIN_MAX, 1 + int(rng.expovariate(1 / 3)))
            for _ in range(lines)]
    for row in sorted(tail_rows):
        events.insert(row, dump)
        regs[row] = rng.randint(_REGS_TRAIN_MAX + 2, _REGS_TAIL)
    longest = next(row for row in range(cut)
                   if events[row][0] == "-" and "REGS" in events[row][2])
    regs[longest] = _REGS_TRAIN_MAX
    corpus = Corpus(workload="bgl-longtail", contents=[],
                    filter_pattern=ALERT_FILTER)
    t = rng.randint(0, 3600)
    for event, n_regs in zip(events, regs):
        t += rng.randint(0, 40)
        corpus.alerts.append(event[0])
        corpus.contents.append(
            " ".join(_bgl_header(rng, t) + _bgl_body(event, rng, n_regs)))
    return corpus


def write_loghub(corpus: Corpus, lines_path: Path, truth_path: Path) -> None:
    """The input CSV (LineId, Content) and its structured truth CSV."""
    with open(lines_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["LineId", "Content"])
        writer.writerows((i, c) for i, c in enumerate(corpus.contents, start=1))
    with open(truth_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["LineId", "Content", "EventId", "EventTemplate"])
        writer.writerows((i, c, e, t) for i, (c, e, t) in enumerate(
            zip(corpus.contents, corpus.event_ids, corpus.truth_templates), start=1))


def write_alert_log(corpus: Corpus, path: Path) -> None:
    """Raw labeled log: the alert field, a space, then the message."""
    with open(path, "w", encoding="utf-8") as fh:
        for alert, content in zip(corpus.alerts, corpus.contents):
            fh.write(f"{alert} {content}\n")
