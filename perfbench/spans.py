"""Outside-in spans and counters around the public functions of nulog.

Nothing here edits the program: a Tracer swaps a module or class attribute
for a timing wrapper, under the name callers look it up by, and puts the
original back in restore(). Spans are kept in memory as
[name, start, end, parent] and written out once, at the end of a run.
"""
from __future__ import annotations

import json
import time
import uuid
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    """Spans of one run, all sharing one run id, plus named counters."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, _clock(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr with make_wrapper(original); restore() undoes it.

        A name the program no longer has is listed in missing and left
        alone, so the metrics that depend on it read 0 instead of the run
        failing.
        """
        if not hasattr(owner, attr):
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of owner.attr as a span; after(result, args) may
        update counters once the call returns."""
        def make(original):
            def wrapper(*args, **kwargs):
                index = self.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end(index)
                if after is not None:
                    after(result, args)
                return result
            return wrapper
        self.patch(owner, attr, make)

    def observe(self, owner, attr: str, after) -> None:
        """Count what owner.attr returns without timing it."""
        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                after(result, args)
                return result
            return wrapper
        self.patch(owner, attr, make)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, header: dict) -> None:
        """One JSON object per line: a header, then one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, **header}) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run_id": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_, start, end, _) in enumerate(spans)]


def totals_by_name(spans: list[list], values: list[float]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for span, value in zip(spans, values):
        out[span[0]] += value
    return out


def subtree_self_sums(spans: list[list], values: list[float]) -> dict[int, float]:
    """Sum of values over each root span's whole subtree, keyed by root index.

    Parents always precede their children in the span list, so one pass
    finds each span's root.
    """
    root = [0] * len(spans)
    sums: dict[int, float] = defaultdict(float)
    for i, span in enumerate(spans):
        root[i] = i if span[3] < 0 else root[span[3]]
        sums[root[i]] += values[i]
    return sums
