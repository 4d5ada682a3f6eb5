"""Spans and counters recorded from outside the program.

The tracer replaces a public function or method of dbesim where its caller
looks it up (a module global or a class attribute) with a wrapper that
records one span per call, and puts every original back on `restore()`.
Spans stay in memory as parallel arrays (name, start, end, parent span,
epoch id) and are written out once, when the run ends. A layer's self time
is its span durations minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import math
import time
from array import array

_clock = time.perf_counter
_MISSING = object()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.epoch = array("i")
        self.stack: list[int] = []
        self.epoch_now = 0
        self.counts: dict[str, int] = {}
        self._patches: list = []

    # --- patching ---

    def patch(self, owner, attr: str, replacement) -> None:
        """Set owner.attr to replacement; `restore()` undoes it."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def span(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Record a span named `name` around every call of owner.attr.

        `before(args)`, if given, runs at each call before the span opens
        and `after()` after it closes; they update counters and the epoch id.
        """
        fn = getattr(owner, attr)
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, epochs, stack = (
            self.name, self.start, self.end, self.parent, self.epoch, self.stack)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            epochs.append(tracer.epoch_now)
            ends.append(0.0)
            stack.append(idx)
            starts.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                stack.pop()
                if after is not None:
                    after()

        self.patch(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls of owner.attr in `counts[counter]`, without a span."""
        fn = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(counter, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def add(self, counter: str, n: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    # --- analysis ---

    def calls_under(self, name: str, parents: set) -> int:
        """Number of `name` spans whose direct parent span is named in `parents`."""
        ids = {self._ids[p] for p in parents if p in self._ids}
        nid = self._ids.get(name)
        if nid is None or not ids:
            return 0
        return sum(1 for i in range(len(self.name))
                   if self.name[i] == nid and self.parent[i] >= 0
                   and self.name[self.parent[i]] in ids)

    def self_times(self) -> array:
        """Per-span self time: duration minus the durations of direct children.

        Spans nest (one thread, stack discipline), so direct children never
        overlap and their summed durations are the time they cover.
        """
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return array("d", (self.end[i] - self.start[i] - covered[i] for i in range(n)))

    def summary(self, wall_s: float) -> dict:
        """Per-name calls, total and self time; checks the self-time arithmetic.

        Returns {"by_name": {name: {"calls", "total_s", "self_s"}},
        "top_level_s", "unattributed_s", "spans", "errors"}. The sum of all
        self times must equal the summed duration of the top-level spans,
        every self time must be non-negative and every child must lie
        inside its parent.
        """
        selfs = self.self_times()
        by_name = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        top = []
        errors = []
        for i in range(len(selfs)):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            row = by_name[name]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += selfs[i]
            p = self.parent[i]
            if p < 0:
                top.append(dur)
            elif self.start[i] < self.start[p] or self.end[i] > self.end[p]:
                errors.append(f"span {i} ({name}) lies outside its parent {p}")
            if selfs[i] < -1e-9:
                errors.append(f"span {i} ({name}) has negative self time {selfs[i]!r}")
        top_level = math.fsum(top)
        self_sum = math.fsum(selfs)
        if abs(self_sum - top_level) > 1e-6:
            errors.append(f"self times sum to {self_sum!r}, top-level spans to {top_level!r}")
        unattributed = wall_s - top_level
        if unattributed < -1e-6:
            errors.append(f"top-level spans ({top_level!r} s) exceed the wall time ({wall_s!r} s)")
        return {"by_name": by_name, "top_level_s": top_level, "unattributed_s": unattributed,
                "spans": len(selfs), "errors": errors[:10]}

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then the five arrays as raw bytes."""
        with open(path, "wb") as f:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["name:i", "start:d", "end:d", "parent:i", "epoch:i"]}
            f.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.name, self.start, self.end, self.parent, self.epoch):
                arr.tofile(f)


def check_self_time_arithmetic() -> list[str]:
    """Self times of a hand-built span tree with known durations.

    Tree: a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]. Expected
    self times: a 3, b 2, c 4, d 1; one top-level span of 10 s; 2 s of a
    12 s wall no span covers. Returns the mismatches (empty when correct).
    """
    t = Tracer()
    t.names = ["a", "b", "c", "d"]
    for nid, start, end, parent in ((0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0),
                                    (3, 2.0, 3.0, 1), (2, 5.0, 9.0, 0)):
        t.name.append(nid)
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.epoch.append(0)
    s = t.summary(wall_s=12.0)
    got = {name: row["self_s"] for name, row in s["by_name"].items()}
    bad = [f"self time of {k}: {got[k]!r} != {v!r}"
           for k, v in {"a": 3.0, "b": 2.0, "c": 4.0, "d": 1.0}.items() if got[k] != v]
    if s["top_level_s"] != 10.0 or s["unattributed_s"] != 2.0:
        bad.append(f"top-level {s['top_level_s']!r} / unattributed {s['unattributed_s']!r}")
    return bad + s["errors"]
