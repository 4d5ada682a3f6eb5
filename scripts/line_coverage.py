#!/usr/bin/env python3
"""Which lines of `src/dbesim` no tier-1 test runs.

Usage (from the root of a dbesim checkout):

    python3 scripts/line_coverage.py [PYTEST_ARG ...]

Runs pytest once, in this process, on `tests/` (or on the arguments given),
under a `sys.settrace` tracer that records each line run in
`src/dbesim/*.py`. Then it prints, per module, the lines that hold code and
that no test ran, as ranges. It only reports: its exit status is 0 whatever
the tests do, and it is not itself part of tier 1. The pass takes a few
times as long as an untraced tier-1 run.

What the pass cannot see, and what it disturbs:

- Forked children are not traced back to this process. A shard worker's
  loop and the log writer run in children, so `Child`'s child branch and
  `Shards._serve` always appear in the list.
- Three tests measure the run's cyclic garbage or its peak memory, which
  a tracer can change: `test_cmd_run_makes_no_cyclic_garbage[*]` and
  `test_streamed_snapshot_peaks_below_half_the_joined_text`. Under this
  tracer, which keeps no frame, they pass on CPython 3.11. If one fails,
  its lines still count as run.
"""

from __future__ import annotations

import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def code_lines(source: str, filename: str) -> set:
    """The line numbers that hold code in a module's source: every line
    some code object of it maps an instruction to."""
    lines = set()
    todo = [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as comma-separated runs, such as "3, 7-9"."""
    runs = []
    for n in sorted(lines):
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def trace_lines(files, run) -> dict:
    """Call `run()` under a tracer; returns path -> the set of lines run,
    for each of `files` (real paths). The tracer in place before is put
    back after. Only this thread is traced: the program starts no other."""
    hits = {path: set() for path in files}
    seen: dict = {}  # co_filename -> its set in `hits`, or None

    def local(frame, event, arg):
        seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = hits.get(os.path.realpath(name))
        lines = seen[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(before)
    return hits


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    files = sorted(os.path.realpath(p) for p in glob.glob(os.path.join(SRC, "dbesim", "*.py")))
    hits = trace_lines(files, lambda: pytest.main(["-q", "-p", "no:cacheprovider", *args]))
    print("\nlines of src/dbesim that no test ran:")
    total = 0
    for path in files:
        with open(path, encoding="utf-8") as f:
            missed = code_lines(f.read(), path) - hits[path]
        total += len(missed)
        if missed:
            print(f"{os.path.relpath(path, ROOT)} ({len(missed)}): {ranges(missed)}")
    print(f"{total} lines not run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
