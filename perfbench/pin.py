#!/usr/bin/env python3
"""Rewrite the pinned output digests of the default workload seed.

Usage (from the root of a dbesim checkout):

    python3 perfbench/pin.py [workload ...]

Runs every program seed of the default workload seed (`run.DEFAULT_SEED`)
once per named workload (all by default) and stores the sha256 of each
output file in `digests.json`. Re-pin only in a change that means to alter
the program's outputs, and say why in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main(argv) -> int:
    names = argv or sorted(run.WORKLOADS)
    with open(run.PINS, encoding="utf-8") as f:
        pins = json.load(f)
    for name in names:
        work = os.path.join(run.WORK_ROOT, f"pin-{name}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        bench = run.Bench(run.Workload(name, run.DEFAULT_SEED, work), work)
        bench.pins = None
        for pseed in bench.wl.seeds:
            if bench.repeat("timed", pseed) is None:
                print(f"{name}: {bench.errors[-1]}", file=sys.stderr)
                return 1
        pins["workloads"][name] = {str(k): v for k, v in sorted(bench.digests.items())}
        print(f"pinned {name}: program seeds {bench.wl.seeds[0]}..{bench.wl.seeds[-1]}")
    with open(run.PINS, "w", encoding="utf-8") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
