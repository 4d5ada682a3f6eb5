"""Paired benchmark record of a base revision against the working tree.

Usage (from the root of a dbesim checkout):

    python3 scripts/bench_compare.py --base <rev> --pairs N --seed S --seconds T \\
        [--workload NAME[:PAIRS] ...] [--digest-seed D] --out BENCH_<pr>.json

The base side is `git archive <rev>` unpacked into a temporary directory;
the change side is the working tree as it is. Each side runs its own
`perfbench/run.py --trace 0` with its own tree as the working directory,
one side at a time, never both, and pairs alternate which side runs first.
`--workload` defaults to every workload of `BENCHMARK.json`; a `:PAIRS`
suffix overrides `--pairs` for that workload. `--digest-seed D` adds one
short run per side and workload at seed D and records whether the two
sides' `digests` lines agree.

The record holds, per workload and end-to-end metric of `BENCHMARK.json`:
the median and q1-q3 of each side, the ratio change / base of the medians,
the pairs the change won by the metric's `better`, and its `bound`. It also
holds every run's `correct`, `failed`, `env`, `noise` and `samples` lines,
names every run that read `correct` false at the top, and gives the sha256
of both sides' `perfbench/` trees and the line counts of both sides'
`src/dbesim/*.py`, per module and in total; the two totals are printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINE_TAGS = ("env", "noise", "digests", "samples")


def parse_run_output(stdout: str) -> dict:
    """The tagged lines of one `perfbench/run.py` output and its last line,
    the result object: {"env": ..., "noise": ..., "digests": ...,
    "samples": ..., "result": ...}; a missing line is left out."""
    parsed = {}
    lines = stdout.strip().splitlines()
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag in LINE_TAGS:
            parsed[tag] = json.loads(rest)
    if lines and lines[-1].startswith("{"):
        parsed["result"] = json.loads(lines[-1])
    return parsed


def quartiles(values) -> dict:
    """Median, q1 and q3 of `values` (inclusive method)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, declared: list) -> dict:
    """Per end-to-end metric of `declared` (BENCHMARK.json's list): each
    side's median and q1-q3, the ratio change / base of the medians, the
    pairs the change won and the metric's bound. `pairs` is a list of
    (base, change) parsed outputs; a pair in which either side has no
    result is left out of every metric."""
    whole = [(b["result"], c["result"]) for b, c in pairs if "result" in b and "result" in c]
    table = {}
    for metric in declared if whole else ():
        name = metric["name"]
        base = [b["metrics"][name]["value"] for b, _ in whole]
        change = [c["metrics"][name]["value"] for _, c in whole]
        higher = metric["better"] == "higher"
        wins = sum(1 for b, c in zip(base, change) if (c > b if higher else c < b))
        row = {"base": quartiles(base), "change": quartiles(change)}
        row.update(ratio=row["change"]["median"] / row["base"]["median"],
                   wins=wins, pairs=len(whole), better=metric["better"], bound=metric["bound"])
        table[name] = row
    return table


def tree_digest(path: str) -> str:
    """sha256 over the relative paths and bytes of the `.py`, `.json` and
    `.md` files under `path`."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json", ".md")):
                full = os.path.join(dirpath, name)
                h.update(os.path.relpath(full, path).encode() + b"\0")
                with open(full, "rb") as f:
                    h.update(f.read() + b"\0")
    return h.hexdigest()


def src_lines(tree: str) -> dict:
    """Lines of each module of `src/dbesim/*.py` under `tree`, and their total."""
    src = os.path.join(tree, "src", "dbesim")
    modules = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                modules[name] = sum(1 for _ in f)
    return {"modules": modules, "total": sum(modules.values())}


def run_side(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in `tree`; its parsed output,
    with its exit status and stderr tail."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    parsed = parse_run_output(proc.stdout)
    parsed["exit_status"] = proc.returncode
    if proc.returncode:
        parsed["stderr"] = proc.stderr[-2000:]
    return parsed


def run_record(run: dict) -> dict:
    """What the record keeps of one run: no digests line, which is large."""
    result = run.get("result", {})
    return {"correct": result.get("correct", False), "failed": result.get("failed"),
            "attempted": result.get("attempted"),
            **{k: run[k] for k in ("env", "noise", "samples", "exit_status", "stderr")
               if k in run},
            "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()}}


def parse_args(argv):
    p = argparse.ArgumentParser(description="paired perfbench record: base revision vs working tree")
    p.add_argument("--base", required=True, help="git revision of the base side")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workload", action="append", default=[], help="NAME or NAME:PAIRS")
    p.add_argument("--digest-seed", type=int, default=None)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    plan = {}
    for spec in args.workload or [w["name"] for w in benchmark["workloads"]]:
        name, _, pairs = spec.partition(":")
        plan[name] = int(pairs) if pairs else args.pairs
    base_sha = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bench_base_") as base_tree:
        archive = subprocess.run(["git", "archive", base_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
        trees = {"base": base_tree, "change": ROOT}
        digests = {side: tree_digest(os.path.join(tree, "perfbench"))
                   for side, tree in trees.items()}
        record = {
            "base": {"rev": args.base, "sha": base_sha, "perfbench_sha256": digests["base"]},
            "change": {"tree": "working tree", "perfbench_sha256": digests["change"]},
            "perfbench_differs": digests["base"] != digests["change"],
            "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
            "seed": args.seed, "seconds": args.seconds,
            "incorrect": [], "workloads": {},
        }
        print(f"src/dbesim lines: base {record['src_lines']['base']['total']}, "
              f"change {record['src_lines']['change']['total']}", flush=True)
        for workload, n in plan.items():
            pairs, runs = [], []
            for i in range(n):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                done = {}
                for side in order:
                    done[side] = run_side(trees[side], workload, args.seed, args.seconds)
                    runs.append({"pair": i, "side": side, **run_record(done[side])})
                    if not runs[-1]["correct"]:
                        record["incorrect"].append(f"{workload} pair {i} {side}")
                    print(f"{workload} pair {i} {side}: "
                          f"{json.dumps(runs[-1]['metrics'], sort_keys=True)}", flush=True)
                pairs.append((done["base"], done["change"]))
            entry = {"pairs": n, "metrics": summarize(pairs, benchmark["end_to_end"]),
                     "runs": runs}
            if args.digest_seed is not None:
                lines = {side: run_side(tree, workload, args.digest_seed, 0).get("digests")
                         for side, tree in trees.items()}
                entry["digests_equal_at_seed"] = {
                    "seed": args.digest_seed,
                    "equal": lines["base"] is not None and lines["base"] == lines["change"]}
            record["workloads"][workload] = entry
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
