#!/usr/bin/env python3
"""The dbesim benchmark.

Usage (from the root of a dbesim checkout):

    python3 perfbench/run.py --workload communities --seed 1 --seconds 30 --trace 0

Each repeat runs `dbesim.cli.main` in a fresh single-threaded process (see
`child.py`). The workload seed picks the program seeds: repeat k of a cycle
runs program seed `seed * K + k`. Repeats go in whole cycles of K: one
cycle, then more while another would end within `--seconds`. Host times are
scaled by each repeat's host-speed gauge (see README.md). Every output file
of every repeat is hashed: a repeat fails when its digests differ from an
earlier repeat of the same program seed, from the digests pinned in
`digests.json` (default workload seed only), or when an output is missing
or malformed.

With `--trace 0` the last line of stdout carries the end-to-end metrics of
the untraced repeats; with `--trace 1`, the per-layer metrics of traced
repeats of the first program seed, each paired with an untraced one. The
lines before it give the environment, the steal ticks per repeat, the
sample counts and the digests. The latest run's work files (inputs, outputs,
span dumps) are kept in `.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from wide import wide_config_bytes  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
PINS = os.path.join(HERE, "digests.json")
WORK_ROOT = ".perfbench_work"
ASSETS = os.path.join("src", "dbesim", "assets")

DEFAULT_SEED = 1
# Host times are scaled per repeat to a host on which the HostGauge loop
# (child.py) takes this many ns per step: the speed of the 2-vCPU host this
# was written on when uncontended. That host's speed swings up to 2x within
# seconds; see README.md.
REFERENCE_NS = 500.0
CHILD_TIMEOUT_S = 100
WALL_BUDGET_S = 150  # no cycle or traced pair starts that would end past this

# kind: the dbesim subcommand; seeds_per_run: program seeds per cycle (K).
WORKLOADS = {
    "communities": {"kind": "run", "asset": "two_communities.json", "seeds_per_run": 22},
    "wide": {"kind": "run", "asset": None, "seeds_per_run": 5},
    "topology": {"kind": "topology", "asset": "topology_experiment.json", "seeds_per_run": 8},
}

RUN_FILES = {"resolved_config.json", "events.jsonl", "metrics.csv", "snapshot.json",
             "ecosystem.dot", "business.dot", "flows.csv"}
TOPOLOGY_FILES = {"resolved_config.json", "trajectory.csv", "degrees.csv", "business.dot"}

# Per-layer counts and ratios of counts: they must repeat exactly.
EXACT_LAYERS = ("rng.draws", "manifest.fitness.calls", "evolution.generations",
                "evolution.evaluate_genome.calls", "evolution.draw_service.calls",
                "evolution.fitness_repeat_ratio", "ecosystem.neighbors.calls",
                "ecosystem.edges_scanned", "ecosystem.profile_similarity.calls",
                "ecosystem.connection_writes", "topology.add_attachment_edge.calls",
                "topology.accept_ratio", "topology.record_transaction.calls")


# Children may cache bytecode, so every repeat after the first (prepare)
# child starts warm, as an installed package does.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# --- environment and noise ---


def read_steal_ticks():
    """Steal ticks of all CPUs from /proc/stat (read only); None if unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_sha():
    """HEAD commit from .git, read as files; None outside a git checkout."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(".git", ref), encoding="ascii") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(".git", "packed-refs"), encoding="ascii") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the paths and bytes of the program's source and assets."""
    h = hashlib.sha256()
    root = os.path.join("src", "dbesim")
    for dirpath, _, filenames in sorted(os.walk(root)):
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(path.encode("utf-8") + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "loadavg": list(os.getloadavg()),
    }


# --- inputs and outputs ---


class Workload:
    """Inputs of one workload seed, and the checks on its outputs."""

    def __init__(self, name: str, seed: int, work: str):
        spec = WORKLOADS[name]
        self.name = name
        self.kind = spec["kind"]
        self.seed = seed
        k = spec["seeds_per_run"]
        self.seeds = [seed * k + i for i in range(k)]
        self.problems: list = []
        self.configs = {}
        if spec["asset"] is not None:
            path = os.path.join(ASSETS, spec["asset"])
            with open(path, encoding="utf-8") as f:
                self.shape = json.load(f)
            for s in self.seeds:
                self.configs[s] = path
        else:
            os.makedirs(os.path.join(work, "inputs"))
            for s in self.seeds:
                text = wide_config_bytes(s)
                if wide_config_bytes(s) != text:
                    self.problems.append(f"wide generator is not deterministic at seed {s}")
                path = os.path.join(work, "inputs", f"wide-{s}.json")
                with open(path, "wb") as f:
                    f.write(text)
                self.configs[s] = path
            self.shape = json.loads(text)

    def argv(self, pseed: int, out: str) -> list:
        return [self.kind, "--config", self.configs[pseed], "--out", out,
                "--seed", str(pseed), "--quiet"]

    def check_outputs(self, out: str) -> tuple:
        """(work done, error or None) from the files of one repeat.

        Work is habitat-epochs (the habitat counts of metrics.csv summed)
        for `run`, and grown vertices for `topology`.
        """
        names = set(os.listdir(out))
        expected = RUN_FILES if self.kind == "run" else TOPOLOGY_FILES
        if names != expected:
            return 0, f"output files {sorted(names)} != {sorted(expected)}"
        if self.kind == "run":
            with open(os.path.join(out, "metrics.csv"), encoding="utf-8") as f:
                rows = f.read().splitlines()[1:]
            if len(rows) != self.shape["epochs"]:
                return 0, f"metrics.csv has {len(rows)} rows for {self.shape['epochs']} epochs"
            return sum(int(r.split(",")[5]) for r in rows), None
        topo = self.shape["topology"]
        with open(os.path.join(out, "degrees.csv"), encoding="utf-8") as f:
            vertices = len(f.read().splitlines()) - 1
        grown = vertices - topo["seed_vertices"]
        if grown != topo["steps"] + 1:
            return 0, f"degrees.csv has {grown} grown vertices, expected {topo['steps'] + 1}"
        with open(os.path.join(out, "trajectory.csv"), encoding="utf-8") as f:
            if len(f.read().splitlines()) < 2:
                return 0, "trajectory.csv is empty"
        return grown, None


def file_digests(out: str) -> dict:
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


def load_pins(workload: str, seed: int):
    """Pinned digests {program seed: {file: sha256}} of the default seed, else None."""
    if seed != DEFAULT_SEED:
        return None
    with open(PINS, encoding="utf-8") as f:
        pins = json.load(f)
    return {int(k): v for k, v in pins["workloads"].get(workload, {}).items()}


# --- repeats ---


class Bench:
    def __init__(self, wl: Workload, work: str):
        self.wl = wl
        self.work = work
        self.pins = load_pins(wl.name, wl.seed)
        self.digests: dict = {}  # program seed -> digests of its first good repeat
        self.draws: dict = {}  # program seed -> draw count of its first good repeat
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.steal: list = []
        self.samples: dict = {}  # sample counts and per-repeat values, for the report
        self.n = 0

    def child(self, spec: dict) -> tuple:
        """Run one child process; returns (result, spawn time)."""
        self.n += 1
        spec["result"] = os.path.join(self.work, f"result-{self.n}.json")
        steal0 = read_steal_ticks()
        t_spawn = now()
        try:
            proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  env=CHILD_ENV, timeout=CHILD_TIMEOUT_S)
            stderr = proc.stderr.decode("utf-8", "replace").strip()
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}, t_spawn
        steal1 = read_steal_ticks()
        self.steal.append(None if steal0 is None or steal1 is None else steal1 - steal0)
        try:
            with open(spec["result"], encoding="utf-8") as f:
                result = json.load(f)
        except (OSError, ValueError):
            result = {"error": f"no result (exit status {proc.returncode}): {stderr[-500:]}"}
        if proc.returncode != 0 and result.get("error") is None:
            result["error"] = f"exit status {proc.returncode}: {stderr[-500:]}"
        return result, t_spawn

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def prepare(self, trace: bool) -> dict:
        pseed = self.wl.seeds[0]
        self.attempted += 1
        result, _ = self.child({"mode": "prepare", "kind": self.wl.kind, "trace": trace,
                                   "config": self.wl.configs[pseed], "seed": pseed})
        if result["error"]:
            self.fail(f"prepare: {result['error']}")
        return result

    def repeat(self, mode: str, pseed: int):
        """One repeat; returns its record, or None when it gave no usable timing.

        A repeat whose outputs fail a digest or draw-count check still
        returns its record (it ran to the end), but counts as failed.
        """
        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        spec = {"mode": mode, "kind": self.wl.kind, "argv": self.wl.argv(pseed, out),
                "out": out, "trace_file": os.path.join(self.work, f"spans-{pseed}.bin")}
        result, t_spawn = self.child(spec)
        where = f"{mode} repeat, program seed {pseed}"
        if result["error"]:
            self.fail(f"{where}: {result['error']}")
            return None
        work, err = self.wl.check_outputs(out)
        if err:
            self.fail(f"{where}: {err}")
            return None
        digests = file_digests(out)
        expected = self.digests.setdefault(pseed, digests)
        if self.pins is not None and self.pins.get(pseed) != digests:
            self.fail(f"{where}: digests differ from the pinned ones")
        elif digests != expected:
            self.fail(f"{where}: digests differ from an earlier repeat")
        elif self.draws.setdefault(pseed, result["draws"]) != result["draws"]:
            self.fail(f"{where}: {result['draws']} draws, earlier {self.draws[pseed]}")
        result.update(t_spawn=t_spawn, work=work,
                      output_bytes=sum(os.path.getsize(os.path.join(out, n)) for n in digests))
        if self.wl.kind == "run":
            with open(os.path.join(out, "events.jsonl"), "rb") as f:
                result["events"] = f.read().count(b"\n")
        return result


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def end_to_end(bench: Bench, seconds: float) -> dict:
    wl = bench.wl
    bench.prepare(trace=False)
    reps = []
    t_start = now()
    cycles = 0
    while True:
        t_cycle = now()
        for pseed in wl.seeds:
            rep = bench.repeat("timed", pseed)
            if rep is not None:
                reps.append(rep)
        cycles += 1
        elapsed = now() - t_start
        if elapsed + (now() - t_cycle) > min(seconds, WALL_BUDGET_S):
            break
    if not reps:
        return {}
    raw = {"setup_s": [], "throughput": [], "steps": []}
    scaled = {"setup_s": [], "throughput": [], "steps": []}
    rss = []
    for rep in reps:
        stamps = rep["stamps"]
        first = stamps["step"][0] if wl.kind == "run" else stamps["first"][0]
        marks = stamps["step"] + stamps["run_end"]
        steps = [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]
        setup = first - rep["t_spawn"]
        throughput = rep["work"] / (rep["main_end"] - first)
        speed = REFERENCE_NS / statistics.mean(rep["reference_ns"])
        for d, f in ((raw, 1.0), (scaled, speed)):
            d["setup_s"].append(setup * f)
            d["throughput"].append(throughput / f)
            d["steps"].extend(x * f for x in steps)
        rss.append(rep["maxrss_kb"] / 1024)

    def summarize(d):
        return {"throughput": median(d["throughput"]), "step_ms_p50": median(d["steps"]),
                "step_ms_p90": p90(d["steps"]), "setup_s": median(d["setup_s"])}

    bench.samples.update(
        unscaled_host_time=summarize(raw), repeats=len(reps), cycles=cycles,
        program_seeds=len(wl.seeds), step_samples=len(raw["steps"]),
        measured_s=round(now() - t_start, 3),
        reference_ns_per_repeat=[round(statistics.mean(rep["reference_ns"]), 1) for rep in reps])
    return {**summarize(scaled), "peak_rss_mb": median(rss)}


def per_layer(bench: Bench, seconds: float) -> dict:
    wl = bench.wl
    prep = bench.prepare(trace=True)
    pseed = wl.seeds[0]
    timed, traced = [], []
    t_start = now()
    while True:
        t_pair = now()
        rep = bench.repeat("timed", pseed)
        if rep is not None:
            timed.append(rep)
        rep = bench.repeat("traced", pseed)
        if rep is not None:
            traced.append(rep)
        elapsed = now() - t_start
        if elapsed + (now() - t_pair) > min(seconds, WALL_BUDGET_S):
            break
    if not timed or not traced or prep.get("error"):
        return {}
    layers = {}
    for name in traced[0]["layers"]:
        values = [rep["layers"][name] for rep in traced]
        if name in EXACT_LAYERS:
            if len(set(values)) != 1:
                bench.fail(f"traced count {name} differs between repeats: {values}")
            layers[name] = values[0]
        else:
            layers[name] = median(values)
    untraced_wall = median([rep["main_end"] - rep["main_start"] for rep in timed])
    traced_wall = median([rep["main_end"] - rep["main_start"] for rep in traced])
    ns = prep["ns_per_draw"]
    layers["rng.ns_per_draw"] = ns
    layers["rng.share"] = layers["rng.draws"] * ns * 1e-9 / untraced_wall
    layers["trace.overhead"] = traced_wall / untraced_wall
    layers["engine.events"] = traced[0].get("events", 0)
    layers["engine.output_bytes"] = traced[0]["output_bytes"]
    layers["config.snapshot_load_s"] = median(
        [rep["snapshot_load_s"] for rep in traced if "snapshot_load_s" in rep])
    bench.samples = {"timed_repeats": len(timed), "traced_repeats": len(traced),
                     "spans": traced[0]["spans"], "draw_selfcheck": prep["draw_selfcheck"],
                     "measured_s": round(now() - t_start, 3)}
    return layers


def declared_units(trace: bool) -> dict:
    """{metric name: unit} of BENCHMARK.json's end_to_end or per_layer list."""
    with open("BENCHMARK.json", encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def parse_args(argv):
    p = argparse.ArgumentParser(description="dbesim benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "dbesim", "cli.py")):
        print("error: run from the root of a dbesim checkout (src/dbesim/cli.py not found)",
              file=sys.stderr)
        return 2
    # Only the latest run's files are kept: a wide traced run leaves ~50 MB.
    shutil.rmtree(WORK_ROOT, ignore_errors=True)
    work = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(work)
    env = environment()
    wl = Workload(args.workload, args.seed, work)
    bench = Bench(wl, work)
    metrics = (per_layer if args.trace else end_to_end)(bench, args.seconds)
    env["loadavg_end"] = list(os.getloadavg())
    print("env " + json.dumps(env, sort_keys=True))
    steal = [s for s in bench.steal if s is not None]
    print("noise " + json.dumps({"steal_ticks_per_repeat": bench.steal,
                                 "repeats_with_steal": sum(1 for s in steal if s > 0)}))
    print("digests " + json.dumps({"workload_seed": args.seed, "pinned": bench.pins is not None,
                                   "program_seeds": {str(k): v for k, v in bench.digests.items()}},
                                  sort_keys=True))
    problems = wl.problems + bench.errors
    print("samples " + json.dumps({**bench.samples,
                                   "attempted": bench.attempted, "failed": bench.failed,
                                   "error_rate": bench.failed / max(bench.attempted, 1),
                                   "problems": problems}, sort_keys=True))
    if not metrics:
        print("error: no repeat succeeded: " + "; ".join(problems), file=sys.stderr)
        return 1
    units = declared_units(bool(args.trace))
    if set(metrics) != set(units):
        print(f"error: measured metrics {sorted(set(metrics) ^ set(units))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
