"""One repeat of a benchmark workload, run in a fresh process.

Usage: python3 perfbench/child.py '<spec JSON>'

The spec names the mode, the workload kind (`run` or `topology`), the
`dbesim` command line, the output directory and the result file. Modes:

- `timed`: calls `dbesim.cli.main` with only the hooks the end-to-end
  metrics need: one timestamp per `run_epoch` call (or per `degree_rank`
  call and at the first growth step) and a record of each stream that
  `derive_substream` creates, whose draw count is read from its state.
  A `HostGauge` samples the host's speed before, during (off the clock)
  and after the command.
- `traced`: the same call with a span around every layer boundary; for
  `run`, the final snapshot is then loaded and must re-serialize to the
  same bytes.
- `prepare`: imports the program (so later children start warm) and checks
  that the input config validates. For a traced run it also checks that the
  state-delta draw count equals a counting stream and that the span
  self-time arithmetic holds, and it times `Stream.next_u64`.

Every hook is put back before the post-run checks. The child writes its
result as JSON and exits 0 when the command and every check succeeded.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

_MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
GAMMA_INV = pow(GAMMA, -1, 1 << 64)


def now() -> float:
    """CLOCK_MONOTONIC, which the parent process reads too."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def draws_from_states(created) -> int:
    """Exact draw count of splitmix64 streams from their state deltas.

    Each draw adds GAMMA to the state mod 2**64, so (end - start) * GAMMA^-1
    mod 2**64 is the number of draws taken from a stream.
    """
    return sum(((s.state - start) * GAMMA_INV) & _MASK64 for s, start in created)


def capture_streams(tracer, module, created) -> None:
    """Record every stream `module.derive_substream` hands out, with its start state."""
    derive = module.derive_substream

    def capturing(master_seed, label):
        s = derive(master_seed, label)
        created.append((s, s.state))
        return s

    tracer.patch(module, "derive_substream", capturing)


class HostGauge:
    """Samples the host's speed during a timed repeat, off the clock.

    The sample is a fixed pure-Python reference loop: the benchmark's own
    splitmix64 (`wide._SplitMix64`), not dbesim code, so no change to the
    program moves it. It runs when the gauge is made (process start), at
    stamps at least `every_s` apart, and at the end. `clock()` is
    CLOCK_MONOTONIC minus the time spent sampling, so no timed interval
    includes a sample.
    """

    def __init__(self, every_s: float = 0.25):
        self.every_s = every_s
        self.samples: list = []
        self.paused = 0.0
        self.last = 0.0
        self.sample(batches=4)

    def sample(self, batches: int = 2, draws: int = 5_000) -> None:
        """Append ns per loop step of each batch."""
        from wide import _SplitMix64
        t0 = now()
        for _ in range(batches):
            g = _SplitMix64(draws)
            t = time.perf_counter()
            for _ in range(draws):
                g.next_u64()
            self.samples.append((time.perf_counter() - t) / draws * 1e9)
        self.last = now()
        self.paused += self.last - t0

    def clock(self) -> float:
        return now() - self.paused

    def stamp(self) -> float:
        if now() - self.last >= self.every_s:
            self.sample()
        return self.clock()


def stamp_before(tracer, owner, attr, marks, clock) -> None:
    fn = getattr(owner, attr)

    def stamped(*args, **kwargs):
        marks.append(clock())
        return fn(*args, **kwargs)

    tracer.patch(owner, attr, stamped)


def stamp_after(tracer, owner, attr, marks, clock) -> None:
    fn = getattr(owner, attr)

    def stamped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            marks.append(clock())

    tracer.patch(owner, attr, stamped)


def install_timed(tracer, kind, stamps, created, gauge) -> None:
    """`stamps["step"]`: each run_epoch (or degree_rank) call; `stamps["first"]`:
    the first growth step; `stamps["run_end"]`: the return of engine.run."""
    from dbesim import cli, engine, topology
    if kind == "run":
        stamp_before(tracer, engine, "run_epoch", stamps["step"], gauge.stamp)
        stamp_after(tracer, engine, "run", stamps["run_end"], gauge.clock)
        capture_streams(tracer, engine, created)
    else:
        stamp_before(tracer, cli, "inject_and_track", stamps["first"], gauge.clock)
        stamp_before(tracer, cli, "grow", stamps["first"], gauge.clock)
        stamp_before(tracer, topology.BusinessGraph, "degree_rank", stamps["step"], gauge.stamp)
        capture_streams(tracer, cli, created)


def install_traced(tracer, kind, created) -> None:
    from dbesim import cli, ecosystem, engine, evolution, rng, topology
    T = tracer
    T.span(cli, "parse_config", "config.parse")
    T.span(cli.OutputDir, "write", "cli.write")
    T.span(cli, "serialize_snapshot", "config.serialize_snapshot")
    if kind == "topology":
        capture_streams(T, cli, created)
        T.span(cli, "seed_business_graph", "topology.seed_business_graph")
        T.span(cli, "inject_and_track", "topology.inject_and_track")
        T.span(cli, "grow", "topology.grow")
        T.span(topology.BusinessGraph, "add_attachment_edge", "topology.add_attachment_edge")
        T.span(topology.BusinessGraph, "degree_rank", "topology.degree_rank")
        T.count_calls(rng.Stream, "below", "topology.proposals")
        return

    capture_streams(T, engine, created)

    def set_epoch(args):
        T.epoch_now = args[0].epoch + 1

    def clear_epoch():
        T.epoch_now = 0

    T.span(engine, "run", "engine.run", after=clear_epoch)
    T.span(engine, "build_run_state", "engine.build_run_state")
    T.span(engine, "serialize_events", "engine.serialize_events")
    T.span(engine, "serialize_metrics", "engine.serialize_metrics")
    T.span(engine, "state_to_obj", "engine.state_to_obj")
    T.span(engine, "run_epoch", "ecosystem.run_epoch", before=set_epoch)
    T.span(engine, "failure_inject", "ecosystem.failure_inject", before=set_epoch)
    T.span(engine, "clustering_statistic", "ecosystem.clustering_statistic")
    T.span(engine, "record_transaction", "topology.record_transaction")
    T.span(engine, "simulate_execution", "engine.simulate_execution")
    T.span(ecosystem, "init_population", "evolution.init_population")
    T.span(ecosystem, "advance", "evolution.advance")
    T.span(ecosystem, "reinforce", "ecosystem.reinforce")
    T.span(ecosystem, "migrate", "ecosystem.migrate")
    T.span(ecosystem, "decay_all", "ecosystem.decay_all")
    T.span(ecosystem, "profile_similarity", "ecosystem.profile_similarity")
    T.counts["ecosystem.edges_scanned"] = 0
    T.span(ecosystem.Ecosystem, "neighbors", "ecosystem.neighbors",
           before=lambda args: T.add("ecosystem.edges_scanned", len(args[0].connections)))
    T.span(evolution, "step_generation", "evolution.step_generation")
    T.span(evolution, "tournament_select", "evolution.tournament_select")
    T.span(evolution, "draw_service", "evolution.draw_service")
    T.span(evolution, "fitness", "manifest.fitness")

    # A repeat is an evaluation whose (pool identity, pool size, request id,
    # genome) key was evaluated before: the ceiling of a fitness memo.
    seen = set()
    T.counts["evolution.fitness_repeats"] = 0

    def fitness_key(args):
        genome, catalog, req = args[0], args[1], args[2]
        key = (id(catalog), len(catalog), req.id, genome)
        if key in seen:
            T.counts["evolution.fitness_repeats"] += 1
        else:
            seen.add(key)

    T.span(evolution, "evaluate_genome", "evolution.evaluate_genome", before=fitness_key)

    # Connection writes: every Ecosystem gets a dict that counts its stores
    # and deletions.
    counts = T.counts
    counts["ecosystem.connection_writes"] = 0

    class CountingDict(dict):
        __slots__ = ()

        def __setitem__(self, key, value):
            counts["ecosystem.connection_writes"] += 1
            dict.__setitem__(self, key, value)

        def __delitem__(self, key):
            counts["ecosystem.connection_writes"] += 1
            dict.__delitem__(self, key)

    init = ecosystem.Ecosystem.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.connections = CountingDict(self.connections)

    T.patch(ecosystem.Ecosystem, "__init__", counting_init)


def layer_metrics(tracer, summary) -> dict:
    """Per-layer metrics of one traced repeat (times in s, from its spans)."""
    by = summary["by_name"]
    counts = tracer.counts

    def calls(name):
        return by[name]["calls"] if name in by else 0

    def total(name):
        return by[name]["total_s"] if name in by else 0.0

    def self_s(name):
        return by[name]["self_s"] if name in by else 0.0

    gens = calls("evolution.step_generation")
    evals = calls("evolution.evaluate_genome")
    proposals = counts.get("topology.proposals", 0)
    targets = tracer.calls_under("topology.add_attachment_edge",
                                 {"topology.inject_and_track", "topology.grow"})
    return {
        "manifest.fitness.calls": calls("manifest.fitness"),
        "manifest.fitness.self_s": self_s("manifest.fitness"),
        "evolution.generations": gens,
        "evolution.us_per_generation":
            total("evolution.step_generation") / gens * 1e6 if gens else 0.0,
        "evolution.evaluate_genome.calls": evals,
        "evolution.tournament_select.self_s": self_s("evolution.tournament_select"),
        "evolution.draw_service.calls": calls("evolution.draw_service"),
        "evolution.draw_service.self_s": self_s("evolution.draw_service"),
        "evolution.fitness_repeat_ratio":
            counts.get("evolution.fitness_repeats", 0) / evals if evals else 0.0,
        "ecosystem.evolve_s": total("evolution.init_population") + total("evolution.advance"),
        "ecosystem.execute_s": total("engine.simulate_execution"),
        "ecosystem.reinforce_s": total("ecosystem.reinforce"),
        "ecosystem.migrate_s": total("ecosystem.migrate"),
        "ecosystem.decay_s": total("ecosystem.decay_all"),
        "ecosystem.clustering_s": total("ecosystem.clustering_statistic"),
        "ecosystem.heal_s": total("ecosystem.failure_inject"),
        "ecosystem.self_s": self_s("ecosystem.run_epoch"),
        "ecosystem.neighbors.calls": calls("ecosystem.neighbors"),
        "ecosystem.neighbors.self_s": self_s("ecosystem.neighbors"),
        "ecosystem.edges_scanned": counts.get("ecosystem.edges_scanned", 0),
        "ecosystem.profile_similarity.calls": calls("ecosystem.profile_similarity"),
        "ecosystem.connection_writes": counts.get("ecosystem.connection_writes", 0),
        "topology.grow_self_s": self_s("topology.inject_and_track") + self_s("topology.grow"),
        "topology.add_attachment_edge.calls": calls("topology.add_attachment_edge"),
        "topology.degree_rank.self_s": self_s("topology.degree_rank"),
        "topology.accept_ratio": targets / proposals if proposals else 0.0,
        "topology.record_transaction.calls": calls("topology.record_transaction"),
        "engine.loop_self_s": self_s("engine.run"),
        "engine.build_run_state_s": total("engine.build_run_state"),
        "engine.serialize_events_s": total("engine.serialize_events"),
        "engine.serialize_metrics_s": total("engine.serialize_metrics"),
        "engine.state_to_obj_s": total("engine.state_to_obj"),
        "config.parse_s": total("config.parse"),
        "config.serialize_snapshot_s": total("config.serialize_snapshot"),
        "cli.write_s": total("cli.write"),
        "trace.unattributed_s": summary["unattributed_s"],
    }


def snapshot_round_trip(out_dir) -> tuple:
    """Load the final snapshot, restore the run state and re-serialize it.

    Returns (load seconds, error or None). The load is `parse_config` plus
    `state_from_obj`; the re-serialized bytes must equal the file.
    """
    from dbesim import engine
    from dbesim.config import parse_config, serialize_snapshot
    path = os.path.join(out_dir, "snapshot.json")
    with open(path, "rb") as f:
        written = f.read()
    t0 = time.perf_counter()
    cfg, state = parse_config(path)
    eco, streams, graph = engine.state_from_obj(cfg, state)
    load_s = time.perf_counter() - t0
    again = serialize_snapshot(cfg, engine.state_to_obj(eco, streams, graph)).encode("utf-8")
    if again != written:
        return load_s, "snapshot.json does not re-serialize to the same bytes"
    return load_s, None


def run_cli(spec, result, gauge) -> None:
    from tracer import Tracer
    tracer = Tracer()
    created = []
    stamps: dict = {"step": [], "first": [], "run_end": []}
    traced = gauge is None
    clock = now if traced else gauge.clock
    import dbesim.cli
    if traced:
        install_traced(tracer, spec["kind"], created)
    else:
        install_timed(tracer, spec["kind"], stamps, created, gauge)
    main_start = clock()
    try:
        rc = dbesim.cli.main(spec["argv"])
    finally:
        main_end = clock()
        tracer.restore()
    result.update(main_start=main_start, main_end=main_end, stamps=stamps,
                  draws=draws_from_states(created))
    if rc != 0:
        result["error"] = f"dbesim exited with status {rc}"
        return
    if not traced:
        return
    summary = tracer.summary(wall_s=main_end - main_start)
    tracer.write(spec["trace_file"])
    result["layers"] = layer_metrics(tracer, summary)
    result["layers"]["rng.draws"] = result["draws"]
    result["spans"] = summary["spans"]
    if summary["errors"]:
        result["error"] = "span arithmetic: " + "; ".join(summary["errors"])
        return
    if spec["kind"] == "run":
        load_s, err = snapshot_round_trip(spec["out"])
        result["snapshot_load_s"] = load_s
        if err:
            result["error"] = err


def draw_count_selfcheck(spec) -> dict:
    """State-delta draw count against a counting Stream subclass, on a short run.

    `run` workloads run their first 3 epochs; `topology` grows 2000 steps
    with the injection at step 1000.
    """
    import dataclasses
    from dbesim import cli, engine, rng
    from dbesim.config import parse_config
    from tracer import Tracer

    class CountingStream(rng.Stream):
        __slots__ = ("draws",)

        def __init__(self, state):
            super().__init__(state)
            self.draws = 0

        def next_u64(self):
            self.draws += 1
            return rng.Stream.next_u64(self)

    created = []

    def counting_substream(master_seed, label):
        s = CountingStream(rng.derive_substream(master_seed, label).state)
        created.append((s, s.state))
        return s

    cfg, _ = parse_config(spec["config"], seed_override=spec["seed"])
    if spec["kind"] == "run":
        cfg.epochs = 3
        cfg.failures = tuple(f for f in cfg.failures if f.epoch <= cfg.epochs)
        patches = Tracer()
        patches.patch(engine, "derive_substream", counting_substream)
        try:
            engine.run(cfg)
        finally:
            patches.restore()
    else:
        topo = dataclasses.replace(cfg.topology, steps=2000, inject_at=1000)
        stream = counting_substream(cfg.master_seed, "growth")
        graph = cli.seed_business_graph(topo.seed_vertices, topo.eta, stream)
        cli.inject_and_track(graph, topo.inject_eta, topo.inject_at, topo.steps,
                             topo.m, topo.eta, stream)
    return {"counted": sum(s.draws for s, _ in created),
            "from_state": draws_from_states(created)}


def ns_per_draw(batches: int = 7, draws: int = 100_000) -> float:
    """Median ns per `Stream.next_u64` call over timed batches."""
    from dbesim.rng import Stream
    s = Stream(12345)
    times = []
    for _ in range(batches):
        nxt = s.next_u64
        t0 = time.perf_counter()
        for _ in range(draws):
            nxt()
        times.append((time.perf_counter() - t0) / draws * 1e9)
    times.sort()
    return times[len(times) // 2]


def prepare(spec, result) -> None:
    import dbesim.cli  # noqa: F401  (compiles and caches every module)
    from dbesim.config import parse_config
    from dbesim.engine import validate_config
    cfg, _ = parse_config(spec["config"], seed_override=spec["seed"])
    violations = validate_config(cfg)
    if violations:
        result["error"] = "config invalid: " + "; ".join(violations)
        return
    if not spec["trace"]:
        return
    from tracer import check_self_time_arithmetic
    bad = check_self_time_arithmetic()
    if bad:
        result["error"] = "self-time arithmetic: " + "; ".join(bad)
        return
    check = draw_count_selfcheck(spec)
    result["draw_selfcheck"] = check
    if check["counted"] != check["from_state"]:
        result["error"] = f"draw count mismatch: {check}"
        return
    result["ns_per_draw"] = ns_per_draw()


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = {"error": None}
    gauge = HostGauge() if spec["mode"] == "timed" else None
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    try:
        if spec["mode"] == "prepare":
            prepare(spec, result)
        else:
            run_cli(spec, result, gauge)
    except Exception:  # reported to the parent, which counts the repeat as failed
        result["error"] = traceback.format_exc(limit=5)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if gauge is not None:
        gauge.sample()
        result["reference_ns"] = gauge.samples
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0 if result["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
