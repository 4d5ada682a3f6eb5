"""Command-line entry point.

Subcommands:
  run       full ecosystem simulation: event log, metrics, snapshot, DOT
  evolve    single-habitat evolution of the first habitat's first request
  oracle    exhaustive best chain for the same inputs as evolve
  topology  business-graph growth experiment (degree CSV, DOT, trajectory)
  validate  parse and validate a config or snapshot, printing all violations

Exit status: 0 on success, 1 on validation failure, 2 on runtime error.
Every failure is reported as one line on stderr, never as a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from collections.abc import Iterable
from itertools import islice

from . import engine
from .config import ConfigError, parse_config, serialize_config, snapshot_chunks
from .config import serialize_snapshot  # noqa: F401  (the benchmark's tracer looks it up here)
from .ecosystem import EcosystemError, evolve_request
from .evolution import EvolutionError, brute_force_best
from .rng import derive_substream
from .topology import grow, inject_and_track, seed_business_graph

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

LOCK_NAME = ".dbesim.lock"

# Events or lines per chunk of a file written in chunks, so that no large
# output is built as one string beside the data it is made from.
CHUNK = 1024

# The logs of a run, in the order `_write_logs` writes them.
RUN_LOGS = ("events.jsonl", "metrics.csv", "resolved_config.json")


class OutputDir:
    """Output directory with a lock file: one invocation at a time."""

    def __init__(self, path: str):
        self.path = path
        self.lock_path = os.path.join(path, LOCK_NAME)
        self._fd = None

    def __enter__(self):
        os.makedirs(self.path, exist_ok=True)
        try:
            self._fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RuntimeError(
                f"output directory {self.path!r} is locked by another invocation "
                f"(remove {self.lock_path} if stale)")
        return self

    def __exit__(self, *exc):
        if self._fd is not None:
            os.close(self._fd)
            os.remove(self.lock_path)
        return False

    def tmp_path(self, name: str) -> str:
        """Where `write` builds the file `name` before renaming it into place."""
        return os.path.join(self.path, f".{name}.tmp")

    def write(self, name: str, content: str | Iterable[str]) -> str:
        """Write a file atomically: an interrupted write leaves any earlier
        version in place. The lock makes the fixed temp name safe.

        `content` is the file's text, or an iterable of string chunks that
        are written in order as they are made, so the whole text need never
        be in memory. An exception raised while a chunk is made interrupts
        the write like any other.
        """
        target = os.path.join(self.path, name)
        tmp = self.tmp_path(name)
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as f:
                f.writelines((content,) if isinstance(content, str) else content)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise
        return target


def cmd_run(cfg, state, out: OutputDir, quiet: bool) -> int:
    """Run the simulation and write its outputs, with the cyclic collector paused.

    A run makes no reference cycles, so the collector would find nothing;
    left on, it rescans the growing event log several times, some of them
    inside epochs. Its state on entry is restored on every exit path, after
    the run's objects are freed, so re-enabling it triggers no scan of them.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        n_events, last = _run_and_write(cfg, state, out)
    finally:
        if gc_was_enabled:
            gc.enable()
    if not quiet:
        print(f"run complete: {cfg.epochs} epochs, {n_events} events")
        if last:
            print(f"final epoch {last.epoch}: mean_best_fitness={last.mean_best_fitness:.4f} "
                  f"success_rate={last.deployment_success_rate:.4f} "
                  f"clustering={last.clustering_statistic:.4f}")
    return EXIT_OK


def worker_count(n_habitats: int, cpus: int) -> int:
    """Processes for the habitat steps of a run of `n_habitats` habitats:
    one per CPU, but each with at least two habitats, and never none.

    Read on a 2-CPU host only. `dbesim run`, timed in process, of the first
    2, 3, 4, 8 and 16 habitats of `two_communities.json` took 0.028 -> 0.034,
    0.038 -> 0.040, 0.073 -> 0.069, 0.128 -> 0.108 and 0.154 -> 0.122 s on one
    process -> two (medians of 15 alternating runs, same output bytes). So 2
    and 3 habitats run on one: the forks, the `pickle` import and the
    per-epoch messages cost more than the split saved (two won 0 of 15).
    Four habitats in shards of two won by 5%, and the benchmark's `wide`
    ecosystem (seed 5) cut to 64 to 1024 habitats ran 1.08x to 1.40x as fast
    on two. More processes than CPUs were slower: the 22 `communities`
    benchmark seeds took 2,206-2,316 ms on 3 or 4 processes against
    2,014-2,037 ms on two. Splits over more than 2 CPUs were never timed.
    """
    return max(1, min(cpus, n_habitats // 2))


def _batches(items):
    """Successive lists of `CHUNK` items of an iterable, the last one shorter."""
    it = iter(items)
    while batch := list(islice(it, CHUNK)):
        yield batch


def _write_logs(cfg, result, out: OutputDir) -> None:
    """Write a run's logs: the event log in chunks, the metrics and the
    resolved config. A one-process run calls it inline and a sharded run in
    its forked writer, so both write the same bytes."""
    events, metrics, config = RUN_LOGS
    out.write(events, map(engine.serialize_events, _batches(result.events)))
    out.write(metrics, engine.serialize_metrics(result.metrics))
    out.write(config, serialize_config(cfg))


@contextlib.contextmanager
def _logs_written(cfg, result, out: OutputDir, fork: bool):
    """Write the run's logs before the block or, if `fork`, in a forked
    writer process while the block runs.

    The writer is reaped when the block ends, and its error or its death
    then raises a `shards.ShardError`. If the block or the wait raises, the
    writer is killed and reaped first, and any temp file it left removed.
    """
    if not fork:
        _write_logs(cfg, result, out)
        yield
        return
    from .shards import Child

    writer = Child("writer", lambda recv, send: _write_logs(cfg, result, out))
    try:
        yield
        writer.join()
    finally:
        writer.close(kill=True)  # a writer already reaped is left alone
        for name in RUN_LOGS:
            with contextlib.suppress(FileNotFoundError):
                os.remove(out.tmp_path(name))


def _run_and_write(cfg, state, out: OutputDir) -> tuple:
    """Run and write every output; returns (event count, last metrics row or None).

    The logs are written first and the event log is then emptied, so the
    final state object is built in the memory the log held rather than
    beside it. Its text is then encoded and written a piece at a time: a
    habitat, a slice of connection rows and so on (`snapshot_chunks`), so
    the text is never whole in memory. A run on more than one process
    forks a writer for the logs instead, empties its own copy of the event
    log at once and writes the final state while the writer writes the
    logs.
    """
    workers = worker_count(len(cfg.scenario.habitats), len(os.sched_getaffinity(0)))
    result = engine.run(cfg, state=state, workers=workers)  # fewer if a state holds fewer habitats
    n_events = len(result.events)
    with _logs_written(cfg, result, out, fork=result.workers > 1):
        result.events.clear()
        out.write("snapshot.json", snapshot_chunks(cfg, result.final_state()))
        out.write("ecosystem.dot", result.eco.to_dot())
        out.write("business.dot", result.ledger.to_dot())
        out.write("flows.csv", result.ledger.flows_csv())
    return n_events, (result.metrics[-1] if result.metrics else None)


def cmd_evolve(cfg, out: OutputDir | None, quiet: bool) -> int:
    h = cfg.scenario.habitats[0].build()
    request = h.profile[0].request
    rng = derive_substream(cfg.master_seed, "evolve")
    best = evolve_request(h, request, cfg.evolution, rng, cfg.evolution.max_generations)
    trace = h.active[request.id].trace
    if out is not None:
        out.write("resolved_config.json", serialize_config(cfg))
        lines = ["generation,best_fitness,mean_fitness"] + [
            f"{k},{b!r},{m!r}" for k, (b, m) in enumerate(trace)]
        out.write("trace.csv", "\n".join(lines) + "\n")
    print(f"best_chain={' '.join(best.genome)}")
    print(f"best_fitness={best.fitness!r}")
    if not quiet:
        print(f"generations={len(trace) - 1}")
    return EXIT_OK


def cmd_oracle(cfg, out: OutputDir | None, quiet: bool) -> int:
    h = cfg.scenario.habitats[0].build()
    genome, fit = brute_force_best(h.pool, h.profile[0].request, beta=cfg.evolution.beta)
    if out is not None:
        out.write("resolved_config.json", serialize_config(cfg))
    print(f"best_chain={' '.join(genome) if genome else ''}")
    print(f"best_fitness={fit!r}")
    return EXIT_OK


def cmd_topology(cfg, out: OutputDir, quiet: bool) -> int:
    topo = cfg.topology
    rng = derive_substream(cfg.master_seed, "growth")
    graph = seed_business_graph(topo.seed_vertices, topo.eta, rng)
    out.write("resolved_config.json", serialize_config(cfg))
    if topo.inject_at is not None:
        trajectory = inject_and_track(graph, topo.inject_eta, topo.inject_at,
                                      topo.steps, topo.m, topo.eta, rng)
        lines = ["step,rank"] + [f"{step},{rank}" for step, rank in trajectory]
        out.write("trajectory.csv", "\n".join(lines) + "\n")
        if not quiet:
            print(f"injected vertex final rank: {trajectory[-1][1]}")
    else:
        grow(graph, topo.steps, topo.m, topo.eta, rng)
    out.write("degrees.csv", graph.degree_lines())
    out.write("business.dot", graph.dot_lines())
    if not quiet:
        degrees = sorted(v.degree for v in graph.vertices.values())
        print(f"vertices={len(graph.vertices)} edges={len(graph.attachment_edges)} "
              f"max_degree={degrees[-1]} median_degree={degrees[len(degrees) // 2]}")
    return EXIT_OK


COMMANDS = {"evolve": cmd_evolve, "oracle": cmd_oracle, "topology": cmd_topology}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbesim",
        description="Deterministic digital business ecosystem simulator.")
    parser.add_argument("subcommand",
                        choices=["run", "evolve", "oracle", "topology", "validate"])
    parser.add_argument("--config", required=True, help="config or snapshot JSON path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--quiet", action="store_true")
    return parser


def dispatch(args) -> int:
    """Run a subcommand; an unexpected exception becomes one stderr line and exit 2."""
    try:
        return _dispatch(args)
    except Exception as e:
        tb = e.__traceback__
        while tb.tb_next is not None:  # the innermost frame: where it was raised
            tb = tb.tb_next
        print(f"internal error: {type(e).__name__}: {e} "
              f"(at {os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno})",
              file=sys.stderr)
        return EXIT_RUNTIME


def _dispatch(args) -> int:
    try:
        cfg, state = parse_config(args.config, seed_override=args.seed)
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    if state is not None and args.seed is not None and args.subcommand in ("run", "validate"):
        # a resumed run takes every stream from the state: the override
        # would change only the seed its outputs record
        print(f"invalid config: {args.config}: a snapshot takes no seed override: "
              f"its run resumes every stream from the state", file=sys.stderr)
        return EXIT_VALIDATION

    # run and topology always write (to ./out by default); evolve and oracle
    # write only when given --out
    out_path = args.out or ("out" if args.subcommand in ("run", "topology") else None)
    try:
        if args.subcommand == "validate":
            if state is not None:  # read as `run` would resume from it
                engine.state_from_obj(cfg, state)
            print("ok")
            return EXIT_OK
        with OutputDir(out_path) if out_path else contextlib.nullcontext() as out:
            if args.subcommand == "run":
                return cmd_run(cfg, state, out, args.quiet)
            return COMMANDS[args.subcommand](cfg, out, args.quiet)
    except engine.SnapshotError as e:
        print(f"invalid snapshot: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (EcosystemError, EvolutionError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
