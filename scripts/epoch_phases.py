#!/usr/bin/env python3
"""Where the main process's time goes in each epoch of `dbesim run`.

Usage (from the root of a dbesim checkout):

    python3 scripts/epoch_phases.py --config PATH [--seed S ...] [--workers N]

Runs the config once per seed (default: the config's own), in this process,
with the cyclic collector paused as `dbesim run` pauses it, and writes no
output files. `--workers` defaults to the count `dbesim run` would use on
this host. Timestamps are taken by wrapping module-global and
class-attribute seams from outside, as `perfbench/child.py` does; nothing
under `src/` is changed, and the forked workers call no wrapped seam.

An epoch runs from one `run_epoch` call to the next, the last one to the
return of the epoch loop. Its phases, all in the main process:

- `steps`: the main process's own habitat steps;
- `wait`: waiting for and unpickling the workers' records (`Child.get`);
- `replay`: replaying those records' feedback on the main process's pools;
- `deploy`: the deployment tuples, the step events and reinforcement, up to
  the first `migrate` call (or to `dispatch` if no migration fired);
- `migrate`: from there to `dispatch`;
- `dispatch`: sending the next epoch's messages;
- `after`: from `dispatch`'s return to the next epoch, which holds `decay`,
  the `transactions` and `clustering` (summed over their calls) and the
  next epoch's failures.

It prints the median of each phase in unscaled microseconds, over the
epochs whose total is under 0.3 ms (on a converged run, those whose
habitats ran no GA generation) and over all epochs. Each wrapped call adds
two timestamps, so the totals read a few microseconds above an unwrapped
run's.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PHASES = ("total", "steps", "wait", "replay", "deploy", "migrate", "dispatch", "after",
          "decay", "transactions", "clustering")
FAST_US = 300.0  # the `step_ms_p50` regime of a converged run


def wrap(owner, attr: str, name: str, marks: list, undo: list) -> None:
    """Replace `owner.attr` by a wrapper that appends (name, t) before the
    call and (name + "/", t) after it, t in seconds."""
    fn = getattr(owner, attr)
    clock = time.perf_counter
    append = marks.append

    def stamped(*args, **kwargs):
        append((name, clock()))
        try:
            return fn(*args, **kwargs)
        finally:
            append((name + "/", clock()))

    undo.append((owner, attr, fn))
    setattr(owner, attr, stamped)


def install(marks: list) -> list:
    """Wrap every seam the phases read; returns what `restore` puts back."""
    from dbesim import ecosystem, engine, shards

    undo: list = []
    for owner, attr, name in (
            (engine, "_epochs", "loop"),
            (engine, "run_epoch", "epoch"),
            (shards.Shards, "habitat_epochs", "steps"),
            (shards.Child, "get", "get"),
            (ecosystem, "migrate", "migrate"),
            (shards.Shards, "dispatch", "dispatch"),
            (ecosystem, "decay_all", "decay"),
            (engine, "record_transaction", "transactions"),
            (engine, "clustering_statistic", "clustering")):
        wrap(owner, attr, name, marks, undo)
    return undo


def restore(undo: list) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)


def _phases(marks: list, end: float) -> dict:
    """One epoch's phases in µs from its marks, the first ("epoch", t0), and
    the time it ended."""
    first: dict = {}
    last: dict = {}
    spent: dict = {}
    for label, t in marks:
        first.setdefault(label, t)
        last[label] = t
        if label.endswith("/"):
            name = label[:-1]
            spent[name] = spent.get(name, 0.0) + t - last[name]
    t0 = marks[0][1]
    got = last["steps/"]
    asked = first.get("get", got)
    sent = first["dispatch"]
    moved = first.get("migrate", sent)
    s = {
        "total": end - t0,
        "steps": asked - t0,
        "wait": spent.get("get", 0.0),
        "replay": got - asked - spent.get("get", 0.0),
        "deploy": moved - got,
        "migrate": sent - moved,
        "dispatch": spent["dispatch"],
        "after": end - last["dispatch/"],
        "decay": spent.get("decay", 0.0),
        "transactions": spent.get("transactions", 0.0),
        "clustering": spent.get("clustering", 0.0),
    }
    return {k: v * 1e6 for k, v in s.items()}


def epoch_phases(marks: list) -> list:
    """Per-epoch phase dicts (µs) from the marks of one or more runs. An epoch
    starts at an "epoch" mark and ends at the next one or at the loop's
    return ("loop/"); marks outside an epoch (the first dispatch at fork,
    the next run's setup) are ignored."""
    epochs = []
    cur = None
    for label, t in marks:
        if label in ("epoch", "loop/"):
            if cur:
                epochs.append(_phases(cur, t))
            cur = [(label, t)] if label == "epoch" else None
        elif cur is not None:
            cur.append((label, t))
    return epochs


def summarize(epochs: list, fast_us: float = FAST_US) -> dict:
    """{"fast": ..., "all": ...}: each the epoch count ("epochs") and each
    phase's median, over the epochs whose total is under `fast_us` and over
    all of them. A group with no epoch holds its count alone."""
    out = {}
    for group, rows in (("fast", [e for e in epochs if e["total"] < fast_us]), ("all", epochs)):
        out[group] = {"epochs": len(rows)}
        if rows:
            out[group].update({p: statistics.median(e[p] for e in rows) for p in PHASES})
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="per-phase medians of dbesim run's epochs")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, nargs="+", help="program seeds (default: the config's)")
    p.add_argument("--workers", type=int, help="processes (default: as dbesim run picks)")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dbesim import cli, engine
    from dbesim.config import parse_config

    epochs: list = []
    for seed in args.seed or [None]:
        cfg, state = parse_config(args.config, seed_override=seed)
        workers = args.workers or cli.worker_count(len(cfg.scenario.habitats),
                                                   len(os.sched_getaffinity(0)))
        marks: list = []
        undo = install(marks)
        gc.disable()
        try:
            engine.run(cfg, state=state, workers=workers)
        finally:
            gc.enable()
            restore(undo)
        epochs += epoch_phases(marks)

    s = summarize(epochs)
    print(f"{'phase (µs)':<14}{'< 0.3 ms':>10}{'all':>10}")
    print(f"{'epochs':<14}{s['fast']['epochs']:>10}{s['all']['epochs']:>10}")
    for phase in PHASES:
        cells = [f"{s[g][phase]:>10.1f}" if phase in s[g] else f"{'-':>10}" for g in ("fast", "all")]
        print(f"{phase:<14}{''.join(cells)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
