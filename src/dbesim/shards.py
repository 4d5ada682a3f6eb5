"""Phase 1 of every epoch across forked processes, with unchanged outputs.

A habitat's step (`ecosystem.habitat_step`) reads and writes only the
habitat's own stream, pool counters and evolution state, so the steps of
one epoch may run in any process. `Shards` forks its workers once, after the
run state is built: process k of n owns the habitat ids `ids[k::n]` for the
whole run, and the main process runs shard 0 itself. Failures, the phases
after the steps, metrics and output stay in the main process, which keeps
the whole run state and stays its one writer:

- Per epoch, the main process sends each worker the ids of its habitats
  still present, their stream states (migration draws from them in the main
  process), and the pool members added since the last message, in pool
  order, with their provenance and the new pool version.
- A worker answers with one record per habitat: its new stream state, the
  profile index of the sampled request and the deployed (genome, fitness,
  success), or no genome when the pool was empty. The main process sets
  the stream state, bumps its own copies of the chain's usage counters as
  the worker did (migration copies them), and emits every step's events
  in habitat-id order.
- At the end, each worker sends back each habitat's evolution state
  (`Habitat.active`), one message per habitat.

Workers are forked, not spawned: a worker inherits the built run state
instead of receiving it pickled, and the program starts no threads that a
fork could leave holding a lock. Messages are pickles over pipes. A worker
that raises sends the error as a string and exits; one that dies leaves EOF
on its pipe. Either surfaces in the main process as a `ShardError`, and
every worker is reaped.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
from itertools import islice

from .ecosystem import Deployment, emit_step, habitat_step
from .evolution import record_deployment


class ShardError(RuntimeError):
    """A worker process failed or died."""


class _Worker:
    def __init__(self, pid: int, ids: list, send, recv):
        self.pid = pid
        self.ids = ids  # the shard, in id order
        self.live = ids  # the shard's habitats still present at the last message
        self.send = send
        self.recv = recv


class Shards:
    """Workers for phase 1; use as a context manager, which reaps them.

    `params`, `budget` and `execute` are those of `ecosystem.habitat_step`,
    fixed for the run.
    """

    def __init__(self, eco, streams: dict, params, budget: int, execute, n: int):
        self.params = params
        self.budget = budget
        self.execute = execute
        ids = eco.habitat_ids()
        self.local = ids[0::n]
        self.pool_sizes = {hid: len(eco.habitats[hid].pool) for hid in ids}
        self.workers: list = []
        try:
            for k in range(1, n):
                self.workers.append(self._fork(eco, streams, ids[k::n]))
        except BaseException:
            self.close(kill=True)
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        self.close(kill=exc_type is not None)
        return False

    def _fork(self, eco, streams: dict, ids: list) -> _Worker:
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (down_r, down_w, up_r, up_w):
                os.close(fd)
            raise
        if pid == 0:  # the worker: it never returns from this branch
            status = 1
            try:
                os.close(down_w)
                os.close(up_r)
                for w in self.workers:  # the earlier workers' pipe ends
                    w.send.close()
                    w.recv.close()
                with open(down_r, "rb") as recv, open(up_w, "wb") as send:
                    try:
                        self._serve(eco, streams, recv, send)
                    except Exception as e:
                        pickle.dump(f"{type(e).__name__}: {e}", send)
                status = 0
            finally:
                os._exit(status)
        os.close(down_r)
        os.close(up_w)
        return _Worker(pid, ids, open(down_w, "wb"), open(up_r, "rb"))

    def _serve(self, eco, streams: dict, recv, send) -> None:
        """The worker's loop: answer messages until EOF."""
        habitats = eco.habitats
        while True:
            try:
                msg = pickle.load(recv)
            except EOFError:
                return
            if msg[0] == "active":
                for hid in msg[1]:
                    pickle.dump(habitats[hid].active, send, pickle.HIGHEST_PROTOCOL)
                send.flush()
                continue
            _, ids, states, added = msg
            for hid, services, version in added:
                h = habitats[hid]
                for s, src in services:
                    h.pool.add(s)
                    h.provenance[s.id] = src
                h.pool_version = version
            records = []
            for hid, state in zip(ids, states):
                rng = streams[hid]
                rng.state = state
                idx, d = habitat_step(habitats[hid], rng, self.params, self.budget,
                                      self.execute)
                records.append((rng.state, idx) if d is None else
                               (rng.state, idx, d.genome, d.fitness, d.success))
            pickle.dump(records, send, pickle.HIGHEST_PROTOCOL)
            send.flush()

    def _send(self, w: _Worker, msg) -> None:
        try:
            pickle.dump(msg, w.send, pickle.HIGHEST_PROTOCOL)
            w.send.flush()
        except BrokenPipeError:
            raise ShardError(f"worker process {w.pid} exited unexpectedly") from None

    def _recv(self, w: _Worker):
        try:
            msg = pickle.load(w.recv)
        except (EOFError, pickle.UnpicklingError):
            raise ShardError(f"worker process {w.pid} exited unexpectedly") from None
        if type(msg) is str:
            raise ShardError(f"worker process {w.pid}: {msg}")
        return msg

    def _added(self, habitats: dict, ids: list) -> list:
        """(id, [(service, provenance)], pool version) of each habitat whose
        pool grew since the last message, new members in pool order."""
        added = []
        sizes = self.pool_sizes
        for hid in ids:
            h = habitats[hid]
            n = len(h.pool)
            if n != sizes[hid]:
                new = [(s, h.provenance[s.id]) for s in islice(h.pool, sizes[hid], None)]
                added.append((hid, new, h.pool_version))
                sizes[hid] = n
        return added

    def habitat_epochs(self, eco, streams: dict, emit) -> list:
        """Every present habitat's step of this epoch; returns the deployments
        in habitat id order, as `run_epoch`'s own loop does."""
        habitats = eco.habitats
        for w in self.workers:
            w.live = [hid for hid in w.ids if hid in habitats]
            self._send(w, ("epoch", w.live, [streams[hid].state for hid in w.live],
                           self._added(habitats, w.live)))
        outcomes = {hid: habitat_step(habitats[hid], streams[hid], self.params, self.budget,
                                      self.execute)
                    for hid in self.local if hid in habitats}
        for w in self.workers:
            for hid, record in zip(w.live, self._recv(w)):
                h = habitats[hid]
                streams[hid].state = record[0]
                d = None
                if len(record) > 2:
                    _, _, genome, fitness, success = record
                    chain = h.pool.resolve(genome)
                    record_deployment(chain, success)
                    d = Deployment(h, tuple(s.id for s in chain), fitness, success)
                outcomes[hid] = (record[1], d)
        deployments = []
        for hid in eco.habitat_ids():
            idx, d = outcomes[hid]
            h = habitats[hid]
            emit_step(h, h.profile[idx].request, d, emit)
            if d is not None:
                deployments.append(d)
        return deployments

    def collect(self, eco) -> None:
        """Take back each present habitat's evolution state from its worker."""
        for w in self.workers:
            w.live = [hid for hid in w.ids if hid in eco.habitats]
            self._send(w, ("active", w.live))
        for w in self.workers:
            for hid in w.live:
                eco.habitats[hid].active = self._recv(w)

    def close(self, kill: bool = False) -> None:
        """Close every pipe and reap every worker; `kill` stops busy ones first.

        A worker whose input is closed exits when it next reads.
        """
        for w in self.workers:
            for f in (w.send, w.recv):
                with contextlib.suppress(OSError):
                    f.close()
        for w in self.workers:
            if kill:
                os.kill(w.pid, signal.SIGKILL)
            os.waitpid(w.pid, 0)
        self.workers = []
