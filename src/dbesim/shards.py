"""Phase 1 of every epoch, on one process or across forked ones, with the
same outputs.

A habitat's step (`ecosystem.habitat_step`) reads and writes only the
habitat's own stream, pool counters and evolution state, so the steps of
one epoch may run in any process. Every run steps its habitats through
`Shards`. It forks its workers once, after the run state is built: process
k of n owns the habitat ids `ids[k::n]` for the whole run, and the main
process runs shard 0 itself. With one process, shard 0 is every habitat and
nothing is forked, sent or collected. Failures, the phases after the steps,
metrics and output stay in the main process, which keeps the whole run
state and stays its one writer:

- Per epoch, the main process sends each worker one message: the ids of
  its habitats still present, their stream states (migration draws from
  them in the main process), and the pool members added since the last
  message, in pool order, with their provenance. The worker adds them
  through `Habitat.receive`, so its pool version follows.
- Epoch e + 1's message depends only on what epoch e's migration leaves, so
  it goes out (`dispatch`) right after that migration, and the workers step
  while the main process decays the weights, records the transactions and
  builds the metrics row, none of which draws or touches a pool. The first
  epoch of a run, and an epoch with a scheduled failure, get their message
  only when they start: a failure must remove its victims before the
  message names the habitats still present.
- A worker answers (new stream state, `habitat_step` record) per habitat.
  The main process sets the stream state and replays the record's feedback
  on its own copies of the chain's counters (migration copies them). One
  loop then emits every step, local or not, in habitat-id order.
- When its input ends, a worker sends back the evolution state
  (`Habitat.active`) of each habitat its last message named (its shard
  before any), one message per habitat; `collect` ends its input for this.

Workers are forked, not spawned: a worker inherits the built run state
instead of receiving it pickled, and the program starts no threads that a
fork could leave holding a lock. Every forked process, a worker or `dbesim
run`'s log writer, is a `Child`: pickles over two pipes, its error or death
raised as a `ShardError`, and killed or reaped. `pickle` and `signal` are
imported only where a child is forked or reaped, so a one-process run never
loads them.
"""

from __future__ import annotations

import contextlib
import os
from functools import partial
from itertools import islice

from .ecosystem import Deployment, emit_step, habitat_step
from .evolution import record_deployment


class ShardError(RuntimeError):
    """A forked process failed or died: `<name> process <pid>: <Type>: <message>`
    for an error it raised, else `<name> process <pid>: exited unexpectedly`."""


class Child:
    """A forked process that runs `serve(recv, send)` on its ends of two
    pipes, having closed the `inherited` files of the parent's.

    If `serve` raises, the child sends the error's text and exits; either
    reaches the parent through `get` or `join` as a `ShardError`.
    """

    def __init__(self, name: str, serve, inherited=()):
        import pickle

        self.name = name
        self.status = None  # the wait status, once reaped
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (down_r, down_w, up_r, up_w):
                os.close(fd)
            raise
        if self.pid == 0:  # the child: it never returns from this branch
            status = 1
            try:
                os.close(down_w)
                os.close(up_r)
                for f in inherited:
                    f.close()
                with open(down_r, "rb") as recv, open(up_w, "wb") as send:
                    try:
                        serve(recv, send)
                        status = 0
                    except Exception as e:
                        pickle.dump(f"{type(e).__name__}: {e}", send)
            finally:
                os._exit(status)
        os.close(down_r)
        os.close(up_w)
        self.send = open(down_w, "wb")
        self.recv = open(up_r, "rb")

    def _error(self, text: str) -> ShardError:
        return ShardError(f"{self.name} process {self.pid}: {text}")

    def put(self, msg) -> None:
        import pickle

        try:
            pickle.dump(msg, self.send, pickle.HIGHEST_PROTOCOL)
            self.send.flush()
        except BrokenPipeError:
            raise self._error("exited unexpectedly") from None

    def get(self):
        import pickle

        try:
            msg = pickle.load(self.recv)
        except (EOFError, pickle.UnpicklingError):
            raise self._error("exited unexpectedly") from None
        if type(msg) is str:
            raise self._error(msg)
        return msg

    def join(self) -> None:
        """Reap a child that sends nothing unless it fails; raise its error
        or its death."""
        try:
            self.get()
        except ShardError:  # its error, or the end of its output
            if self.close():
                raise

    def close_pipes(self) -> None:
        """End the child's input and discard its output."""
        for f in (self.send, self.recv):
            with contextlib.suppress(OSError):
                f.close()

    def close(self, kill: bool = False) -> int:
        """Close both pipes and reap the child, killing it first if `kill`;
        returns its wait status. A child already reaped is left alone."""
        self.close_pipes()
        if self.status is None:
            if kill:
                import signal

                os.kill(self.pid, signal.SIGKILL)
            self.status = os.waitpid(self.pid, 0)[1]
        return self.status


class Shards:
    """Phase 1 for `eco` and `streams`; use as a context manager, which reaps
    the workers.

    `params` and `execute` are those of `ecosystem.habitat_step`, fixed for
    the run; `n` counts the processes, the main one included.
    """

    def __init__(self, eco, streams: dict, params, execute, n: int):
        self.eco = eco
        self.streams = streams
        self.params = params
        self.execute = execute
        ids = eco.habitat_ids()
        self.local = ids[0::n]
        self.pool_sizes = {hid: len(eco.habitats[hid].pool) for hid in ids}
        self.shards = [ids[k::n] for k in range(1, n)]  # each worker's, in id order
        self.live = self.shards  # what each worker's last message named, or its shard
        self.sent = False  # whether the next epoch's message is out
        self.workers: list = []
        try:
            for shard in self.shards:
                inherited = [f for w in self.workers for f in (w.send, w.recv)]
                self.workers.append(Child("worker", partial(self._serve, shard), inherited))
        except BaseException:
            self.close(kill=True)
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        self.close(kill=exc_type is not None)
        return False

    def _serve(self, ids: list, recv, send) -> None:
        """The worker's loop: step the habitats each message names; at EOF, send
        the evolution states of the last message's `ids` (at first, the shard)."""
        import pickle

        habitats = self.eco.habitats
        while True:
            try:
                ids, states, added = pickle.load(recv)
            except EOFError:
                break
            for hid, services in added:
                for s, src in services:
                    habitats[hid].receive(s, src)
            records = []
            for hid, state in zip(ids, states):
                rng = self.streams[hid]
                rng.state = state
                record = habitat_step(habitats[hid], rng, self.params, self.execute)
                records.append((rng.state, record))
            pickle.dump(records, send, pickle.HIGHEST_PROTOCOL)
            send.flush()
        for hid in ids:
            pickle.dump(habitats[hid].active, send, pickle.HIGHEST_PROTOCOL)

    def _added(self, habitats: dict, ids: list) -> list:
        """(id, [(service, provenance)]) of each habitat whose pool grew
        since the last message, new members in pool order."""
        added = []
        sizes = self.pool_sizes
        for hid in ids:
            h = habitats[hid]
            n = len(h.pool)
            if n != sizes[hid]:
                new = [(s, h.provenance[s.id]) for s in islice(h.pool, sizes[hid], None)]
                added.append((hid, new))
                sizes[hid] = n
        return added

    def dispatch(self) -> None:
        """Send each worker the message of the next `habitat_epochs` call: its
        present habitats, their stream states and the pool members added
        since its last message, unless that message is out already. With one
        process there is no worker, so it sends nothing.

        `run_epoch` calls it as soon as the next epoch's inputs are final,
        so the workers step while the main process finishes the epoch;
        `habitat_epochs` calls it otherwise.
        """
        if self.sent:
            return
        habitats = self.eco.habitats
        streams = self.streams
        self.live = [[hid for hid in ids if hid in habitats] for ids in self.shards]
        for w, live in zip(self.workers, self.live):
            w.put((live, [streams[hid].state for hid in live], self._added(habitats, live)))
        self.sent = True

    def habitat_epochs(self, emit) -> list:
        """Every present habitat's step of this epoch, each reported by
        `emit_step` in habitat id order; returns the deployments in that
        order."""
        habitats = self.eco.habitats
        streams = self.streams
        self.dispatch()
        self.sent = False
        steps = {hid: habitat_step(habitats[hid], streams[hid], self.params, self.execute)
                 for hid in self.local if hid in habitats}
        for w, live in zip(self.workers, self.live):
            for hid, (state, record) in zip(live, w.get()):
                streams[hid].state = state
                if len(record) > 1:
                    # Replay the feedback on the main process's copies and take the ids
                    # from them: the log keeps each chain, and unpickled ids are new strings.
                    chain = habitats[hid].pool.resolve(record[1])
                    record_deployment(chain, record[3])
                    record = (record[0], tuple(s.id for s in chain), *record[2:])
                steps[hid] = record
        deployments = []
        for hid in self.eco.habitat_ids():
            h = habitats[hid]
            idx, *deployed = steps[hid]
            d = Deployment(h, *deployed) if deployed else None
            emit_step(h, h.profile[idx].request, d, emit)
            if d is not None:
                deployments.append(d)
        return deployments

    def collect(self) -> None:
        """Take back each present habitat's evolution state: closing a
        worker's input makes it send them."""
        for w in self.workers:
            w.send.close()
        for w, live in zip(self.workers, self.live):
            for hid in live:
                self.eco.habitats[hid].active = w.get()

    def close(self, kill: bool = False) -> None:
        """Close every pipe and reap every worker; `kill` stops busy ones first.

        A worker whose input is closed sends its evolution states and exits.
        """
        for w in self.workers:  # every pipe first, so the workers end together
            w.close_pipes()
        for w in self.workers:
            w.close(kill)
