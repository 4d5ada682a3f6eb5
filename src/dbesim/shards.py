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

- Each worker owns its shard's streams for the whole run: it draws on the
  copies it inherited, migration's draws included, and the main process
  neither draws on them nor sets them until `collect`.
- Per epoch, the main process sends each worker one message: the ids of
  its habitats still present, the epoch's migration probability (None when
  a single habitat is left, with no neighbor), and the copies migration
  made into them, in pool order, with their sources. The worker adds them
  through `Habitat.receive`, so its pool version follows.
- The first epoch's message goes out (`dispatch`) once the workers are
  forked, and epoch e + 1's right after epoch e's migration, so the workers
  step while the main process decays the weights, records the transactions
  and builds the metrics row, none of which draws or touches a pool. A
  failure schedule is part of the config, so each message already leaves
  out the habitats its epoch's failures will remove.
- A worker answers with the `habitat_step` record of each habitat. The
  main process replays the record's feedback on its own copies of the
  chain's counters (migration copies them). `ecosystem.run_epoch` then
  emits every step's events, local or not, in habitat-id order, and makes
  migration's destinations and copies from the draws the records carry.
- When its input ends, a worker sends back the state of every stream of
  its shard, failure victims' included, then the evolution state
  (`Habitat.active`) of each habitat its last message named (its shard
  before any), one message per habitat. `collect` ends its input for this
  and sets the stream states on the main process's `Stream` objects.

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

from .ecosystem import habitat_step
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
        fds = os.pipe()
        try:
            fds += os.pipe()
            self.pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        down_r, down_w, up_r, up_w = fds
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
    the run, and `p_mig` the migration probability it gets while two or more
    habitats are present; `n` counts the processes, the main one included.
    It is cut to the habitats present (a resumed state may hold fewer than
    its scenario lists), so no worker is forked with none. `leaving` holds,
    for each epoch still to run, the set of habitat ids its failures remove.
    """

    def __init__(self, eco, streams: dict, params, execute, p_mig: float, n: int, leaving):
        self.eco = eco
        self.streams = streams
        self.params = params
        self.execute = execute
        self.p_mig = p_mig
        self.leaving = iter(leaving)
        self.epoch_p_mig = None  # `habitat_step`'s `p_mig` this epoch, set by `dispatch`
        ids = eco.habitat_ids()
        n = min(n, len(ids))
        self.local = ids[0::n]
        self.shards = [ids[k::n] for k in range(1, n)]  # each worker's, in id order
        self.live = self.shards  # what each worker's last message named, or its shard
        self.workers: list = []
        try:
            for shard in self.shards:
                inherited = [f for w in self.workers for f in (w.send, w.recv)]
                self.workers.append(Child("worker", partial(self._serve, shard), inherited))
            self.dispatch({})
        except BaseException:
            self.close(kill=True)
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        self.close(kill=exc_type is not None)
        return False

    def _serve(self, shard: list, recv, send) -> None:
        """The worker's loop: step the habitats each message names; at EOF, send
        the shard's stream states, then the evolution states of the last
        message's habitats (at first, the shard)."""
        import pickle

        habitats = self.eco.habitats
        streams = self.streams
        live = shard
        while True:
            try:
                live, p_mig, added = pickle.load(recv)
            except EOFError:
                break
            for hid, services in added:
                for s, src in services:
                    habitats[hid].receive(s, src)
            records = [habitat_step(habitats[hid], streams[hid], self.params, self.execute, p_mig)
                       for hid in live]
            pickle.dump(records, send, pickle.HIGHEST_PROTOCOL)
            send.flush()
        pickle.dump([streams[hid].state for hid in shard], send, pickle.HIGHEST_PROTOCOL)
        for hid in live:
            pickle.dump(habitats[hid].active, send, pickle.HIGHEST_PROTOCOL)

    def dispatch(self, added: dict) -> None:
        """Send each worker the message of the next `habitat_epochs` call: its
        habitats present once the epoch's failures are done, the epoch's
        migration probability and the copies into them from `added`
        (destination id -> [(copy, source id)], in the order made). After
        the last epoch it sends nothing.

        `__init__` calls it for the first epoch, and `run_epoch` right after
        each epoch's migration, which leaves the next epoch's pools final, so
        the workers step while the main process finishes the epoch. Pools
        grow only through `Habitat.receive` in migration, so these copies are
        all that the workers' pools lack. No copy into the main process's
        shard, or into a habitat that the failures remove, is sent.
        """
        gone = next(self.leaving, None)
        if gone is None:
            return
        habitats = self.eco.habitats
        present = habitats.keys() - gone if gone else habitats  # most epochs lose none
        # The graph is connected, so a habitat has a neighbor when two or more are present.
        self.epoch_p_mig = self.p_mig if len(present) > 1 else None
        self.live = [[hid for hid in ids if hid in present] for ids in self.shards]
        for w, live in zip(self.workers, self.live):
            w.put((live, self.epoch_p_mig, [(hid, added[hid]) for hid in live if hid in added]))

    def habitat_epochs(self) -> dict:
        """Every present habitat's step of this epoch: its `habitat_step`
        record, keyed by habitat id. A worker's record comes back with its
        feedback replayed and its ids taken from the main process's pool.
        The last `dispatch` must have named this epoch's habitats."""
        habitats = self.eco.habitats
        steps = {hid: habitat_step(habitats[hid], self.streams[hid], self.params, self.execute,
                                   self.epoch_p_mig) for hid in self.local if hid in habitats}
        for w, live in zip(self.workers, self.live):
            for hid, record in zip(live, w.get()):
                if len(record) > 1:
                    # Replay the feedback on the main process's copies and take the ids
                    # from them: the log keeps each chain, and unpickled ids are new strings.
                    chain = [habitats[hid].pool[sid] for sid in record[1]]
                    record_deployment(chain, record[3])
                    record = (record[0], tuple(s.id for s in chain), *record[2:])
                steps[hid] = record
        return steps

    def collect(self) -> None:
        """Take back the final state of every worker's streams and each present
        habitat's evolution state: closing a worker's input makes it send
        them."""
        for w in self.workers:
            w.send.close()
        for w, shard, live in zip(self.workers, self.shards, self.live):
            for hid, state in zip(shard, w.get()):
                self.streams[hid].state = state
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
