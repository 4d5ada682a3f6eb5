"""Sharded runs: the habitat steps on forked workers give the same run.

`engine.run(cfg, workers=n)` is called directly here, which bypasses the
habitat-count rule `dbesim run` applies (`cli.worker_count`).
"""

import ast
import errno
import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import asset_path, load_asset_obj
from dbesim import cli, ecosystem, engine, shards
from dbesim.config import config_from_obj, serialize_snapshot
from test_engine import _evolving_scenario_obj
from test_golden import GOLDEN, bridged24_obj


def outputs(cfg, result):
    """The bytes `dbesim run` writes for events, metrics and snapshot."""
    return {"events.jsonl": engine.serialize_events(result.events),
            "metrics.csv": engine.serialize_metrics(result.metrics),
            "snapshot.json": serialize_snapshot(cfg, result.final_state())}


def record_forks(monkeypatch) -> list:
    """Patch `os.fork` to record the pid of each child forked; returns the list."""
    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):  # already reaped
            os.waitpid(pid, os.WNOHANG)


def stream_states(result):
    return {hid: s.state for hid, s in result.streams.items()}


SCENARIOS = {
    "two_communities": lambda: load_asset_obj("two_communities.json"),
    "bridged24": bridged24_obj,
}


@pytest.fixture(scope="module")
def single_process_states():
    return {name: stream_states(engine.run(config_from_obj(make())))
            for name, make in SCENARIOS.items()}


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_sharded_run_reproduces_the_golden_digests(scenario, workers, single_process_states):
    cfg = config_from_obj(SCENARIOS[scenario]())
    result = engine.run(cfg, workers=workers)
    digests = {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
               for name, text in outputs(cfg, result).items()}
    assert digests == GOLDEN[scenario]
    # equal final stream states: every habitat made the same number of draws
    assert stream_states(result) == single_process_states[scenario]


def test_failures_remove_habitats_from_every_shard():
    obj = load_asset_obj("two_communities.json")
    ids = sorted(h["id"] for h in obj["scenario"]["habitats"])
    obj["epochs"] = 40
    # ids[k::3] is shard k of 3; ids[k::2] is shard k of 2
    obj["failures"] = [{"epoch": 5, "victims": [ids[0], ids[1], ids[5]]},
                       {"epoch": 12, "victims": [ids[2], ids[9], ids[10]]}]
    cfg = config_from_obj(obj)
    single = engine.run(cfg)
    assert single.metrics[-1].habitat_count == len(ids) - 6
    for workers in (2, 3):
        sharded = engine.run(cfg, workers=workers)
        assert outputs(cfg, sharded) == outputs(cfg, single), workers
        assert stream_states(sharded) == stream_states(single), workers


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), failure_epoch=st.integers(1, 6))
def test_sharded_resume_at_every_epoch(seed, failure_epoch):
    """A sharded run resumed from the snapshot of any epoch k gives the
    single-process run's tail events, metrics and final snapshot."""
    base = _evolving_scenario_obj(seed, failure_epoch)
    cfg_full = config_from_obj(base)
    full = engine.run(cfg_full)
    final = serialize_snapshot(cfg_full, full.final_state())
    for k in range(base["epochs"]):
        if k == 0:
            cfg_head, state = cfg_full, engine.state_to_obj(*engine.build_run_state(cfg_full))
        else:
            head_obj = dict(base, epochs=k,
                            failures=[f for f in base["failures"] if f["epoch"] <= k])
            cfg_head = config_from_obj(head_obj)
            state = engine.run(cfg_head, workers=2).final_state()
        state = json.loads(serialize_snapshot(cfg_head, state))["state"]
        resumed = engine.run(cfg_full, state=state, workers=2)
        tail = [e for e in full.events if e.epoch > k]
        assert engine.serialize_events(resumed.events) == engine.serialize_events(tail), k
        assert (engine.serialize_metrics(resumed.metrics)
                == engine.serialize_metrics(full.metrics[k:])), k
        assert serialize_snapshot(cfg_full, resumed.final_state()) == final, k
        assert stream_states(resumed) == stream_states(full), k


def _two_communities_with_failures(epochs, schedule) -> dict:
    """`two_communities.json` over `epochs` epochs; `schedule` maps an epoch
    to the indices, in sorted id order, of the habitats it removes."""
    obj = load_asset_obj("two_communities.json")
    ids = sorted(h["id"] for h in obj["scenario"]["habitats"])
    obj["epochs"] = epochs
    obj["failures"] = [{"epoch": e, "victims": [ids[i] for i in victims]}
                       for e, victims in sorted(schedule.items())]
    return obj


@pytest.mark.parametrize("schedule", [
    {1: [1, 6]},  # before the first message
    {3: [2, 4], 4: [3, 9]},  # two epochs in a row
    {8: [5, 10]},  # at the last epoch
], ids=["first-epoch", "consecutive-epochs", "last-epoch"])
def test_failures_around_the_early_message_give_the_one_process_run(schedule):
    """An epoch with a failure gets its message only after the failure, and
    every other one before the last epoch's decay: either way a run on 2 or
    3 processes gives the events, metrics, snapshot and streams of one."""
    cfg = config_from_obj(_two_communities_with_failures(8, schedule))
    single = engine.run(cfg)
    for workers in (2, 3):
        sharded = engine.run(cfg, workers=workers)
        assert outputs(cfg, sharded) == outputs(cfg, single), workers
        assert stream_states(sharded) == stream_states(single), workers


@pytest.mark.parametrize("workers", [2, 3])
def test_the_next_epochs_message_goes_out_before_this_epochs_decay(monkeypatch, workers):
    """Epoch e + 1's message is put before epoch e's decay pass, except when
    a failure comes first in epoch e + 1; every message put has been
    answered when `collect` runs."""
    cfg = config_from_obj(_two_communities_with_failures(6, {3: [1], 6: [2]}))
    calls = []

    def recording(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(shards.Child, "put", recording("put", shards.Child.put))
    monkeypatch.setattr(shards.Child, "get", recording("get", shards.Child.get))
    monkeypatch.setattr(ecosystem, "decay_all", recording("decay", ecosystem.decay_all))
    monkeypatch.setattr(shards.Shards, "collect", recording("collect", shards.Shards.collect))
    engine.run(cfg, workers=workers)
    one_worker = ("put get put decay "  # epoch 1: its message, then epoch 2's
                  "get decay "  # epoch 2: epoch 3 has a failure
                  "put get put decay "  # epoch 3: after its failure, then epoch 4's
                  "get put decay "  # epoch 4
                  "get decay "  # epoch 5: epoch 6 has a failure
                  "put get decay "  # epoch 6: the last
                  "collect").split()
    expected = [c for c in one_worker for _ in range(workers - 1 if c in ("put", "get") else 1)]
    head = calls[:calls.index("collect") + 1]
    assert head == expected
    assert head.count("put") == head.count("get")


def test_resume_with_no_epoch_left_collects_at_end_of_input(monkeypatch):
    """Resumed from its own final snapshot, a sharded run steps nothing: each
    worker gets no message, sends its whole shard's evolution states when its
    input ends, and is reaped; the snapshot and streams come back unchanged."""
    cfg = config_from_obj(bridged24_obj())
    single = engine.run(cfg)
    final = serialize_snapshot(cfg, single.final_state())
    forked = record_forks(monkeypatch)
    resumed = engine.run(cfg, state=json.loads(final)["state"], workers=2)
    assert (resumed.events, resumed.metrics, len(forked)) == ([], [], 1)
    assert serialize_snapshot(cfg, resumed.final_state()) == final
    assert stream_states(resumed) == stream_states(single)
    assert_reaped(forked)


def test_worker_count_rule():
    assert [cli.worker_count(n, 2) for n in (0, 2, 16, 256, 511)] == [1] * 5
    assert [cli.worker_count(n, 1) for n in (2, 512, 1024, 10**6)] == [1] * 4
    assert cli.worker_count(512, 2) == 2
    assert cli.worker_count(1024, 2) == 2
    assert cli.worker_count(1024, 8) == 4
    assert cli.worker_count(10**6, 8) == 8


def many_habitats_obj(n):
    """`n` one-service habitats in a ring, one epoch."""
    habitats = [{"id": f"h{i:04d}",
                 "catalog": [{"id": f"s{i:04d}", "attrs": ["a"], "in_port": "x",
                              "out_port": "y", "price": 1.0, "reliability": 0.9}],
                 "profile": [{"request": {"id": f"r{i:04d}", "req_attrs": ["a"],
                                          "source_port": "x", "sink_port": "y",
                                          "max_len": 1}}]}
                for i in range(n)]
    return {"seed": 3, "epochs": 1, "evolution": {"population_size": 2},
            "scenario": {"habitats": habitats}}


def test_library_and_small_cli_runs_never_fork(tmp_path, monkeypatch):
    """`engine.run` stays in one process at any size, so a caller counting
    draws through a `Stream` subclass sees them all; `dbesim run` forks only
    for large ecosystems."""
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    result = engine.run(config_from_obj(many_habitats_obj(2 * cli.HABITATS_PER_WORKER)))
    assert len(result.metrics) == 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(load_asset_obj("two_communities.json")), encoding="utf-8")
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
    assert cli.main(argv) == cli.EXIT_OK


def test_commands_other_than_run_never_import_the_shard_machinery(tmp_path):
    """`dbesim topology` and `dbesim validate` load neither `shards.py` nor
    `pickle`: only `engine.run` imports them, so the commands that do not
    run an ecosystem do not pay for them."""
    topology = load_asset_obj("topology_experiment.json")
    topology["topology"].update(steps=200, inject={"eta": 1.0, "at_step": 100})
    topology_path = tmp_path / "topology.json"
    topology_path.write_text(json.dumps(topology), encoding="utf-8")
    code = ("import sys\n"
            "from dbesim import cli\n"
            "out = ['--out', sys.argv[3], '--quiet']\n"
            "assert cli.main(['topology', '--config', sys.argv[2], *out]) == 0\n"
            "assert cli.main(['validate', '--config', sys.argv[1]]) == 0\n"
            "print(sorted(m for m in ('dbesim.shards', 'pickle') if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [asset_path("two_communities.json"), str(topology_path), str(tmp_path / "out")]
    done = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n[]\n"


def test_one_process_run_never_imports_pickle(tmp_path):
    """A `dbesim run` that forks no worker loads neither `pickle` nor
    `signal`: `Shards` imports them only where it forks or reaps a worker."""
    code = ("import sys\n"
            "from dbesim import cli\n"
            "argv = ['run', '--config', sys.argv[1], '--out', sys.argv[2], '--quiet']\n"
            "assert cli.main(argv) == 0\n"
            "print(sorted(m for m in ('dbesim.shards', 'pickle', 'signal') if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [asset_path("two_communities.json"), str(tmp_path / "out")]
    done = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['dbesim.shards']\n"


@pytest.mark.parametrize("fault", ["raises", "dies"])
def test_worker_failure_is_one_line_exit_2(tmp_path, monkeypatch, capsys, fault):
    """A worker whose habitat step raises, or that dies (EOF on its pipe),
    ends `dbesim run` with one `error:` line and exit status 2; the lock file
    is removed, every worker reaped and the collector state restored."""
    main_pid = os.getpid()
    execute = engine.simulate_execution

    def failing_execute(chain, rng):
        if os.getpid() != main_pid:
            if fault == "dies":
                os._exit(3)
            raise ValueError("broken service")
        return execute(chain, rng)

    monkeypatch.setattr(engine, "simulate_execution", failing_execute)
    forked = record_forks(monkeypatch)
    monkeypatch.setattr(cli, "worker_count", lambda n_habitats, cpus: 3)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(load_asset_obj("two_communities.json")), encoding="utf-8")
    out = tmp_path / "out"
    gc_was_enabled = gc.isenabled()
    capsys.readouterr()
    status = cli.main(["run", "--config", str(path), "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert status == cli.EXIT_RUNTIME
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: worker process ") and "Traceback" not in err
    if fault == "raises":
        assert err.rstrip().endswith(": ValueError: broken service")
    else:
        assert err.rstrip().endswith(": exited unexpectedly")
    assert not os.path.exists(out / cli.LOCK_NAME)
    assert len(forked) == 2
    assert_reaped(forked)
    assert gc.isenabled() is gc_was_enabled


def run_cli(out) -> int:
    """`dbesim run` of the shipped `two_communities.json` into `out`."""
    return cli.main(["run", "--config", asset_path("two_communities.json"), "--out", str(out),
                     "--quiet"])


def test_sharded_cli_run_writes_the_pinned_bytes(tmp_path, monkeypatch):
    """`dbesim run` on two processes forks a shard worker and then a log
    writer, reaps both, and writes every file with the bytes of a one-process
    run: those of the golden digests where they are pinned."""
    assert run_cli(tmp_path / "one") == cli.EXIT_OK
    forked = record_forks(monkeypatch)
    monkeypatch.setattr(cli, "worker_count", lambda n_habitats, cpus: 2)
    assert run_cli(tmp_path / "two") == cli.EXIT_OK
    assert len(forked) == 2
    assert_reaped(forked)
    names = sorted(os.listdir(tmp_path / "one"))
    assert len(names) == 7 and sorted(os.listdir(tmp_path / "two")) == names
    for name in names:
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
    digests = {name: hashlib.sha256((tmp_path / "two" / name).read_bytes()).hexdigest()
               for name in GOLDEN["two_communities"]}
    assert digests == GOLDEN["two_communities"]


def assert_failed_run_cleaned_up(out, forked, err, gc_was_enabled):
    """One `error:` line and no traceback; the lock and every temp file are
    gone, both forked processes are reaped and the collector is restored."""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert [name for name in os.listdir(out) if name.startswith(".")] == []
    assert len(forked) == 2
    assert_reaped(forked)
    assert gc.isenabled() is gc_was_enabled


@pytest.mark.parametrize("fault", ["raises", "dies"])
def test_writer_failure_is_one_line_exit_2(tmp_path, monkeypatch, capsys, fault):
    """A log writer that raises while it writes the event log, or dies there,
    ends `dbesim run` with one `error:` line and exit status 2, after the
    main process has written the final state."""
    main_pid = os.getpid()
    serialize_events = engine.serialize_events

    def failing_serialize_events(events):
        if os.getpid() != main_pid:
            if fault == "dies":
                os._exit(3)
            raise ValueError("disk on fire")
        return serialize_events(events)

    monkeypatch.setattr(engine, "serialize_events", failing_serialize_events)
    forked = record_forks(monkeypatch)
    monkeypatch.setattr(cli, "worker_count", lambda n_habitats, cpus: 2)
    gc_was_enabled = gc.isenabled()
    capsys.readouterr()
    assert run_cli(tmp_path / "out") == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith(f"error: writer process {forked[-1]}: ")
    if fault == "raises":
        assert err.rstrip().endswith(": ValueError: disk on fire")
    else:
        assert err.rstrip().endswith(": exited unexpectedly")
    assert_failed_run_cleaned_up(tmp_path / "out", forked, err, gc_was_enabled)
    assert (tmp_path / "out" / "snapshot.json").exists()
    assert not (tmp_path / "out" / "events.jsonl").exists()


def test_main_process_failure_kills_the_writer(tmp_path, monkeypatch, capsys):
    """A failure in the main process while the writer is busy kills and
    reaps the writer at once, and removes the temp file it was writing."""
    main_pid = os.getpid()
    serialize_events = engine.serialize_events

    stalled = []

    def stalled_serialize_events(events):
        if os.getpid() != main_pid and not stalled:  # the writer's first chunk
            stalled.append(True)
            time.sleep(30)
        return serialize_events(events)

    def failing_snapshot_chunks(cfg, state):
        deadline = time.monotonic() + 10
        while not (tmp_path / "out" / ".events.jsonl.tmp").exists():  # the writer's first write
            assert time.monotonic() < deadline
            time.sleep(0.01)
        raise OSError("no space left")

    monkeypatch.setattr(engine, "serialize_events", stalled_serialize_events)
    monkeypatch.setattr(cli, "snapshot_chunks", failing_snapshot_chunks)
    forked = record_forks(monkeypatch)
    monkeypatch.setattr(cli, "worker_count", lambda n_habitats, cpus: 2)
    gc_was_enabled = gc.isenabled()
    capsys.readouterr()
    start = time.monotonic()
    assert run_cli(tmp_path / "out") == cli.EXIT_RUNTIME
    assert time.monotonic() - start < 20
    err = capsys.readouterr().err
    assert err == "error: no space left\n"
    assert_failed_run_cleaned_up(tmp_path / "out", forked, err, gc_was_enabled)


def test_interrupt_while_run_waits_for_its_writer_kills_the_writer(tmp_path, monkeypatch):
    """SIGINT while `dbesim run` waits for its stalled log writer, after the
    main process has written its last file, raises KeyboardInterrupt only
    once the writer is killed and reaped: the lock and every temp file are
    gone."""
    main_pid = os.getpid()
    out = tmp_path / "out"
    serialize_events = engine.serialize_events

    def stalled_serialize_events(events):
        if os.getpid() != main_pid:  # the writer, on its first chunk
            deadline = time.monotonic() + 10
            while not (out / "flows.csv").exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)  # the main process is waiting for the writer by now
            os.kill(main_pid, signal.SIGINT)
            time.sleep(30)
        return serialize_events(events)

    monkeypatch.setattr(engine, "serialize_events", stalled_serialize_events)
    forked = record_forks(monkeypatch)
    monkeypatch.setattr(cli, "worker_count", lambda n_habitats, cpus: 2)
    gc_was_enabled = gc.isenabled()
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_cli(out)
    assert time.monotonic() - start < 20
    assert (out / "flows.csv").exists() and not (out / "events.jsonl").exists()
    assert [name for name in os.listdir(out) if name.startswith(".")] == []
    assert len(forked) == 2
    assert_reaped(forked)
    assert gc.isenabled() is gc_was_enabled


@pytest.mark.parametrize("workers", [3, 2])
def test_a_refused_fork_leaks_nothing(tmp_path, monkeypatch, capsys, workers):
    """A refused second fork, of the second shard worker on three processes
    or of the log writer on two, ends `dbesim run` with the error as its one
    line and exit status 2. The first child is reaped, and no file
    descriptor or dot-file is left."""
    refused = BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    forked = record_forks(monkeypatch)
    fork = os.fork

    def refusing_fork():
        if forked:
            raise refused
        return fork()

    monkeypatch.setattr(os, "fork", refusing_fork)
    monkeypatch.setattr(cli, "worker_count", lambda n_habitats, cpus: workers)
    fds = sorted(os.listdir("/proc/self/fd"))
    capsys.readouterr()
    assert run_cli(tmp_path / "out") == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: {refused}\n"
    assert len(forked) == 1
    assert_reaped(forked)
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert [name for name in os.listdir(tmp_path / "out") if name.startswith(".")] == []


def test_only_shards_forks_or_reaps():
    """Every forked process is a `shards.Child`: no other module of the
    package uses the process calls of `os`."""
    calls = {"fork", "pipe", "kill", "waitpid", "_exit"}
    package = os.path.dirname(engine.__file__)
    users = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in calls
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                users.add(name)
            elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                    alias.name in calls for alias in node.names):
                users.add(name)
    assert users == {"shards.py"}
