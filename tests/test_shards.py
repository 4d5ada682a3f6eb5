"""Sharded runs: the habitat steps on forked workers give the same run.

`engine.run(cfg, workers=n)` is called directly here, which bypasses the
habitat-count rule `dbesim run` applies (`cli.worker_count`).
"""

import gc
import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_asset_obj
from dbesim import cli, engine
from dbesim.config import config_from_obj, serialize_snapshot
from test_engine import _evolving_scenario_obj
from test_golden import GOLDEN, bridged24_obj


def outputs(cfg, result):
    """The bytes `dbesim run` writes for events, metrics and snapshot."""
    return {"events.jsonl": engine.serialize_events(result.events),
            "metrics.csv": engine.serialize_metrics(result.metrics),
            "snapshot.json": serialize_snapshot(cfg, result.final_state())}


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

    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(engine, "simulate_execution", failing_execute)
    monkeypatch.setattr(os, "fork", recording_fork)
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
        assert "exited unexpectedly" in err
    assert not os.path.exists(out / cli.LOCK_NAME)
    assert len(forked) == 2
    for pid in forked:
        with pytest.raises(ChildProcessError):  # already reaped
            os.waitpid(pid, os.WNOHANG)
    assert gc.isenabled() is gc_was_enabled
