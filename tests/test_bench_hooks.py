"""The benchmark's tracer still sees every layer of the program.

`perfbench/child.py` wraps dbesim functions where their callers look them
up (module globals and class attributes). A refactor that calls a layer by
another route leaves its wrapper idle and its per-layer metric at 0 without
failing anything. These tests install the traced hooks, run the `dbesim`
command on small inputs and require every layer on the command's path to
have been seen. The perfbench files are imported, never edited.
"""

import importlib.util
import json
import os
import time

from conftest import load_asset_obj
from dbesim import cli

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")

# `manifest.fitness` wraps `evolution.fitness`, which the GA does not call
# (it calls the unchecked `chain_fitness` kernel), so its two metrics read 0
# on every run; mending that belongs to the benchmark. So does
# `config.serialize_snapshot_s`: `run` streams the snapshot through
# `snapshot_chunks`, so its encode now runs inside `cli.write` and the
# `cli.serialize_snapshot` span sees no call; timing the encode belongs to
# the benchmark too. `trace.unattributed_s` is the wall time no span covers,
# not a layer.
RUN_LAYERS = (
    "evolution.generations",
    "evolution.us_per_generation",
    "evolution.evaluate_genome.calls",
    "evolution.tournament_select.self_s",
    "evolution.draw_service.calls",
    "evolution.draw_service.self_s",
    "evolution.fitness_repeat_ratio",
    "ecosystem.evolve_s",
    "ecosystem.execute_s",
    "ecosystem.reinforce_s",
    "ecosystem.migrate_s",
    "ecosystem.decay_s",
    "ecosystem.clustering_s",
    "ecosystem.heal_s",
    "ecosystem.self_s",
    "ecosystem.neighbors.calls",
    "ecosystem.neighbors.self_s",
    "ecosystem.edges_scanned",
    "ecosystem.profile_similarity.calls",
    "ecosystem.connection_writes",
    "topology.record_transaction.calls",
    "engine.loop_self_s",
    "engine.build_run_state_s",
    "engine.serialize_events_s",
    "engine.serialize_metrics_s",
    "engine.state_to_obj_s",
    "config.parse_s",
    "cli.write_s",
)
TOPOLOGY_LAYERS = (
    "topology.grow_self_s",
    "topology.add_attachment_edge.calls",
    "topology.degree_rank.self_s",
    "topology.accept_ratio",
    "config.parse_s",
    "cli.write_s",
)


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_layers(kind, argv):
    """`layer_metrics` of one traced `dbesim` command; every hook is put back."""
    child, tracer_module = _load("child"), _load("tracer")
    tracer = tracer_module.Tracer()
    try:
        child.install_traced(tracer, kind, [])
        start = time.perf_counter()
        assert cli.main(argv) == cli.EXIT_OK
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    summary = tracer.summary(wall_s=wall)
    assert summary["errors"] == []
    return child.layer_metrics(tracer, summary)


def _write(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def traced_run_layers(tmp_path):
    """`layer_metrics` of a traced `dbesim run` of 30 epochs of
    `two_communities.json`, with one failure."""
    obj = load_asset_obj("two_communities.json")
    obj["epochs"] = 30
    obj["failures"] = [{"epoch": 10, "victims": ["a3"]}]
    return traced_layers("run", ["run", "--config", _write(tmp_path, obj),
                                 "--out", str(tmp_path / "out"), "--quiet"])


def test_traced_run_sees_every_run_layer(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "worker_count", lambda n_habitats, cpus: 1)
    layers = traced_run_layers(tmp_path)
    assert [name for name in RUN_LAYERS if not layers[name] > 0] == []


# On two processes the forked log writer serializes the event log and the
# metrics, and its spans are lost with it, so these two read 0 there; seeing
# into forked processes belongs to the benchmark.
WRITER_LAYERS = ("engine.serialize_events_s", "engine.serialize_metrics_s")


def test_traced_two_process_run_sees_every_layer_but_the_writers(tmp_path, monkeypatch):
    """The main process steps its own shard, so every run layer but the
    forked writer's stays in sight."""
    monkeypatch.setattr(cli, "worker_count", lambda n_habitats, cpus: 2)
    layers = traced_run_layers(tmp_path)
    assert [name for name in RUN_LAYERS
            if name not in WRITER_LAYERS and not layers[name] > 0] == []


def test_traced_topology_sees_every_topology_layer(tmp_path):
    obj = load_asset_obj("topology_experiment.json")
    obj["topology"]["steps"] = 2000
    obj["topology"]["inject"]["at_step"] = 1000
    layers = traced_layers("topology", ["topology", "--config", _write(tmp_path, obj),
                                        "--out", str(tmp_path / "out"), "--quiet"])
    assert [name for name in TOPOLOGY_LAYERS if not layers[name] > 0] == []
