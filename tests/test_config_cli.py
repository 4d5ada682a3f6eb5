"""Config schema strictness, echo round-trips, and CLI behavior."""

import ast
import gc
import hashlib
import importlib.util
import json
import math
import os
from collections import Counter
from functools import cache

import pytest

from conftest import asset_path, load_asset_obj
from dbesim import cli, engine
from dbesim.config import (
    ConfigError,
    TopologyParams,
    config_from_obj,
    config_to_obj,
    parse_config,
    serialize_config,
    serialize_snapshot,
    snapshot_chunks,
    validate_config,
)
from dbesim.engine import run as engine_run
from test_golden import GOLDEN, bridged24_obj


def minimal_obj():
    return {
        "seed": 1,
        "epochs": 2,
        "scenario": {
            "habitats": [
                {"id": "h0",
                 "catalog": [{"id": "s0", "attrs": ["a"], "in_port": "x",
                              "out_port": "y", "price": 1.0, "reliability": 1.0}],
                 "profile": [{"request": {"id": "r0", "req_attrs": ["a"],
                                          "source_port": "x", "sink_port": "y",
                                          "max_len": 1}}]},
                {"id": "h1",
                 "catalog": [{"id": "s1", "attrs": ["b"], "in_port": "x",
                              "out_port": "y", "price": 1.0, "reliability": 1.0}],
                 "profile": [{"request": {"id": "r1", "req_attrs": ["b"],
                                          "source_port": "x", "sink_port": "y",
                                          "max_len": 1}}]},
            ],
        },
    }


def write_config(tmp_path, obj, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def _set_config(path, value):
    def damage(obj):
        *head, last = path
        for key in head:
            obj = obj[key]
        obj[last] = value
    return damage


# --- schema ---

def test_minimal_config_gets_defaults():
    cfg = config_from_obj(minimal_obj())
    assert cfg.evolution.population_size == 100
    assert cfg.evolution.tournament_size == 3
    assert cfg.evolution.generation_budget_per_epoch == 20
    assert cfg.ecosystem.p_mig == 0.2
    assert cfg.ecosystem.w_min == 0.01
    assert cfg.topology.m == 2
    assert cfg.scenario.initial_topology == ("ring",)
    assert cfg.failures == ()
    assert [t.weight for t in cfg.scenario.habitats[0].profile] == [1.0]


def test_unknown_top_level_key_named_in_error():
    obj = minimal_obj()
    obj["epochz"] = 5
    with pytest.raises(ConfigError, match="epochz"):
        config_from_obj(obj)


def test_unknown_nested_key_named_in_error():
    obj = minimal_obj()
    obj["evolution"] = {"population_sizes": 10}
    with pytest.raises(ConfigError, match="population_sizes"):
        config_from_obj(obj)


def test_missing_key_named_at_its_path():
    obj = minimal_obj()
    del obj["seed"]
    with pytest.raises(ConfigError, match=r"^config\.seed: missing$"):
        config_from_obj(obj)


@cache
def _documents() -> dict:
    """A config with a failure and a topology inject block, and the state of
    its run: root name -> (JSON document, reader, error)."""
    obj = load_asset_obj("two_communities.json")
    obj["epochs"] = 6
    obj["failures"] = [{"epoch": 3, "victims": ["a3"]}]
    obj["topology"] = {"inject": {"eta": 1.0, "at_step": 5}}
    cfg = config_from_obj(obj)
    state = json.loads(json.dumps(engine_run(cfg).final_state()))
    return {
        "config": (obj, config_from_obj, ConfigError),
        "state": (state, lambda s: engine.state_from_obj(cfg, s), engine.SnapshotError),
    }


def _scalar_leaves(value, keys=()) -> list:
    """The key path of every scalar in a JSON value."""
    if type(value) not in (dict, list):
        return [keys]
    items = value.items() if type(value) is dict else enumerate(value)
    return [leaf for key, v in items for leaf in _scalar_leaves(v, keys + (key,))]


@pytest.mark.parametrize("root", ["config", "state"])
def test_every_fault_is_named_at_its_path(root):
    """A wrong-typed scalar is named at its exact path. One leaf per shape (the
    path with array indices wildcarded) is damaged: the last in document
    order, so each array reader meets it past its first element."""
    doc, read, error = _documents()[root]
    last_of_shape = {tuple("*" if type(k) is int else k for k in keys): keys
                     for keys in _scalar_leaves(doc)}
    assert len(last_of_shape) > 20
    for *head, last in last_of_shape.values():
        parent = doc
        for key in head:
            parent = parent[key]
        path = root + "".join(f"[{k}]" if type(k) is int else f".{k}" for k in (*head, last))
        leaf, parent[last] = parent[last], {"bad": []}
        try:
            with pytest.raises(error) as info:
                read(doc)
        finally:
            parent[last] = leaf
        assert str(info.value).startswith(path + ": "), str(info.value)


def test_wrong_types_rejected():
    obj = minimal_obj()
    obj["epochs"] = "many"
    with pytest.raises(ConfigError, match="epochs"):
        config_from_obj(obj)


def every_optional_shape_obj():
    """A config that uses every optional shape the echo writes."""
    obj = minimal_obj()
    obj["epochs"] = 4
    obj["evolution"] = {"generation_budget_per_epoch": 5}
    obj["topology"] = {"m": 3, "eta": {"kind": "fixed", "value": 0.5},
                       "inject": {"eta": 1.0, "at_step": 100}}
    obj["scenario"]["initial_topology"] = {"kind": "random_m", "m": 1}
    obj["scenario"]["habitats"][0]["profile"][0]["request"]["budget"] = 2.5
    obj["failures"] = [{"epoch": 3, "victims": ["h1"]}]
    return obj


def test_echo_round_trip_identity():
    for source in (minimal_obj(), load_asset_obj("two_communities.json"),
                   load_asset_obj("topology_experiment.json"),
                   load_asset_obj("catalog8.json"), every_optional_shape_obj()):
        cfg = config_from_obj(source)
        echoed = config_to_obj(cfg)
        cfg2 = config_from_obj(echoed)
        assert cfg2 == cfg
        assert config_to_obj(cfg2) == echoed


# The config boundary is the only place these values are rejected: the run
# core (build_ecosystem, reinforce, decay_all, replication_weight,
# evolve_request) relies on them unchecked.
RANGE_VIOLATIONS = [
    (_set_config(["ecosystem"], {"decay_lambda": 0.0}), "decay out of range"),
    (_set_config(["ecosystem"], {"reinforce_delta": 0.0}), "reinforce_delta must be > 0"),
    (_set_config(["ecosystem"], {"w_min": 2.0}),
     "w_min must be <= 1, the initial connection weight"),
    (_set_config(["evolution"], {"gamma": -1.0}), "gamma must be >= 0"),
    (_set_config(["evolution"], {"beta": 1.0}), "beta out of range"),
    (_set_config(["scenario", "habitats", 0, "profile", 0, "weight"], 0.0),
     "habitat 'h0': profile weight must be > 0"),
    (_set_config(["scenario", "habitats", 0, "profile"], []),
     "habitat 'h0': empty request profile"),
    (_set_config(["scenario", "initial_topology"], {"kind": "random_m", "m": 2}),
     "scenario random_m parameter out of range"),
    (_set_config(["scenario", "initial_topology"], {"kind": "random_m", "m": 0}),
     "scenario random_m parameter out of range"),
    (_set_config(["scenario", "initial_topology"], {"kind": "star"}),
     ".scenario.initial_topology.kind: unknown kind 'star'"),
    # the growth experiment relies on these unchecked
    (_set_config(["topology"], {"steps": 0}), "topology steps must be >= 1"),
    (_set_config(["topology"], {"m": 0}), "topology m must be >= 1"),
    (_set_config(["topology"], {"m": 4, "seed_vertices": 3}),
     "topology seed_vertices must be >= m"),
    (_set_config(["topology"], {"inject": {"eta": 0.0, "at_step": 5}}),
     "topology inject eta out of (0, 1]"),
    (_set_config(["topology"], {"steps": 10, "inject": {"eta": 1.0, "at_step": 10}}),
     "topology inject at_step must be in [1, steps)"),
]


def test_parse_config_range_violations_reported(tmp_path):
    for damage, message in RANGE_VIOLATIONS:
        obj = minimal_obj()
        damage(obj)
        path = write_config(tmp_path, obj)
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert message in str(info.value), (message, str(info.value))


def test_seed_vertices_default_is_the_same_in_code_and_in_a_file():
    obj = minimal_obj()
    obj["topology"] = {"m": 4}
    assert TopologyParams(m=4).seed_vertices == 5
    assert TopologyParams(m=4) == config_from_obj(obj).topology
    assert TopologyParams(m=4, seed_vertices=4).seed_vertices == 4


def test_code_built_inject_needs_both_fields():
    cfg = config_from_obj(minimal_obj())
    cfg.topology = TopologyParams(inject_eta=0.5)
    assert validate_config(cfg) == ["topology inject needs both eta and at_step"]


def test_parse_config_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="malformed JSON"):
        parse_config(str(p))


def test_parse_config_seed_override(tmp_path):
    path = write_config(tmp_path, minimal_obj())
    cfg, _ = parse_config(path, seed_override=777)
    assert cfg.master_seed == 777
    assert config_to_obj(cfg)["seed"] == 777


def test_parse_snapshot_form(tmp_path):
    cfg = config_from_obj(minimal_obj())
    result = engine_run(cfg)
    snap_path = tmp_path / "snap.json"
    snap_path.write_text(serialize_snapshot(cfg, result.final_state()),
                         encoding="utf-8")
    cfg2, state = parse_config(str(snap_path))
    assert state is not None
    assert cfg2 == cfg
    assert state["epoch"] == 2


def test_snapshot_config_faults_are_named_under_config(tmp_path):
    cfg = config_from_obj(minimal_obj())
    snap = json.loads(serialize_snapshot(cfg, engine_run(cfg).final_state()))
    snap["config"]["seed"] = "x"
    snap_path = write_config(tmp_path, snap, name="snap.json")
    with pytest.raises(ConfigError) as bad_type:
        parse_config(snap_path)
    assert str(bad_type.value) == f"{snap_path}.config.seed: expected an integer"
    snap["config"]["seed"] = 1
    snap["config"]["epochs"] = 0
    write_config(tmp_path, snap, name="snap.json")
    with pytest.raises(ConfigError) as out_of_range:
        parse_config(snap_path)
    assert str(out_of_range.value) == f"{snap_path}.config: epochs must be >= 1"


def test_failures_parse_and_echo():
    obj = minimal_obj()
    obj["epochs"] = 5
    obj["failures"] = [{"epoch": 3, "victims": ["h0"]}]
    cfg = config_from_obj(obj)
    assert cfg.failures[0].epoch == 3
    assert cfg.failures[0].victims == ("h0",)
    assert config_to_obj(cfg)["failures"] == [{"epoch": 3, "victims": ["h0"]}]


# --- CLI ---

def test_cli_validate_reference_configs():
    for name in ("catalog8.json", "two_communities.json", "topology_experiment.json"):
        assert cli.main(["validate", "--config", asset_path(name)]) == 0


def test_make_assets_regenerates_the_shipped_assets():
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "make_assets.py")
    spec = importlib.util.spec_from_file_location("make_assets", script)
    make_assets = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_assets)
    for name, build in (("catalog8.json", make_assets.catalog8),
                        ("two_communities.json", make_assets.two_communities),
                        ("topology_experiment.json", make_assets.topology_experiment)):
        with open(asset_path(name), "r", encoding="utf-8") as f:
            assert f.read() == json.dumps(build(), indent=2) + "\n", name


# A NaN or an infinity passes every range check written as a comparison, so
# the reader rejects non-finite numbers wherever a number is read.
BAD_CONFIGS = [
    (_set_config(["epochs"], 0), "epochs"),
    (_set_config(["ecosystem"], {"reinforce_delta": math.nan}),
     "config.json.ecosystem.reinforce_delta: expected a finite number"),
    (_set_config(["ecosystem"], {"reinforce_delta": math.inf}),
     "config.json.ecosystem.reinforce_delta: expected a finite number"),
    (_set_config(["ecosystem"], {"w_min": math.nan}),
     "config.json.ecosystem.w_min: expected a finite number"),
    (_set_config(["scenario", "habitats", 0, "profile", 0, "weight"], math.nan),
     "config.json.scenario.habitats[0].profile[0].weight: expected a finite number"),
    (_set_config(["scenario", "habitats", 1, "catalog", 0, "price"], math.inf),
     "config.json.scenario.habitats[1].catalog[0].price: expected a finite number"),
    (_set_config(["evolution"], {"gamma": math.nan}),
     "config.json.evolution.gamma: expected a finite number"),
    (lambda obj: obj["scenario"]["habitats"].pop(), "scenario needs at least 2 habitats"),
]


def test_cli_validate_bad_config(tmp_path, capsys):
    for damage, message in BAD_CONFIGS:
        obj = minimal_obj()
        damage(obj)
        path = write_config(tmp_path, obj)
        errs = []
        for sub in ("validate", "run"):
            assert cli.main([sub, "--config", path, "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert message in err, (sub, message, err)
            assert len(err.strip().splitlines()) == 1, err
            errs.append(err)
        assert errs[0] == errs[1] and errs[0].startswith("invalid config: "), errs


def test_cli_validate_missing_file(tmp_path, capsys):
    assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_run_writes_outputs(tmp_path):
    path = write_config(tmp_path, minimal_obj())
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", path, "--out", out, "--quiet"]) == 0
    names = sorted(os.listdir(out))
    assert names == ["business.dot", "ecosystem.dot", "events.jsonl", "flows.csv",
                     "metrics.csv", "resolved_config.json", "snapshot.json"]


def test_cli_run_twice_identical_outputs(tmp_path):
    path = write_config(tmp_path, minimal_obj())
    outs = []
    for name in ("out_a", "out_b"):
        out = str(tmp_path / name)
        assert cli.main(["run", "--config", path, "--out", out, "--quiet"]) == 0
        with open(os.path.join(out, "events.jsonl"), "rb") as f:
            events = f.read()
        with open(os.path.join(out, "metrics.csv"), "rb") as f:
            metrics = f.read()
        outs.append((events, metrics))
    assert outs[0] == outs[1]


def test_cli_run_resumes_from_snapshot(tmp_path):
    obj = minimal_obj()
    obj["epochs"] = 4
    path = write_config(tmp_path, obj)
    out1 = str(tmp_path / "first")
    assert cli.main(["run", "--config", path, "--out", out1, "--quiet"]) == 0

    # extend the snapshot's horizon and resume from it
    with open(os.path.join(out1, "snapshot.json"), "r", encoding="utf-8") as f:
        snap = json.load(f)
    snap["config"]["epochs"] = 6
    snap_path = write_config(tmp_path, snap, name="snap.json")
    out2 = str(tmp_path / "second")
    assert cli.main(["run", "--config", snap_path, "--out", out2, "--quiet"]) == 0
    with open(os.path.join(out2, "metrics.csv"), "r", encoding="utf-8") as f:
        lines = f.read().strip().split("\n")
    assert [ln.split(",")[0] for ln in lines[1:]] == ["5", "6"]


def test_cli_seed_override_recorded(tmp_path):
    path = write_config(tmp_path, minimal_obj())
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", path, "--out", out, "--seed", "99",
                     "--quiet"]) == 0
    with open(os.path.join(out, "resolved_config.json"), "r", encoding="utf-8") as f:
        echoed = json.load(f)
    assert echoed["seed"] == 99


def test_cli_seed_override_refused_for_a_snapshot(tmp_path, capsys):
    """A resumed run takes every stream from the state, so a seed override
    would change only the seed the outputs record. `evolve` starts from the
    snapshot's config alone and still takes one."""
    path = write_config(tmp_path, minimal_obj())
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "first"), "--quiet"]) == 0
    snap_path = str(tmp_path / "first" / "snapshot.json")
    for sub in ("validate", "run"):
        out = tmp_path / f"out-{sub}"
        capsys.readouterr()
        status = cli.main([sub, "--config", snap_path, "--out", str(out), "--seed", "99"])
        assert status == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"invalid config: {snap_path}: a snapshot takes no seed override: "
            f"its run resumes every stream from the state\n")
        assert not out.exists()
    out = tmp_path / "out-evolve"
    assert cli.main(["evolve", "--config", snap_path, "--out", str(out), "--seed", "99",
                     "--quiet"]) == 0
    with open(out / "resolved_config.json", "r", encoding="utf-8") as f:
        assert json.load(f)["seed"] == 99


def test_cli_snapshot_whose_failures_remove_every_habitat(tmp_path, capsys):
    """A snapshot trimmed to one habitat, which a later failure removes, is
    refused when it is read, not in the middle of the resumed run."""
    obj = load_asset_obj("two_communities.json")
    obj["epochs"] = 3
    path = write_config(tmp_path, obj)
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "first"), "--quiet"]) == 0
    with open(tmp_path / "first" / "snapshot.json", "r", encoding="utf-8") as f:
        snap = json.load(f)
    snap["config"]["epochs"] = 6
    snap["config"]["failures"] = [{"epoch": 5, "victims": ["a0"]}]
    state = snap["state"]
    state["habitats"] = [h for h in state["habitats"] if h["id"] == "a0"]
    state["streams"] = {"a0": state["streams"]["a0"]}
    state["connections"] = []
    snap_path = write_config(tmp_path, snap, name="snap.json")
    for sub in ("validate", "run"):
        out = tmp_path / f"out-{sub}"
        capsys.readouterr()
        assert cli.main([sub, "--config", snap_path, "--out", str(out)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "invalid snapshot: state.habitats: the failures after epoch 3 remove every habitat\n")
        assert not (out / "events.jsonl").exists()


def _malformed_snapshot_run(tmp_path, capsys, damage):
    path = write_config(tmp_path, minimal_obj())
    out1 = str(tmp_path / "first")
    assert cli.main(["run", "--config", path, "--out", out1, "--quiet"]) == 0
    with open(os.path.join(out1, "snapshot.json"), "r", encoding="utf-8") as f:
        snap = json.load(f)
    snap["config"]["epochs"] = 4
    damage(snap["state"])
    snap_path = write_config(tmp_path, snap, name="snap.json")
    capsys.readouterr()
    status = cli.main(["run", "--config", snap_path, "--out", str(tmp_path / "second"),
                       "--quiet"])
    err = capsys.readouterr().err
    assert status == cli.EXIT_VALIDATION
    assert len(err.strip().splitlines()) == 1
    # validate reads the state as run resumes from it: same line, same status
    assert cli.main(["validate", "--config", snap_path]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == err
    return err


def test_cli_snapshot_missing_epoch(tmp_path, capsys):
    err = _malformed_snapshot_run(tmp_path, capsys, lambda st: st.pop("epoch"))
    assert "state.epoch: missing" in err


def test_cli_snapshot_non_integer_usage_count(tmp_path, capsys):
    def damage(st):
        st["habitats"][0]["pool"][0]["usage_count"] = "many"

    err = _malformed_snapshot_run(tmp_path, capsys, damage)
    assert "state.habitats[0].pool[0].usage_count: expected an integer" in err


def test_cli_snapshot_short_connection_triple(tmp_path, capsys):
    def damage(st):
        st["connections"][0] = st["connections"][0][:2]

    err = _malformed_snapshot_run(tmp_path, capsys, damage)
    assert "state.connections[0]: expected 3 elements, got 2" in err


def test_cli_snapshot_genome_over_max_len(tmp_path, capsys):
    def damage(st):
        genome = st["habitats"][0]["active"][0]["population"][0][0]
        genome.append(genome[0])

    err = _malformed_snapshot_run(tmp_path, capsys, damage)
    assert ("state.habitats[0].active[0].population[0][0]: "
            "genome length 2 outside [1, max_len 1]") in err


def test_cli_snapshot_fitness_not_the_genomes(tmp_path, capsys):
    """The run trusts a population's cached fitness: a stored value that is
    not the genome's score is rejected, not resumed into a mean above 1."""
    def damage(st):
        for h in st["habitats"]:
            for evo in h["active"]:
                for row in evo["population"]:
                    row[1] = 7.5

    err = _malformed_snapshot_run(tmp_path, capsys, damage)
    assert err == ("invalid snapshot: state.habitats[0].active[0].population[0][1]: "
                   "fitness 7.5 is not the genome's fitness 1.0\n")


def test_cli_snapshot_bad_provenance(tmp_path, capsys):
    """A provenance the run core would trip over deep inside (exit 2) is
    rejected as the snapshot is read."""
    def damage(st):
        st["habitats"][0]["provenance"] = {"s0": "nowhere"}

    err = _malformed_snapshot_run(tmp_path, capsys, damage)
    assert err == ("invalid snapshot: state.habitats[0].provenance.s0: "
                   "unknown source habitat 'nowhere'\n")


@pytest.mark.parametrize("damage, message", [
    pytest.param(_set_config(["habitats", 0, "pool_version"], 0),  # h0 received s1
                 "state.habitats[0].pool_version: expected 1, the number of provenance entries",
                 id="pool-version"),
    pytest.param(_set_config(["habitats", 0, "active", 0, "trace", 0, 0], 1),
                 "state.habitats[0].active[0].trace[0][0]: expected generation 0, got 1",
                 id="trace-generation"),
    pytest.param(_set_config(["habitats", 0, "active", 0, "total_generations"], 1),
                 "state.habitats[0].active[0].trace: 1 rows for total_generations 1: expected 2",
                 id="trace-length"),
    pytest.param(lambda st: st["habitats"][0]["active"].append(st["habitats"][0]["active"][0]),
                 "state.habitats[0].active[1].request: a second evolution state for request 'r0'",
                 id="duplicate-evolution"),
])
def test_cli_snapshot_derived_facts_must_match(tmp_path, capsys, damage, message):
    """The pool version and the trace's generation numbers are derived by
    the run, and a run keeps one evolution state per request; a snapshot
    that states them otherwise is refused, not resumed into a run that no
    fresh run produces."""
    err = _malformed_snapshot_run(tmp_path, capsys, damage)
    assert err == f"invalid snapshot: {message}\n"


def test_cli_rejects_verbose(capsys):
    with pytest.raises(SystemExit) as info:
        cli.build_parser().parse_args(["run", "--config", "c.json", "--verbose"])
    assert info.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err


def test_cli_lock_file_blocks_concurrent_use(tmp_path, capsys):
    path = write_config(tmp_path, minimal_obj())
    out = str(tmp_path / "out")
    os.makedirs(out)
    lock = os.path.join(out, cli.LOCK_NAME)
    with open(lock, "w", encoding="utf-8"):
        pass
    assert cli.main(["run", "--config", path, "--out", out, "--quiet"]) == 2
    assert "locked" in capsys.readouterr().err
    os.remove(lock)
    assert cli.main(["run", "--config", path, "--out", out, "--quiet"]) == 0
    assert not os.path.exists(lock)


def test_cli_oracle_and_evolve_agree_on_reference_catalog(capsys):
    assert cli.main(["oracle", "--config", asset_path("catalog8.json"),
                     "--quiet"]) == 0
    oracle_out = capsys.readouterr().out
    assert cli.main(["evolve", "--config", asset_path("catalog8.json"),
                     "--quiet"]) == 0
    evolve_out = capsys.readouterr().out

    def fitness_of(text):
        for line in text.splitlines():
            if line.startswith("best_fitness="):
                return float(line.split("=", 1)[1])
        raise AssertionError(f"no fitness line in {text!r}")

    assert fitness_of(oracle_out) == fitness_of(evolve_out) == 1.0


def test_cli_evolve_writes_trace(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert cli.main(["evolve", "--config", asset_path("catalog8.json"),
                     "--out", out, "--quiet"]) == 0
    with open(os.path.join(out, "trace.csv"), "r", encoding="utf-8") as f:
        lines = f.read().strip().split("\n")
    assert lines[0] == "generation,best_fitness,mean_fitness"
    assert len(lines) >= 2


def test_cli_topology_writes_experiment_outputs(tmp_path, capsys):
    obj = load_asset_obj("topology_experiment.json")
    obj["topology"]["steps"] = 200
    obj["topology"]["inject"]["at_step"] = 100
    path = write_config(tmp_path, obj)
    out = str(tmp_path / "out")
    assert cli.main(["topology", "--config", path, "--out", out, "--quiet"]) == 0
    names = sorted(os.listdir(out))
    assert names == ["business.dot", "degrees.csv", "resolved_config.json",
                     "trajectory.csv"]
    with open(os.path.join(out, "trajectory.csv"), "r", encoding="utf-8") as f:
        lines = f.read().strip().split("\n")
    assert lines[0] == "step,rank"
    assert lines[-1].startswith("200,")


def test_cli_writes_only_inside_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, minimal_obj())
    before = set(os.listdir(tmp_path))
    out = str(tmp_path / "only_here")
    assert cli.main(["run", "--config", path, "--out", out, "--quiet"]) == 0
    after = set(os.listdir(tmp_path))
    assert after - before == {"only_here"}


def test_cli_rejects_service_id_shared_across_habitats(tmp_path, capsys):
    obj = minimal_obj()
    obj["scenario"]["habitats"][1]["catalog"][0]["id"] = "s0"
    path = write_config(tmp_path, obj)
    for sub in ("validate", "run"):
        assert cli.main([sub, "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "service id 's0' defined by habitats 'h0' and 'h1'" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"[" * 200_000, b"\xff\xfe{}"],
                         ids=["too deeply nested", "not UTF-8"])
def test_cli_unreadable_json_is_malformed(tmp_path, capsys, content):
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    for sub in ("validate", "run"):
        assert cli.main([sub, "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "malformed JSON" in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("document", ["config", "snapshot"])
def test_cli_integer_over_the_digit_limit_is_malformed(tmp_path, capsys, document):
    """An integer literal of 4301 digits, over CPython's int-string limit,
    is malformed input: exit 1 with one line, and nothing is written. The
    file is written as raw text, since `json.dumps` cannot write such an
    int."""
    if document == "config":
        obj = dict(minimal_obj(), seed="BIG")
    else:
        path = write_config(tmp_path, minimal_obj())
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "first"),
                         "--quiet"]) == 0
        with open(tmp_path / "first" / "snapshot.json", "r", encoding="utf-8") as f:
            obj = json.load(f)
        obj["state"]["streams"]["h0"] = "BIG"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj).replace('"BIG"', "7" * 4301), encoding="utf-8")
    before = sorted(os.listdir(tmp_path))
    for sub in ("validate", "run"):
        out = tmp_path / f"out-{sub}"
        capsys.readouterr()
        assert cli.main([sub, "--config", str(bad), "--out", str(out)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"invalid config: {bad}: malformed JSON: "), err
        assert len(err.strip().splitlines()) == 1, err
        assert sorted(os.listdir(tmp_path)) == before
        assert not out.exists()


def test_cli_unexpected_exception_is_one_line_exit_2(tmp_path, monkeypatch, capsys):
    def broken_run(cfg, state=None, workers=1):
        raise KeyError("h9")

    monkeypatch.setattr(cli.engine, "run", broken_run)
    path = write_config(tmp_path, minimal_obj())
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", path, "--out", out, "--quiet"]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "KeyError" in err and "'h9'" in err
    assert not os.path.exists(os.path.join(out, cli.LOCK_NAME))


@pytest.mark.parametrize("enabled", [True, False])
def test_cli_run_restores_the_collector_state(tmp_path, monkeypatch, enabled):
    """`run` pauses the cyclic collector and leaves it as it found it, on
    success (exit 0), on a bad snapshot (exit 1) and on an unexpected
    exception (exit 2)."""
    seen = []

    def broken_run(error):
        def run(cfg, state=None, workers=1):
            seen.append(gc.isenabled())
            raise error
        return run

    path = write_config(tmp_path, minimal_obj())
    argv = ["run", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]
    try:
        (gc.enable if enabled else gc.disable)()
        assert cli.main(argv) == cli.EXIT_OK
        assert gc.isenabled() is enabled
        for error, code in ((engine.SnapshotError("state.epoch: missing"), cli.EXIT_VALIDATION),
                            (KeyError("h9"), cli.EXIT_RUNTIME)):
            monkeypatch.setattr(cli.engine, "run", broken_run(error))
            assert cli.main(argv) == code
            assert gc.isenabled() is enabled
        assert seen == [False, False]
    finally:
        gc.enable()


def cyclic_garbage(fn):
    """Type names of the unreachable cyclic objects that calling `fn` leaves."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("scenario", ["two_communities", "bridged24"])
def test_cmd_run_makes_no_cyclic_garbage(tmp_path, monkeypatch, scenario):
    """The premise of pausing the collector during `run`: the run leaves no
    reference cycle for it to free, and its outputs leave only the constant
    few of one `indent=2` JSON encoding (`json`'s pure-Python encoder makes
    its recursive closures into one cycle per call). On two processes the
    forked log writer makes that encoding, so the main process leaves none."""
    # The first `import pickle` in a process leaves cyclic garbage once: the
    # pure-Python exception classes that `_pickle`'s replace. Pay it up front.
    import pickle  # noqa: F401

    if scenario == "bridged24":
        path = write_config(tmp_path, bridged24_obj())
    else:
        path = asset_path("two_communities.json")
    cfg, state = parse_config(path)
    for workers in (1, 2):
        assert cyclic_garbage(lambda: engine_run(cfg, state=state, workers=workers)) == Counter()
        monkeypatch.setattr(cli, "worker_count", lambda n_habitats, cpus: workers)

        def run_and_write():
            with cli.OutputDir(str(tmp_path / f"out{workers}")) as out:
                assert cli.cmd_run(cfg, state, out, quiet=True) == cli.EXIT_OK

        encoding = cyclic_garbage(lambda: serialize_config(cfg)) if workers == 1 else Counter()
        assert cyclic_garbage(run_and_write) == encoding, workers


def test_output_write_is_atomic(tmp_path):
    """A write that fails partway, on text it cannot encode or on a chunk
    iterator that raises, leaves the earlier file and no temp file."""
    def chunks_then_fail():
        yield "x" * 100_000  # more than a buffer: the temp file has content
        raise ValueError("no next chunk")

    out_path = str(tmp_path / "out")
    with cli.OutputDir(out_path) as out:
        target = out.write("snapshot.json", "first\n")
        with pytest.raises(UnicodeEncodeError):
            out.write("snapshot.json", "x" * 100_000 + "\ud800")  # not encodable
        with pytest.raises(ValueError, match="no next chunk"):
            out.write("snapshot.json", chunks_then_fail())
    with open(target, "r", encoding="utf-8") as f:
        assert f.read() == "first\n"
    assert os.listdir(out_path) == ["snapshot.json"]


def test_run_empties_the_event_log_before_the_snapshot(tmp_path, monkeypatch):
    """`run` writes events.jsonl first and frees the log before it builds
    the snapshot, so the two are never in memory side by side. A run on two
    processes hands the log to its forked writer and frees its own copy at
    once, without writing it."""
    for workers in (1, 2):
        results, logs_at_snapshot = [], []

        def keep_result(*args, **kwargs):
            results.append(engine_run(*args, **kwargs))
            return results[-1]

        def chunks(cfg, state):
            logs_at_snapshot.append(list(results[0].events))
            return snapshot_chunks(cfg, state)

        monkeypatch.setattr(engine, "run", keep_result)
        monkeypatch.setattr(cli, "snapshot_chunks", chunks)
        monkeypatch.setattr(cli, "worker_count", lambda n_habitats, cpus: workers)
        out = tmp_path / f"out{workers}"
        assert cli.main(["run", "--config", write_config(tmp_path, minimal_obj()),
                         "--out", str(out), "--quiet"]) == 0
        assert logs_at_snapshot == [[]], workers
        assert (out / "events.jsonl").read_text(encoding="utf-8").count("\n") > 0


@pytest.mark.parametrize("chunk", [1, 7])
def test_chunked_outputs_equal_the_single_string_forms(tmp_path, monkeypatch, chunk):
    """However the files are cut into chunks, their bytes are the pinned
    single-string forms."""
    monkeypatch.setattr(cli, "CHUNK", chunk)
    got, pinned = {}, {}
    for sub, asset, names in (("run", "two_communities", ["events.jsonl"]),
                              ("topology", "topology_experiment", ["degrees.csv", "business.dot"])):
        out = tmp_path / sub
        assert cli.main([sub, "--config", asset_path(f"{asset}.json"), "--out", str(out),
                         "--quiet"]) == 0
        for name in names:
            got[asset, name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
            pinned[asset, name] = GOLDEN[asset][name]
    assert got == pinned


def test_only_config_parses_input():
    """Every input check is made in `config.py`: no other module of the package
    parses JSON text or compiles a pattern."""
    calls = {("json", "load"), ("json", "loads"), ("re", "compile")}
    package = os.path.dirname(engine.__file__)
    users = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and (node.value.id, node.attr) in calls):
                users.add(name)
            elif isinstance(node, ast.ImportFrom) and any(
                    (node.module, alias.name) in calls for alias in node.names):
                users.add(name)
    assert users == {"config.py"}
