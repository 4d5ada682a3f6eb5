"""Whole-run orchestration: determinism, metrics, transactions, snapshots."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_asset_config, payload, svc
from dbesim import engine
from dbesim.config import (
    ConfigError,
    config_from_obj,
    config_to_obj,
    serialize_snapshot,
    state_to_obj,
)
from dbesim.engine import (
    MetricsRow,
    SimConfig,
    serialize_events,
    serialize_metrics,
    simulate_execution,
    validate_config,
)
from dbesim.rng import Stream, derive_substream


def scenario_obj(n=2, reliability=1.0, p_mig=0.2, extra=None):
    """Tiny n-habitat config dict: each habitat can serve its own request."""
    habitats = []
    for i in range(n):
        habitats.append({
            "id": f"h{i}",
            "catalog": [{"id": f"h{i}_svc", "attrs": [f"t{i}"], "in_port": "src",
                         "out_port": "dst", "price": 1.0, "reliability": reliability}],
            "profile": [{"weight": 1.0,
                         "request": {"id": f"h{i}_req", "req_attrs": [f"t{i}"],
                                     "source_port": "src", "sink_port": "dst",
                                     "max_len": 2}}],
        })
    obj = {
        "seed": 11,
        "epochs": 3,
        "evolution": {"population_size": 8, "generation_budget_per_epoch": 5},
        "ecosystem": {"p_mig": p_mig},
        "scenario": {"initial_topology": {"kind": "ring"}, "habitats": habitats},
    }
    if extra:
        obj.update(extra)
    return obj


# --- simulate_execution ---

def test_execution_always_succeeds_at_full_reliability():
    chain = [svc("a", {"x"}), svc("b", {"x"})]
    rng = derive_substream(1, "exec")
    assert all(simulate_execution(chain, rng) for _ in range(100))


def test_execution_always_fails_with_zero_reliability_member():
    chain = [svc("a", {"x"}), svc("b", {"x"}, reliability=0.0)]
    rng = derive_substream(2, "exec")
    assert not any(simulate_execution(chain, rng) for _ in range(100))


def test_execution_success_rate_matches_product():
    chain = [svc("a", {"x"}, reliability=0.5), svc("b", {"x"}, reliability=0.5)]
    rng = derive_substream(3, "exec")
    n = 10000
    hits = sum(1 for _ in range(n) if simulate_execution(chain, rng))
    p = 0.25
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(hits - n * p) < 3.5 * sigma


def test_execution_consumes_one_draw_per_member_regardless_of_outcome():
    chain = [svc("a", {"x"}, reliability=0.0), svc("b", {"x"}, reliability=1.0)]
    rng = Stream(123)
    ref = Stream(123)
    simulate_execution(chain, rng)
    ref.next_u64()
    ref.next_u64()
    assert rng.state == ref.state


# --- validation ---

def test_validate_reference_configs_clean():
    for name in ("catalog8.json", "two_communities.json", "topology_experiment.json"):
        assert validate_config(load_asset_config(name)) == []


def test_validate_decay_out_of_range():
    obj = scenario_obj(extra={"ecosystem": {"decay_lambda": 0.0}})
    cfg = config_from_obj(obj)
    assert any("decay out of range" in v for v in validate_config(cfg))


def test_validate_unknown_failure_victim():
    obj = scenario_obj(extra={"failures": [{"epoch": 1, "victims": ["ghost"]}]})
    cfg = config_from_obj(obj)
    assert any("unknown habitat" in v for v in validate_config(cfg))


def test_validate_total_failure_via_schedule():
    obj = scenario_obj(extra={"failures": [{"epoch": 1, "victims": ["h0", "h1"]}]})
    cfg = config_from_obj(obj)
    assert any("removes every habitat" in v for v in validate_config(cfg))


def test_validate_evolution_param_ranges():
    obj = scenario_obj(extra={"evolution": {"population_size": 10, "elitism": 10}})
    cfg = config_from_obj(obj)
    assert any("elitism" in v for v in validate_config(cfg))
    obj2 = scenario_obj(extra={"evolution": {"mutation_rate": 1.5}})
    assert any("mutation_rate" in v for v in validate_config(config_from_obj(obj2)))


def test_validate_requires_two_habitats():
    obj = scenario_obj()
    obj["scenario"]["habitats"] = obj["scenario"]["habitats"][:1]
    cfg = config_from_obj(obj)
    assert any("at least 2 habitats" in v for v in validate_config(cfg))


# --- run basics ---

def test_run_one_epoch_two_habitats():
    cfg = config_from_obj(scenario_obj())
    cfg.epochs = 1
    result = engine.run(cfg)
    kinds = [e[1] for e in result.events]
    assert kinds.count("request_sampled") == 2
    assert len(result.metrics) == 1
    assert result.metrics[0].epoch == 1
    assert result.metrics[0].habitat_count == 2
    # a 2-habitat graph has one connection: too few for a correlation
    assert result.metrics[0].clustering_statistic == 0.0


def test_run_deterministic_event_and_metric_bytes():
    cfg = config_from_obj(scenario_obj(n=4, reliability=0.9))
    cfg.epochs = 10
    a = engine.run(cfg)
    b = engine.run(cfg)
    assert serialize_events(a.events) == serialize_events(b.events)
    assert serialize_metrics(a.metrics) == serialize_metrics(b.metrics)
    assert a.final_state() == b.final_state()


def test_metrics_success_rate_recountable_from_events():
    cfg = config_from_obj(scenario_obj(n=4, reliability=0.7))
    cfg.epochs = 20
    result = engine.run(cfg)
    by_epoch = {}
    for ev in result.events:
        if ev[1] == "deployment":
            dep, ok = by_epoch.get(ev[0], (0, 0))
            by_epoch[ev[0]] = (dep + 1, ok + (1 if payload(ev)["success"] else 0))
    for row in result.metrics:
        dep, ok = by_epoch.get(row.epoch, (0, 0))
        expected = ok / dep if dep else 0.0
        assert row.deployment_success_rate == expected
        migs = sum(1 for ev in result.events
                   if ev[1] == "migration" and ev[0] == row.epoch)
        assert row.total_migrations == migs


def test_event_epochs_nondecreasing():
    cfg = config_from_obj(scenario_obj(n=3, reliability=0.9))
    cfg.epochs = 15
    result = engine.run(cfg)
    epochs = [e[0] for e in result.events]
    assert epochs == sorted(epochs)


# --- migration feeding deployments and transactions ---

def _migration_scenario_obj():
    """h0 owns the service h1 needs; h1 can only serve half its request natively."""
    return {
        "seed": 5,
        "epochs": 30,
        "evolution": {"population_size": 12, "generation_budget_per_epoch": 10},
        "ecosystem": {"p_mig": 1.0},
        "scenario": {
            "initial_topology": {"kind": "ring"},
            "habitats": [
                {"id": "h0",
                 "catalog": [{"id": "stage1", "attrs": ["x"], "in_port": "raw",
                              "out_port": "mid", "price": 2.0, "reliability": 1.0}],
                 "profile": [{"weight": 1.0,
                              "request": {"id": "h0_req", "req_attrs": ["x"],
                                          "source_port": "raw", "sink_port": "mid",
                                          "max_len": 2}}]},
                {"id": "h1",
                 "catalog": [{"id": "stage2", "attrs": ["y"], "in_port": "mid",
                              "out_port": "done", "price": 1.0, "reliability": 1.0}],
                 "profile": [{"weight": 1.0,
                              "request": {"id": "h1_req", "req_attrs": ["x", "y"],
                                          "source_port": "raw", "sink_port": "done",
                                          "max_len": 2}}]},
            ],
        },
    }


def test_migrated_service_enters_destination_deployments_next_epoch():
    result = engine.run(config_from_obj(_migration_scenario_obj()))
    migration_epoch = None
    for ev in result.events:
        if (ev[1] == "migration" and payload(ev)["service"] == "stage1"
                and payload(ev)["destination"] == "h1"):
            migration_epoch = ev[0]
            break
    assert migration_epoch is not None
    uses = [ev[0] for ev in result.events
            if ev[1] == "deployment" and payload(ev)["habitat"] == "h1"
            and "stage1" in payload(ev)["chain"]]
    assert uses, "migrated service never deployed by destination"
    assert min(uses) == migration_epoch + 1
    # once the migrant lands, h1 reaches a perfect chain
    last = [ev for ev in result.events
            if ev[1] == "deployment" and payload(ev)["habitat"] == "h1"][-1]
    assert payload(last)["fitness"] == 1.0
    assert payload(last)["chain"] == ("stage1", "stage2")


def test_transactions_pair_and_match_deployments():
    result = engine.run(config_from_obj(_migration_scenario_obj()))
    flows = result.ledger.flow_edges
    services = [e for e in flows if e.kind == "service_flow"]
    capitals = [e for e in flows if e.kind == "capital_flow"]
    assert len(services) == len(capitals)
    for s, c in zip(services, capitals):
        assert (s.src, s.dst) == (c.dst, c.src)
        assert s.value == c.value and s.step == c.step
    # every transaction corresponds to a successful deployment whose first
    # service is a migrant: here, h1 deploying h0's stage1
    expected = sum(1 for ev in result.events
                   if ev[1] == "deployment" and payload(ev)["habitat"] == "h1"
                   and payload(ev)["success"] and payload(ev)["chain"][0] == "stage1")
    assert len(services) == expected
    assert all(s.src == "h0" and s.dst == "h1" for s in services)
    assert all(s.value == 3.0 for s in services)  # stage1 + stage2 price


def test_reinforcement_strengthens_provenance_edge():
    result = engine.run(config_from_obj(_migration_scenario_obj()))
    reinforcements = [ev for ev in result.events if ev[1] == "reinforcement"]
    assert reinforcements
    assert all(payload(ev)["a"] == "h0" and payload(ev)["b"] == "h1"
               for ev in reinforcements)
    assert result.eco.connections[("h0", "h1")] > 1.0


# --- failures during a run ---

def test_scheduled_failure_emits_events_and_prunes():
    obj = scenario_obj(n=4, reliability=1.0,
                       extra={"failures": [{"epoch": 2, "victims": ["h1"]}]})
    obj["epochs"] = 4
    result = engine.run(config_from_obj(obj))
    failures = [ev for ev in result.events if ev[1] == "failure"]
    assert len(failures) == 1 and failures[0][0] == 2
    assert payload(failures[0])["victims"] == ["h1"]
    heals = [ev for ev in result.events if ev[1] == "heal"]
    assert heals and heals[0][0] == 2
    assert result.metrics[0].habitat_count == 4
    assert all(row.habitat_count == 3 for row in result.metrics[1:])
    assert "h1" not in result.eco.habitats
    assert result.eco.connected()


def test_repeated_victim_warns():
    obj = scenario_obj(n=4, extra={"failures": [
        {"epoch": 1, "victims": ["h1"]},
        {"epoch": 2, "victims": ["h1"]},
    ]})
    obj["epochs"] = 3
    result = engine.run(config_from_obj(obj))
    warnings = [ev for ev in result.events if ev[1] == "warning"]
    assert any("already removed" in payload(ev)["message"] for ev in warnings)


# --- snapshots and resumption ---

def test_snapshot_resume_reproduces_unbroken_run():
    base = scenario_obj(n=4, reliability=0.9, p_mig=0.5)
    base["epochs"] = 20
    cfg_full = config_from_obj(base)
    full = engine.run(cfg_full)

    head_obj = dict(base)
    head_obj["epochs"] = 8
    cfg_head = config_from_obj(head_obj)
    head = engine.run(cfg_head)
    state = head.final_state()

    resumed = engine.run(cfg_full, state=state)
    tail_events = [e for e in full.events if e[0] > 8]
    assert serialize_events(resumed.events) == serialize_events(tail_events)
    assert serialize_metrics(resumed.metrics) == serialize_metrics(full.metrics[8:])
    assert resumed.final_state() == full.final_state()


def test_snapshot_resume_across_failure():
    base = scenario_obj(n=4, reliability=0.9, p_mig=0.5,
                        extra={"failures": [{"epoch": 3, "victims": ["h2"]}]})
    base["epochs"] = 12
    cfg_full = config_from_obj(base)
    full = engine.run(cfg_full)

    head_obj = dict(base)
    head_obj["epochs"] = 6  # snapshot taken after the failure
    head = engine.run(config_from_obj(head_obj))
    resumed = engine.run(cfg_full, state=head.final_state())
    tail_events = [e for e in full.events if e[0] > 6]
    assert serialize_events(resumed.events) == serialize_events(tail_events)
    assert resumed.final_state() == full.final_state()


def _evolving_scenario_obj(seed, failure_epoch):
    """Six habitats in a ring; each one's second request needs a service its
    neighbour owns, so populations evolve, stall at max_generations, and
    re-open when a migrated service arrives."""
    habitats = []
    for i in range(6):
        hid, nxt = f"h{i}", (i + 1) % 6
        habitats.append({
            "id": hid,
            "catalog": [{"id": f"{hid}_a", "attrs": [f"a{i}"], "in_port": "raw",
                         "out_port": "mid", "price": 1.0, "reliability": 0.9},
                        {"id": f"{hid}_b", "attrs": [f"b{i}"], "in_port": "mid",
                         "out_port": "done", "price": 2.0, "reliability": 0.95}],
            "profile": [{"request": {"id": f"{hid}_own", "req_attrs": [f"a{i}", f"b{i}"],
                                     "source_port": "raw", "sink_port": "done", "max_len": 3}},
                        {"request": {"id": f"{hid}_pair", "req_attrs": [f"a{nxt}", f"b{i}"],
                                     "source_port": "raw", "sink_port": "done", "max_len": 3}}],
        })
    return {
        "seed": seed,
        "epochs": 6,
        "evolution": {"population_size": 6, "max_generations": 6,
                      "generation_budget_per_epoch": 4},
        "ecosystem": {"p_mig": 0.5},
        "scenario": {"habitats": habitats},
        "failures": [{"epoch": failure_epoch, "victims": ["h2"]}],
    }


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), failure_epoch=st.integers(1, 6))
def test_snapshot_resume_at_every_epoch(seed, failure_epoch):
    """The snapshot written after any epoch k, read back from its JSON text,
    resumes into the unbroken run's tail events, metrics and final snapshot."""
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
            state = engine.run(cfg_head).final_state()
        state = json.loads(serialize_snapshot(cfg_head, state))["state"]
        resumed = engine.run(cfg_full, state=state)
        tail = [e for e in full.events if e[0] > k]
        assert serialize_events(resumed.events) == serialize_events(tail), k
        assert serialize_metrics(resumed.metrics) == serialize_metrics(full.metrics[k:]), k
        assert serialize_snapshot(cfg_full, resumed.final_state()) == final, k


def test_snapshot_rejects_unknown_habitat():
    cfg = config_from_obj(scenario_obj())
    result = engine.run(cfg)
    state = result.final_state()
    state["habitats"][0]["id"] = "ghost"
    with pytest.raises(engine.SnapshotError):
        engine.state_from_obj(cfg, state)


def _set(path, value):
    def damage(state):
        *head, last = path
        for key in head:
            state = state[key]
        state[last] = value
    return damage


def _flow(row):
    def damage(state):
        state["business"]["flow_edges"].insert(0, row)
    return damage


# Every row has an explicit id: it keeps a test's name when its message
# changes, and distinct when names are cut to 100 characters.
@pytest.mark.parametrize("damage, message", [
    pytest.param(lambda st: st.clear(), "state.habitats: missing", id="habitats-missing"),
    pytest.param(_set(["habitats", 1, "pool_version"], 1.5),
                 "state.habitats[1].pool_version: expected an integer", id="pool-version-float"),
    pytest.param(_set(["habitats", 0, "pool", 0, "price"], "free"), "state.habitats[0].pool[0]",
                 id="service-price-string"),
    pytest.param(_set(["habitats", 0, "active", 0, "population", 0], [["nope"], 0.5]),
                 "state.habitats[0].active[0].population[0][0]: service 'nope' not in",
                 id="genome-unknown-service"),
    pytest.param(_set(["habitats", 0, "active", 0, "trace", 0], [0, 0.5]),
                 "state.habitats[0].active[0].trace[0]: expected 3 elements",
                 id="trace-row-short"),
    pytest.param(_set(["connections", 0, 2], 0.0), "state.connections[0]: weight below floor",
                 id="connection-below-floor"),
    pytest.param(lambda st: st["streams"].pop("h1"),
                 "state.streams: missing stream for habitat 'h1'", id="stream-missing"),
    pytest.param(_set(["business", "floor_active", "h0"], 1),
                 "state.business.floor_active.h0: expected true", id="floor-active-int"),
    pytest.param(_set(["business", "vertices", 0, "eta"], 2.0),
                 "state.business.vertices[0].eta: expected 1.0", id="business-vertex0-eta-wrong"),
    pytest.param(_set(["habitats", 0, "pool", 0, "success_count"], 99),
                 "state.habitats[0].pool[0]: success exceeds usage", id="success-above-usage"),
    pytest.param(_set(["connections", 0, 2], math.inf),
                 "state.connections[0][2]: expected a finite number", id="connection-weight-inf"),
    pytest.param(_set(["habitats", 0, "active", 0, "population"], []),
                 "state.habitats[0].active[0].population: expected a non-empty array",
                 id="population-empty"),
    pytest.param(_set(["habitats", 0, "active", 0, "population", 0], [["h0_svc"] * 3, 0.5]),
                 "state.habitats[0].active[0].population[0][0]: genome length 3 outside "
                 "[1, max_len 2]", id="genome-too-long"),
    pytest.param(_set(["colour"], "blue"), "state: unknown key 'colour'",
                 id="state-unknown-key"),
    pytest.param(_set(["habitats", 1, "colour"], "blue"),
                 "state.habitats[1]: unknown key 'colour'", id="habitat-unknown-key"),
    pytest.param(_set(["epoch"], -2), "state.epoch: must be >= 0", id="epoch-negative"),
    pytest.param(lambda st: st["connections"].append(list(st["connections"][0])),
                 "state.connections[1]: duplicate connection h0-h1", id="connection-duplicate"),
    pytest.param(_set(["connections", 0, 1], "h0"),
                 "state.connections[0]: self-loop connection at 'h0'", id="connection-self-loop"),
    pytest.param(_set(["connections", 0, 1], "ghost"),
                 "state.connections[0]: connection references unknown habitat: ('ghost', 'h0')",
                 id="connection-unknown-habitat"),
    pytest.param(lambda st: st["habitats"].append(st["habitats"][0]),
                 "state.habitats[2]: duplicate habitat id: 'h0'", id="habitat-duplicate-id"),
    pytest.param(lambda st: st["habitats"].insert(1, st["habitats"][0]),
                 "state.habitats[1]: duplicate habitat id: 'h0'", id="habitat-duplicate-id-inside"),
    pytest.param(lambda st: st["habitats"][0]["pool"].append(dict(st["habitats"][0]["pool"][0])),
                 "state.habitats[0].pool[1]: duplicate service id: 'h0_svc'",
                 id="pool-duplicate-id"),
    pytest.param(_set(["connections"], []),
                 "state.connections: not connected: no path joins 'h0' and 'h1'",
                 id="connections-disconnected"),
    # what the run core relies on unchecked
    pytest.param(_set(["habitats"], []), "state.habitats: expected a non-empty array",
                 id="habitats-empty"),
    pytest.param(_set(["habitats", 0, "provenance"], {"h0_svc": "nowhere"}),
                 "state.habitats[0].provenance.h0_svc: unknown source habitat 'nowhere'",
                 id="provenance-unknown-source"),
    pytest.param(_set(["habitats", 0, "provenance"], {"h0_svc": "h0"}),
                 "state.habitats[0].provenance.h0_svc: source is the habitat itself",
                 id="provenance-self"),
    pytest.param(_set(["habitats", 0, "provenance"], {"ghost": "h1"}),
                 "state.habitats[0].provenance.ghost: service 'ghost' not in the habitat's pool",
                 id="provenance-not-in-pool"),
    pytest.param(lambda st: st["business"]["vertices"].pop(),
                 "state.business.vertices: expected 2 elements, got 1",
                 id="business-vertices-short"),
    # the business fields other than flows are the ones a run writes, type for type
    pytest.param(_set(["business", "attachment_edges"], [["h0", "h1"]]),
                 "state.business.attachment_edges: expected 0 elements, got 1",
                 id="business-attachment-edges-extra"),
    pytest.param(_set(["business", "next_index"], 1), "state.business.next_index: expected 0",
                 id="business-next-index-wrong"),
    pytest.param(lambda st: st["business"]["pool"].reverse(),
                 'state.business.pool[0]: expected "h0"', id="business-pool-reversed"),
    pytest.param(_set(["business", "vertices", 1, "eta"], 1),
                 "state.business.vertices[1].eta: expected 1.0", id="business-vertex1-eta-int"),
    pytest.param(_set(["business", "floor_active", "h1"], False),
                 "state.business.floor_active.h1: expected true",
                 id="business-floor-active-false"),
    pytest.param(_flow(["h0", "nowhere", "service_flow", 1.0, 3]),
                 "state.business.flow_edges[0][1]: unknown vertex 'nowhere'",
                 id="flow-unknown-vertex"),
    pytest.param(_flow(["h0", "h0", "service_flow", 1.0, 3]),
                 "state.business.flow_edges[0]: flow endpoints must differ",
                 id="flow-endpoints-equal"),
    pytest.param(_flow(["h0", "h1", "gift", 1.0, 3]),
                 "state.business.flow_edges[0][2]: unknown flow kind 'gift'",
                 id="flow-unknown-kind"),
    pytest.param(_flow(["h0", "h1", "service_flow", -1.0, 3]),
                 "state.business.flow_edges[0][3]: negative flow value",
                 id="flow-value-negative"),
    pytest.param(_set(["streams", "ghost"], 1),
                 "state.streams.ghost: stream for unknown habitat 'ghost'",
                 id="stream-unknown-habitat"),
    pytest.param(_set(["streams", "h0"], -1), "state.streams.h0: stream state outside [0, 2**64)",
                 id="stream-state-negative"),
    pytest.param(_set(["streams", "h0"], 2**64), "state.streams.h0: stream state outside [0, 2**64)",
                 id="stream-state-2**64"),
    pytest.param(_set(["habitats", 0, "active", 0, "gens_since_reset"], -1),
                 "state.habitats[0].active[0].gens_since_reset: must be >= 0",
                 id="gens-since-reset-negative"),
    pytest.param(_set(["habitats", 0, "active", 0, "total_generations"], -1),
                 "state.habitats[0].active[0].total_generations: must be >= 0",
                 id="total-generations-negative"),
    pytest.param(_set(["habitats", 0, "active", 0, "pool_version"], -1),
                 "state.habitats[0].active[0].pool_version: must be >= 0",
                 id="evolution-pool-version-negative"),
    pytest.param(_set(["habitats", 1, "pool_version"], -1),
                 "state.habitats[1].pool_version: must be >= 0", id="pool-version-negative"),
    # facts a run derives, which a snapshot must state as the run would
    pytest.param(_set(["habitats", 1, "pool_version"], 1),
                 "state.habitats[1].pool_version: expected 0, the number of provenance entries",
                 id="pool-version-not-provenance-count"),
    pytest.param(_set(["habitats", 0, "active", 0, "trace", 0, 0], 1),
                 "state.habitats[0].active[0].trace[0][0]: expected generation 0, got 1",
                 id="trace-generation-not-row"),
    pytest.param(lambda st: st["habitats"][0]["active"][0]["trace"].append([1, 0.5, 0.5]),
                 "state.habitats[0].active[0].trace: 2 rows for total_generations 0: expected 1",
                 id="trace-rows-not-generations"),
    # states no run reaches
    pytest.param(lambda st: st["habitats"][0]["active"].append(st["habitats"][0]["active"][0]),
                 "state.habitats[0].active[1].request: a second evolution state for request "
                 "'h0_req'", id="evolution-duplicate-request"),
    pytest.param(_set(["habitats", 0, "active", 0, "gens_since_reset"], 1),
                 "state.habitats[0].active[0].gens_since_reset: 1 exceeds total_generations 0",
                 id="gens-since-reset-above-total"),
    pytest.param(_set(["habitats", 1, "active", 0, "pool_version"], 1),
                 "state.habitats[1].active[0].pool_version: 1 exceeds the habitat's pool "
                 "version 0", id="evolution-pool-version-above-habitat"),
])
def test_snapshot_errors_name_the_json_path(damage, message):
    cfg = config_from_obj(scenario_obj())
    state = engine.run(cfg).final_state()
    damage(state)
    with pytest.raises(engine.SnapshotError) as info:
        engine.state_from_obj(cfg, state)
    assert message in str(info.value)


_SERVICE = ["scenario", "habitats", 1, "catalog", 0]
_REQUEST = ["scenario", "habitats", 1, "profile", 0, "request"]
_POOL_SERVICE = ["habitats", 0, "pool", 0]


@pytest.mark.parametrize("root, keys", [
    ("config", _SERVICE + ["attrs", 0]),
    ("config", _SERVICE + ["in_port"]),
    ("config", _SERVICE + ["out_port"]),
    ("config", _REQUEST + ["req_attrs", 0]),
    ("config", _REQUEST + ["source_port"]),
    ("config", _REQUEST + ["sink_port"]),
    ("state", _POOL_SERVICE + ["attrs", 0]),
    ("state", _POOL_SERVICE + ["in_port"]),
    ("state", _POOL_SERVICE + ["out_port"]),
], ids=lambda v: v if type(v) is str else v[-2] if type(v[-1]) is int else v[-1])
def test_a_token_is_checked_at_its_path_and_lowercased(root, keys):
    """Every attribute and port token of a config and of a snapshot pool is
    read by one rule: a bad one is named at its path, and a mixed-case one
    reads as its lowercase form."""
    cfg = config_from_obj(scenario_obj())
    if root == "config":
        doc, error = scenario_obj(), ConfigError
        def echo(d):
            return config_to_obj(config_from_obj(d))
    else:
        doc, error = engine.run(cfg).final_state(), engine.SnapshotError
        def echo(d):
            return state_to_obj(*engine.state_from_obj(cfg, d))
    expected = echo(doc)
    *head, last = keys
    parent = doc
    for key in head:
        parent = parent[key]
    token = parent[last]
    parent[last] = "dash-ed"
    path = root + "".join(f"[{k}]" if type(k) is int else f".{k}" for k in keys)
    with pytest.raises(error) as info:
        echo(doc)
    assert str(info.value) == f"{path}: invalid attribute token: 'dash-ed'"
    parent[last] = token.capitalize()
    assert parent[last] != token
    assert echo(doc) == expected


def test_serialize_metrics_header():
    text = serialize_metrics([MetricsRow(1, 0.5, 1.0, 2, 0.0, 4, 4)])
    lines = text.strip().split("\n")
    assert lines[0] == ("epoch,mean_best_fitness,deployment_success_rate,"
                        "total_migrations,clustering_statistic,habitat_count,"
                        "connection_count")
    assert lines[1].startswith("1,0.5,1.0,2,")
