"""The event log is a complete account of a run outside the GA.

Replaying `result.events` from the run's starting state, with nothing but
the rules below, rebuilds the final connections, pools (order and usage
counters) and provenance exactly. A dropped, reordered or stale event, or a
state change that emits no event, breaks the replay.

- `failure`: the victims and their connections go
- `heal`: the created connections are added
- `deployment`: its fitness is the chain's score against the request of the
  habitat's preceding `request_sampled`; the chain's counters are bumped
- `reinforcement`: the weight (or `w_min` for a new connection) plus
  `reinforce_delta` is the event's weight, float for float
- `migration`: the source's service, with its current counters, enters the
  destination's pool, with the source as its provenance
- at the end of every epoch, each weight decays, clamped at `w_min`
"""

import json
from collections import Counter

import pytest

from conftest import load_asset_obj, payload
from dbesim import engine
from dbesim.config import config_from_obj, serialize_snapshot
from dbesim.ecosystem import edge_key
from dbesim.evolution import evaluate_genome, record_deployment
from test_golden import bridged24_obj


def replay(cfg, start, events):
    """The (connections, habitats) that `events` leave from the run state
    `start`, an (ecosystem, streams, ledger) triple."""
    eco = start[0]
    eco_params = cfg.ecosystem
    habitats, conns = eco.habitats, dict(eco.connections)
    requested = {}
    epochs = sorted({e[0] for e in events})
    assert epochs == list(range(eco.epoch + 1, cfg.epochs + 1))
    by_epoch = {k: [e for e in events if e[0] == k] for k in epochs}
    for k in epochs:
        for e in by_epoch[k]:
            kind, p = e[1], payload(e)
            if kind == "failure":
                for victim in p["victims"]:
                    del habitats[victim]
                conns = {key: w for key, w in conns.items()
                         if key[0] in habitats and key[1] in habitats}
            elif kind == "heal":
                for a, b, w in p["created"]:
                    assert (a, b) == edge_key(a, b) and (a, b) not in conns
                    conns[(a, b)] = w
            elif kind == "request_sampled":
                requested[p["habitat"]] = p["request"]
            elif kind == "deployment":
                h = habitats[p["habitat"]]
                assert p["request"] == requested[h.id]
                request = next(t.request for t in h.profile if t.request.id == p["request"])
                genome = tuple(p["chain"])
                assert p["fitness"] == evaluate_genome(genome, h.pool, request, cfg.evolution)
                record_deployment([h.pool[sid] for sid in genome], p["success"])
            elif kind == "reinforcement":
                key = (p["a"], p["b"])
                assert p["weight"] == conns.get(key, eco.w_min) + eco_params.reinforce_delta
                conns[key] = p["weight"]
            elif kind == "migration":
                dest, sid = habitats[p["destination"]], p["service"]
                assert sid not in dest.pool
                dest.pool[sid] = habitats[p["source"]].pool[sid].copy()
                dest.provenance[sid] = p["source"]
            else:
                assert kind == "warning", kind
        for key, w in conns.items():
            w *= eco_params.decay_lambda
            conns[key] = w if w > eco.w_min else eco.w_min
    return conns, habitats


def pools(habitats):
    return {hid: [(s.id, s.usage_count, s.success_count) for s in h.pool.values()]
            for hid, h in habitats.items()}


def check_replay(cfg, start, result):
    before = {hid: len(h.provenance) for hid, h in start[0].habitats.items()}
    conns, habitats = replay(cfg, start, result.events)
    assert conns == result.eco.connections
    assert pools(habitats) == pools(result.eco.habitats)
    assert ({hid: h.provenance for hid, h in habitats.items()}
            == {hid: h.provenance for hid, h in result.eco.habitats.items()})
    # the snapshot's pool version, derived from the provenance, counts the
    # migrations into the habitat, the ones before the start included
    arrived = Counter(payload(e)["destination"] for e in result.events if e[1] == "migration")
    for h in result.final_state()["habitats"]:
        assert h["pool_version"] == before[h["id"]] + arrived[h["id"]], h["id"]


SCENARIOS = {
    "two_communities": lambda: load_asset_obj("two_communities.json"),
    "bridged24": bridged24_obj,
}


@pytest.mark.parametrize("scenario, workers", [
    ("two_communities", 1), ("bridged24", 1), ("bridged24", 2)])
def test_replay_rebuilds_the_final_state(scenario, workers):
    cfg = config_from_obj(SCENARIOS[scenario]())
    result = engine.run(cfg, workers=workers)
    kinds = {e[1] for e in result.events}
    assert {"deployment", "reinforcement", "migration"} <= kinds
    if scenario == "bridged24":
        assert {"failure", "heal"} <= kinds
    check_replay(cfg, engine.build_run_state(cfg), result)


def test_replay_of_a_resumed_run_starts_from_the_snapshot():
    obj = bridged24_obj()
    head = config_from_obj(dict(obj, epochs=20))  # after the failure at epoch 15
    state = json.loads(serialize_snapshot(head, engine.run(head).final_state()))["state"]
    assert any(h["provenance"] for h in state["habitats"])
    cfg = config_from_obj(obj)
    check_replay(cfg, engine.state_from_obj(cfg, state), engine.run(cfg, state=state))
