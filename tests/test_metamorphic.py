"""Relations with closed forms: what a run must do when a parameter takes
an extreme value, checked on the shipped `two_communities.json`, and the
closed form of one connection's weight under reinforcement and decay.

These test the model's semantics, not its bytes. Renaming habitats is not
such a relation: each habitat's stream is derived from its id
(`habitat:{id}`), so a renamed habitat draws differently.
"""

from collections import Counter

import pytest

from conftest import load_asset_obj, payload
from dbesim import engine
from dbesim.config import config_from_obj
from dbesim.ecosystem import Ecosystem, Habitat, decay_all, reinforce


def two_communities(ecosystem=None, reliability=None):
    """(config, result) of `two_communities.json` with ecosystem parameters
    replaced and, if given, every service's reliability set."""
    obj = load_asset_obj("two_communities.json")
    obj["ecosystem"].update(ecosystem or {})
    if reliability is not None:
        for h in obj["scenario"]["habitats"]:
            for s in h["catalog"]:
                s["reliability"] = reliability
    cfg = config_from_obj(obj)
    return cfg, engine.run(cfg)


def test_without_migration_weights_decay_in_closed_form():
    """With `p_mig` 0 no service moves, so no connection is reinforced, and
    each weight is 1.0 decayed once per epoch at the floor: iterated
    max(w * lambda, w_min), float for float."""
    cfg, result = two_communities({"p_mig": 0.0})
    kinds = Counter(e[1] for e in result.events)
    assert kinds["migration"] == kinds["reinforcement"] == 0
    assert kinds["deployment"] > 0
    eco = cfg.ecosystem
    w = 1.0
    for _ in range(cfg.epochs):
        w = max(w * eco.decay_lambda, eco.w_min)
    assert w == 0.13397967485796175
    assert len(result.eco.connections) == len(cfg.scenario.habitats)  # the ring
    assert set(result.eco.connections.values()) == {w}


def test_without_migration_or_decay_weights_stay_one():
    _, result = two_communities({"p_mig": 0.0, "decay_lambda": 1.0})
    assert set(result.eco.connections.values()) == {1.0}


def test_every_deployment_of_reliable_services_succeeds():
    cfg, result = two_communities(reliability=1.0)
    deployments = [payload(e) for e in result.events if e[1] == "deployment"]
    assert len(deployments) == cfg.epochs * len(cfg.scenario.habitats)
    assert all(d["success"] for d in deployments)
    assert {row.deployment_success_rate for row in result.metrics} == {1.0}


@pytest.mark.parametrize("decay_lambda, delta, w_min, w0", [
    (0.99, 0.1, 0.01, 1.0),  # the defaults: rises from 1.0 toward 9.9
    (0.9, 0.5, 0.01, 20.0),  # falls from above its fixed point 4.5
    (0.5, 0.002, 0.01, 0.01),  # its fixed point 0.002 is below the floor
])
def test_an_edge_reinforced_every_epoch_approaches_the_fixed_point(decay_lambda, delta, w_min, w0):
    """An edge reinforced once per epoch, then decayed (`reinforce`, then
    `decay_all`), follows w <- max(lambda * (w + delta), w_min) float for
    float. Its weight moves monotonically toward the fixed point
    lambda * delta / (1 - lambda) of w = lambda * (w + delta), or toward the
    floor when that point lies below it, and reaches it within 1e-12."""
    eco = Ecosystem([Habitat(hid, {}, []) for hid in ("a", "b")], w_min=w_min)
    eco.add_connection("a", "b", w0)
    limit = max(decay_lambda * delta / (1 - decay_lambda), w_min)
    w = w0
    for _ in range(4000):
        reinforce(eco, "b", "a", delta)
        decay_all(eco, decay_lambda)
        last, w = w, max(decay_lambda * (w + delta), w_min)
        assert eco.connections[("a", "b")] == w
        assert abs(w - limit) <= abs(last - limit)
    assert w == pytest.approx(limit, rel=1e-12, abs=0)
