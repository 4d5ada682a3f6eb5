"""Differential testing of the run (McKeeman, "Differential Testing for
Software", Digital Technical Journal 10(1), 1998): small valid configs,
built from scratch by a Hypothesis strategy (after Claessen & Hughes,
"QuickCheck", ICFP 2000), run through paths that must agree byte for byte.

`configs()` draws, within these bounds:

- 2 to 10 habitats. Their services and requests share one vocabulary of 4
  attributes and 3 ports, so chains compose across habitats and migrated
  services matter. A habitat offers 0 to 3 services (a pool may be empty),
  priced 0, 1 or 2.5, with reliability 0, 0.8 or 1.
- 1 to 3 templates per habitat, weighted 0.5, 1 or 3, each requesting 1 to
  3 attributes in chains of at most 1 to 3 services, with no budget or a
  budget of 1 or 4.
- A `ring` or a `random_m` initial topology with m in [1, habitats - 1].
- Population 2 to 5; tournament size 1, 2 or 3; elitism 0, 1 or the
  population - 1; crossover and mutation rates 0, 0.5 or 1; 1 to 3
  generations per epoch and 1 to 4 in all.
- `p_mig` 0, 0.5 or 1.
- 1 to 8 epochs.
- A failure schedule of one of five shapes: none; one to three failures at
  drawn epochs; failures in consecutive epochs; a failure that names a
  habitat already gone beside a present one; a failure that leaves a
  single habitat. One drawn habitat survives every schedule.

Each example is run on 1, 2 and 3 processes, and resumed on 2 from the
snapshot text of a drawn epoch k in [0, epochs). The one-process run is
also checked against itself: four `metrics.csv` columns follow from its
`events.jsonl` alone, and its final `snapshot.json` text reads back
through `engine.state_from_obj`, which holds the state to the model's
invariants (a connected graph, weights at or above the floor, provenance
and pool versions that agree, cached fitness that is the genome's score).
Forks are the cost: each example forks the workers of 3 runs, and the 100
examples take about 6 s on a 2-vCPU host.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from dbesim import engine
from dbesim.config import config_from_obj, serialize_snapshot

ATTRS = ["a0", "a1", "a2", "a3"]
PORTS = ["p0", "p1", "p2"]
SCHEDULES = ["none", "drawn", "consecutive", "already-gone", "one-left"]


@st.composite
def services(draw, hid):
    return [{"id": f"{hid}_s{j}",
             "attrs": draw(st.lists(st.sampled_from(ATTRS), min_size=1, max_size=2, unique=True)),
             "in_port": draw(st.sampled_from(PORTS)),
             "out_port": draw(st.sampled_from(PORTS)),
             "price": draw(st.sampled_from([0.0, 1.0, 2.5])),
             "reliability": draw(st.sampled_from([0.0, 0.8, 1.0]))}
            for j in range(draw(st.integers(0, 3)))]


@st.composite
def templates(draw, hid):
    profile = []
    for j in range(draw(st.integers(1, 3))):
        request = {"id": f"{hid}_r{j}",
                   "req_attrs": draw(st.lists(st.sampled_from(ATTRS), min_size=1, max_size=3,
                                              unique=True)),
                   "source_port": draw(st.sampled_from(PORTS)),
                   "sink_port": draw(st.sampled_from(PORTS)),
                   "max_len": draw(st.integers(1, 3))}
        budget = draw(st.sampled_from([None, 1.0, 4.0]))
        if budget is not None:
            request["budget"] = budget
        profile.append({"request": request, "weight": draw(st.sampled_from([0.5, 1.0, 3.0]))})
    return profile


@st.composite
def failure_schedules(draw, ids, epochs):
    """A schedule of one of `SCHEDULES`' shapes that spares one drawn habitat."""
    survivor = draw(st.sampled_from(ids))
    others = [hid for hid in ids if hid != survivor]
    epoch = st.integers(1, epochs)
    victims = st.lists(st.sampled_from(others), min_size=1, max_size=2, unique=True)
    shape = draw(st.sampled_from(SCHEDULES))
    if shape == "none":
        return []
    if shape == "drawn":
        return [{"epoch": draw(epoch), "victims": draw(victims)}
                for _ in range(draw(st.integers(1, 3)))]
    if shape == "consecutive":
        first = draw(st.integers(1, max(epochs - 1, 1)))
        return [{"epoch": e, "victims": draw(victims)}
                for e in range(first, min(first + 2, epochs) + 1)]
    if shape == "already-gone":
        first = draw(epoch)
        gone = draw(victims)
        later = draw(st.integers(first, epochs))
        return [{"epoch": first, "victims": gone},
                {"epoch": later, "victims": gone[:1] + draw(victims)}]
    return [{"epoch": draw(epoch), "victims": others}]  # one-left


@st.composite
def configs(draw):
    n = draw(st.integers(2, 10))
    ids = [f"h{i}" for i in range(n)]
    epochs = draw(st.integers(1, 8))
    population = draw(st.integers(2, 5))
    max_generations = draw(st.integers(1, 4))
    topology = draw(st.sampled_from(["ring", "random_m"]))
    initial = ({"kind": "ring"} if topology == "ring"
               else {"kind": "random_m", "m": draw(st.integers(1, n - 1))})
    return {
        "seed": draw(st.integers(0, 2**64 - 1)),
        "epochs": epochs,
        "evolution": {"population_size": population,
                      "tournament_size": draw(st.sampled_from([1, 2, 3])),
                      "elitism": draw(st.sampled_from(sorted({0, 1, population - 1}))),
                      "crossover_rate": draw(st.sampled_from([0.0, 0.5, 1.0])),
                      "mutation_rate": draw(st.sampled_from([0.0, 0.5, 1.0])),
                      "max_generations": max_generations,
                      "generation_budget_per_epoch": draw(st.integers(1, 3))},
        "ecosystem": {"p_mig": draw(st.sampled_from([0.0, 0.5, 1.0]))},
        "scenario": {"habitats": [{"id": hid, "catalog": draw(services(hid)),
                                   "profile": draw(templates(hid))} for hid in ids],
                     "initial_topology": initial},
        "failures": draw(failure_schedules(ids, epochs)),
    }


def outputs(cfg, result) -> tuple:
    """The run's `events.jsonl`, `metrics.csv` and `snapshot.json` bytes, and
    its final stream states."""
    return (engine.serialize_events(result.events), engine.serialize_metrics(result.metrics),
            serialize_snapshot(cfg, result.final_state()),
            {hid: s.state for hid, s in result.streams.items()})


def metrics_from_log(events: str, habitats: int, epochs: int) -> list:
    """Per epoch, (epoch, mean_best_fitness, deployment_success_rate,
    total_migrations, habitat_count) from the `events.jsonl` text alone: the
    mean of the `deployment` fitnesses summed in log order, their share that
    succeeded, the `migration` events, and the `habitats` of the scenario less
    every `failure` event's removed ids so far."""
    by_epoch = {epoch: [] for epoch in range(1, epochs + 1)}
    for line in events.splitlines():
        event = json.loads(line)
        by_epoch[event["epoch"]].append((event["kind"], event["payload"]))
    rows = []
    for epoch, logged in by_epoch.items():
        total, successes, deployed, migrations = 0.0, 0, 0, 0
        for kind, payload in logged:
            if kind == "deployment":
                total += payload["fitness"]
                successes += payload["success"]
                deployed += 1
            elif kind == "migration":
                migrations += 1
            elif kind == "failure":
                habitats -= len(payload["victims"])
        rows.append((epoch, total / deployed if deployed else 0.0,
                     successes / deployed if deployed else 0.0, migrations, habitats))
    return rows


@settings(max_examples=100, deadline=None)
@given(obj=configs(), data=st.data())
def test_process_counts_and_resumes_give_the_same_bytes(obj, data):
    """1, 2 and 3 processes give the same outputs and stream states, and a
    run resumed on 2 processes from the snapshot text of epoch k gives the
    tail of the events and metrics, the final snapshot and the streams. The
    one-process run's metrics follow from its log, and its final snapshot
    reads back."""
    cfg = config_from_obj(obj)
    full = engine.run(cfg)
    events, metrics, snapshot, streams = outputs(cfg, full)
    assert metrics_from_log(events, len(obj["scenario"]["habitats"]), obj["epochs"]) == [
        (row.epoch, row.mean_best_fitness, row.deployment_success_rate, row.total_migrations,
         row.habitat_count) for row in full.metrics]
    engine.state_from_obj(cfg, json.loads(snapshot)["state"])
    for workers in (2, 3):
        assert outputs(cfg, engine.run(cfg, workers=workers)) == (
            events, metrics, snapshot, streams), workers
    k = data.draw(st.integers(0, obj["epochs"] - 1), label="k")
    if k == 0:
        cfg_head, state = cfg, engine.state_to_obj(*engine.build_run_state(cfg))
    else:
        cfg_head = config_from_obj(dict(obj, epochs=k, failures=[
            f for f in obj["failures"] if f["epoch"] <= k]))
        state = engine.run(cfg_head).final_state()
    state = json.loads(serialize_snapshot(cfg_head, state))["state"]
    resumed = engine.run(cfg, state=state, workers=2)
    tail = [e for e in full.events if e[0] > k]
    assert outputs(cfg, resumed) == (engine.serialize_events(tail),
                                      engine.serialize_metrics(full.metrics[k:]),
                                      snapshot, streams)
