"""The GA gene table, the GA's per-call genome memo and decision draws,
`Stream.weighted_index`, the unchecked fitness kernel, the per-edge
similarity memo, the event-log writer and the growth kernel with its
chunked writers against the plain computations they replace.

Each reference below is the plain computation: gene draws through
`Stream.weighted_index` over freshly computed replication weights,
generations that each seed their own genome memo and draw decisions with
`Stream.random`, a two-pass loop for `weighted_index` itself, the checked
`fitness`, the clustering statistic with every profile similarity
recomputed, one `json.dumps` of the sorted record per event, growth over a
pool of vertex ids with `below`/`random` draws and dict lookups, and one
formatted line per vertex and edge. Equality is exact: the fast paths keep
the draw order and the float arithmetic.
"""

import csv
import json
import math
import os
from functools import reduce
from operator import add
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import as_tuples, load_asset_obj, payload, pool_of, read_events, req, svc
from dbesim import cli, engine, evolution
from dbesim.config import COMPACT, config_from_obj
from dbesim.ecosystem import (
    Habitat,
    RequestTemplate,
    build_ecosystem,
    clustering_statistic,
    decay_all,
    failure_inject,
    profile_similarity,
    reinforce,
)
from dbesim.evolution import (
    EvolutionParams,
    advance,
    draw_service,
    evaluate_genome,
    gene_table,
    init_population,
    population_stats,
    record_deployment,
    replication_weight,
)
from dbesim.manifest import chain_fitness, fitness
from dbesim.rng import Stream, derive_substream
from dbesim.topology import (
    CHUNK_LINES,
    BusinessGraph,
    EtaDist,
    grow,
    inject_and_track,
    seed_business_graph,
)
from test_engine import _evolving_scenario_obj
from test_golden import bridged24_obj

MASK = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def _unxorshift(z, k):
    """Inverse of z ^ (z >> k) on 64-bit words."""
    x = z
    for _ in range(64 // k + 1):
        x = z ^ (x >> k)
    return x & MASK


def stream_yielding(output):
    """A Stream whose next `next_u64()` returns `output` (splitmix64 run backwards)."""
    z = _unxorshift(output, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK
    z = _unxorshift(z, 30)
    return Stream((z - GOLDEN_GAMMA) & MASK)


def boundary_output(cum, i, low_bits):
    """An output whose `random() * total` lands exactly on the running sum
    cum[i], or None when no 53-bit fraction reaches it in float arithmetic."""
    total = cum[-1]
    guess = int(cum[i] / total * 2**53)
    for top in range(max(guess - 2, 0), min(guess + 3, 2**53)):
        if top * 2.0**-53 * total == cum[i]:
            return (top << 11) | low_bits
    return None


def reference_draw(catalog, gamma, rng):
    """Gene draw through weighted_index over fresh weights."""
    services = list(catalog.values())
    return services[rng.weighted_index([replication_weight(s, gamma) for s in services])]


@st.composite
def catalogs(draw):
    n = draw(st.integers(1, 8), label="services")
    services = []
    for i in range(n):
        usage = draw(st.sampled_from([0, 1, 2, 3, 4, 8]))
        success = draw(st.integers(0, usage))
        services.append(svc(f"s{i}", ["a"], usage=usage, success=success))
    return pool_of(services)


gammas = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 4.0)


def test_stream_yielding_inverts_splitmix64():
    for out in (0, 1, MASK, 0x0123456789ABCDEF):
        assert stream_yielding(out).next_u64() == out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_draw_service_matches_weighted_index(data):
    catalog = data.draw(catalogs())
    gamma = data.draw(gammas, label="gamma")
    table = gene_table(catalog, gamma)
    services, cum = table
    if data.draw(st.booleans(), label="on a boundary"):
        out = boundary_output(cum, data.draw(st.integers(0, len(cum) - 1)),
                              data.draw(st.integers(0, 2**11 - 1)))
        if out is None:
            out = data.draw(st.integers(0, MASK))
    else:
        out = data.draw(st.integers(0, MASK), label="output")
    start = stream_yielding(out).state

    ref = Stream(start)
    expected = reference_draw(catalog, gamma, ref)
    rng = Stream(start)
    assert draw_service(table, rng) is expected
    assert rng.state == ref.state


@settings(max_examples=100, deadline=None)
@given(catalogs(), gammas, st.integers(0, MASK), st.integers(1, 60))
def test_draw_service_table_reused_over_many_draws(catalog, gamma, state, draws):
    table = gene_table(catalog, gamma)
    ref, rng = Stream(state), Stream(state)
    for _ in range(draws):
        assert draw_service(table, rng) is reference_draw(catalog, gamma, ref)
    assert rng.state == ref.state


def test_draw_service_on_exact_running_sums():
    # four unused services weigh 1 each: r = 1.0, 2.0, 3.0 sit exactly on
    # the running sums, where `r < acc` moves on to the next service
    catalog = pool_of(svc(f"s{i}", ["a"]) for i in range(4))
    table = gene_table(catalog, 2.0)
    assert table[1] == [1.0, 2.0, 3.0, 4.0]
    for k in range(4):
        rng = stream_yielding((k * 2**51) << 11)
        assert draw_service(table, rng).id == f"s{k}"


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ga_across_deployments_matches_fresh_weights(data):
    """init, advance, record_deployment, pool growth, advance: the gene table
    must never outlive a counter or pool change."""
    base = data.draw(catalogs())
    for s in base.values():
        s.usage_count = s.success_count = 0
    request = req("r", ["a", "z"], max_len=3)  # unreachable: every generation runs
    params = EvolutionParams(population_size=6, mutation_rate=0.9,
                             gamma=data.draw(st.sampled_from([1.0, 3.0])), target_fitness=1.0)
    seed = data.draw(st.integers(0, 2**32), label="seed")
    deploy = data.draw(st.lists(st.booleans(), min_size=1, max_size=3), label="outcomes")

    def trajectory(fresh_weights):
        catalog = pool_of(s.copy() for s in base.values())
        rng = derive_substream(seed, "ga")
        draw = draw_service
        if fresh_weights:  # ignore the table: weigh the live catalog at each draw
            def draw(table, stream):
                return reference_draw(catalog, params.gamma, stream)
        with mock.patch.object(evolution, "draw_service", draw):
            pops = [init_population(catalog, request, params, rng)]
            for i, success in enumerate(deploy):
                record_deployment([catalog[sid] for sid in pops[-1][0].genome], success)
                if i == 1:
                    catalog["migrant"] = svc("migrant", ["a"], usage=3, success=3)
                pops.append(advance(pops[-1], catalog, request, params, rng, 2)[0])
        return pops, rng.state

    assert trajectory(False) == trajectory(True)


# --- the GA's generation loop ---


def reference_step_generation(pop, catalog, request, params, rng, table):
    """One generation with its own genome memo, seeded from `pop`, and
    `rng.random()` decisions."""
    size = len(pop)
    known = {ind.genome: ind for ind in pop}
    next_pop = sorted(pop, key=lambda ind: ind.fitness, reverse=True)[: params.elitism]
    while len(next_pop) < size:
        p1 = evolution.tournament_select(pop, params.tournament_size, rng)
        p2 = evolution.tournament_select(pop, params.tournament_size, rng)
        if rng.random() < params.crossover_rate:
            c1, c2 = evolution.crossover(p1.genome, p2.genome, request.max_len, rng)
        else:
            c1, c2 = p1.genome, p2.genome
        for child in (c1, c2):
            if len(next_pop) >= size:
                break
            if rng.random() < params.mutation_rate:
                child = evolution.mutate(child, table, request.max_len, rng)
            ind = known.get(child)
            if ind is None:
                ind = known[child] = evolution.Individual(
                    child, evaluate_genome(child, catalog, request, params))
            next_pop.append(ind)
    return next_pop


def reference_advance(pop, catalog, request, params, rng, max_steps):
    best, _ = population_stats(pop)
    stats = []
    if best.fitness >= params.target_fitness or max_steps <= 0:
        return pop, best, stats
    table = gene_table(catalog, params.gamma)
    for _ in range(max_steps):
        pop = reference_step_generation(pop, catalog, request, params, rng, table)
        best, mean = population_stats(pop)
        stats.append((best.fitness, mean))
        if best.fitness >= params.target_fitness:
            break
    return pop, best, stats


def sharing(pop):
    """For each slot, the first slot that holds the same individual."""
    first = {}
    return [first.setdefault(id(ind), i) for i, ind in enumerate(pop)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_advance_matches_the_per_generation_reference(data):
    """Same populations (genomes and fitnesses in order), statistics and
    stream state as generations that each seed a memo of their own. Services
    of equal attributes tie on fitness, and a request may be unreachable so
    that every generation of the budget runs.

    Shared slots are compared too. `init_population` already holds one
    individual per genome, so the two memos of a generation map each genome
    to the same individual and the slots share alike."""
    tokens = st.sampled_from("abc")
    services = [svc(f"s{i}", data.draw(st.frozensets(tokens, min_size=1, max_size=2)),
                    in_port=data.draw(st.sampled_from(["src", "mid"])),
                    out_port=data.draw(st.sampled_from(["mid", "dst"])),
                    price=data.draw(st.sampled_from([1.0, 2.0])))
                for i in range(data.draw(st.integers(1, 5), label="services"))]
    request = req("r", data.draw(st.frozensets(st.sampled_from("abcz"), min_size=1, max_size=3)),
                  max_len=data.draw(st.integers(1, 4), label="max_len"),
                  budget=data.draw(st.sampled_from([None, 3.0])))
    rates = st.sampled_from([0.0, 0.5, 1.0])
    size = data.draw(st.integers(1, 12), label="population")
    params = EvolutionParams(
        population_size=size,
        tournament_size=data.draw(st.sampled_from([1, 3])),
        crossover_rate=data.draw(rates, label="crossover"),
        mutation_rate=data.draw(rates, label="mutation"),
        elitism=min(size, data.draw(st.sampled_from([0, 1, 3]), label="elitism")),
        target_fitness=data.draw(st.sampled_from([0.999, 1.5]), label="target"))
    seed = data.draw(st.integers(0, 2**32), label="seed")
    budgets = data.draw(st.lists(st.integers(0, 25), min_size=1, max_size=3), label="budgets")

    def trajectory(step):
        catalog = pool_of(s.copy() for s in services)
        rng = derive_substream(seed, "ga")
        pop = init_population(catalog, request, params, rng)
        first = {}
        assert sharing(pop) == [first.setdefault(ind.genome, i) for i, ind in enumerate(pop)]
        calls = []
        for budget in budgets:
            pop, best, stats = step(pop, catalog, request, params, rng, budget)
            calls.append(([(ind.genome, ind.fitness) for ind in pop],
                          sharing(pop),
                          (best.genome, best.fitness), stats))
        return calls, rng.state

    assert trajectory(advance) == trajectory(reference_advance)


# --- weighted index ---


def reference_weighted_index(weights, rng):
    """`Stream.weighted_index` as a two-pass loop: the total, then a walk
    to the first running sum above the scaled draw."""
    total = 0.0
    for w in weights:
        total += w
    r = rng.random() * total
    acc = 0.0
    last = 0
    for i, w in enumerate(weights):
        acc += w
        last = i
        if r < acc:
            return i
    return last


weights_lists = st.lists(
    st.floats(0.0, 1e6) | st.sampled_from([0.0, 1.0, 5e-324, 1e-310, 2.0**-1022]),
    min_size=1, max_size=12).filter(lambda ws: sum(ws) > 0.0)


@settings(max_examples=300, deadline=None)
@given(weights_lists, st.sampled_from([0, 1, MASK, MASK - 2**11]) | st.integers(0, MASK))
def test_weighted_index_matches_the_two_pass_loop(weights, output):
    """Same index and the same one draw, at the top output 2**64-1 too, where
    a subnormal total rounds the scaled draw up onto the last running sum."""
    start = stream_yielding(output).state
    ref, rng = Stream(start), Stream(start)
    assert rng.weighted_index(weights) == reference_weighted_index(weights, ref)
    assert rng.state == ref.state


def test_weighted_index_top_output_takes_the_last_index():
    # with a subnormal total, random() * total rounds up to the total: no
    # running sum exceeds it, and the guard returns the last index
    for weights, expected in (([5e-324], 0), ([5e-324, 0.0], 1), ([1.0, 3.0], 1)):
        assert stream_yielding(MASK).weighted_index(weights) == expected
        assert reference_weighted_index(weights, stream_yielding(MASK)) == expected


# --- fitness kernel ---


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_chain_fitness_equals_fitness(data):
    tokens = st.sampled_from("abcdefg")
    ports = st.sampled_from(["p", "q", "r"])
    request = req("r", data.draw(st.frozensets(tokens, min_size=1, max_size=5), label="want"),
                  source=data.draw(ports), sink=data.draw(ports),
                  max_len=data.draw(st.integers(1, 5), label="max_len"))
    chain = [svc(f"s{i}", data.draw(st.frozensets(tokens, max_size=4)),
                 in_port=data.draw(ports), out_port=data.draw(ports))
             for i in range(data.draw(st.integers(0, request.max_len), label="length"))]
    beta = data.draw(st.sampled_from([0.0, 0.3, 0.5]) | st.floats(0.0, 1.0, exclude_max=True),
                     label="beta")
    got = chain_fitness(chain, request, beta)
    assert repr(got) == repr(fitness(chain, request, beta))


# --- clustering statistic ---


def reference_clustering(eco):
    """Pearson correlation of weight and profile similarity, nothing memoized."""
    keys = sorted(eco.connections)
    xs = [eco.connections[k] for k in keys]
    ys = [profile_similarity(eco.habitats[a], eco.habitats[b]) for a, b in keys]
    n = len(keys)
    # left to right, as `sum()` adds floats up to Python 3.11
    mx, my = reduce(add, xs, 0.0) / n, reduce(add, ys, 0.0) / n
    sxy = sxx = syy = 0.0
    for x, y in zip(xs, ys):
        sxy += (x - mx) * (y - my)
        sxx += (x - mx) * (x - mx)
        syy += (y - my) * (y - my)
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    return sxy / math.sqrt(sxx * syy)


def check_clustering(eco):
    if len(eco.connections) >= 3:
        assert clustering_statistic(eco) == reference_clustering(eco)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_clustering_memo_matches_recomputation(data):
    n = data.draw(st.integers(5, 12), label="habitats")
    attrs = st.frozensets(st.sampled_from("abcdef"), min_size=1, max_size=4)
    habitats = [Habitat(id=f"h{i:02d}", pool={},
                        profile=[RequestTemplate(req(f"r{i}", data.draw(attrs)), 1.0)])
                for i in range(n)]
    eco = build_ecosystem(habitats, ("random_m", 2),
                          derive_substream(data.draw(st.integers(0, 2**16)), "build"))
    check_clustering(eco)
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        ids = eco.habitat_ids()
        op = data.draw(st.sampled_from(["reinforce_new", "reinforce_old", "decay", "fail"]))
        if op == "reinforce_new":
            missing = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
                       if (a, b) not in eco.connections]
            if missing:
                reinforce(eco, *data.draw(st.sampled_from(missing)), 0.5)
        elif op == "reinforce_old":
            reinforce(eco, *data.draw(st.sampled_from(sorted(eco.connections))), 0.25)
        elif op == "decay":
            decay_all(eco, 0.9)
        elif len(ids) > 4:
            failure_inject(eco, data.draw(st.lists(st.sampled_from(ids), min_size=1,
                                                   max_size=2, unique=True)))
        check_clustering(eco)


def test_clustering_after_snapshot_restore():
    obj = load_asset_obj("two_communities.json")
    obj["epochs"] = 6
    obj["failures"] = [{"epoch": 4, "victims": ["a3"]}]
    cfg = config_from_obj(obj)
    result = engine.run(cfg)
    state = json.loads(json.dumps(result.final_state()))
    restored, _, _ = engine.state_from_obj(cfg, state)
    assert clustering_statistic(restored) == clustering_statistic(result.eco)
    for eco in (result.eco, restored):
        ids = eco.habitat_ids()
        a, b = next((a, b) for a in ids for b in ids
                    if a < b and (a, b) not in eco.connections)
        reinforce(eco, a, b, 0.5)
        check_clustering(eco)
    assert clustering_statistic(restored) == clustering_statistic(result.eco)


# --- event log ---


def reference_events(events):
    return "".join(json.dumps({"epoch": ev[0], "kind": ev[1], "payload": payload(ev)},
                              sort_keys=True, separators=(",", ":")) + "\n"
                   for ev in events)


def test_serialize_events_equals_json_dumps_for_every_kind():
    events = [
        (1, "request_sampled", "h0", "r0"),
        (1, "warning", "empty pool, epoch skipped", "h0"),
        (1, "deployment", "h0", "r0", ("s1", "s0"), 0.1 + 0.2, True),
        (1, "deployment", "h1", "r1", ("s9",), 5e-324, False),
        (7, "deployment", "h2", "r2", (), -0.0, False),
        (2, "reinforcement", "h0", "h1", "s1", 1.0000000000000002),
        (2, "migration", "s1", "h0", "h1"),
        (10, "failure", ["h1", "h2"]),
        (10, "heal", [("h0", "h3", 0.01), ("h3", "h4", 1e-17)]),
        (123456, "warning", 'quote " backslash \\ newline \n tab \t '
                            "caf\u00e9 \u2603 \U0001F600 nul \x00"),
    ]
    assert {ev[1] for ev in events} == engine.EVENT_KEYS.keys()
    assert engine.serialize_events(events) == reference_events(events)
    assert engine.serialize_events([]) == ""
    # a top-level string, as `config._pieces` encodes every key
    for text in ("state", 'k"\\\u2603\x00', ""):
        assert COMPACT.encode(text) == json.dumps(text)
    # an unserializable value raises the stdlib's error
    bad = [(3, "migration", {"s1"}, "h0", "h1")]
    with pytest.raises(TypeError) as expected:
        reference_events(bad)
    with pytest.raises(TypeError) as got:
        engine.serialize_events(bad)
    assert str(got.value) == str(expected.value) == "Object of type set is not JSON serializable"


# Ids that need escaping (a quote, a backslash, control, non-ASCII and astral
# characters), and ids that are not strings: True, 1 and 1.0 are equal keys
# of a dict, and a list is no key at all.
string_ids = st.sampled_from(["h0", "s1", 'h"0', "h\\1", "h\x00\n\x1f", "café",
                              "☃\U0001F600", ""]) | st.text(max_size=4)
event_ids = string_ids | string_ids | st.sampled_from([True, 1, 1.0, None, ["h0"]])
numbers = st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 0, 1, -7,
                           True]) | st.floats()
# Chains may also be bare strings, which must not be written as the array
# of their characters, and tuples holding ids that are not strings.
chains = (st.tuples() | st.lists(string_ids, max_size=3).map(tuple)
          | st.lists(event_ids, max_size=3) | string_ids
          | st.lists(event_ids, max_size=3).map(tuple))


@st.composite
def events_of_every_kind(draw):
    values = {
        "request_sampled": st.tuples(event_ids, event_ids),
        "deployment": st.tuples(event_ids, event_ids, chains, numbers,
                                st.sampled_from([True, False, 0, 1])),
        "reinforcement": st.tuples(event_ids, event_ids, event_ids, numbers),
        "migration": st.tuples(event_ids, event_ids, event_ids),
        "failure": st.tuples(st.lists(event_ids, max_size=3)),
        "heal": st.tuples(st.lists(st.tuples(event_ids, event_ids, numbers), max_size=2)),
        "warning": st.tuples(st.text(max_size=6)) | st.tuples(st.text(max_size=6), event_ids),
    }
    kinds = st.sampled_from(sorted(values))
    return [(draw(st.integers(0, 10**6)), kind, *draw(values[kind]))
            for kind in draw(st.lists(kinds, min_size=20, max_size=60))]


@settings(max_examples=100, deadline=None)
@given(events_of_every_kind())
@example([(1, "deployment", "h0", "r0", ("s0",), math.inf, True),
          (1, "deployment", "h0", "r0", ("s0",), 0.5, 1),
          (2, "reinforcement", "h0", "h1", "s0", math.nan),
          (2, "migration", 1, True, 1.0),
          (3, "deployment", True, 1, (1.0, 1, True), 1, 0)])
@example([(1, "deployment", "h0", "r0", "s0", 0.5, True),
          (1, "deployment", "h0", "r0", ("s0", ["h0"]), 0.5, False)])
def test_serialize_events_equals_json_dumps_on_generated_events(events):
    """Every kind, with ids that need escaping or are not strings, floats that
    are not finite or not floats, successes that are not bools and chains
    that are lists, bare strings or tuples of non-strings: the log is
    `json.dumps` of each event's record, also when equal values of different
    types share one call."""
    assert engine.serialize_events(events) == reference_events(events)


# JSON values of every kind, nested: keys and strings that need escaping,
# ints up to +-2**64, floats that are extreme or not finite, bools, None and
# empty containers.
json_scalars = (st.none() | st.booleans() | numbers | string_ids
                | st.integers(-2**64, 2**64) | st.sampled_from([-2**64, 2**64, 2**63]))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(string_ids, inner, max_size=4),
    max_leaves=24)


def dumps_compact(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@settings(max_examples=200, deadline=None)
@given(json_values)
@example({"b": [None, True, False, [], {}], "a": {"\U0001F600": -0.0, "café": 5e-324},
          'k"\\\x00': [1e308, math.nan, math.inf, -math.inf, 2**64, -2**64]})
def test_compact_equals_json_dumps_on_generated_values(value):
    """`config.COMPACT`, which writes the generic event lines and every
    snapshot piece, is `json.dumps` with sorted keys and no spaces."""
    assert COMPACT.encode(value) == dumps_compact(value)


@pytest.mark.parametrize("value", [{"h0"}, b"h0", [1, {"k": {"h0"}}], {"k": [b"h0"]}],
                         ids=["set", "bytes", "nested set", "nested bytes"])
def test_compact_raises_the_stdlib_type_error(value):
    with pytest.raises(TypeError) as expected:
        dumps_compact(value)
    with pytest.raises(TypeError) as got:
        COMPACT.encode(value)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("Object of type ")


def test_events_jsonl_equals_serialized_event_records(tmp_path):
    obj = load_asset_obj("two_communities.json")
    obj["epochs"] = 12
    obj["failures"] = [{"epoch": 5, "victims": ["a3", "b0"]}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    with open(os.path.join(out, "events.jsonl"), "rb") as f:
        written = f.read()
    result = engine.run(config_from_obj(obj))
    events = result.events
    assert all(type(ev) is tuple for ev in events)
    assert {ev[1] for ev in events} >= {"deployment", "failure", "heal", "migration"}
    assert written == engine.serialize_events(events).encode("utf-8")
    assert written == reference_events(events).encode("utf-8")


def run_cli_on(tmp_path, obj, cpus):
    """Run `dbesim run` of `obj` on an affinity of `cpus`; returns its events.jsonl path."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "out"
    with mock.patch.object(os, "sched_getaffinity", lambda pid: cpus):
        assert cli.main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    return out / "events.jsonl"


def with_odd_ids(value, tail=""):
    """A config object with a space, a quote, a backslash, non-ASCII
    characters and then `tail` added to every id and failure victim."""
    def odd(name):
        return f'{name} "q" \\ caf\u00e9 \u2603{tail}'

    if isinstance(value, list):
        return [with_odd_ids(v, tail) for v in value]
    if not isinstance(value, dict):
        return value
    return {k: odd(v) if k == "id" else [odd(x) for x in v] if k == "victims"
            else with_odd_ids(v, tail) for k, v in value.items()}


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_ids_that_are_not_tokens_are_escaped_in_the_event_log(tmp_path, cpus):
    """Habitat, service and request ids are any non-empty string. Written on
    one process or two, each line of `events.jsonl` is `json.dumps` of its
    event, and it reads back into the event."""
    obj = with_odd_ids(_evolving_scenario_obj(7, 3))
    obj["failures"].append(dict(obj["failures"][0], epoch=4))  # a warning naming the victim
    events_jsonl = run_cli_on(tmp_path, obj, cpus)
    result = engine.run(config_from_obj(obj))
    assert {ev[1] for ev in result.events} == engine.EVENT_KEYS.keys()
    written = events_jsonl.read_text(encoding="utf-8")
    assert written.split("\n") == reference_events(result.events).split("\n")
    assert read_events(events_jsonl) == [as_tuples(ev) for ev in result.events]


def dot_tokens(text):
    """The tokens of a DOT text: each quoted string as a 1-tuple of its
    characters with each escaping backslash dropped (a backslash takes the
    next character as it is), and each run of other non-blank characters."""
    tokens, i = [], 0
    while i < len(text):
        if text[i] == '"':
            chars, i = [], i + 1
            while text[i] != '"':
                if text[i] == "\\":
                    i += 1
                chars.append(text[i])
                i += 1
            tokens.append(("".join(chars),))
            i += 1
        elif text[i].isspace():
            i += 1
        else:
            start = i
            while i < len(text) and not text[i].isspace() and text[i] != '"':
                i += 1
            tokens.append(text[start:i])
    return tokens


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_ids_that_are_not_tokens_come_back_from_the_dot_and_csv_outputs(tmp_path, cpus):
    """Ids with a comma, a line feed, a quote and a trailing backslash, among
    others: `ecosystem.dot` and `business.dot` read back by a reader of quoted
    DOT strings, and `flows.csv` by `csv.reader`, give every id back."""
    obj = with_odd_ids(_evolving_scenario_obj(7, 3), tail=",\n\\")
    out = run_cli_on(tmp_path, obj, cpus).parent
    result = engine.run(config_from_obj(obj))
    eco, ledger = result.eco, result.ledger
    expected = ["graph", "ecosystem", "{"]
    for hid in sorted(eco.habitats):
        expected += [(hid,), ";"]
    for (a, b), w in sorted(eco.connections.items()):
        expected += [(a,), "--", (b,), "[label=", (f"{w:.4f}",), "];"]
    assert dot_tokens((out / "ecosystem.dot").read_text(encoding="utf-8")) == expected + ["}"]
    expected = ["graph", "business", "{"]
    for vid in sorted(h["id"] for h in obj["scenario"]["habitats"]):
        assert vid.endswith(",\n\\")
        expected += [(vid,), "[label=", (f"{vid} eta=1.0000 k=0",), "];"]
    assert dot_tokens((out / "business.dot").read_text(encoding="utf-8")) == expected + ["}"]
    with open(out / "flows.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) > 1 and rows == [["from", "to", "kind", "value", "step"]] + [
        [e.src, e.dst, e.kind, repr(e.value), str(e.step)] for e in ledger.flow_edges]


def test_events_jsonl_reads_back_by_the_key_table(tmp_path):
    """A sharded `bridged24` run's log, read strictly by `EVENT_KEYS`, rebuilds
    the run's events, and no event in memory holds a dict."""
    obj = bridged24_obj()
    events_jsonl = run_cli_on(tmp_path, obj, {0, 1})
    result = engine.run(config_from_obj(obj), workers=2)
    assert result.workers == 2
    assert not any(type(v) is dict for ev in result.events for v in ev)
    assert read_events(events_jsonl) == [as_tuples(ev) for ev in result.events]


class ReferenceGraph:
    """The growth graph as a pool of vertex ids over a dict of vertices."""

    def __init__(self):
        self.vertices = {}
        self.attachment_edges = []
        self.pool = []

    def add_vertex(self, vid, eta, birth_step):
        self.vertices[vid] = SimpleNamespace(id=vid, eta=eta, degree=0, birth_step=birth_step)
        self.pool.append(vid)

    def add_attachment_edge(self, a, b):
        self.attachment_edges.append((a, b) if a < b else (b, a))
        for vid in (a, b):
            v = self.vertices[vid]
            if v.degree:
                self.pool.append(vid)
            v.degree += 1

    def add_grown_vertex(self, eta, step, m, rng):
        targets = []
        for _ in range(m):
            while True:
                vid = self.pool[rng.below(len(self.pool))]
                if vid not in targets and rng.random() < self.vertices[vid].eta:
                    break
            targets.append(vid)
        vid = f"v{len(self.vertices)}"
        self.add_vertex(vid, eta, step)
        for t in targets:
            self.add_attachment_edge(vid, t)
        return vid

    def grow(self, steps, m, eta_dist, rng):
        base = max((v.birth_step for v in self.vertices.values()), default=0)
        for step in range(base + 1, base + steps + 1):
            self.add_grown_vertex(eta_dist.draw(rng), step, m, rng)

    def inject_and_track(self, eta_star, at_step, total_steps, m, eta_dist, rng):
        every = max(1, total_steps // 20)
        injected, trajectory = None, []
        for step in range(1, total_steps + 1):
            if step == at_step:
                injected = self.add_grown_vertex(eta_star, step, m, rng)
            self.add_grown_vertex(eta_dist.draw(rng), step, m, rng)
            if injected is not None and (step % every == 0 or step == total_steps):
                d = self.vertices[injected].degree
                trajectory.append((step, 1 + sum(v.degree > d for v in self.vertices.values())))
        return trajectory

    def degree_csv(self):
        text = "vertex,eta,degree,birth_step\n"
        for vid in sorted(self.vertices):
            v = self.vertices[vid]
            text += f"{vid},{v.eta!r},{v.degree},{v.birth_step}\n"
        return text

    def to_dot(self):
        text = "graph business {\n"
        for vid in sorted(self.vertices):
            v = self.vertices[vid]
            text += f'  "{vid}" [label="{vid} eta={v.eta:.4f} k={v.degree}"];\n'
        for a, b in sorted(self.attachment_edges):
            text += f'  "{a}" -- "{b}";\n'
        return text + "}\n"


def seeded_pair(count, eta_dist, seed):
    """The kernel's seed graph and the reference one, each with its own stream."""
    rng, ref_rng = derive_substream(seed, "growth"), derive_substream(seed, "growth")
    ref = ReferenceGraph()
    for i in range(count):
        ref.add_vertex(f"v{i}", eta_dist.draw(ref_rng), 0)
    for i in range(count):
        for j in range(i + 1, count):
            ref.add_attachment_edge(f"v{i}", f"v{j}")
    return seed_business_graph(count, eta_dist, rng), rng, ref, ref_rng


def assert_same_graph(g, rng, ref, ref_rng):
    assert ([(v.id, v.eta, v.degree, v.birth_step) for v in g.vertices.values()]
            == [(v.id, v.eta, v.degree, v.birth_step) for v in ref.vertices.values()])
    assert g.attachment_edges == ref.attachment_edges
    assert [v.id for v in g._pool] == ref.pool
    assert rng.state == ref_rng.state


GROWTH_CASES = [  # (seed vertices, m, eta distribution)
    (3, 1, EtaDist("uniform", 1.0)),
    (3, 2, EtaDist("uniform", 0.5)),
    (4, 3, EtaDist("uniform", 1.0)),
    (3, 3, EtaDist("fixed", 0.7)),
    (1, 1, EtaDist("fixed", 1.0)),
    (2, 2, EtaDist("uniform", 1.0)),
]


@pytest.mark.parametrize("count,m,eta", GROWTH_CASES)
def test_grow_matches_the_id_pool_reference(count, m, eta):
    g, rng, ref, ref_rng = seeded_pair(count, eta, 31 + m)
    assert_same_graph(g, rng, ref, ref_rng)
    grow(g, 400, m, eta, rng)
    ref.grow(400, m, eta, ref_rng)
    assert_same_graph(g, rng, ref, ref_rng)
    grow(g, 50, m, eta, rng)  # a second call continues the birth steps
    ref.grow(50, m, eta, ref_rng)
    assert_same_graph(g, rng, ref, ref_rng)


@pytest.mark.parametrize("count,m,eta", GROWTH_CASES)
def test_inject_and_track_matches_the_id_pool_reference(count, m, eta):
    g, rng, ref, ref_rng = seeded_pair(count, eta, 47 + m)
    trajectory = inject_and_track(g, 0.9, 150, 400, m, eta, rng)
    assert trajectory == ref.inject_and_track(0.9, 150, 400, m, eta, ref_rng)
    assert len(trajectory) == 13
    assert_same_graph(g, rng, ref, ref_rng)


def test_chunked_writers_match_the_per_line_text():
    """More than one chunk of vertex and of edge lines, with ids made by
    `add_vertex` that sort apart from the fresh ones."""
    eta = EtaDist("uniform", 1.0)
    g, rng, ref, ref_rng = seeded_pair(3, eta, 5)
    for vid, e in (("a", 0.25), ("zz", 1.0), ("v10x", 0.5)):
        g.add_vertex(vid, e, 0)
        ref.add_vertex(vid, e, 0)
    g.add_attachment_edge(g.vertices["a"], g.vertices["v0"])
    ref.add_attachment_edge("a", "v0")
    grow(g, 2 * CHUNK_LINES, 2, eta, rng)
    ref.grow(2 * CHUNK_LINES, 2, eta, ref_rng)
    assert_same_graph(g, rng, ref, ref_rng)
    csv, dot = list(g.degree_lines()), list(g.dot_lines())
    # 2054 vertex lines in 3 chunks, 4100 edge lines in 5, and the header and closing lines
    assert len(g.vertices) == 2054 and len(g.attachment_edges) == 4100
    assert (len(csv), len(dot)) == (1 + 3, 1 + 3 + 5 + 1)
    assert all(chunk.count("\n") <= CHUNK_LINES for chunk in csv + dot)
    assert "".join(csv) == ref.degree_csv()
    assert "".join(dot) == ref.to_dot()
    empty = BusinessGraph()
    assert "".join(empty.degree_lines()) == ReferenceGraph().degree_csv()
    assert "".join(empty.dot_lines()) == ReferenceGraph().to_dot()
