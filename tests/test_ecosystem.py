"""Habitat graph dynamics: construction, migration, reinforcement, healing."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from conftest import Scripted, load_asset_obj, pool_of, random_catalog, random_request, req, svc
from dbesim import ecosystem, engine
from dbesim.config import config_from_obj
from dbesim.ecosystem import (
    ActiveEvolution,
    EcosystemParams,
    Ecosystem,
    Habitat,
    RequestTemplate,
    build_ecosystem,
    clustering_statistic,
    decay_all,
    evolve_request,
    failure_inject,
    migrate,
    profile_similarity,
    reinforce,
    run_epoch,
    self_heal,
)
from dbesim.evolution import EvolutionParams, population_stats
from dbesim.rng import derive_substream
from dbesim.shards import Shards


def make_habitat(hid, services=(), attrs=("a",)):
    pool = pool_of(services)
    profile = [RequestTemplate(req(f"{hid}_req", attrs=attrs), 1.0)]
    return Habitat(id=hid, pool=pool, profile=profile)


def make_eco(n, topology=("ring",), seed=0):
    habitats = [make_habitat(f"h{i:02d}") for i in range(n)]
    return build_ecosystem(habitats, topology, derive_substream(seed, "build"))


def as_networkx(eco):
    g = nx.Graph()
    g.add_nodes_from(eco.habitats)
    g.add_edges_from(eco.connections)
    return g


# --- construction ---

def test_build_two_habitats_single_connection():
    eco = make_eco(2)
    assert len(eco.connections) == 1
    assert list(eco.connections.values()) == [1.0]
    assert eco.epoch == 0


def test_build_ring_of_five():
    eco = make_eco(5)
    assert len(eco.connections) == 5
    for hid in eco.habitat_ids():
        assert len(eco.neighbors(hid)) == 2


def test_build_random_m_connected_with_enough_edges():
    eco = make_eco(16, topology=("random_m", 2), seed=3)
    assert len(eco.connections) >= 16
    assert nx.is_connected(as_networkx(eco))


def test_build_random_m_always_connected_across_seeds():
    for seed in range(20):
        eco = make_eco(12, topology=("random_m", 1), seed=seed)
        assert nx.is_connected(as_networkx(eco))


def test_build_random_m_gives_up_after_its_retries():
    """A sample that is disconnected on every try (h0-h1 and h2-h3 of four
    habitats with m = 1) is redrawn `BUILD_RETRIES` times, then refused."""
    habitats = [make_habitat(f"h{i}") for i in range(4)]
    rng = Scripted(belows=[0, 0, 2, 2] * ecosystem.BUILD_RETRIES)
    with pytest.raises(ecosystem.EcosystemError, match="could not build connected topology"):
        build_ecosystem(habitats, ("random_m", 1), rng)
    assert rng.belows == []


# --- reinforcement and decay ---

def test_reinforce_adds_delta():
    eco = make_eco(3)
    key = ("h00", "h01")
    assert eco.connections[key] == 1.0
    reinforce(eco, "h00", "h01", 0.1)
    assert eco.connections[key] == pytest.approx(1.1)
    reinforce(eco, "h01", "h00", 0.1)
    assert eco.connections[key] == pytest.approx(1.2)


def test_reinforce_creates_missing_edge_at_floor():
    eco = make_eco(4)  # ring: h00-h02 not connected
    assert ("h00", "h02") not in eco.connections
    w = reinforce(eco, "h00", "h02", 0.1)
    assert w == pytest.approx(eco.w_min + 0.1)


def test_decay_multiplies():
    eco = make_eco(3)
    decay_all(eco, 0.99)
    assert all(w == pytest.approx(0.99) for w in eco.connections.values())


def test_decay_floors_at_w_min():
    eco = make_eco(3)
    for key in eco.connections:
        eco.connections[key] = eco.w_min
    decay_all(eco, 0.5)
    assert all(w == eco.w_min for w in eco.connections.values())


def test_decay_identity_at_one():
    eco = make_eco(3)
    reinforce(eco, "h00", "h01", 0.25)
    before = dict(eco.connections)
    decay_all(eco, 1.0)
    assert eco.connections == before


# Any delta > 0 and decay in (0, 1]: the ranges the config boundary admits.
_REINFORCE = st.tuples(st.just("reinforce"), st.integers(0, 7), st.integers(0, 7),
                       st.floats(1e-9, 5.0))
_DECAY = st.tuples(st.just("decay"), st.floats(1e-9, 1.0))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 8), w_min=st.floats(1e-9, 1.0),
       ops=st.lists(st.one_of(_REINFORCE, _DECAY), max_size=40))
def test_reinforce_and_decay_keep_every_weight_at_or_above_the_floor(n, w_min, ops):
    habitats = [make_habitat(f"h{i:02d}") for i in range(n)]
    eco = build_ecosystem(habitats, ("ring",), derive_substream(0, "build"), w_min=w_min)
    ids = eco.habitat_ids()
    for op in ops:
        if op[0] == "decay":
            decay_all(eco, op[1])
        elif op[1] % n != op[2] % n:
            reinforce(eco, ids[op[1] % n], ids[op[2] % n], op[3])
        assert all(w >= w_min for w in eco.connections.values()), op


# --- similarity and clustering ---

def test_profile_similarity_identical():
    a = make_habitat("a", attrs=("x", "y"))
    b = make_habitat("b", attrs=("x", "y"))
    assert profile_similarity(a, b) == 1.0


def test_profile_similarity_disjoint():
    a = make_habitat("a", attrs=("x",))
    b = make_habitat("b", attrs=("y",))
    assert profile_similarity(a, b) == 0.0


def test_profile_similarity_hand_jaccard():
    a = make_habitat("a", attrs=("a", "b"))
    b = make_habitat("b", attrs=("b", "c"))
    assert profile_similarity(a, b) == pytest.approx(1 / 3)


def test_profile_similarity_unions_across_templates():
    a = make_habitat("a", attrs=("a",))
    a.profile.append(RequestTemplate(req("a2", attrs=("b",)), 1.0))
    b = make_habitat("b", attrs=("a", "b"))
    assert profile_similarity(a, b) == 1.0


def test_clustering_zero_when_weights_equal():
    eco = make_eco(5)
    assert clustering_statistic(eco) == 0.0


def neumaier_sum(values, start=0):
    """`sum()` of floats as CPython 3.12 and later compute it: compensated."""
    total, c = float(start), 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_clustering_means_do_not_depend_on_the_sum_builtin(monkeypatch):
    """The statistic's two means are added left to right, as `sum()` adds
    floats up to Python 3.11, so `metrics.csv` reads the same bytes on every
    supported interpreter. After one epoch of `two_communities` every weight
    is equal but their mean is not exact: a compensated sum reads 0.0."""
    obj = load_asset_obj("two_communities.json")
    obj["epochs"] = 1
    result = engine.run(config_from_obj(obj))
    assert result.metrics[0].clustering_statistic == 3.0083219415020294e-16
    assert neumaier_sum([0.1] * 10) == 1.0
    monkeypatch.setattr(ecosystem, "sum", neumaier_sum, raising=False)
    assert clustering_statistic(result.eco) == 3.0083219415020294e-16


def test_clustering_one_when_weights_match_similarity():
    habitats = [
        make_habitat("h0", attrs=("a", "b")),
        make_habitat("h1", attrs=("a", "b")),
        make_habitat("h2", attrs=("a", "c")),
        make_habitat("h3", attrs=("d", "e")),
    ]
    eco = build_ecosystem(habitats, ("ring",), derive_substream(0, "build"))
    for key in eco.connections:
        sim = profile_similarity(eco.habitats[key[0]], eco.habitats[key[1]])
        eco.connections[key] = max(eco.w_min, 5.0 * sim + eco.w_min)
    assert clustering_statistic(eco) == pytest.approx(1.0)


def test_clustering_matches_scipy_pearson():
    rng = derive_substream(41, "pearson")
    habitats = [make_habitat(f"h{i:02d}", attrs=tuple(
        x for x in ("a", "b", "c", "d") if rng.random() < 0.6) or ("a",))
        for i in range(8)]
    eco = build_ecosystem(habitats, ("random_m", 2), derive_substream(41, "build"))
    for key in eco.connections:
        eco.connections[key] = 0.05 + 3.0 * rng.random()
    keys = sorted(eco.connections)
    xs = [eco.connections[k] for k in keys]
    ys = [profile_similarity(eco.habitats[k[0]], eco.habitats[k[1]]) for k in keys]
    expected = stats.pearsonr(xs, ys).statistic
    assert clustering_statistic(eco) == pytest.approx(expected, abs=1e-12)


# --- migration ---

def fired(genome, p_mig, rng):
    """The migration draws `habitat_step` makes on `rng` for a deployed
    `genome`: per member, a coin against `p_mig` and, if it fires, the
    destination draw."""
    draws = []
    for i in range(len(genome)):
        if rng.random() < p_mig:
            draws.append((i, rng.random()))
    return draws


def _migration_eco():
    center = make_habitat("mid", services=[svc("payload", {"a"}, usage=4, success=3)])
    left = make_habitat("aleft")
    right = make_habitat("zright")
    eco = build_ecosystem([center, left, right], ("ring",), derive_substream(0, "b"))
    return eco, center


def test_migrate_zero_probability_no_events():
    eco, center = _migration_eco()
    assert migrate(center, ("payload",), fired(("payload",), 0.0, derive_substream(1, "mig")),
                   eco) == []


def test_migrate_copies_manifest_with_counters_and_provenance():
    eco, center = _migration_eco()
    events = migrate(center, ("payload",), fired(("payload",), 1.0, derive_substream(2, "mig")), eco)
    assert len(events) == 1
    service_id, destination = events[0]
    assert service_id == "payload"
    dest = eco.habitats[destination]
    copied = dest.pool["payload"]
    original = center.pool["payload"]
    assert copied is not original
    assert copied.attrs == original.attrs
    assert (copied.usage_count, copied.success_count) == (4, 3)
    assert dest.provenance["payload"] == "mid"


def test_migrate_skips_existing_id_but_consumes_draws():
    eco, center = _migration_eco()
    for target in ("aleft", "zright"):
        eco.habitats[target].pool["payload"] = svc("payload", {"a"})
    assert migrate(center, ("payload",), fired(("payload",), 1.0, derive_substream(3, "mig")),
                   eco) == []


def test_migrate_single_neighbor_always_chosen():
    a = make_habitat("a", services=[svc("x", {"a"})])
    b = make_habitat("b")
    eco = build_ecosystem([a, b], ("ring",), derive_substream(0, "b"))
    events = migrate(a, ("x",), fired(("x",), 1.0, derive_substream(4, "mig")), eco)
    assert [destination for _, destination in events] == ["b"]


def test_migrate_destination_frequency_tracks_weights():
    # Weights 3:1 -> destination frequencies about 3:1 over 10^4 firings.
    services = [svc(f"m{i:05d}", {"a"}) for i in range(10000)]
    hub = make_habitat("hub", services=services)
    n1 = make_habitat("n1")
    n2 = make_habitat("n2")
    eco = build_ecosystem([hub, n1, n2], ("ring",), derive_substream(0, "b"))
    eco.connections[("hub", "n1")] = 3.0
    eco.connections[("hub", "n2")] = 1.0
    eco.remove_connection("n1", "n2")
    rng = derive_substream(5, "mig-freq")
    counts = {"n1": 0, "n2": 0}
    for i in range(10000):
        for _, destination in migrate(hub, (f"m{i:05d}",), fired((f"m{i:05d}",), 1.0, rng), eco):
            counts[destination] += 1
    total = counts["n1"] + counts["n2"]
    assert total == 10000
    p = 0.75
    sigma = math.sqrt(total * p * (1 - p))
    assert abs(counts["n1"] - total * p) < 3.5 * sigma


# --- failure and healing ---

def test_failure_ring_node_reconnects_neighbors():
    eco = make_eco(5)
    eco.connections[("h01", "h02")] = 0.5
    eco.connections[("h02", "h03")] = 0.3
    removed, created = failure_inject(eco, ["h02"])
    assert removed == ["h02"]
    assert ("h01", "h03", 0.3) in created
    assert eco.connections[("h01", "h03")] == 0.3
    assert nx.is_connected(as_networkx(eco))


def test_failure_leaf_no_new_edges():
    habitats = [make_habitat(h) for h in ("a", "b", "c")]
    eco = Ecosystem(habitats)
    eco.add_connection("a", "b", 1.0)
    eco.add_connection("b", "c", 1.0)
    removed, created = failure_inject(eco, ["c"])
    assert created == []
    assert nx.is_connected(as_networkx(eco))


def test_failure_existing_edge_not_overwritten():
    eco = make_eco(3)  # triangle: h00-h01-h02 all connected
    eco.connections[("h00", "h02")] = 2.5
    removed, created = failure_inject(eco, ["h01"])
    assert created == []
    assert eco.connections[("h00", "h02")] == 2.5


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 12), m=st.integers(1, 3), ring=st.booleans(),
       seed=st.integers(0, 2**64 - 1), data=st.data())
def test_failures_that_spare_a_habitat_leave_the_graph_connected(n, m, ring, seed, data):
    """Successive failure_inject calls, each with a non-empty set of current
    habitats that spares at least one (what the run loop passes), keep the
    connection graph connected."""
    eco = make_eco(n, ("ring",) if ring else ("random_m", min(m, n - 1)), seed)
    for _ in range(data.draw(st.integers(1, 3))):
        alive = eco.habitat_ids()
        if len(alive) < 2:
            break
        victims = data.draw(st.lists(st.sampled_from(alive), min_size=1,
                                     max_size=len(alive) - 1, unique=True))
        removed, _ = failure_inject(eco, victims)
        assert removed == sorted(victims)
        assert sorted(eco.habitats) == sorted(set(alive) - set(victims))
        assert eco.connected()


def test_failure_pools_lost_but_copies_survive():
    a = make_habitat("a", services=[svc("x", {"a"})])
    b = make_habitat("b")
    c = make_habitat("c")
    eco = build_ecosystem([a, b, c], ("ring",), derive_substream(0, "b"))
    b.pool["x"] = a.pool["x"].copy()
    b.provenance["x"] = "a"
    failure_inject(eco, ["a"])
    assert "a" not in eco.habitats
    assert "x" in eco.habitats["b"].pool


def test_self_heal_joins_components_via_smallest_ids():
    habitats = [make_habitat(h) for h in ("a", "b", "c", "d")]
    eco = Ecosystem(habitats)
    eco.add_connection("a", "b", 1.0)
    eco.add_connection("c", "d", 1.0)
    created = self_heal(eco)
    assert created == [("a", "c", eco.w_min)]
    assert nx.is_connected(as_networkx(eco))


def test_connectivity_holds_after_random_failures():
    rng = derive_substream(42, "chaos")
    for trial in range(30):
        n = 6 + rng.below(8)
        eco = make_eco(n, topology=("random_m", 2), seed=trial)
        ids = eco.habitat_ids()
        victims = sorted({ids[rng.below(n)] for _ in range(1 + rng.below(3))})
        if len(victims) >= n:
            continue
        failure_inject(eco, victims)
        assert nx.is_connected(as_networkx(eco))
        assert all(w >= eco.w_min for w in eco.connections.values())


# --- epoch loop ---

def _epoch_fixture(n=2):
    habitats = []
    for i in range(n):
        services = [svc(f"h{i}_svc", {f"t{i}"}, in_port="src", out_port="dst",
                        reliability=1.0)]
        pool = pool_of(services)
        profile = [RequestTemplate(req(f"h{i}_req", attrs=(f"t{i}",), max_len=2), 1.0)]
        habitats.append(Habitat(id=f"h{i}", pool=pool, profile=profile))
    eco = build_ecosystem(habitats, ("ring",), derive_substream(0, "build"))
    streams = {h: derive_substream(7, f"habitat:{h}") for h in eco.habitat_ids()}
    return eco, streams


def _always_succeed(chain, rng):
    for _ in chain:
        rng.random()
    return True


def _run_epoch(eco, streams, **eco_params):
    """One epoch, with no failure, and every habitat step in this process;
    returns (deployments, migrations, the epoch's events as (kind, values))
    after checking that each event is stamped with the epoch run."""
    params = EvolutionParams(population_size=8, generation_budget_per_epoch=5)
    eco_params = EcosystemParams(**eco_params)
    events = []
    epoch = eco.epoch + 1
    with Shards(eco, streams, params, _always_succeed, eco_params.p_mig, 1, [set()]) as shards:
        deployments, migrations = run_epoch(eco, eco_params, events, shards)
    assert eco.epoch == epoch and all(ev[0] == epoch for ev in events)
    return deployments, migrations, [(ev[1], ev[2:]) for ev in events]


def test_run_epoch_increments_and_decays_once():
    eco, streams = _epoch_fixture()
    deployments, _, events = _run_epoch(eco, streams)
    assert eco.epoch == 1
    assert [d[0].id for d in deployments] == ["h0", "h1"]
    assert all(w == pytest.approx(0.99) for w in eco.connections.values())
    kinds = [k for k, _ in events]
    assert kinds.count("request_sampled") == 2
    assert kinds.count("deployment") == 2


def test_run_epoch_emits_each_habitats_request_before_its_deployment():
    """Per habitat in id order: its `request_sampled`, then its `deployment`."""
    eco, streams = _epoch_fixture()
    eco.epoch = 6
    _, _, events = _run_epoch(eco, streams)
    steps = [(k, v[0]) for k, v in events if k in ("request_sampled", "deployment")]
    assert steps == [("request_sampled", "h0"), ("deployment", "h0"),
                     ("request_sampled", "h1"), ("deployment", "h1")]


def test_run_epoch_draws_migration():
    """With `p_mig` 1, every deployed service of a habitat with a neighbor migrates."""
    eco, streams = _epoch_fixture()
    _, migrations, events = _run_epoch(eco, streams, p_mig=1.0)
    moved = sorted(v for k, v in events if k == "migration")  # (service, source, destination)
    assert migrations == 2 and moved == [("h0_svc", "h0", "h1"), ("h1_svc", "h1", "h0")]


def test_run_epoch_empty_pool_warns_and_skips():
    eco, streams = _epoch_fixture()
    eco.habitats["h0"].pool = {}
    deployments, _, events = _run_epoch(eco, streams)
    kinds = [k for k, _ in events]
    assert kinds.count("warning") == 1
    assert [d[0].id for d in deployments] == ["h1"]
    assert not any(k == "migration" and v[1] == "h0" for k, v in events)  # v[1]: the source


def test_run_epoch_feedback_reaches_counters():
    eco, streams = _epoch_fixture()
    _run_epoch(eco, streams)
    s = eco.habitats["h0"].pool["h0_svc"]
    assert s.usage_count == 1 and s.success_count == 1


def test_run_epoch_reinforces_provenance_on_success():
    eco, streams = _epoch_fixture()
    # plant a migrated copy that h0 will deploy: it covers h0's request better
    migrant = svc("imported", {"t0"}, in_port="src", out_port="dst")
    eco.habitats["h0"].pool = pool_of([migrant])
    eco.habitats["h0"].provenance["imported"] = "h1"
    _run_epoch(eco, streams)
    assert eco.connections[("h0", "h1")] == pytest.approx((1.0 + 0.1) * 0.99)


# --- evolve_request ---


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32), budgets=st.lists(st.integers(1, 6), min_size=1, max_size=5),
       max_generations=st.integers(1, 12), target=st.sampled_from([0.5, 0.9, 1.0]))
def test_sliced_budgets_leave_the_state_of_one_call(seed, budgets, max_generations, target):
    # With no pool change between calls, budgets b1..bk add up to one call
    # with their sum: the generation cap and the target stop both alike.
    catalog = random_catalog(derive_substream(seed, "cat"))
    request = random_request(derive_substream(seed, "req"))
    params = EvolutionParams(population_size=8, max_generations=max_generations,
                             target_fitness=target)

    def evolved(slices):
        h = Habitat("h", catalog, [RequestTemplate(request)])  # evolving leaves the pool as is
        rng = derive_substream(seed, "ga")
        for budget in slices:
            best = evolve_request(h, request, params, rng, budget)
        return best, h.active, rng.state

    assert evolved(budgets) == evolved([sum(budgets)])


def test_a_population_at_target_is_deployed_without_advance(monkeypatch):
    h = make_habitat("h", [svc("s", {"a"}), svc("t", {"a"})])
    request = h.profile[0].request
    params = EvolutionParams(population_size=4, target_fitness=0.0)  # every population is at it
    monkeypatch.setattr(ecosystem, "advance", lambda *a: pytest.fail("advance called"))
    rng = derive_substream(0, "cached")
    best = evolve_request(h, request, params, rng, 5)
    state = h.active[request.id]
    assert best is state.best is population_stats(state.population)[0]
    before = rng.state
    assert evolve_request(h, request, params, rng, 5) is best and rng.state == before


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), budgets=st.lists(st.integers(0, 4), min_size=1, max_size=6),
       target=st.sampled_from([0.5, 0.9, 1.0]))
def test_the_cached_best_is_the_one_a_scan_finds(seed, budgets, target):
    """Dropping `ActiveEvolution.best` before every call, as a state read from a
    snapshot lacks it, changes no deployment, no state and no draw."""
    catalog = random_catalog(derive_substream(seed, "cat"))
    request = random_request(derive_substream(seed, "req"))
    params = EvolutionParams(population_size=8, max_generations=6, target_fitness=target)

    def evolved(drop):
        h = Habitat("h", catalog, [RequestTemplate(request)])
        rng = derive_substream(seed, "ga")
        bests = []
        for budget in budgets:
            if drop and request.id in h.active:
                h.active[request.id].best = None
            best = evolve_request(h, request, params, rng, budget)
            assert best is population_stats(h.active[request.id].population)[0]
            bests.append(best)
        return bests, h.active, rng.state

    assert evolved(False) == evolved(True)


def test_a_pool_change_reopens_the_generation_budget():
    h = make_habitat("h", [svc("s", {"b"})], attrs=("a",))  # the target is out of reach
    request = h.profile[0].request
    params = EvolutionParams(population_size=4, max_generations=3)
    rng = derive_substream(0, "reopen")
    evolve_request(h, request, params, rng, 5)
    state = h.active[request.id]
    assert (state.gens_since_reset, len(state.trace) - 1) == (3, 3)
    before = rng.state
    evolve_request(h, request, params, rng, 5)  # spent: no generation, no draw
    assert (len(state.trace) - 1, rng.state) == (3, before)
    h.receive(svc("t", {"c"}), "elsewhere")  # a migration: the pool version becomes 1
    evolve_request(h, request, params, rng, 2)
    assert (state.gens_since_reset, len(state.trace) - 1, state.pool_version) == (2, 5, 1)
    assert len(state.trace) == 6  # rows 0..5: the initial population, then generations 1..5

