"""GA operators, the exhaustive oracle, and feedback-weighted sampling."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Scripted, evolve, pool_of, random_catalog, random_request, req, svc
from dbesim import evolution
from dbesim.evolution import (
    EvolutionError,
    EvolutionParams,
    Individual,
    advance,
    brute_force_best,
    crossover,
    draw_service,
    evaluate_genome,
    gene_table,
    init_population,
    mutate,
    population_stats,
    record_deployment,
    replication_weight,
    step_generation,
    tournament_select,
)
from dbesim.rng import derive_substream


# --- replication weight ---

def test_replication_weight_no_usage():
    assert replication_weight(svc("s", {"a"}), 2.0) == 1.0


def test_replication_weight_perfect_record():
    assert replication_weight(svc("s", {"a"}, usage=10, success=10), 2.0) == 3.0


def test_replication_weight_failures_confer_no_bonus():
    assert replication_weight(svc("s", {"a"}, usage=10, success=0), 2.0) == 1.0


def test_feedback_ratio_over_weighted_draws():
    # Success rates 1.0 vs 0.0 with gamma 2 give weights 3 : 1.
    catalog = pool_of([
        svc("good", {"a"}, usage=10, success=10),
        svc("bad", {"a"}, usage=10, success=0),
    ])
    rng = derive_substream(21, "feedback")
    counts = {"good": 0, "bad": 0}
    table = gene_table(catalog, 2.0)
    for _ in range(10000):
        counts[draw_service(table, rng).id] += 1
    ratio = counts["good"] / counts["bad"]
    assert 2.5 <= ratio <= 3.5


# --- init ---

def _params(**kw):
    return EvolutionParams(**kw)


def test_init_population_single_service_single_slot():
    catalog = pool_of([svc("only", {"a"}, in_port="src", out_port="dst")])
    pop = init_population(catalog, req(max_len=1), _params(population_size=10),
                          derive_substream(22, "init1"))
    assert all(ind.genome == ("only",) for ind in pop)


def test_init_population_size_exact():
    catalog = random_catalog(derive_substream(23, "cat"))
    pop = init_population(catalog, req(attrs={"a", "b"}),
                          _params(population_size=100),
                          derive_substream(23, "init2"))
    assert len(pop) == 100


def test_init_population_empty_catalog_raises():
    with pytest.raises(EvolutionError, match="empty catalog"):
        init_population({}, req(), _params(), derive_substream(0, "x"))


def test_init_population_lengths_within_bounds():
    catalog = random_catalog(derive_substream(24, "cat"))
    r = req(max_len=3)
    pop = init_population(catalog, r, _params(population_size=500),
                          derive_substream(24, "init3"))
    lengths = [len(ind.genome) for ind in pop]
    assert all(1 <= n <= 3 for n in lengths)
    assert set(lengths) == {1, 2, 3}


def test_init_population_evaluates_each_genome_once(monkeypatch):
    """Equal genomes of one initial population share one individual, scored
    once; the draws and the values are those of a slot-by-slot build."""
    catalog = pool_of([svc("x", {"a"}), svc("y", {"b"})])
    r = req(attrs={"a", "b"}, max_len=2)
    params = _params(population_size=40)
    calls = _counting_evaluate_genome(monkeypatch)
    rng = derive_substream(25, "init4")
    pop = init_population(catalog, r, params, rng)
    genomes = [ind.genome for ind in pop]
    assert len(set(genomes)) < len(genomes)  # six genomes exist, so some repeat
    assert sorted(calls) == sorted(set(genomes))
    by_genome = {}
    for ind in pop:
        assert by_genome.setdefault(ind.genome, ind) is ind
        assert ind.fitness == evaluate_genome(ind.genome, catalog, r, params)
    ref = derive_substream(25, "init4")
    table = gene_table(catalog, params.gamma)
    expected = []
    for _ in range(params.population_size):
        length = 1 + ref.below(r.max_len)
        expected.append(tuple(draw_service(table, ref).id for _ in range(length)))
    assert genomes == expected and rng.state == ref.state


def test_uniform_gene_frequencies_without_feedback():
    # Equal weights: gene draws binomial with p = 1/n within 3.5 sigma.
    n = 5
    catalog = pool_of([svc(f"s{i}", {"a"}) for i in range(n)])
    rng = derive_substream(25, "freq")
    draws = 10000
    counts = {f"s{i}": 0 for i in range(n)}
    table = gene_table(catalog, 2.0)
    for _ in range(draws):
        counts[draw_service(table, rng).id] += 1
    p = 1 / n
    sigma = math.sqrt(draws * p * (1 - p))
    for c in counts.values():
        assert abs(c - draws * p) < 3.5 * sigma


# --- tournament selection ---

def _flat_population(fitnesses):
    return [Individual((f"g{i}",), f) for i, f in enumerate(fitnesses)]


def test_tournament_k1_is_uniform():
    pop = _flat_population([0.1, 0.9, 0.5, 0.7])
    rng = derive_substream(26, "tourn1")
    counts = [0] * 4
    draws = 8000
    for _ in range(draws):
        winner = tournament_select(pop, 1, rng)
        counts[pop.index(winner)] += 1
    sigma = math.sqrt(draws * 0.25 * 0.75)
    for c in counts:
        assert abs(c - draws / 4) < 3.5 * sigma


def test_tournament_equal_fitness_is_uniform():
    pop = _flat_population([0.5] * 5)
    rng = derive_substream(27, "tourn2")
    counts = [0] * 5
    draws = 10000
    for _ in range(draws):
        winner = tournament_select(pop, 1, rng)
        counts[int(winner.genome[0][1:])] += 1
    p = 1 / 5
    sigma = math.sqrt(draws * p * (1 - p))
    for c in counts:
        assert abs(c - draws * p) < 3.5 * sigma


def test_tournament_large_k_finds_unique_best():
    pop = _flat_population([0.2, 0.4, 0.95, 0.3, 0.1])
    rng = derive_substream(28, "tourn3")
    for _ in range(100):
        assert tournament_select(pop, 50, rng).fitness == 0.95


def test_tournament_ties_break_by_lower_index():
    pop = _flat_population([0.5, 0.9, 0.9, 0.2])
    rng = derive_substream(29, "tourn4")
    for _ in range(200):
        winner = tournament_select(pop, 40, rng)
        # with k=40 both maxima are sampled essentially always
        assert winner is pop[1]


# --- crossover ---

def test_crossover_identical_parents():
    a = ("x", "y", "z")
    c1, c2 = crossover(a, a, 3, derive_substream(30, "xover"))
    assert c1 == a and c2 == a


def test_crossover_cut_zero_swaps_parents():
    a, b = ("x", "y"), ("z", "w")
    c1, c2 = crossover(a, b, 4, Scripted(belows=[0, 0]))
    assert c1 == b and c2 == a


def test_crossover_hand_trace():
    # a=[x,y], b=[z], cuts (1,0) -> child1=[x,z], child2=[y]
    c1, c2 = crossover(("x", "y"), ("z",), 3, Scripted(belows=[1, 0]))
    assert c1 == ("x", "z")
    assert c2 == ("y",)


def test_crossover_empty_child_copies_prefix_parent():
    # cuts (0, len(b)): child1 would be empty -> copy of a
    c1, c2 = crossover(("x",), ("y",), 3, Scripted(belows=[0, 1]))
    assert c1 == ("x",)
    assert c2 == ("y", "x")


def test_crossover_truncates_to_max_len():
    c1, c2 = crossover(("x", "y"), ("z", "w"), 2, Scripted(belows=[2, 0]))
    assert c1 == ("x", "y")  # (x, y, z, w) truncated to max_len 2
    assert c2 == ("z", "w")  # child2 = b[:0] + a[2:] = () -> copy of b


def test_crossover_children_always_valid():
    rng = derive_substream(31, "xoverprop")
    for _ in range(500):
        la, lb = 1 + rng.below(3), 1 + rng.below(3)
        a = tuple(f"a{i}" for i in range(la))
        b = tuple(f"b{i}" for i in range(lb))
        c1, c2 = crossover(a, b, 3, rng)
        assert 1 <= len(c1) <= 3 and 1 <= len(c2) <= 3


# --- mutation ---

def _two_service_catalog():
    return pool_of([svc("s0", {"a"}), svc("s1", {"b"})])


def test_mutate_delete_skipped_at_floor():
    g = ("s0",)
    out = mutate(g, gene_table(_two_service_catalog(), 2.0), 3, Scripted(belows=[1]))
    assert out == g


def test_mutate_insert_skipped_at_ceiling():
    g = ("s0", "s1", "s0")
    out = mutate(g, gene_table(_two_service_catalog(), 2.0), 3, Scripted(belows=[0]))
    assert out == g


def test_mutate_replace_single_service_catalog_is_identity():
    catalog = pool_of([svc("only", {"a"})])
    g = ("only", "only")
    # op=2 replace, position 1, then one weighted draw
    out = mutate(g, gene_table(catalog, 2.0), 3,
                 Scripted(belows=[2, 1], randoms=[0.5]))
    assert out == g


def test_mutate_insert_places_gene_at_position():
    g = ("s0", "s0")
    out = mutate(g, gene_table(_two_service_catalog(), 2.0), 3,
                 Scripted(belows=[0, 1], randoms=[0.9]))
    # weighted draw 0.9 over equal weights [1, 1] lands on s1
    assert out == ("s0", "s1", "s0")


def test_mutate_delete_removes_position():
    g = ("s0", "s1", "s0")
    out = mutate(g, gene_table(_two_service_catalog(), 2.0), 3, Scripted(belows=[1, 1]))
    assert out == ("s0", "s0")


def test_mutate_always_valid():
    catalog = _two_service_catalog()
    table = gene_table(catalog, 2.0)
    rng = derive_substream(32, "mutprop")
    g = ("s0",)
    for _ in range(2000):
        g = mutate(g, table, 3, rng)
        assert 1 <= len(g) <= 3
        assert all(sid in catalog for sid in g)


# --- generations ---

def _chain_scenario():
    catalog = pool_of([
        svc("good", {"a", "b"}, in_port="src", out_port="dst"),
        svc("meh", {"a"}, in_port="src", out_port="dst"),
        svc("junk", {"z"}, in_port="p", out_port="q"),
    ])
    return catalog, req(attrs={"a", "b"}, max_len=2)


def test_step_generation_preserves_size_and_elite():
    catalog, r = _chain_scenario()
    params = _params(population_size=30)
    rng = derive_substream(33, "step")
    pop = init_population(catalog, r, params, rng)
    best = max(pop, key=lambda i: i.fitness)
    for _ in range(100):
        pop = step_generation(pop, catalog, r, params, rng, gene_table(catalog, params.gamma),
                              {ind.genome: ind for ind in pop})
        assert len(pop) == 30
        assert any(ind.fitness >= best.fitness for ind in pop)
        for ind in pop:
            assert 1 <= len(ind.genome) <= r.max_len
            assert all(sid in catalog for sid in ind.genome)
        best = max(pop, key=lambda i: i.fitness)


def test_step_generation_identity_when_all_elite():
    catalog, r = _chain_scenario()
    params = EvolutionParams(population_size=10, crossover_rate=0.0,
                             mutation_rate=0.0, elitism=10)
    rng = derive_substream(34, "ident")
    pop = init_population(catalog, r, _params(population_size=10), rng)
    next_pop = step_generation(pop, catalog, r, params, rng, gene_table(catalog, params.gamma),
                               {ind.genome: ind for ind in pop})
    assert sorted(ind.genome for ind in next_pop) == sorted(ind.genome for ind in pop)


def test_step_generation_without_operators_draws_from_parents():
    catalog, r = _chain_scenario()
    params = EvolutionParams(population_size=12, crossover_rate=0.0, mutation_rate=0.0)
    rng = derive_substream(35, "copy")
    pop = init_population(catalog, r, params, rng)
    genomes = {ind.genome for ind in pop}
    next_pop = step_generation(pop, catalog, r, params, rng, gene_table(catalog, params.gamma),
                               {ind.genome: ind for ind in pop})
    assert all(ind.genome in genomes for ind in next_pop)


def test_budget_gates_fitness_to_zero():
    catalog = pool_of([svc("pricey", {"a"}, in_port="src", out_port="dst", price=100.0)])
    r = req(attrs={"a"}, max_len=1, budget=5.0)
    assert evaluate_genome(("pricey",), catalog, r, _params()) == 0.0
    r2 = req(attrs={"a"}, max_len=1, budget=100.0)
    assert evaluate_genome(("pricey",), catalog, r2, _params()) == 1.0


# --- evolve ---

def test_evolve_perfect_single_service_terminates_immediately():
    catalog = pool_of([svc("hit", {"a"}, in_port="src", out_port="dst")])
    best, trace = evolve(catalog, req(attrs={"a"}, max_len=1), _params(population_size=10),
                         derive_substream(36, "fast"))
    assert best.fitness == 1.0
    assert len(trace) <= 2  # row 0 and at most generation 1


def test_evolve_best_trace_nondecreasing():
    rng = derive_substream(37, "mono")
    for trial in range(10):
        catalog = random_catalog(rng)
        r = random_request(rng)
        _, trace = evolve(catalog, r, _params(population_size=20, max_generations=40),
                          derive_substream(trial, "mono-run"))
        bests = [best for best, _ in trace]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))


def test_evolve_deterministic_for_seed():
    catalog = random_catalog(derive_substream(38, "cat"))
    r = random_request(derive_substream(38, "req"))
    assert (evolve(catalog, r, _params(), derive_substream(99, "det"))
            == evolve(catalog, r, _params(), derive_substream(99, "det")))


def test_cached_fitness_matches_recomputation():
    catalog = random_catalog(derive_substream(40, "cat"))
    r = random_request(derive_substream(40, "req"))
    best, _ = evolve(catalog, r, _params(population_size=20, max_generations=20),
                     derive_substream(40, "cache"))
    assert best.fitness == evaluate_genome(best.genome, catalog, r, _params())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), max_steps=st.integers(-2, 4), at_target=st.booleans())
def test_advance_returns_at_once_without_steps_or_at_target(seed, max_steps, at_target):
    catalog = random_catalog(derive_substream(seed, "cat"))
    r = random_request(derive_substream(seed, "req"))
    params = _params(population_size=8)
    rng = derive_substream(seed, "ga")
    pop = init_population(catalog, r, params, rng)
    if at_target:
        pop[0] = Individual(pop[0].genome, 1.0)
    else:
        max_steps = min(max_steps, 0)
    state = rng.state
    with mock.patch.object(evolution, "gene_table", side_effect=AssertionError("table built")):
        got = advance(pop, catalog, r, params, rng, max_steps)
    assert got == (pop, population_stats(pop)[0], [])
    assert got[0] is pop
    assert rng.state == state


def test_population_stats_best_is_the_first_of_the_highest():
    pop = [Individual(("a",), 0.5), Individual(("b",), 0.9), Individual(("c",), 0.9)]
    best, mean = population_stats(pop)
    assert best is pop[1]
    assert mean == (0.5 + 0.9 + 0.9) / 3


def _counting_evaluate_genome(monkeypatch):
    calls = []
    original = evolution.evaluate_genome

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(evolution, "evaluate_genome", counted)
    return calls


def test_reused_fitness_survives_pool_growth(monkeypatch):
    # The pool gains a service mid-evolution, as migration does: every cached
    # fitness must still equal a fresh evaluation against the grown pool.
    catalog = pool_of([
        svc("pa", {"a"}, in_port="src", out_port="mid"),
        svc("qb", {"b"}, in_port="mid", out_port="dst"),
        svc("junk", {"z"}, in_port="mid", out_port="mid"),
    ])
    r = req(attrs={"a", "b", "c"}, max_len=3)
    params = _params(population_size=20)
    rng = derive_substream(41, "grow")
    calls = _counting_evaluate_genome(monkeypatch)
    per_call = []  # per `advance` call: (genomes it started with, genomes it evaluated)

    def counted_advance(pop, max_steps):
        started_with, before = {ind.genome for ind in pop}, len(calls)
        result = advance(pop, catalog, r, params, rng, max_steps)
        per_call.append((started_with, calls[before:]))
        return result

    pop, _, first = counted_advance(init_population(catalog, r, params, rng), 15)
    assert len(first) == 15
    catalog["rc"] = svc("rc", {"c"}, in_port="mid", out_port="dst", usage=4, success=3)
    pop, _, second = counted_advance(pop, 40)
    assert any("rc" in ind.genome for ind in pop)
    for ind in pop:
        assert ind.fitness == evaluate_genome(ind.genome, catalog, r, params)
    # one `advance` call evaluates no genome twice, nor one it started with
    for started_with, evaluated in per_call:
        assert len(evaluated) == len(set(evaluated))
        assert not started_with & set(evaluated)
    children = (len(first) + len(second)) * (params.population_size - params.elitism)
    assert len(calls) < params.population_size + children


def test_converged_population_skips_known_genomes(monkeypatch):
    catalog, r = _chain_scenario()
    params = _params(population_size=30)
    pop = [Individual(("good",), 1.0)] * 29 + [Individual(("meh",), 0.5)]
    calls = _counting_evaluate_genome(monkeypatch)
    next_pop = step_generation(pop, catalog, r, params, derive_substream(42, "conv"),
                               gene_table(catalog, params.gamma), {ind.genome: ind for ind in pop})
    children = params.population_size - params.elitism
    assert 0 < len(calls) < children
    assert len(calls) == len(set(calls))
    assert not set(calls) & {ind.genome for ind in pop}
    for ind in next_pop:
        assert ind.fitness == evaluate_genome(ind.genome, catalog, r, params)


def test_tournament_ties_at_equal_fitness_keep_lowest_index():
    pop = _flat_population([0.7, 0.7, 0.7])
    rng = Scripted(belows=[2, 0, 1])
    assert tournament_select(pop, 3, rng) is pop[0]
    rng = Scripted(belows=[1, 2])
    assert tournament_select(pop, 2, rng) is pop[1]


def test_evolve_empty_catalog_raises():
    with pytest.raises(EvolutionError, match="empty catalog"):
        evolve({}, req(), _params(), derive_substream(0, "x"))


# --- oracle ---

def test_oracle_single_service():
    catalog = pool_of([svc("only", {"a"}, in_port="src", out_port="dst")])
    genome, fit = brute_force_best(catalog, req(attrs={"a"}, max_len=1))
    assert genome == ("only",)
    assert fit == 1.0


def test_oracle_finds_known_perfect_chain():
    catalog = pool_of([
        svc("s1", {"a", "b"}, in_port="sigma", out_port="x"),
        svc("s2", {"c"}, in_port="x", out_port="tau"),
    ])
    r = req(attrs={"a", "b", "c"}, source="sigma", sink="tau", max_len=3)
    genome, fit = brute_force_best(catalog, r)
    assert fit == 1.0
    assert genome == ("s1", "s2")


def test_oracle_prefers_first_in_enumeration_order():
    # Two singleton optima; lexicographically smaller id wins.
    catalog = pool_of([
        svc("z_first", {"a"}, in_port="src", out_port="dst"),
        svc("a_first", {"a"}, in_port="src", out_port="dst"),
    ])
    genome, fit = brute_force_best(catalog, req(attrs={"a"}, max_len=2))
    assert fit == 1.0
    assert genome == ("a_first",)


def test_oracle_guard():
    catalog = pool_of([svc(f"s{i:02d}", {"a"}) for i in range(11)])
    with pytest.raises(EvolutionError, match="oracle too large"):
        brute_force_best(catalog, req(max_len=6))


def test_oracle_budget_excludes_infeasible():
    catalog = pool_of([svc("pricey", {"a"}, in_port="src", out_port="dst", price=10.0)])
    genome, fit = brute_force_best(catalog, req(attrs={"a"}, max_len=1, budget=1.0))
    assert genome is None and fit == 0.0


def test_oracle_dominates_evolution():
    rng = derive_substream(39, "dom")
    for trial in range(8):
        catalog = random_catalog(rng, n_services=4 + rng.below(4))
        r = random_request(rng)
        _, oracle_fit = brute_force_best(catalog, r)
        best, _ = evolve(catalog, r, _params(population_size=30, max_generations=30),
                         derive_substream(trial, "dom-run"))
        assert oracle_fit >= best.fitness


# --- feedback ---

def test_record_deployment_success():
    s = svc("s", {"a"})
    record_deployment([s], True)
    assert (s.usage_count, s.success_count) == (1, 1)


def test_record_deployment_failure():
    s = svc("s", {"a"})
    record_deployment([s], False)
    assert (s.usage_count, s.success_count) == (1, 0)


def test_record_deployment_accumulates():
    s = svc("s", {"a"})
    record_deployment([s], True)
    record_deployment([s], False)
    assert (s.usage_count, s.success_count) == (2, 1)
