"""The model against its own probabilities: each check reads a probability
the model states and tests what a run or an operator did against it, on
seeds fixed here and with a fixed allowance (|z| <= 4, or a chi-square
p-value above 1e-4).

- Execution: a chain succeeds with the product of its members'
  reliabilities (`engine.simulate_execution`).
- Request sampling: a habitat samples each template with probability
  proportional to its weight (`ecosystem.habitat_step`).
- Selection pressure: with crossover and mutation off, the count of the
  best individuals follows the exact binomial Markov chain of tournament
  selection, the finite-population form of the takeover analysis in
  Goldberg & Deb, "A Comparative Analysis of Selection Schemes Used in
  Genetic Algorithms" (FOGA 1991).
"""

import math
from collections import Counter

import pytest
from scipy import stats

from conftest import load_asset_obj, payload, req
from dbesim import engine
from dbesim.config import config_from_obj
from dbesim.evolution import EvolutionParams, Individual, gene_table, step_generation
from dbesim.rng import derive_substream

TEMPLATE_WEIGHTS = (1.0, 3.0)  # the shipped weights are all 1.0, which would hide a sampling fault
SEEDS = (1, 2)


@pytest.fixture(scope="module")
def reweighted_runs():
    """(config object, events) of `two_communities.json` with each habitat's
    two templates weighted `TEMPLATE_WEIGHTS`, run once per seed in `SEEDS`
    on one process."""
    obj = load_asset_obj("two_communities.json")
    for h in obj["scenario"]["habitats"]:
        for template, weight in zip(h["profile"], TEMPLATE_WEIGHTS, strict=True):
            template["weight"] = weight
    events = []
    for seed in SEEDS:
        events += engine.run(config_from_obj(dict(obj, seed=seed))).events
    return obj, events


def test_chains_succeed_with_the_product_of_their_reliabilities(reweighted_runs):
    """Successes against the sum over deployments of the chain's success
    probability, as z = (S - sum p) / sqrt(sum p(1 - p)). Ids are unique
    across the scenario's catalogs, and a migrated copy keeps its
    reliability, so the catalogs give every member's."""
    obj, events = reweighted_runs
    habitats = obj["scenario"]["habitats"]
    reliability = {s["id"]: s["reliability"] for h in habitats for s in h["catalog"]}
    assert len(reliability) == sum(len(h["catalog"]) for h in habitats)
    deployments = [payload(e) for e in events if e[1] == "deployment"]
    assert len(deployments) == len(SEEDS) * obj["epochs"] * len(habitats)
    ps = [math.prod(reliability[sid] for sid in d["chain"]) for d in deployments]
    successes = sum(d["success"] for d in deployments)
    z = (successes - sum(ps)) / math.sqrt(sum(p * (1 - p) for p in ps))
    assert abs(z) <= 4, (successes, sum(ps), z)


def test_requests_are_sampled_in_proportion_to_the_template_weights(reweighted_runs):
    """Each habitat's `request_sampled` counts against its template weights,
    as a Pearson chi-square with one degree of freedom per habitat."""
    obj, events = reweighted_runs
    counts = Counter((e[2], e[3]) for e in events if e[1] == "request_sampled")
    chi2, dof = 0.0, 0
    for h in obj["scenario"]["habitats"]:
        observed = [counts[h["id"], t["request"]["id"]] for t in h["profile"]]
        n, total = sum(observed), sum(t["weight"] for t in h["profile"])
        assert n == len(SEEDS) * obj["epochs"]
        for o, t in zip(observed, h["profile"]):
            expected = n * t["weight"] / total
            chi2 += (o - expected) ** 2 / expected
        dof += len(observed) - 1
    p_value = stats.chi2.sf(chi2, dof)
    assert p_value > 1e-4, (chi2, dof, p_value)


def takeover_chain(n: int, k0: int, s: int, elitism: int, generations: int) -> list:
    """Mean and variance of the best's share at generations 1..`generations`
    under tournaments of `s` alone, from the exact chain: each of the
    n - elitism children is a best with probability 1 - (1 - k/n)**s, so
    k' = elitism + Bin(n - elitism, that), given a best among the elites
    (k >= 1 when elitism >= 1)."""
    dist = [0.0] * (n + 1)
    dist[k0] = 1.0
    moments = []
    for _ in range(generations):
        nxt = [0.0] * (n + 1)
        for k, pk in enumerate(dist):
            if pk:
                q = 1 - (1 - k / n) ** s
                for j, pj in enumerate(stats.binom.pmf(range(n - elitism + 1), n - elitism, q)):
                    nxt[elitism + j] += pk * pj
        dist = nxt
        mean = sum(k * p for k, p in enumerate(dist)) / n
        moments.append((mean, sum((k / n - mean) ** 2 * p for k, p in enumerate(dist))))
    return moments


@pytest.mark.parametrize("s,elitism", [(2, 0), (3, 1)])
def test_selection_alone_follows_the_binomial_takeover_chain(s, elitism):
    """`step_generation` with crossover and mutation rates of 0, on n
    individuals of which k0 are best: over `runs` seeds, the best's mean
    share at generations 1-6 lies within 4 standard errors of the exact
    chain's mean."""
    n, k0, runs, generations = 20, 2, 400, 6
    params = EvolutionParams(population_size=n, tournament_size=s, elitism=elitism,
                             crossover_rate=0.0, mutation_rate=0.0)
    best, other = Individual(("best",), 1.0), Individual(("other",), 0.5)
    request = req(max_len=1)
    table = gene_table({}, params.gamma)  # no child is mutated, so no gene is drawn
    bests = [0] * generations  # the best individuals at each generation, over every seed
    for seed in range(runs):
        rng = derive_substream(seed, "selection")
        pop = [best] * k0 + [other] * (n - k0)
        known = {best.genome: best, other.genome: other}
        for t in range(generations):
            pop = step_generation(pop, {}, request, params, rng, table, known)
            bests[t] += pop.count(best)
    for t, (mean, var) in enumerate(takeover_chain(n, k0, s, elitism, generations)):
        share = bests[t] / (n * runs)
        assert abs(share - mean) <= 4 * math.sqrt(var / runs), (t + 1, share, mean)
