"""Genetic evolution of service supply chains against a request.

An individual is an ordered sequence of service ids drawn from a catalog: a
habitat's pool, a dict of service id -> manifest in insertion order.
Selection is by tournament, recombination is one-point crossover, and
mutation inserts, deletes, or replaces a single gene. Run-time feedback
enters as a replication weight: services with a better success record are
proportionally more likely to be drawn whenever a gene is sampled.

Draw order per generation is fixed and documented on each operator, so a
whole evolution is a pure function of (catalog snapshot, request, params,
stream state).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter

from .manifest import (
    DEFAULT_BETA,
    Request,
    ServiceManifest,
    chain_fitness,
    chain_price,
    fitness,
)
from .rng import Stream

ChainGenome = tuple  # ordered service ids, length 1..request.max_len

ORACLE_GUARD = 10**6


class EvolutionError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Individual:
    """A chain genome with its cached fitness."""

    genome: ChainGenome
    fitness: float


@dataclass(frozen=True)
class EvolutionParams:
    population_size: int = 100
    max_generations: int = 200
    tournament_size: int = 3
    crossover_rate: float = 0.7
    mutation_rate: float = 0.3
    elitism: int = 1
    beta: float = DEFAULT_BETA
    gamma: float = 2.0
    target_fitness: float = 0.999
    generation_budget_per_epoch: int = 20


# --- Feedback-weighted gene sampling ---


def replication_weight(s: ServiceManifest, gamma: float) -> float:
    """Sampling weight of a service given its usage feedback (>= 1).

    Services with no usage history weigh 1; a perfect success record weighs
    1 + gamma (gamma >= 0). Failures confer no bonus beyond the baseline.
    """
    if s.usage_count > 0:
        return 1.0 + gamma * (s.success_count / s.usage_count)
    return 1.0


def gene_table(catalog: dict, gamma: float) -> tuple:
    """(services, cumulative replication weights), both in catalog order.

    The running sum matches `Stream.weighted_index`'s left-to-right
    accumulation float for float. A table stays valid while neither pool
    membership nor any usage counter changes.
    """
    services = list(catalog.values())
    return services, list(itertools.accumulate(replication_weight(s, gamma) for s in services))


def draw_service(table: tuple, rng: Stream) -> ServiceManifest:
    """Sample a service with probability proportional to replication weight.

    Consumes exactly one draw. `table` is a `gene_table(catalog, gamma)`,
    whose weights are accumulated in catalog insertion order. The catalog
    is non-empty: `init_population` checks it, and pools never shrink.
    """
    services, cum = table
    # the first index whose running sum exceeds r, as in weighted_index
    idx = bisect_right(cum, rng.random() * cum[-1])
    return services[idx] if idx < len(services) else services[-1]


# --- Evaluation ---


def evaluate_genome(genome: ChainGenome, catalog: dict, req: Request, params: EvolutionParams) -> float:
    """Fitness of a genome; chains priced over the request budget score 0.

    Unchecked: the GA's operators keep genomes within 1..max_len and the
    parameters are checked at the boundary (the config schema).
    """
    chain = [catalog[sid] for sid in genome]
    if req.budget is not None and chain_price(chain) > req.budget:
        return 0.0
    return chain_fitness(chain, req, params.beta)


def population_stats(pop) -> tuple:
    """(best individual, mean fitness), accumulated in population index order.

    The best is the first individual with the highest fitness.
    """
    best = pop[0]
    best_f = best.fitness
    total = 0.0
    for ind in pop:
        f = ind.fitness
        total += f
        if f > best_f:
            best = ind
            best_f = f
    return best, total / len(pop)


# --- Operators ---


def init_population(catalog: dict, req: Request, params: EvolutionParams, rng: Stream) -> list:
    """Random initial population.

    Per individual: one draw for the genome length (uniform in 1..max_len),
    then one weighted draw per gene. Equal genomes share one individual.
    """
    if len(catalog) == 0:
        raise EvolutionError("empty catalog")
    table = gene_table(catalog, params.gamma)
    known = {}
    pop = []
    for _ in range(params.population_size):
        length = 1 + rng.below(req.max_len)
        genome = tuple(draw_service(table, rng).id for _ in range(length))
        ind = known.get(genome)
        if ind is None:
            ind = known[genome] = Individual(genome, evaluate_genome(genome, catalog, req, params))
        pop.append(ind)
    return pop


def tournament_select(pop, k: int, rng: Stream) -> Individual:
    """Best of k >= 1 uniform draws with replacement; ties favor the lower index.

    Consumes exactly k draws; the first draw seeds the best.
    """
    n = len(pop)
    best_i = rng.below(n)
    best_f = pop[best_i].fitness
    for _ in range(k - 1):
        i = rng.below(n)
        f = pop[i].fitness
        if f > best_f or (f == best_f and i < best_i):
            best_i = i
            best_f = f
    return pop[best_i]


def crossover(a: ChainGenome, b: ChainGenome, max_len: int, rng: Stream) -> tuple:
    """One-point crossover; consumes two draws (one cut point per parent).

    Children are prefix(a)+suffix(b) and prefix(b)+suffix(a), truncated to
    max_len; a child that would come out empty is replaced by a copy of the
    parent that contributed its prefix.
    """
    cut_a = rng.below(len(a) + 1)
    cut_b = rng.below(len(b) + 1)
    child1 = a[:cut_a] + b[cut_b:]
    child2 = b[:cut_b] + a[cut_a:]
    child1 = child1[:max_len] if child1 else tuple(a)
    child2 = child2[:max_len] if child2 else tuple(b)
    return child1, child2


def mutate(g: ChainGenome, table: tuple, max_len: int, rng: Stream) -> ChainGenome:
    """Apply one of insert / delete / replace, chosen uniformly.

    Draw order: operator, then position, then gene (where applicable).
    Insert is skipped at the length ceiling and delete at the floor, in
    which case no further draws are consumed. Genes are drawn from the
    gene table `table`.
    """
    op = rng.below(3)
    if op == 0:  # insert
        if len(g) >= max_len:
            return g
        pos = rng.below(len(g) + 1)
        svc = draw_service(table, rng)
        return g[:pos] + (svc.id,) + g[pos:]
    if op == 1:  # delete
        if len(g) <= 1:
            return g
        pos = rng.below(len(g))
        return g[:pos] + g[pos + 1:]
    pos = rng.below(len(g))  # replace
    svc = draw_service(table, rng)
    return g[:pos] + (svc.id,) + g[pos + 1:]


def step_generation(pop, catalog: dict, req: Request, params: EvolutionParams, rng: Stream,
                    table: tuple, known: dict) -> list:
    """Produce the next generation, preserving population size.

    The top-elitism individuals (ties by index) carry over unchanged. Each
    offspring pair consumes draws in the order: selection pair, crossover
    decision, cut points (if crossover fires), then per child a mutation
    decision and the mutation's own draws. A decision is one output read as
    `Stream.random` reads it, `(next_u64() >> 11) * 2**-53`, against the rate.

    A child whose genome is already known in this `advance` call reuses that
    individual: fitness depends only on the request, `beta` and the
    attributes, ports and prices of pool members, which never change once in
    a pool. `known` maps genomes to individuals; it is seeded from the
    call's first population and gains every new child. One gene table
    serves the whole call: pool membership and usage counters do not change
    within it. `table` is `gene_table(catalog, params.gamma)`.
    """
    size = len(pop)
    k = params.tournament_size
    crossover_rate = params.crossover_rate
    mutation_rate = params.mutation_rate
    max_len = req.max_len
    nxt = rng.next_u64
    next_pop = sorted(pop, key=attrgetter("fitness"), reverse=True)[: params.elitism]
    while len(next_pop) < size:
        p1 = tournament_select(pop, k, rng)
        p2 = tournament_select(pop, k, rng)
        if (nxt() >> 11) * 2.0**-53 < crossover_rate:
            c1, c2 = crossover(p1.genome, p2.genome, max_len, rng)
        else:
            c1, c2 = p1.genome, p2.genome
        for child in (c1, c2):
            if len(next_pop) >= size:
                break
            if (nxt() >> 11) * 2.0**-53 < mutation_rate:
                child = mutate(child, table, max_len, rng)
            ind = known.get(child)
            if ind is None:
                ind = known[child] = Individual(child, evaluate_genome(child, catalog, req, params))
            next_pop.append(ind)
    return next_pop


def advance(pop, catalog: dict, req: Request, params: EvolutionParams, rng: Stream,
            max_steps: int) -> tuple:
    """Run up to max_steps generations, stopping once target fitness is hit.

    Returns (population, its best individual, per-step (best, mean) fitness).
    A population already at target, or max_steps <= 0, is returned at once,
    with no draw. One gene table and one genome memo serve every step: pool
    membership and usage counters do not change inside this call. The memo
    holds at most population_size * (max_steps + 1) individuals and is
    dropped when the call returns; it never enters the evolution's state.
    """
    best, _ = population_stats(pop)
    stats = []
    if best.fitness >= params.target_fitness or max_steps <= 0:
        return pop, best, stats
    table = gene_table(catalog, params.gamma)
    known = {ind.genome: ind for ind in pop}
    for _ in range(max_steps):
        pop = step_generation(pop, catalog, req, params, rng, table, known)
        best, mean = population_stats(pop)
        stats.append((best.fitness, mean))
        if best.fitness >= params.target_fitness:
            break
    return pop, best, stats


# --- Exhaustive oracle ---


def brute_force_best(catalog: dict, req: Request, beta: float = DEFAULT_BETA) -> tuple:
    """Exhaustively find the best chain of length 1..max_len.

    Chains are enumerated by increasing length, ids in lexicographic order
    within each length; the first chain attaining the maximum fitness wins.
    Budget-infeasible chains are excluded; if none is feasible the result
    is (None, 0.0). A catalog of n services with n ** max_len above
    ORACLE_GUARD is refused.
    """
    n = len(catalog)
    if n == 0:
        raise EvolutionError("empty catalog")
    if n ** req.max_len > ORACLE_GUARD:
        raise EvolutionError("oracle too large")
    ids = sorted(catalog)
    best_genome = None
    best_fit = -1.0
    for k in range(1, req.max_len + 1):
        for combo in itertools.product(ids, repeat=k):
            chain = [catalog[sid] for sid in combo]
            if req.budget is not None and chain_price(chain) > req.budget:
                continue
            f = fitness(chain, req, beta)
            if f > best_fit:
                best_fit = f
                best_genome = combo
    if best_genome is None:
        return None, 0.0
    return best_genome, best_fit


# --- Run-time feedback ---


def record_deployment(chain, success: bool) -> None:
    """Bump usage counters of every chain member; successes bump both."""
    for s in chain:
        s.usage_count += 1
        if success:
            s.success_count += 1
