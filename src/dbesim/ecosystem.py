"""Habitats, weighted inter-habitat connections, migration, and self-healing.

Each habitat holds a local service pool and evolves one population of
supply chains per request template in its profile. Services used in
successful deployments migrate along connections, connections are
reinforced when migrated services prove useful and decay otherwise, and
the connection graph heals itself after habitat failures so it stays
connected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .evolution import (
    EvolutionParams,
    Individual,
    advance,
    init_population,
    population_stats,
    record_deployment,
)
from .manifest import Catalog, Request
from .rng import Stream

W_MIN_DEFAULT = 0.01
BUILD_RETRIES = 100


class EcosystemError(ValueError):
    pass


@dataclass(frozen=True)
class EcosystemParams:
    p_mig: float = 0.2
    reinforce_delta: float = 0.1
    decay_lambda: float = 0.99
    w_min: float = W_MIN_DEFAULT


@dataclass(frozen=True)
class RequestTemplate:
    """A profile entry: a request template and its sampling weight."""

    request: Request
    weight: float = 1.0


@dataclass
class ActiveEvolution:
    """Resumable evolution state for one request template.

    The generation budget is counted since the last pool change: fresh
    genetic material (a migrated service) re-opens the search, otherwise a
    template that cannot reach the target stops consuming generations once
    max_generations have been spent on the current pool. `pool_version` is
    the habitat's pool version at the last reset. Trace row k is the
    (best, mean) fitness of generation k, row 0 the initial population's:
    `len(trace) - 1` generations have run in all.
    """

    population: list
    gens_since_reset: int = 0
    pool_version: int = 0
    trace: list = field(default_factory=list)


@dataclass
class Habitat:
    """A per-SME node: local pool, request profile, evolution state."""

    id: str
    pool: Catalog
    profile: list  # of RequestTemplate
    provenance: dict = field(default_factory=dict)  # service id -> source habitat id
    active: dict = field(default_factory=dict)  # request id -> ActiveEvolution

    def receive(self, service, source: str) -> None:
        """Add a service migrated from habitat `source` to the pool. Pools grow
        only this way, so `len(provenance)` is the pool version."""
        self.pool.add(service)
        self.provenance[service.id] = source


class Deployment(NamedTuple):
    """What a habitat deployed this epoch."""

    habitat: Habitat
    genome: tuple
    fitness: float
    success: bool


def edge_key(a: str, b: str) -> tuple:
    """The key of the connection between two distinct habitats."""
    return (a, b) if a < b else (b, a)


class Ecosystem:
    """Habitats plus the weighted connection graph between them.

    `connections` maps each edge key to its weight; `_adj` indexes the same
    edges by endpoint. Connection keys change only through `add_connection`
    and `remove_connection`, which keep the two in step; weights alone may
    be written in `connections` directly. `_similarity` memoizes
    `profile_similarity` per edge key; profiles never change, so its
    entries never go stale, and it is not part of the snapshot.

    No method checks that habitat ids are distinct or that a connection
    joins two distinct present habitats at a weight >= `w_min`: `config.py`
    checks the data a run starts from, and the run core keeps both.
    """

    def __init__(self, habitats, w_min: float = W_MIN_DEFAULT):
        self.habitats: dict[str, Habitat] = {h.id: h for h in sorted(habitats, key=lambda h: h.id)}
        self.connections: dict[tuple, float] = {}
        self._adj: dict[str, set[str]] = {}
        self._similarity: dict[tuple, float] = {}
        self.epoch = 0
        self.w_min = w_min

    def habitat_ids(self) -> list[str]:
        return sorted(self.habitats)

    def add_connection(self, a: str, b: str, weight: float) -> None:
        self.connections[edge_key(a, b)] = weight
        self._adj.setdefault(a, set()).add(b)
        self._adj.setdefault(b, set()).add(a)

    def remove_connection(self, a: str, b: str) -> None:
        del self.connections[edge_key(a, b)]
        for x, y in ((a, b), (b, a)):
            peers = self._adj[x]
            peers.discard(y)
            if not peers:
                del self._adj[x]

    def neighbors(self, hid: str) -> list:
        """Sorted (neighbor id, weight) pairs of a habitat."""
        conn = self.connections
        return [(n, conn[(hid, n) if hid < n else (n, hid)])
                for n in sorted(self._adj.get(hid, ()))]

    def connected(self) -> bool:
        return len(self.components()) <= 1

    def components(self) -> list:
        """Connected components as sorted id lists, ordered by smallest member."""
        seen: set[str] = set()
        comps = []
        for start in self.habitat_ids():  # each start is its component's smallest id
            if start in seen:
                continue
            seen.add(start)
            comp = [start]
            for cur in comp:
                for nxt in self._adj.get(cur, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        comp.append(nxt)
            comps.append(sorted(comp))
        return comps

    def to_dot(self) -> str:
        lines = ["graph ecosystem {"]
        for hid in self.habitat_ids():
            lines.append(f'  "{hid}";')
        for (a, b) in sorted(self.connections):
            w = self.connections[(a, b)]
            lines.append(f'  "{a}" -- "{b}" [label="{w:.4f}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


# --- Construction ---


def ring_edges(ids: list) -> list:
    ids = sorted(ids)
    edges = set()
    n = len(ids)
    for i in range(n):
        edges.add(edge_key(ids[i], ids[(i + 1) % n]))
    return sorted(edges)


def random_m_edges(ids: list, m: int, rng: Stream) -> list:
    """Each habitat draws m distinct peers (1 <= m < len(ids)); the undirected
    union is the edge set."""
    ids = sorted(ids)
    edges = set()
    for i, hid in enumerate(ids):
        candidates = ids[:i] + ids[i + 1:]
        for _ in range(m):
            idx = rng.below(len(candidates))
            peer = candidates.pop(idx)
            edges.add(edge_key(hid, peer))
    return sorted(edges)


def build_ecosystem(habitats, topology, rng: Stream, w_min: float = W_MIN_DEFAULT) -> Ecosystem:
    """Assemble habitats into a connected ecosystem at epoch 0.

    topology is ("ring",) or ("random_m", m). All connections start at
    weight 1.0, at or above the floor: configs keep w_min <= 1. A
    disconnected random_m sample is redrawn BUILD_RETRIES times at most.
    The habitats and the topology are a validated scenario's.
    """
    eco = Ecosystem(habitats, w_min=w_min)
    ids = eco.habitat_ids()
    if topology[0] == "ring":
        for a, b in ring_edges(ids):
            eco.add_connection(a, b, 1.0)
        return eco
    for _ in range(BUILD_RETRIES):
        for key in list(eco.connections):
            eco.remove_connection(*key)
        for a, b in random_m_edges(ids, topology[1], rng):
            eco.add_connection(a, b, 1.0)
        if eco.connected():
            return eco
    raise EcosystemError("could not build connected topology")


# --- Connection dynamics ---


def reinforce(eco: Ecosystem, a: str, b: str, delta: float) -> float:
    """Strengthen the connection between two habitats; returns the new weight.

    A currently unconnected pair is first connected at the weight floor.
    Both habitats exist and delta > 0.
    """
    key = edge_key(a, b)
    if key not in eco.connections:
        eco.add_connection(a, b, eco.w_min)
    eco.connections[key] += delta
    return eco.connections[key]


def decay_all(eco: Ecosystem, decay_lambda: float) -> None:
    """Multiply every weight by decay_lambda in (0, 1], clamped at the floor."""
    for key in eco.connections:
        w = eco.connections[key] * decay_lambda
        eco.connections[key] = w if w > eco.w_min else eco.w_min


def profile_similarity(h1: Habitat, h2: Habitat) -> float:
    """Jaccard similarity of the attribute unions of two request profiles."""
    u1: frozenset = frozenset()
    u2: frozenset = frozenset()
    for t in h1.profile:
        u1 |= t.request.req_attrs
    for t in h2.profile:
        u2 |= t.request.req_attrs
    union = u1 | u2
    if not union:
        return 0.0
    return len(u1 & u2) / len(union)


def clustering_statistic(eco: Ecosystem) -> float:
    """Pearson correlation between edge weight and endpoint profile similarity.

    Needs at least 3 connections; zero variance in either series yields 0.
    Edges are visited in sorted order so the float accumulation is
    reproducible.
    """
    keys = sorted(eco.connections)
    xs = [eco.connections[k] for k in keys]
    memo = eco._similarity
    ys = []
    for k in keys:
        y = memo.get(k)
        if y is None:
            y = memo[k] = profile_similarity(eco.habitats[k[0]], eco.habitats[k[1]])
        ys.append(y)
    n = len(keys)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sxx = syy = 0.0
    for x, y in zip(xs, ys):
        dx = x - mx
        dy = y - my
        sxy += dx * dy
        sxx += dx * dx
        syy += dy * dy
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    return sxy / math.sqrt(sxx * syy)


# --- Migration ---


def migrate(h: Habitat, genome: tuple, eco: Ecosystem, p_mig: float, rng: Stream) -> list:
    """Spread the habitat's deployed chain `genome` to weighted neighbors.

    Per constituent service, one uniform draw decides whether migration
    fires; if it does, one weighted draw picks the destination among the
    habitat's neighbors (sorted by id). The manifest is copied with its
    counters, provenance pointing at this habitat, unless the destination
    already holds that id (the draw is still consumed). Returns the
    (service id, destination id) pairs copied.
    """
    if h.id not in eco._adj:  # `_adj` holds only habitats with neighbors
        return []
    neighbors = None
    copied = []
    for sid in genome:
        if rng.random() < p_mig:
            if neighbors is None:  # built once a migration fires; no edge changes here
                neighbors = eco.neighbors(h.id)
                weights = [w for _, w in neighbors]
            dest_id = neighbors[rng.weighted_index(weights)][0]
            dest = eco.habitats[dest_id]
            if sid not in dest.pool:
                dest.receive(h.pool.get(sid).copy(), h.id)
                copied.append((sid, dest_id))
    return copied


# --- Failure and healing ---


def self_heal(eco: Ecosystem, lost: dict | None = None) -> list:
    """Repair the connection graph after habitat removal.

    For each removed habitat, its surviving former neighbors are connected
    pairwise (new edges only) at the minimum of the two lost weights. If
    the graph is still disconnected, the smallest habitat id of each
    component is connected to the globally smallest one at the weight
    floor. Returns the created edges as (a, b, weight) tuples.
    """
    created = []
    if lost:
        for victim in sorted(lost):
            neighbors = sorted(lost[victim])
            for i in range(len(neighbors)):
                for j in range(i + 1, len(neighbors)):
                    (na, wa), (nb, wb) = neighbors[i], neighbors[j]
                    key = edge_key(na, nb)
                    if key in eco.connections:
                        continue
                    w = min(wa, wb)
                    eco.add_connection(na, nb, w)
                    created.append((key[0], key[1], w))
    comps = eco.components()
    if len(comps) > 1:
        reps = sorted(c[0] for c in comps)
        for rep in reps[1:]:
            key = edge_key(reps[0], rep)
            eco.add_connection(reps[0], rep, eco.w_min)
            created.append((key[0], key[1], eco.w_min))
    return created


def failure_inject(eco: Ecosystem, victims) -> tuple:
    """Remove habitats and their connections, then heal immediately.

    `victims` names one or more current habitats and spares at least one:
    `validate_config` rejects a failure schedule that removes every habitat,
    and `state_from_obj` one that removes every habitat a snapshot holds.
    Returns (removed ids sorted, created edges). Migrated copies hosted
    elsewhere survive their source.
    """
    victim_set = set(victims)
    lost: dict[str, list] = {}
    for victim in sorted(victim_set):
        lost[victim] = [
            (n, w) for n, w in eco.neighbors(victim) if n not in victim_set
        ]
    for victim in sorted(victim_set):
        del eco.habitats[victim]
    for key in [k for k in eco.connections if k[0] in victim_set or k[1] in victim_set]:
        eco.remove_connection(*key)
    created = self_heal(eco, lost)
    return sorted(victim_set), created


# --- The epoch loop body ---


def evolve_request(h: Habitat, req: Request, params: EvolutionParams, rng: Stream,
                   budget: int) -> Individual:
    """Start or resume the habitat's evolution for a request; return its best.

    A fresh evolution draws its initial population and records trace row 0.
    A resumed one whose pool changed since it last ran re-opens its
    generation budget. Then up to `budget` generations run, never more than
    max_generations since the last pool change, each appending a trace row.
    """
    state = h.active.get(req.id)
    version = len(h.provenance)  # the pool version
    if state is None:
        pop = init_population(h.pool, req, params, rng)
        best, mean = population_stats(pop)
        state = h.active[req.id] = ActiveEvolution(
            pop, pool_version=version, trace=[(best.fitness, mean)])
    elif state.pool_version != version:
        state.gens_since_reset = 0
        state.pool_version = version

    steps = min(budget, params.max_generations - state.gens_since_reset)
    state.population, best, stats = advance(state.population, h.pool, req, params, rng, steps)
    state.trace += stats
    state.gens_since_reset += len(stats)
    return best


def habitat_step(h: Habitat, rng: Stream, params: EvolutionParams, execute) -> tuple:
    """One habitat's step of an epoch; all draws come from its stream `rng`.

    In this order: sample a request from the profile, evolve it under
    `params.generation_budget_per_epoch`, deploy the best chain through
    `execute`, and record the feedback. Returns the step's record, which a
    shard worker sends as it is: (profile index of the request, genome,
    fitness, success) of the deployment, or (profile index,) for an empty pool.
    """
    idx = rng.weighted_index([t.weight for t in h.profile])
    if len(h.pool) == 0:
        return (idx,)
    best = evolve_request(h, h.profile[idx].request, params, rng,
                          params.generation_budget_per_epoch)
    chain = h.pool.resolve(best.genome)
    success = execute(chain, rng)
    record_deployment(chain, success)
    return idx, best.genome, best.fitness, success


def emit_step(h: Habitat, req: Request, deployment: Deployment | None, emit) -> None:
    """The events of one habitat's step: the sampled request, then its
    deployment, or a warning when the pool was empty."""
    emit("request_sampled", {"habitat": h.id, "request": req.id})
    if deployment is None:
        emit("warning", {"habitat": h.id, "message": "empty pool, epoch skipped"})
        return
    emit("deployment", {
        "habitat": h.id,
        "request": req.id,
        "chain": list(deployment.genome),
        "fitness": deployment.fitness,
        "success": deployment.success,
    })


def run_epoch(eco: Ecosystem, eco_params: EcosystemParams, streams: dict, emit,
              shards, dispatch_next: bool = False) -> tuple:
    """Advance the ecosystem by one epoch.

    `shards` (the `shards.Shards` of `eco` and `streams`) takes every
    habitat's `habitat_step`, local or on a worker, turns each record into a
    `Deployment` and reports the step through `emit_step`, in habitat id
    order. Then three single-writer phases follow in id order: reinforcement
    of provenance edges used by successful deployments, migration of
    deployed chains, and one decay pass over all weights.

    `dispatch_next` says that the next epoch starts on the ecosystem as
    migration leaves it (no failure comes first): its message then goes to
    the shard workers before the decay pass, which neither draws nor touches
    a pool, so they step while this process finishes.

    `emit(kind, payload)` receives the epoch's events. Returns (deployments
    in habitat id order, number of services migrated).
    """
    deployments = shards.habitat_epochs(emit)

    for h, genome, _, success in deployments:
        if not success:
            continue
        for sid in genome:
            src = h.provenance.get(sid)
            if src is not None and src in eco.habitats:
                w = reinforce(eco, h.id, src, eco_params.reinforce_delta)
                a, b = edge_key(h.id, src)
                emit("reinforcement", {"a": a, "b": b, "service": sid, "weight": w})

    migrations = 0
    for h, genome, _, _ in deployments:
        for sid, dest_id in migrate(h, genome, eco, eco_params.p_mig, streams[h.id]):
            migrations += 1
            emit("migration", {"service": sid, "source": h.id, "destination": dest_id})

    if dispatch_next:
        shards.dispatch()
    decay_all(eco, eco_params.decay_lambda)
    eco.epoch += 1
    return deployments, migrations
