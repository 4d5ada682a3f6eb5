"""Deterministic orchestration of whole-ecosystem simulation runs.

A run is a pure function of its configuration: every random decision comes
from a named substream of the master seed, habitats are processed in id
order, and float accumulation order is pinned, so two runs of the same
config produce byte-identical event logs and metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .ecosystem import (
    ActiveEvolution,
    EcosystemError,
    EcosystemParams,
    Ecosystem,
    Habitat,
    RequestTemplate,
    build_ecosystem,
    clustering_statistic,
    failure_inject,
    run_epoch,
)
from .evolution import EvolutionParams, GenerationStat, Individual
from .manifest import (
    Catalog,
    ManifestError,
    Request,
    ServiceManifest,
    chain_price,
    request_from_obj,
    request_to_obj,
    service_from_obj,
    service_to_obj,
)
from .rng import Stream, derive_substream
from .topology import BusinessGraph, EtaDist, FlowEdge, TopologyError, record_transaction

SNAPSHOT_FORMAT = "dbesim-snapshot-v1"

_MAX_SEED = (1 << 64) - 1


class ValidationFailure(ValueError):
    """A config failed validation; carries the full violation list."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class SnapshotError(ValueError):
    pass


# --- Configuration ---


@dataclass(frozen=True)
class TopologyParams:
    """Business-graph growth experiment parameters."""

    steps: int = 2000
    m: int = 2
    seed_vertices: int = 3
    eta: EtaDist = field(default_factory=lambda: EtaDist("uniform", 1.0))
    inject_eta: float | None = None
    inject_at: int | None = None

    def validate(self) -> list[str]:
        bad = []
        if self.steps < 1:
            bad.append("topology steps must be >= 1")
        if self.m < 1:
            bad.append("topology m must be >= 1")
        if self.seed_vertices < self.m:
            bad.append("topology seed_vertices must be >= m")
        bad.extend(self.eta.validate())
        if (self.inject_eta is None) != (self.inject_at is None):
            bad.append("topology inject needs both eta and at_step")
        if self.inject_eta is not None and not (0.0 < self.inject_eta <= 1.0):
            bad.append("topology inject eta out of (0, 1]")
        if self.inject_at is not None and not (1 <= self.inject_at < self.steps):
            bad.append("topology inject at_step must be in [1, steps)")
        return bad


@dataclass
class HabitatSpec:
    """Immutable scenario description of one habitat.

    The services here are pristine templates; each run copies them so
    counter feedback never leaks between runs.
    """

    id: str
    services: list  # of ServiceManifest
    profile: list  # of RequestTemplate


@dataclass
class ScenarioConfig:
    habitats: list  # of HabitatSpec
    initial_topology: tuple = ("ring",)


@dataclass(frozen=True)
class FailureEvent:
    epoch: int
    victims: tuple


@dataclass
class SimConfig:
    master_seed: int
    epochs: int
    generation_budget_per_epoch: int = 20
    evolution: EvolutionParams = field(default_factory=EvolutionParams)
    ecosystem: EcosystemParams = field(default_factory=EcosystemParams)
    topology: TopologyParams = field(default_factory=TopologyParams)
    scenario: ScenarioConfig | None = None
    failures: tuple = ()


def validate_config(config: SimConfig) -> list[str]:
    """Check every structural and range invariant; returns all violations."""
    bad = []
    if not (0 <= config.master_seed <= _MAX_SEED):
        bad.append("seed must be an unsigned 64-bit integer")
    if config.epochs < 1:
        bad.append("epochs must be >= 1")
    if config.generation_budget_per_epoch < 1:
        bad.append("generation_budget_per_epoch must be >= 1")
    bad.extend(config.evolution.validate())
    bad.extend(config.ecosystem.validate())
    bad.extend(config.topology.validate())

    if config.scenario is None:
        bad.append("scenario is required")
        return bad
    scen = config.scenario
    ids = [h.id for h in scen.habitats]
    if len(ids) != len(set(ids)):
        bad.append("scenario habitat ids must be unique")
    if len(ids) < 2:
        bad.append("scenario needs at least 2 habitats")
    kind = scen.initial_topology[0]
    if kind == "random_m":
        m = scen.initial_topology[1]
        if not (1 <= m <= max(len(ids) - 1, 0)):
            bad.append("scenario random_m parameter out of range")
    elif kind != "ring":
        bad.append(f"scenario topology kind unknown: {kind!r}")
    definer: dict[str, str] = {}
    for h in scen.habitats:
        if not h.profile:
            bad.append(f"habitat {h.id!r}: empty request profile")
        req_ids = [t.request.id for t in h.profile]
        if len(req_ids) != len(set(req_ids)):
            bad.append(f"habitat {h.id!r}: duplicate request template ids")
        for t in h.profile:
            if t.weight <= 0:
                bad.append(f"habitat {h.id!r}: profile weight must be > 0")
        sids = [s.id for s in h.services]
        if len(sids) != len(set(sids)):
            bad.append(f"habitat {h.id!r}: duplicate service ids")
        # migration and provenance identify a service by its id alone
        for sid in dict.fromkeys(sids):
            first = definer.setdefault(sid, h.id)
            if first != h.id:
                bad.append(f"service id {sid!r} defined by habitats {first!r} and {h.id!r}")

    known = set(ids)
    alive = set(ids)
    for f in config.failures:
        if not (1 <= f.epoch <= config.epochs):
            bad.append(f"failure epoch {f.epoch} outside [1, epochs]")
        for v in f.victims:
            if v not in known:
                bad.append(f"failure names unknown habitat {v!r}")
        alive -= set(f.victims)
    if config.failures and not alive:
        bad.append("failure schedule removes every habitat")
    return bad


# --- Execution phenotype ---


def simulate_execution(chain, rng: Stream) -> bool:
    """Simulate one chain execution: one uniform draw per member, in order.

    The chain succeeds iff every draw falls below the member's reliability.
    All draws are consumed even after an early failure, so the stream
    position does not depend on the outcome.
    """
    ok = True
    for s in chain:
        if not (rng.random() < s.reliability):
            ok = False
    return ok


# --- Event log and metrics ---


class EventRecord(NamedTuple):
    epoch: int
    kind: str
    payload: dict


@dataclass(frozen=True)
class MetricsRow:
    epoch: int
    mean_best_fitness: float
    deployment_success_rate: float
    total_migrations: int
    clustering_statistic: float
    habitat_count: int
    connection_count: int


METRICS_HEADER = ("epoch,mean_best_fitness,deployment_success_rate,"
                  "total_migrations,clustering_statistic,habitat_count,connection_count")


def serialize_events(events) -> str:
    """Event log as JSON Lines (UTF-8, LF); events are (epoch, kind, payload) triples."""
    lines = []
    for epoch, kind, payload in events:
        lines.append(json.dumps(
            {"epoch": epoch, "kind": kind, "payload": payload},
            sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_metrics(rows) -> str:
    lines = [METRICS_HEADER]
    for r in rows:
        lines.append(f"{r.epoch},{r.mean_best_fitness!r},{r.deployment_success_rate!r},"
                     f"{r.total_migrations},{r.clustering_statistic!r},"
                     f"{r.habitat_count},{r.connection_count}")
    return "\n".join(lines) + "\n"


# --- State snapshot (reloadable for resumption) ---


def state_to_obj(eco: Ecosystem, streams: dict, graph: BusinessGraph) -> dict:
    """Serialize the full mutable run state, exactly enough to resume."""
    habitats = []
    for hid in eco.habitat_ids():
        h = eco.habitats[hid]
        pool = []
        for s in h.pool:
            obj = service_to_obj(s)
            obj["usage_count"] = s.usage_count
            obj["success_count"] = s.success_count
            pool.append(obj)
        active = []
        for rid in sorted(h.active):
            st = h.active[rid]
            active.append({
                "request": rid,
                "population": [[list(ind.genome), ind.fitness] for ind in st.population],
                "gens_since_reset": st.gens_since_reset,
                "total_generations": st.total_generations,
                "pool_version": st.pool_version,
                "trace": [[g.generation, g.best_fitness, g.mean_fitness] for g in st.trace],
            })
        habitats.append({
            "id": hid,
            "pool": pool,
            "provenance": {k: h.provenance[k] for k in sorted(h.provenance)},
            "pool_version": h.pool_version,
            "active": active,
        })
    return {
        "epoch": eco.epoch,
        "streams": {hid: streams[hid].state for hid in sorted(streams)},
        "habitats": habitats,
        "connections": [[a, b, eco.connections[(a, b)]] for a, b in sorted(eco.connections)],
        "business": {
            "vertices": [
                {"id": v.id, "eta": v.eta, "degree": v.degree, "birth_step": v.birth_step}
                for v in graph.vertices.values()
            ],
            "attachment_edges": [list(e) for e in graph.attachment_edges],
            "flow_edges": [[e.src, e.dst, e.kind, e.value, e.step] for e in graph.flow_edges],
            "next_index": graph.next_index,
            "pool": list(graph._pool),
            "floor_active": {k: graph._floor_active[k] for k in sorted(graph._floor_active)},
        },
    }


_KINDS = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
          int: "an integer", float: "a number"}


class _Node:
    """A value read from a snapshot; its JSON path is built only for errors."""

    __slots__ = ("value", "parent", "key")

    def __init__(self, value, parent: "_Node | None" = None, key="state"):
        self.value = value
        self.parent = parent
        self.key = key

    @property
    def path(self) -> str:
        if self.parent is None:
            return self.key
        if isinstance(self.key, int):
            return f"{self.parent.path}[{self.key}]"
        return f"{self.parent.path}.{self.key}"

    def fail(self, message: str):
        raise SnapshotError(f"{self.path}: {message}")

    def get(self, kind):
        """The value, which must be of the given JSON kind; a float may be an int."""
        v = self.value
        if type(v) is not kind and not (kind is float and type(v) is int):
            self.fail(f"expected {_KINDS[kind]}")
        return v

    def __getitem__(self, key: str) -> "_Node":
        obj = self.get(dict)
        if key not in obj:
            _Node(None, self, key).fail("missing")
        return _Node(obj[key], self, key)

    def __iter__(self):
        return (_Node(v, self, i) for i, v in enumerate(self.get(list)))

    def items(self):
        return [(k, _Node(v, self, k)) for k, v in self.get(dict).items()]

    def list_of(self, kind) -> list:
        """An array whose elements are all of one kind."""
        out = self.get(list)
        if set(map(type, out)) - {kind}:
            for i, v in enumerate(out):
                _Node(v, self, i).get(kind)
        return out

    def row(self, *kinds) -> list:
        """A fixed-length array, one kind per element."""
        out = self.get(list)
        if len(out) != len(kinds):
            self.fail(f"expected {len(kinds)} elements, got {len(out)}")
        if tuple(map(type, out)) != kinds:  # exact types pass in one C-level compare
            for i, kind in enumerate(kinds):
                _Node(out[i], self, i).get(kind)
        return out


def _service_from_state(node: _Node) -> ServiceManifest:
    obj = node.get(dict)
    counts = {k: node[k].get(int) for k in ("usage_count", "success_count") if k in obj}
    try:
        s = service_from_obj({k: v for k, v in obj.items() if k not in counts})
    except ManifestError as e:
        node.fail(str(e))
    s.usage_count = counts.get("usage_count", 0)
    s.success_count = counts.get("success_count", 0)
    return s


def _evolution_from_state(node: _Node, pool: Catalog) -> ActiveEvolution:
    pop = []
    for ind in node["population"]:
        genome, fit = ind.row(list, float)
        genome = _Node(genome, ind, 0)
        for sid in genome.list_of(str):
            if sid not in pool:
                genome.fail(f"service {sid!r} not in the habitat's pool")
        pop.append(Individual(tuple(genome.value), fit))
    return ActiveEvolution(
        request_id=node["request"].get(str),
        population=pop,
        gens_since_reset=node["gens_since_reset"].get(int),
        total_generations=node["total_generations"].get(int),
        pool_version=node["pool_version"].get(int),
        trace=[GenerationStat(*t.row(int, float, float)) for t in node["trace"]],
    )


def _graph_from_state(biz: _Node) -> BusinessGraph:
    graph = BusinessGraph()
    for vnode in biz["vertices"]:
        try:
            v = graph.add_vertex(vnode["id"].get(str), vnode["eta"].get(float),
                                 vnode["birth_step"].get(int))
        except TopologyError as e:
            vnode.fail(str(e))
        v.degree = vnode["degree"].get(int)
    graph.attachment_edges = [tuple(e.row(str, str)) for e in biz["attachment_edges"]]
    graph._edge_set = set(graph.attachment_edges)
    graph.flow_edges = [FlowEdge(*e.row(str, str, str, float, int)) for e in biz["flow_edges"]]
    graph.next_index = biz["next_index"].get(int)
    graph._pool = list(biz["pool"].list_of(str))
    graph._floor_active = {k: v.get(bool) for k, v in biz["floor_active"].items()}
    return graph


def state_from_obj(config: SimConfig, state: dict) -> tuple:
    """Rebuild (ecosystem, streams, graph) from a serialized state.

    Malformed input raises SnapshotError naming the JSON path at fault,
    such as `state.habitats[0].pool[1].usage_count`.
    """
    root = _Node(state)
    specs = {spec.id: spec for spec in config.scenario.habitats}
    habitats = []
    for hnode in root["habitats"]:
        hid = hnode["id"].get(str)
        if hid not in specs:
            hnode["id"].fail(f"snapshot habitat {hid!r} not in scenario")
        try:
            pool = Catalog(_service_from_state(s) for s in hnode["pool"])
        except ManifestError as e:
            hnode["pool"].fail(str(e))
        h = Habitat(id=hid, pool=pool, profile=list(specs[hid].profile),
                    provenance={k: v.get(str) for k, v in hnode["provenance"].items()},
                    pool_version=hnode["pool_version"].get(int))
        templates = {t.request.id for t in h.profile}
        for anode in hnode["active"]:
            evo = _evolution_from_state(anode, pool)
            if evo.request_id not in templates:
                anode["request"].fail(f"evolution state for unknown request {evo.request_id!r}")
            h.active[evo.request_id] = evo
        habitats.append(h)
    try:
        eco = Ecosystem(habitats, w_min=config.ecosystem.w_min)
    except EcosystemError as e:
        root["habitats"].fail(str(e))
    eco.epoch = root["epoch"].get(int)
    for cnode in root["connections"]:
        try:
            eco.add_connection(*cnode.row(str, str, float))
        except EcosystemError as e:
            cnode.fail(str(e))
    streams = {hid: Stream(v.get(int)) for hid, v in root["streams"].items()}
    for hid in eco.habitat_ids():
        if hid not in streams:
            root["streams"].fail(f"missing stream for habitat {hid!r}")
    return eco, streams, _graph_from_state(root["business"])


# --- The run loop ---


@dataclass
class RunResult:
    events: list
    metrics: list
    eco: Ecosystem
    graph: BusinessGraph
    streams: dict

    def final_state(self) -> dict:
        return state_to_obj(self.eco, self.streams, self.graph)


def build_run_state(config: SimConfig) -> tuple:
    """Fresh (ecosystem, streams, graph) for a run, derived from the config."""
    habitats = []
    for spec in config.scenario.habitats:
        habitats.append(Habitat(
            id=spec.id,
            pool=Catalog(s.copy() for s in spec.services),
            profile=list(spec.profile),
        ))
    build_rng = derive_substream(config.master_seed, "build")
    eco = build_ecosystem(habitats, config.scenario.initial_topology, build_rng,
                          w_min=config.ecosystem.w_min)
    streams = {hid: derive_substream(config.master_seed, f"habitat:{hid}")
               for hid in eco.habitat_ids()}
    graph = BusinessGraph()
    for hid in eco.habitat_ids():
        graph.add_vertex(hid, 1.0, 0)
    return eco, streams, graph


def run(config: SimConfig, state: dict | None = None) -> RunResult:
    """Execute the epoch loop from a fresh build or a restored snapshot state.

    Per epoch: apply scheduled failures, run the ecosystem epoch, record a
    transaction pair for each successful deployment whose provider habitat
    differs from the requesting one, and append one metrics row. Means are
    accumulated in habitat-id order.
    """
    violations = validate_config(config)
    if violations:
        raise ValidationFailure(violations)
    if state is None:
        eco, streams, graph = build_run_state(config)
    else:
        eco, streams, graph = state_from_obj(config, state)

    events: list[EventRecord] = []
    metrics: list[MetricsRow] = []
    failures_by_epoch: dict[int, list] = {}
    for f in config.failures:
        failures_by_epoch.setdefault(f.epoch, []).append(f)

    for epoch_now in range(eco.epoch + 1, config.epochs + 1):
        def emit(kind, payload, _epoch=epoch_now):
            events.append(EventRecord(_epoch, kind, payload))

        for f in failures_by_epoch.get(epoch_now, ()):
            victims = [v for v in f.victims if v in eco.habitats]
            for gone in sorted(set(f.victims) - set(victims)):
                emit("warning", {"message": f"failure victim {gone} already removed"})
            if not victims:
                continue
            removed, created = failure_inject(eco, victims)
            emit("failure", {"victims": removed})
            if created:
                emit("heal", {"created": [[a, b, w] for a, b, w in created]})

        report = run_epoch(eco, config.evolution, config.ecosystem,
                           config.generation_budget_per_epoch, streams,
                           simulate_execution, emit)

        for hid in eco.habitat_ids():
            h = eco.habitats[hid]
            d = h.last_deployment
            if d is None or not d.success:
                continue
            provider = h.provenance.get(d.genome[0], hid)
            if provider == hid:
                continue  # native first service: no inter-habitat transaction
            value = chain_price(h.pool.resolve(d.genome))
            record_transaction(graph, provider, hid, value, epoch_now)

        total = 0.0
        for hid in sorted(report.best_fitness):
            total += report.best_fitness[hid]
        mean_best = total / len(report.best_fitness) if report.best_fitness else 0.0
        rate = report.successes / report.deployments if report.deployments else 0.0
        clustering = clustering_statistic(eco) if len(eco.connections) >= 3 else 0.0
        metrics.append(MetricsRow(
            epoch=epoch_now,
            mean_best_fitness=mean_best,
            deployment_success_rate=rate,
            total_migrations=len(report.migrations),
            clustering_statistic=clustering,
            habitat_count=len(eco.habitats),
            connection_count=len(eco.connections),
        ))

    return RunResult(events=events, metrics=metrics, eco=eco, graph=graph, streams=streams)
