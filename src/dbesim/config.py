"""Configuration records and the JSON format of every record dbesim reads or writes.

One strict reader reads configs and snapshots: unknown keys are rejected
everywhere, numbers must be finite, and every error names the JSON path at
fault: a silently ignored typo in a simulation config is a reproducibility
bug. A bad value raises `_Bad`; each reader that descends into a member or
element puts that key in front of the fault's path as it passes, and
`read_json` names the fault once, at the entry point, as a `ConfigError` or
`SnapshotError`. Each flat record has one field table (`Record`): the JSON
key, kind and range checks of every field. The same table reads the record,
echoes it and lists its range violations.

Reading a config checks structure and types; `validate_config` checks
ranges and cross-record rules, so configs built in code are checked the
same way. A snapshot's run state is checked as it is read. Absent optional
fields take the record class's defaults, and the fully resolved config can
be serialized back out (the echo round-trips to an identical config). A
snapshot file embeds a resolved config plus the serialized run state and is
accepted wherever a config is, resuming the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from math import isfinite
from operator import attrgetter
from sys import float_info
from types import SimpleNamespace
from typing import Callable

from .ecosystem import (
    ActiveEvolution,
    EcosystemParams,
    Ecosystem,
    Habitat,
    RequestTemplate,
    edge_key,
)
from .evolution import EvolutionParams, Individual, evaluate_genome
from .manifest import Catalog, ManifestError, Request, ServiceManifest, parse_token
from .rng import Stream
from .topology import CAPITAL_FLOW, SERVICE_FLOW, EtaDist, FlowEdge, FlowLedger

SNAPSHOT_FORMAT = "dbesim-snapshot-v1"

_MAX_SEED = (1 << 64) - 1


class ConfigError(ValueError):
    pass


class SnapshotError(ValueError):
    pass


# --- Configuration records ---


@dataclass(frozen=True)
class TopologyParams:
    """Business-graph growth experiment parameters."""

    steps: int = 2000
    m: int = 2
    seed_vertices: int = 3
    eta: EtaDist = field(default_factory=lambda: EtaDist("uniform", 1.0))
    inject_eta: float | None = None
    inject_at: int | None = None


@dataclass
class HabitatSpec:
    """Immutable scenario description of one habitat.

    The services here are pristine templates; `build` copies them for each
    run, so counter feedback never leaks between runs.
    """

    id: str
    services: list  # of ServiceManifest
    profile: list  # of RequestTemplate

    def build(self) -> Habitat:
        """A fresh habitat whose pool holds copies of the services."""
        return Habitat(id=self.id, pool=Catalog(s.copy() for s in self.services),
                       profile=list(self.profile))


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
    evolution: EvolutionParams = field(default_factory=EvolutionParams)
    ecosystem: EcosystemParams = field(default_factory=EcosystemParams)
    topology: TopologyParams = field(default_factory=TopologyParams)
    scenario: ScenarioConfig | None = None
    failures: tuple = ()


# --- The reader ---


class _Bad(Exception):
    """A bad JSON value; `keys` is its path, outermost key first, below the
    value being read."""

    def __init__(self, message: str, *keys):
        super().__init__(message)
        self.keys = list(keys)


# A token that fails `parse_token` is a bad value like any other.
_BAD = (_Bad, ManifestError)


def _bad(e: Exception) -> _Bad:
    return e if isinstance(e, _Bad) else _Bad(str(e))


def read_json(value, root: str, error: type, read: Callable, *args):
    """`read(value, *args)` of the JSON document `root`; a bad value it meets
    is raised as `error`, named at its path such as `state.habitats[0].pool`."""
    try:
        return read(value, *args)
    except _BAD as e:
        e = _bad(e)
        path = root + "".join(f"[{k}]" if type(k) is int else f".{k}" for k in e.keys)
        raise error(f"{path}: {e}") from None


def _at(key, read: Callable, value, *args):
    """`read(value, *args)` of the member or element `key`: a bad value below
    it gets `key` in front of its path."""
    try:
        return read(value, *args)
    except _BAD as e:
        e = _bad(e)
        e.keys.insert(0, key)
        raise e from None


def _get(obj: dict, key: str, read: Callable, *args):
    """`read` of a required member of an object."""
    if key not in obj:
        raise _Bad("missing", key)
    return _at(key, read, obj[key], *args)


def _locate(items, *args):
    """Read (key, read, value) triples again to report the first bad value
    at its key."""
    for key, read, v in items:
        _at(key, read, v, *args)


def _each(values, read: Callable, *args) -> list:
    """`read(element, *args)` of every element of an array."""
    if type(values) is not list:
        raise _Bad("expected an array")
    try:
        return [read(v, *args) for v in values]
    except _BAD:
        _locate(((i, read, v) for i, v in enumerate(values)), *args)
        raise


def _object(obj, keys) -> dict:
    if type(obj) is not dict:
        raise _Bad("expected an object")
    if not keys.issuperset(obj):
        raise _Bad(f"unknown key {sorted(obj.keys() - keys)[0]!r}")
    return obj


def _row(values, reads: tuple) -> list:
    """A fixed-length array, one reader per element."""
    if type(values) is not list:
        raise _Bad("expected an array")
    if len(values) != len(reads):
        raise _Bad(f"expected {len(reads)} elements, got {len(values)}")
    try:
        return [read(v) for read, v in zip(reads, values)]
    except _BAD:
        _locate((i, read, v) for i, (read, v) in enumerate(zip(reads, values)))
        raise


class Kind:
    """A JSON kind: `read(value)` returns the Python value or raises
    `_Bad`; `echo` turns the Python value back into JSON."""

    __slots__ = ("read", "echo")

    def __init__(self, read: Callable, echo: Callable | None = None):
        self.read = read
        self.echo = echo


def _exact(kind: type, expected: str) -> Callable:
    def read(v):
        if type(v) is not kind:
            raise _Bad(f"expected {expected}")
        return v
    return read


def _number(v) -> float:
    """One rule for every number: an int or float, finite, returned as a float."""
    if type(v) is float and isfinite(v):
        return v
    if type(v) is int and abs(v) <= float_info.max:
        return float(v)
    raise _Bad("expected a finite number" if type(v) in (int, float) else "expected a number")


def _int_in(lo: int, hi: float, message: str) -> Callable:
    """An integer in [lo, hi]; `message` is the fault of one outside it."""
    def read(v):
        if not lo <= INT.read(v) <= hi:
            raise _Bad(message)
        return v
    return read


def _string(v) -> str:
    if type(v) is not str or not v:
        raise _Bad("expected a non-empty string")
    return v


def _strings(v) -> list:
    """An array of non-empty strings."""
    return _each(v, _string)


def _tokens(v) -> frozenset:
    return frozenset(_each(v, parse_token))


OBJECT = Kind(_exact(dict, "an object"))
INT = Kind(_exact(int, "an integer"))
COUNT = Kind(_int_in(0, float("inf"), "must be >= 0"))
STREAM_STATE = Kind(_int_in(0, _MAX_SEED, "stream state outside [0, 2**64)"))
NUMBER = Kind(_number)
STRING = Kind(_string)
TOKEN = Kind(parse_token)
TOKENS = Kind(_tokens, sorted)


def _union(v, variants: dict) -> tuple:
    """A tagged union: (kind, fields of the variant record that `kind` names)."""
    if type(v) is not dict or "kind" not in v:
        raise _Bad("expected an object with a 'kind' key")
    kind = v["kind"]
    if type(kind) is not str or kind not in variants:
        raise _Bad(f"unknown kind {kind!r}", "kind")
    return kind, variants[kind].read(v)


def _eta(v) -> EtaDist:
    kind, f = _union(v, _ETA_KINDS)
    return EtaDist(kind, f.get("cap", 1.0) if kind == "uniform" else f["value"])


def _eta_obj(eta: EtaDist) -> dict:
    return {"kind": eta.kind, "cap" if eta.kind == "uniform" else "value": eta.value}


def _initial_topology(v) -> tuple:
    kind, f = _union(v, _INITIAL_TOPOLOGY_KINDS)
    return (kind, f["m"]) if "m" in f else (kind,)


# --- Field tables ---


def req(key: str, kind: Kind, *checks) -> tuple:
    """A required field: (key, kind, True, checks). `checks` alternate a
    predicate on the whole record (truthy when it holds) and its violation
    text, a format string over the record `r`."""
    return key, kind, True, tuple(zip(checks[::2], checks[1::2]))


def opt(key: str, kind: Kind, *checks) -> tuple:
    """An optional field: absent, it takes the record class's default."""
    return key, kind, False, tuple(zip(checks[::2], checks[1::2]))


class Record:
    """The JSON format of one flat record. Its fields are attributes of the
    Python record, or of `view(record)` where the Python class is shaped
    unlike the JSON object.

    `read(obj)` returns the fields present in a JSON object, each read by its
    kind; absent optional fields are left out, so the record class's default
    applies. `echo(record)` returns the JSON object, leaving out an optional
    field whose value is None; `violations(record)` returns the violation
    text of every check that fails. Fields are read as attributes, never
    through `__dict__`: on CPython 3.11, asking an object for its `__dict__`
    makes every later attribute read on it slower, and echoed records stay
    in use.
    """

    def __init__(self, *fields: tuple, view: Callable | None = None):
        self.fields = fields
        self.keys = frozenset(key for key, _, _, _ in fields)
        self.required = frozenset(key for key, _, required, _ in fields if required)
        self.readers = {key: kind.read for key, kind, _, _ in fields}
        self.checks = tuple(check for *_, checks in fields for check in checks)
        self.view = view

    def read(self, obj) -> dict:
        if type(obj) is not dict or not self.keys.issuperset(obj):
            _object(obj, self.keys)
        if len(obj) < len(self.keys) and not self.required.issubset(obj):
            raise _Bad("missing", sorted(self.required - obj.keys())[0])
        readers = self.readers
        try:
            return {key: readers[key](v) for key, v in obj.items()}
        except _BAD:
            _locate((key, readers[key], v) for key, v in obj.items())
            raise

    def echo(self, record) -> dict:
        if self.view is not None:
            record = self.view(record)
        out = {}
        for key, kind, required, _ in self.fields:
            value = getattr(record, key)
            if required or value is not None:
                out[key] = value if kind.echo is None else kind.echo(value)
        return out

    def violations(self, record) -> list:
        if self.view is not None:
            record = self.view(record)
        return [text.format(r=record) for ok, text in self.checks if not ok(record)]


def _array_of(record: Record, cls: type) -> Kind:
    """An array of records, each built as `cls(**fields)`."""
    return Kind(lambda v: [cls(**f) for f in _each(v, record.read)],
                lambda objs: list(map(record.echo, objs)))


EVOLUTION = Record(
    opt("population_size", INT, lambda r: r.population_size >= 2, "population_size must be >= 2"),
    opt("max_generations", INT, lambda r: r.max_generations >= 1, "max_generations must be >= 1"),
    opt("tournament_size", INT, lambda r: r.tournament_size >= 1, "tournament_size must be >= 1"),
    opt("crossover_rate", NUMBER,
        lambda r: 0.0 <= r.crossover_rate <= 1.0, "crossover_rate out of range"),
    opt("mutation_rate", NUMBER,
        lambda r: 0.0 <= r.mutation_rate <= 1.0, "mutation_rate out of range"),
    opt("elitism", INT,
        lambda r: 0 <= r.elitism < r.population_size, "elitism must be in [0, population_size)"),
    opt("beta", NUMBER, lambda r: 0.0 <= r.beta < 1.0, "beta out of range"),
    opt("gamma", NUMBER, lambda r: r.gamma >= 0.0, "gamma must be >= 0"),
    opt("target_fitness", NUMBER,
        lambda r: 0.0 < r.target_fitness <= 1.0, "target_fitness out of range"),
    opt("generation_budget_per_epoch", INT,
        lambda r: r.generation_budget_per_epoch >= 1, "generation_budget_per_epoch must be >= 1"),
)

ECOSYSTEM = Record(
    opt("p_mig", NUMBER, lambda r: 0.0 <= r.p_mig <= 1.0, "p_mig out of range"),
    opt("reinforce_delta", NUMBER,
        lambda r: r.reinforce_delta > 0.0, "reinforce_delta must be > 0"),
    opt("decay_lambda", NUMBER, lambda r: 0.0 < r.decay_lambda <= 1.0, "decay out of range"),
    opt("w_min", NUMBER, lambda r: r.w_min > 0.0, "w_min must be > 0",
        # build_ecosystem starts every connection at weight 1.0
        lambda r: r.w_min <= 1.0, "w_min must be <= 1, the initial connection weight"),
)

INJECT = Record(req("eta", NUMBER), req("at_step", INT))


def _topology_view(t: TopologyParams) -> SimpleNamespace:
    inject = None
    if t.inject_eta is not None or t.inject_at is not None:
        inject = {"eta": t.inject_eta, "at_step": t.inject_at}
    return SimpleNamespace(steps=t.steps, m=t.m, seed_vertices=t.seed_vertices, eta=t.eta,
                           inject=inject)


_KIND = req("kind", STRING)
_ETA_KINDS = {"uniform": Record(_KIND, opt("cap", NUMBER)),
              "fixed": Record(_KIND, req("value", NUMBER))}
_INITIAL_TOPOLOGY_KINDS = {"ring": Record(_KIND), "random_m": Record(_KIND, req("m", INT))}

TOPOLOGY = Record(
    opt("steps", INT, lambda r: r.steps >= 1, "topology steps must be >= 1"),
    opt("m", INT, lambda r: r.m >= 1, "topology m must be >= 1"),
    opt("seed_vertices", INT,
        lambda r: r.seed_vertices >= r.m, "topology seed_vertices must be >= m"),
    opt("eta", Kind(_eta, _eta_obj),
        lambda r: r.eta.kind in ("uniform", "fixed"),
        "unknown eta distribution kind: {r.eta.kind!r}",
        lambda r: 0.0 < r.eta.value <= 1.0, "eta distribution value out of (0, 1]"),
    opt("inject", Kind(INJECT.read),
        lambda r: r.inject is None or None not in r.inject.values(),
        "topology inject needs both eta and at_step",
        lambda r: r.inject is None or r.inject["eta"] is None or 0.0 < r.inject["eta"] <= 1.0,
        "topology inject eta out of (0, 1]",
        lambda r: r.inject is None or r.inject["at_step"] is None
        or 1 <= r.inject["at_step"] < r.steps,
        "topology inject at_step must be in [1, steps)"),
    view=_topology_view,
)

# attrgetter(key) checks that a string or set field is non-empty, with no
# Python-level call per record.
SERVICE = Record(
    req("id", STRING, attrgetter("id"), "empty id"),
    req("attrs", TOKENS, attrgetter("attrs"), "empty attribute set"),
    req("in_port", TOKEN),
    req("out_port", TOKEN),
    req("price", NUMBER, lambda r: r.price >= 0, "negative price"),
    req("reliability", NUMBER, lambda r: 0.0 <= r.reliability <= 1.0, "reliability out of range"),
)

# A pool entry of a snapshot: the manifest plus its usage counters.
POOL_SERVICE = Record(
    *SERVICE.fields,
    opt("usage_count", INT, lambda r: r.usage_count >= 0, "negative counter"),
    opt("success_count", INT, lambda r: r.success_count >= 0, "negative counter",
        lambda r: r.success_count <= r.usage_count, "success exceeds usage"),
)

REQUEST = Record(
    req("id", STRING, attrgetter("id"), "empty id"),
    req("req_attrs", TOKENS, attrgetter("req_attrs"), "empty required attribute set"),
    req("source_port", TOKEN),
    req("sink_port", TOKEN),
    req("max_len", INT, lambda r: r.max_len >= 1, "max_len below 1"),
    opt("budget", NUMBER, lambda r: r.budget is None or r.budget >= 0, "negative budget"),
)

TEMPLATE = Record(
    req("request", Kind(lambda v: Request(**REQUEST.read(v)), REQUEST.echo)),
    opt("weight", NUMBER, lambda r: r.weight > 0.0, "profile weight must be > 0"),
)

HABITAT = Record(
    req("id", STRING),
    req("catalog", _array_of(SERVICE, ServiceManifest)),
    req("profile", _array_of(TEMPLATE, RequestTemplate)),
    view=lambda h: SimpleNamespace(id=h.id, catalog=h.services, profile=h.profile),
)

FAILURE = Record(
    req("epoch", INT),
    req("victims", Kind(lambda v: tuple(_strings(v)), list)),
)

# --- Configs ---


def _topology(v) -> TopologyParams:
    vals = TOPOLOGY.read(v)
    inject = vals.pop("inject", None)
    if inject is not None:
        vals["inject_eta"], vals["inject_at"] = inject["eta"], inject["at_step"]
    vals.setdefault("seed_vertices", max(vals.get("m", 2), 2) + 1)
    return TopologyParams(**vals)


def _scenario(v) -> ScenarioConfig:
    obj = _object(v, {"habitats", "initial_topology"})
    habitats = [HabitatSpec(f["id"], f["catalog"], f["profile"])
                for f in _get(obj, "habitats", _each, HABITAT.read)]
    topo = (_get(obj, "initial_topology", _initial_topology) if "initial_topology" in obj
            else ("ring",))
    return ScenarioConfig(habitats=habitats, initial_topology=topo)


def _config(v) -> SimConfig:
    obj = _object(v, {"seed", "epochs", "scenario", "evolution", "ecosystem", "topology",
                      "failures"})
    cfg = SimConfig(master_seed=_get(obj, "seed", INT.read), epochs=_get(obj, "epochs", INT.read))
    if "evolution" in obj:
        cfg.evolution = EvolutionParams(**_get(obj, "evolution", EVOLUTION.read))
    if "ecosystem" in obj:
        cfg.ecosystem = EcosystemParams(**_get(obj, "ecosystem", ECOSYSTEM.read))
    if "topology" in obj:
        cfg.topology = _get(obj, "topology", _topology)
    cfg.scenario = _get(obj, "scenario", _scenario)
    if "failures" in obj:
        cfg.failures = tuple(_get(obj, "failures", _array_of(FAILURE, FailureEvent).read))
    return cfg


def config_from_obj(obj, path: str = "config") -> SimConfig:
    """Build a SimConfig from a parsed JSON object, checking structure and types."""
    return read_json(obj, path, ConfigError, _config)


def config_to_obj(cfg: SimConfig) -> dict:
    """Serialize a config with every default made explicit (the echo form)."""
    scen = cfg.scenario
    obj = {
        "seed": cfg.master_seed,
        "epochs": cfg.epochs,
        "evolution": EVOLUTION.echo(cfg.evolution),
        "ecosystem": ECOSYSTEM.echo(cfg.ecosystem),
        "topology": TOPOLOGY.echo(cfg.topology),
        "scenario": {
            "initial_topology": ({"kind": "ring"} if scen.initial_topology[0] == "ring"
                                 else {"kind": "random_m", "m": scen.initial_topology[1]}),
            "habitats": [HABITAT.echo(spec) for spec in scen.habitats],
        },
    }
    if cfg.failures:
        obj["failures"] = [FAILURE.echo(f) for f in cfg.failures]
    return obj


def validate_config(config: SimConfig) -> list[str]:
    """Check every range and cross-record invariant; returns all violations."""
    bad = []
    if not (0 <= config.master_seed <= _MAX_SEED):
        bad.append("seed must be an unsigned 64-bit integer")
    if config.epochs < 1:
        bad.append("epochs must be >= 1")
    bad.extend(EVOLUTION.violations(config.evolution))
    bad.extend(ECOSYSTEM.violations(config.ecosystem))
    bad.extend(TOPOLOGY.violations(config.topology))

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
        sids = [s.id for s in h.services]
        if len(sids) != len(set(sids)):
            bad.append(f"habitat {h.id!r}: duplicate service ids")
        # migration and provenance identify a service by its id alone
        for sid in dict.fromkeys(sids):
            first = definer.setdefault(sid, h.id)
            if first != h.id:
                bad.append(f"service id {sid!r} defined by habitats {first!r} and {h.id!r}")
        for t in h.profile:
            for v in TEMPLATE.violations(t):
                bad.append(f"habitat {h.id!r}: {v}")
            for v in REQUEST.violations(t.request):
                bad.append(f"habitat {h.id!r}: request {t.request.id!r}: {v}")
        for s in h.services:
            for v in POOL_SERVICE.violations(s):
                bad.append(f"habitat {h.id!r}: service {s.id!r}: {v}")

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


# --- Run state snapshots ---


def state_to_obj(eco: Ecosystem, streams: dict, ledger: FlowLedger) -> dict:
    """Serialize the full mutable run state, exactly enough to resume."""
    habitats = []
    for hid in eco.habitat_ids():
        h = eco.habitats[hid]
        active = []
        for rid in sorted(h.active):
            st = h.active[rid]
            active.append({
                "request": rid,
                "population": [[list(ind.genome), ind.fitness] for ind in st.population],
                "gens_since_reset": st.gens_since_reset,
                "total_generations": st.total_generations,
                "pool_version": st.pool_version,
                "trace": [[k, best, mean] for k, (best, mean) in enumerate(st.trace)],
            })
        habitats.append({
            "id": hid,
            "pool": [POOL_SERVICE.echo(s) for s in h.pool],
            "provenance": {k: h.provenance[k] for k in sorted(h.provenance)},
            "pool_version": len(h.provenance),
            "active": active,
        })
    return {
        "epoch": eco.epoch,
        "streams": {hid: streams[hid].state for hid in sorted(streams)},
        "habitats": habitats,
        "connections": [[a, b, eco.connections[(a, b)]] for a, b in sorted(eco.connections)],
        "business": {
            **ledger.fixed_fields(),
            "flow_edges": [[e.src, e.dst, e.kind, e.value, e.step] for e in ledger.flow_edges],
        },
    }


def _genome(v, pool: Catalog, max_len: int) -> tuple:
    """1..max_len services of the habitat's pool."""
    for sid in _strings(v):
        if sid not in pool:
            raise _Bad(f"service {sid!r} not in the habitat's pool")
    if not 1 <= len(v) <= max_len:
        raise _Bad(f"genome length {len(v)} outside [1, max_len {max_len}]")
    return tuple(v)


def _population(rows, pool: Catalog, req: Request, params: EvolutionParams) -> list:
    """Individuals from [genome, fitness] rows. The run trusts a cached
    fitness, so each must be its genome's score; equal genomes share one
    individual, as they do in a run."""
    reads = (partial(_genome, pool=pool, max_len=req.max_len), NUMBER.read)
    known = {}
    pop = []
    for i, (genome, fitness) in enumerate(_each(rows, _row, reads)):
        ind = known.get(genome)
        if ind is None:
            ind = known[genome] = Individual(genome, evaluate_genome(genome, pool, req, params))
        if fitness != ind.fitness:
            raise _Bad(f"fitness {fitness!r} is not the genome's fitness {ind.fitness!r}", i, 1)
        pop.append(ind)
    if not pop:
        raise _Bad("expected a non-empty array")
    return pop


_TRACE_ROW = (INT.read, NUMBER.read, NUMBER.read)


def _trace(rows, total: int) -> list:
    """(best, mean) pairs from total + 1 [generation, best, mean] rows, row k of generation k."""
    rows = _each(rows, _row, _TRACE_ROW)
    if len(rows) != total + 1:
        raise _Bad(f"{len(rows)} rows for total_generations {total}: expected {total + 1}")
    for k, (generation, _, _) in enumerate(rows):
        if generation != k:
            raise _Bad(f"expected generation {k}, got {generation}", k, 0)
    return [(best, mean) for _, best, mean in rows]


def _evolution(v, pool: Catalog, templates: dict, params: EvolutionParams,
               habitat_version: int) -> tuple:
    """(request id, its ActiveEvolution); `habitat_version` is the pool version
    of its habitat, which no evolution's can exceed."""
    obj = _object(v, {"request", "population", "gens_since_reset", "total_generations",
                      "pool_version", "trace"})
    rid = _get(obj, "request", STRING.read)
    if rid not in templates:
        raise _Bad(f"evolution state for unknown request {rid!r}", "request")
    population = _get(obj, "population", _population, pool, templates[rid].request, params)
    gens_since_reset = _get(obj, "gens_since_reset", COUNT.read)
    total = _get(obj, "total_generations", COUNT.read)
    if gens_since_reset > total:
        raise _Bad(f"{gens_since_reset} exceeds total_generations {total}", "gens_since_reset")
    version = _get(obj, "pool_version", COUNT.read)
    if version > habitat_version:
        raise _Bad(f"{version} exceeds the habitat's pool version {habitat_version}",
                   "pool_version")
    return rid, ActiveEvolution(population, gens_since_reset, total, version,
                                _get(obj, "trace", _trace, total))


def _pool(v) -> Catalog:
    services = [ServiceManifest(**f) for f in _each(v, POOL_SERVICE.read)]
    for i, s in enumerate(services):
        if bad := POOL_SERVICE.violations(s):
            raise _Bad("; ".join(bad), i)
    return Catalog(services)


def _provenance(v, pool: Catalog, hid: str, specs: dict) -> dict:
    """Each migrated pool service, mapped to the other scenario habitat it came from."""
    obj = OBJECT.read(v)
    for sid, src in obj.items():
        _at(sid, STRING.read, src)
        if sid not in pool:
            raise _Bad(f"service {sid!r} not in the habitat's pool", sid)
        if src not in specs:
            raise _Bad(f"unknown source habitat {src!r}", sid)
        if src == hid:
            raise _Bad("source is the habitat itself", sid)
    return dict(obj)


def _habitat(v, specs: dict, params: EvolutionParams) -> Habitat:
    obj = _object(v, {"id", "pool", "provenance", "pool_version", "active"})
    hid = _get(obj, "id", STRING.read)
    if hid not in specs:
        raise _Bad(f"snapshot habitat {hid!r} not in scenario", "id")
    pool = _get(obj, "pool", _pool)
    h = Habitat(id=hid, pool=pool, profile=list(specs[hid].profile),
                provenance=_get(obj, "provenance", _provenance, pool, hid, specs))
    if _get(obj, "pool_version", COUNT.read) != len(h.provenance):
        raise _Bad(f"expected {len(h.provenance)}, the number of provenance entries",
                   "pool_version")
    templates = {t.request.id: t for t in h.profile}
    active = _get(obj, "active", _each, _evolution, pool, templates, params, len(h.provenance))
    for j, (rid, evolution) in enumerate(active):
        if rid in h.active:
            raise _Bad(f"a second evolution state for request {rid!r}", "active", j, "request")
        h.active[rid] = evolution
    return h


def _ecosystem(v, specs: dict, params: EvolutionParams, w_min: float) -> Ecosystem:
    habitats = _each(v, _habitat, specs, params)
    if not habitats:  # no run removes its last habitat
        raise _Bad("expected a non-empty array")
    eco = Ecosystem(habitats, w_min=w_min)
    if len(eco.habitats) < len(habitats):
        ids = [h.id for h in habitats]
        raise _Bad(f"duplicate habitat id: {min(i for i in ids if ids.count(i) > 1)!r}")
    return eco


_CONNECTION_ROW = (STRING.read, STRING.read, NUMBER.read)


def _connect(rows, eco: Ecosystem) -> None:
    for i, (a, b, w) in enumerate(_each(rows, _row, _CONNECTION_ROW)):
        if a == b:
            raise _Bad(f"self-loop connection at {a!r}", i)
        key = edge_key(a, b)
        if key in eco.connections:
            raise _Bad(f"duplicate connection {a}-{b}", i)
        if a not in eco.habitats or b not in eco.habitats:
            raise _Bad(f"connection references unknown habitat: {key}", i)
        if w < eco.w_min:
            raise _Bad(f"weight below floor on {key}", i)
        eco.add_connection(a, b, w)


def _streams(v, specs: dict) -> dict:
    streams = {}
    for hid, state in OBJECT.read(v).items():
        if hid not in specs:
            raise _Bad(f"stream for unknown habitat {hid!r}", hid)
        streams[hid] = Stream(_at(hid, STREAM_STATE.read, state))
    return streams


_FLOW_ROW = (STRING.read, STRING.read, STRING.read, NUMBER.read, INT.read)


def _flow(row, habitat_ids: set) -> FlowEdge:
    """A [src, dst, kind, value, step] row between two distinct habitats."""
    src, dst, kind, value, step = _row(row, _FLOW_ROW)
    for i, vid in enumerate((src, dst)):
        if vid not in habitat_ids:
            raise _Bad(f"unknown vertex {vid!r}", i)
    if src == dst:
        raise _Bad("flow endpoints must differ")
    if kind not in (SERVICE_FLOW, CAPITAL_FLOW):
        raise _Bad(f"unknown flow kind {kind!r}", 2)
    if value < 0.0:
        raise _Bad("negative flow value", 3)
    return FlowEdge(src, dst, kind, value, step)


def _same(v, expected) -> None:
    """`v` equals `expected` type for type, else `_Bad` at the first difference.
    A JSON 1 where 1.0 or true is expected would not re-serialize to the same
    bytes."""
    if type(expected) is list:
        _row(v, [partial(_same, expected=e) for e in expected])
    elif type(expected) is dict:
        _object(v, set(expected))
        _locate((key, partial(_same, expected=e), v.get(key)) for key, e in expected.items())
    elif type(v) is not type(expected) or v != expected:
        raise _Bad(f"expected {json.dumps(expected)}")


def _ledger(v, habitat_ids) -> FlowLedger:
    """The flow ledger; every other business field is the one a run writes."""
    ledger = FlowLedger(habitat_ids)
    fixed = ledger.fixed_fields()
    obj = _object(v, {*fixed, "flow_edges"})
    for key, expected in fixed.items():
        _get(obj, key, _same, expected)
    ledger.flow_edges = _get(obj, "flow_edges", _each, _flow, set(ledger.ids))
    return ledger


def _state(v, config: SimConfig) -> tuple:
    obj = _object(v, {"epoch", "streams", "habitats", "connections", "business"})
    specs = {spec.id: spec for spec in config.scenario.habitats}
    eco = _get(obj, "habitats", _ecosystem, specs, config.evolution, config.ecosystem.w_min)
    eco.epoch = _get(obj, "epoch", COUNT.read)
    spared = set(eco.habitats).difference(
        *(f.victims for f in config.failures if f.epoch > eco.epoch))
    if not spared:
        raise _Bad(f"the failures after epoch {eco.epoch} remove every habitat", "habitats")
    _get(obj, "connections", _connect, eco)
    streams = _get(obj, "streams", _streams, specs)
    for hid in eco.habitat_ids():
        if hid not in streams:
            raise _Bad(f"missing stream for habitat {hid!r}", "streams")
    return eco, streams, _get(obj, "business", _ledger, specs)


def state_from_obj(config: SimConfig, state: dict) -> tuple:
    """Rebuild (ecosystem, streams, ledger) from a serialized state.

    Malformed input raises SnapshotError naming the JSON path at fault,
    such as `state.habitats[0].pool[1].usage_count`. Besides its types, the
    state must hold what the run core relies on unchecked: one habitat or
    more, with distinct ids, and one the config's failures after the state's
    epoch spare; each provenance entry maps a pool service to another
    scenario habitat, and the pool version counts them; a habitat holds at
    most one evolution state per request, whose gens_since_reset is at most
    its total_generations and whose pool version is at most the habitat's;
    each trace holds total_generations + 1 rows, numbered from 0; each
    connection joins two distinct habitats of the state, once, at a weight
    >= the floor; streams belong to scenario habitats and are 64-bit;
    counters are >= 0; each cached fitness is its genome's score; the
    business fields other than flows are the ones a run writes; and flows
    join two habitats with a known kind and a value >= 0.
    """
    return read_json(state, "state", SnapshotError, _state, config)


# --- Files ---


def serialize_config(cfg: SimConfig) -> str:
    return json.dumps(config_to_obj(cfg), indent=2, sort_keys=True) + "\n"


def snapshot_to_obj(cfg: SimConfig, state: dict) -> dict:
    return {"format": SNAPSHOT_FORMAT, "config": config_to_obj(cfg), "state": state}


def serialize_snapshot(cfg: SimConfig, state: dict) -> str:
    return json.dumps(snapshot_to_obj(cfg, state), sort_keys=True,
                      separators=(",", ":")) + "\n"


def _snapshot_parts(v) -> tuple:
    """(state, config) of a snapshot object, neither read yet."""
    obj = _object(v, {"format", "config", "state"})
    for key in ("state", "config"):
        if key not in obj:
            raise _Bad("missing", key)
    return obj["state"], obj["config"]


def parse_config(path, seed_override: int | None = None) -> tuple:
    """Parse a config or snapshot file; returns (SimConfig, state or None).

    A seed override replaces the file's seed and thus appears in the echoed
    config. Range and structural violations are raised as a ConfigError
    listing every violation.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: malformed JSON: {e}") from e
    except RecursionError as e:
        raise ConfigError(f"{path}: malformed JSON: nested too deeply") from e
    state = None
    where = str(path)
    if type(data) is dict and "format" in data:
        if data["format"] != SNAPSHOT_FORMAT:
            raise ConfigError(f"{path}: unknown snapshot format {data['format']!r}")
        state, data = read_json(data, where, ConfigError, _snapshot_parts)
        where += ".config"
    cfg = config_from_obj(data, path=where)
    if seed_override is not None:
        cfg.master_seed = seed_override
    violations = validate_config(cfg)
    if violations:
        raise ConfigError("; ".join(f"{where}: {v}" for v in violations))
    return cfg, state
