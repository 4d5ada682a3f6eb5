"""Strict JSON configuration schema for simulation runs.

Unknown keys are rejected everywhere with path-qualified messages: a
silently ignored typo in a simulation config is a reproducibility bug.
Absent optional sections fall back to defaults, and the fully resolved
config can be serialized back out (the echo round-trips to an identical
config). A snapshot file embeds a resolved config plus the serialized run
state and is accepted wherever a config is, resuming the run.
"""

from __future__ import annotations

import json
from dataclasses import replace

from .ecosystem import EcosystemParams, RequestTemplate
from .engine import (
    FailureEvent,
    HabitatSpec,
    ScenarioConfig,
    SimConfig,
    SNAPSHOT_FORMAT,
    TopologyParams,
    validate_config,
)
from .evolution import EvolutionParams
from .manifest import (
    ManifestError,
    request_from_obj,
    request_to_obj,
    service_from_obj,
    service_to_obj,
)
from .topology import EtaDist


class ConfigError(ValueError):
    pass


def _check_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    allowed = set(required) | set(optional)
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key {sorted(unknown)[0]!r}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing key {sorted(missing)[0]!r}")


def _get_int(obj, key, path):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer")
    return v


def _get_number(obj, key, path):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number")
    return float(v)


def _get_str(obj, key, path):
    v = obj[key]
    if not isinstance(v, str) or not v:
        raise ConfigError(f"{path}.{key}: expected a non-empty string")
    return v


def _get_list(obj, key, path):
    v = obj[key]
    if not isinstance(v, list):
        raise ConfigError(f"{path}.{key}: expected an array")
    return v


_EVOLUTION_KEYS = ("population_size", "max_generations", "tournament_size",
                   "crossover_rate", "mutation_rate", "elitism", "beta", "gamma",
                   "target_fitness", "generation_budget_per_epoch")
_ECOSYSTEM_KEYS = ("p_mig", "reinforce_delta", "decay_lambda", "w_min")


def _parse_evolution(obj, path) -> tuple:
    _check_keys(obj, path, (), _EVOLUTION_KEYS)
    budget = 20
    if "generation_budget_per_epoch" in obj:
        budget = _get_int(obj, "generation_budget_per_epoch", path)
    kwargs = {}
    for key, is_int in (("population_size", True), ("max_generations", True),
                        ("tournament_size", True), ("elitism", True),
                        ("crossover_rate", False), ("mutation_rate", False),
                        ("beta", False), ("gamma", False), ("target_fitness", False)):
        if key in obj:
            kwargs[key] = _get_int(obj, key, path) if is_int else _get_number(obj, key, path)
    return replace(EvolutionParams(), **kwargs), budget


def _parse_ecosystem(obj, path) -> EcosystemParams:
    _check_keys(obj, path, (), _ECOSYSTEM_KEYS)
    kwargs = {k: _get_number(obj, k, path) for k in _ECOSYSTEM_KEYS if k in obj}
    return EcosystemParams(**kwargs)


def _parse_eta(obj, path) -> EtaDist:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{path}: expected an object with a 'kind' key")
    kind = _get_str(obj, "kind", path)
    if kind == "uniform":
        _check_keys(obj, path, ("kind",), ("cap",))
        cap = _get_number(obj, "cap", path) if "cap" in obj else 1.0
        return EtaDist("uniform", cap)
    if kind == "fixed":
        _check_keys(obj, path, ("kind", "value"))
        return EtaDist("fixed", _get_number(obj, "value", path))
    raise ConfigError(f"{path}.kind: unknown eta distribution {kind!r}")


def _parse_topology(obj, path) -> TopologyParams:
    _check_keys(obj, path, (), ("steps", "m", "seed_vertices", "eta", "inject"))
    defaults = TopologyParams()
    steps = _get_int(obj, "steps", path) if "steps" in obj else defaults.steps
    m = _get_int(obj, "m", path) if "m" in obj else defaults.m
    seed_vertices = (_get_int(obj, "seed_vertices", path)
                     if "seed_vertices" in obj else max(m, defaults.m) + 1)
    eta = _parse_eta(obj["eta"], f"{path}.eta") if "eta" in obj else defaults.eta
    inject_eta = inject_at = None
    if "inject" in obj:
        iobj = obj["inject"]
        _check_keys(iobj, f"{path}.inject", ("eta", "at_step"))
        inject_eta = _get_number(iobj, "eta", f"{path}.inject")
        inject_at = _get_int(iobj, "at_step", f"{path}.inject")
    return TopologyParams(steps=steps, m=m, seed_vertices=seed_vertices, eta=eta,
                          inject_eta=inject_eta, inject_at=inject_at)


def _parse_scenario(obj, path) -> ScenarioConfig:
    _check_keys(obj, path, ("habitats",), ("initial_topology",))
    topo = ("ring",)
    if "initial_topology" in obj:
        tobj = obj["initial_topology"]
        if not isinstance(tobj, dict) or "kind" not in tobj:
            raise ConfigError(f"{path}.initial_topology: expected an object with 'kind'")
        kind = _get_str(tobj, "kind", f"{path}.initial_topology")
        if kind == "ring":
            _check_keys(tobj, f"{path}.initial_topology", ("kind",))
            topo = ("ring",)
        elif kind == "random_m":
            _check_keys(tobj, f"{path}.initial_topology", ("kind", "m"))
            topo = ("random_m", _get_int(tobj, "m", f"{path}.initial_topology"))
        else:
            raise ConfigError(f"{path}.initial_topology.kind: unknown kind {kind!r}")
    habitats = []
    for i, hobj in enumerate(_get_list(obj, "habitats", path)):
        hpath = f"{path}.habitats[{i}]"
        _check_keys(hobj, hpath, ("id", "catalog", "profile"))
        hid = _get_str(hobj, "id", hpath)
        try:
            services = [service_from_obj(s, f"{hpath}.catalog[{j}]")
                        for j, s in enumerate(_get_list(hobj, "catalog", hpath))]
            profile = []
            for j, tobj in enumerate(_get_list(hobj, "profile", hpath)):
                tpath = f"{hpath}.profile[{j}]"
                _check_keys(tobj, tpath, ("request",), ("weight",))
                weight = _get_number(tobj, "weight", tpath) if "weight" in tobj else 1.0
                profile.append(RequestTemplate(
                    request_from_obj(tobj["request"], f"{tpath}.request"),
                    weight,
                ))
        except ManifestError as e:
            raise ConfigError(str(e)) from e
        habitats.append(HabitatSpec(id=hid, services=services, profile=profile))
    return ScenarioConfig(habitats=habitats, initial_topology=topo)


def _parse_failures(arr, path) -> tuple:
    failures = []
    for i, fobj in enumerate(arr):
        fpath = f"{path}[{i}]"
        _check_keys(fobj, fpath, ("epoch", "victims"))
        victims = _get_list(fobj, "victims", fpath)
        for v in victims:
            if not isinstance(v, str):
                raise ConfigError(f"{fpath}.victims: expected habitat id strings")
        failures.append(FailureEvent(_get_int(fobj, "epoch", fpath), tuple(victims)))
    return tuple(failures)


def config_from_obj(obj, path: str = "config") -> SimConfig:
    """Build a resolved SimConfig from a parsed JSON object (strict)."""
    _check_keys(obj, path, ("seed", "epochs", "scenario"),
                ("evolution", "ecosystem", "topology", "failures"))
    seed = _get_int(obj, "seed", path)
    epochs = _get_int(obj, "epochs", path)
    evolution, budget = (_parse_evolution(obj["evolution"], f"{path}.evolution")
                         if "evolution" in obj else (EvolutionParams(), 20))
    ecosystem = (_parse_ecosystem(obj["ecosystem"], f"{path}.ecosystem")
                 if "ecosystem" in obj else EcosystemParams())
    topology = (_parse_topology(obj["topology"], f"{path}.topology")
                if "topology" in obj else TopologyParams())
    scenario = _parse_scenario(obj["scenario"], f"{path}.scenario")
    failures = (_parse_failures(_get_list(obj, "failures", path), f"{path}.failures")
                if "failures" in obj else ())
    return SimConfig(master_seed=seed, epochs=epochs,
                     generation_budget_per_epoch=budget, evolution=evolution,
                     ecosystem=ecosystem, topology=topology, scenario=scenario,
                     failures=failures)


def config_to_obj(cfg: SimConfig) -> dict:
    """Serialize a config with every default made explicit (the echo form)."""
    evo = cfg.evolution
    topo = cfg.topology
    obj = {
        "seed": cfg.master_seed,
        "epochs": cfg.epochs,
        "evolution": {
            "population_size": evo.population_size,
            "max_generations": evo.max_generations,
            "tournament_size": evo.tournament_size,
            "crossover_rate": evo.crossover_rate,
            "mutation_rate": evo.mutation_rate,
            "elitism": evo.elitism,
            "beta": evo.beta,
            "gamma": evo.gamma,
            "target_fitness": evo.target_fitness,
            "generation_budget_per_epoch": cfg.generation_budget_per_epoch,
        },
        "ecosystem": {
            "p_mig": cfg.ecosystem.p_mig,
            "reinforce_delta": cfg.ecosystem.reinforce_delta,
            "decay_lambda": cfg.ecosystem.decay_lambda,
            "w_min": cfg.ecosystem.w_min,
        },
        "topology": {
            "steps": topo.steps,
            "m": topo.m,
            "seed_vertices": topo.seed_vertices,
            "eta": ({"kind": "uniform", "cap": topo.eta.value}
                    if topo.eta.kind == "uniform"
                    else {"kind": "fixed", "value": topo.eta.value}),
        },
        "scenario": {
            "initial_topology": ({"kind": "ring"}
                                 if cfg.scenario.initial_topology[0] == "ring"
                                 else {"kind": "random_m",
                                       "m": cfg.scenario.initial_topology[1]}),
            "habitats": [
                {
                    "id": spec.id,
                    "catalog": [service_to_obj(s) for s in spec.services],
                    "profile": [
                        {"weight": t.weight, "request": request_to_obj(t.request)}
                        for t in spec.profile
                    ],
                }
                for spec in cfg.scenario.habitats
            ],
        },
    }
    if topo.inject_eta is not None:
        obj["topology"]["inject"] = {"eta": topo.inject_eta, "at_step": topo.inject_at}
    if cfg.failures:
        obj["failures"] = [
            {"epoch": f.epoch, "victims": list(f.victims)} for f in cfg.failures
        ]
    return obj


def serialize_config(cfg: SimConfig) -> str:
    return json.dumps(config_to_obj(cfg), indent=2, sort_keys=True) + "\n"


def snapshot_to_obj(cfg: SimConfig, state: dict) -> dict:
    return {"format": SNAPSHOT_FORMAT, "config": config_to_obj(cfg), "state": state}


def serialize_snapshot(cfg: SimConfig, state: dict) -> str:
    return json.dumps(snapshot_to_obj(cfg, state), sort_keys=True,
                      separators=(",", ":")) + "\n"


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
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    state = None
    if "format" in data:
        if data["format"] != SNAPSHOT_FORMAT:
            raise ConfigError(f"{path}: unknown snapshot format {data['format']!r}")
        _check_keys(data, str(path), ("format", "config", "state"))
        state = data["state"]
        data = data["config"]
    cfg = config_from_obj(data, path=str(path))
    if seed_override is not None:
        cfg.master_seed = seed_override
    violations = validate_config(cfg)
    if violations:
        raise ConfigError("; ".join(f"{path}: {v}" for v in violations))
    return cfg, state
