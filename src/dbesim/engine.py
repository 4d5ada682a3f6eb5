"""Deterministic orchestration of whole-ecosystem simulation runs.

A run is a pure function of its configuration: every random decision comes
from a named substream of the master seed, habitats are processed in id
order, and float accumulation order is pinned, so two runs of the same
config produce byte-identical event logs and metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from math import inf
from typing import NamedTuple

from .config import (  # noqa: F401  (SnapshotError and validate_config are re-exported)
    COMPACT,
    SimConfig,
    SnapshotError,
    state_from_obj,
    state_to_obj,
    validate_config,
)
from .ecosystem import (
    Ecosystem,
    build_ecosystem,
    clustering_statistic,
    failure_inject,
    run_epoch,
)
from .manifest import chain_price
from .rng import Stream, derive_substream
from .topology import FlowLedger, record_transaction


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


# The payload keys of each event kind, in the order of the values that follow
# an event's (epoch, kind). A warning's habitat is optional, so it comes last:
# a shorter event leaves off trailing keys.
EVENT_KEYS = {
    "request_sampled": ("habitat", "request"),
    "deployment": ("habitat", "request", "chain", "fitness", "success"),
    "reinforcement": ("a", "b", "service", "weight"),
    "migration": ("service", "source", "destination"),
    "failure": ("victims",),
    "heal": ("created",),
    "warning": ("message", "habitat"),
}


class MetricsRow(NamedTuple):
    """One row of `metrics.csv`; the field names are its header."""

    epoch: int
    mean_best_fitness: float
    deployment_success_rate: float
    total_migrations: int
    clustering_statistic: float
    habitat_count: int
    connection_count: int


def serialize_events(events) -> str:
    """Event log as JSON Lines (UTF-8, LF); an event is an (epoch, kind, *values) tuple.

    Each line is the compact, key-sorted JSON of {"epoch", "kind", "payload"},
    where the payload pairs the kind's `EVENT_KEYS` with the values: the
    bytes of `json.dumps(record, sort_keys=True, separators=(",", ":"))`.
    An epoch is an int and a kind a code constant token that needs no
    escaping, so the wrapper is written out by hand.

    The four kinds that make up nearly every log (`request_sampled`,
    `deployment`, `reinforcement`, `migration`) are each written with one
    f-string whose payload keys are spelled out in sorted order. Each id is
    escaped where it is written (`encode_basestring_ascii`), a chain is the
    array of its escaped ids, a float is written by `float.__repr__` and a
    bool as `true`/`false`, as the JSON encoder writes them. An event whose
    values could come out otherwise takes the generic line: the one shared
    encoder's text of the payload dict (`config.COMPACT`). Those are a
    fitness or weight that is not a finite `float`, a success that is not
    `True` or `False` and a chain that is not a tuple, as well as every
    `failure`, `heal` and `warning` event. An id that is not a string, in a
    chain or not, gets there through the escaper's `TypeError`. So an
    unserializable value raises the stdlib's `TypeError`.
    """
    encode = COMPACT.encode
    keys = EVENT_KEYS
    esc = encode_basestring_ascii
    lines = []
    append = lines.append
    for ev in events:
        kind = ev[1]
        try:
            if kind == "request_sampled":
                append(f'{{"epoch":{ev[0]},"kind":"request_sampled","payload":'
                       f'{{"habitat":{esc(ev[2])},"request":{esc(ev[3])}}}}}\n')
                continue
            elif kind == "deployment":
                epoch, _, habitat, request, chain, fitness, success = ev
                if (type(chain) is tuple and type(fitness) is float
                        and -inf < fitness < inf and (success is True or success is False)):
                    append(f'{{"epoch":{epoch},"kind":"deployment","payload":'
                           f'{{"chain":[{",".join(map(esc, chain))}],"fitness":{fitness!r},'
                           f'"habitat":{esc(habitat)},"request":{esc(request)},'
                           f'"success":{"true" if success else "false"}}}}}\n')
                    continue
            elif kind == "reinforcement":
                epoch, _, a, b, service, weight = ev
                if type(weight) is float and -inf < weight < inf:
                    append(f'{{"epoch":{epoch},"kind":"reinforcement","payload":'
                           f'{{"a":{esc(a)},"b":{esc(b)},"service":{esc(service)},'
                           f'"weight":{weight!r}}}}}\n')
                    continue
            elif kind == "migration":
                append(f'{{"epoch":{ev[0]},"kind":"migration","payload":'
                       f'{{"destination":{esc(ev[4])},"service":{esc(ev[2])},'
                       f'"source":{esc(ev[3])}}}}}\n')
                continue
        except TypeError:  # a value the generic line is to write
            pass
        append(f'{{"epoch":{ev[0]},"kind":"{kind}","payload":'
               f'{encode(dict(zip(keys[kind], ev[2:])))}}}\n')
    return "".join(lines)


def serialize_metrics(rows) -> str:
    """`metrics.csv`: the header, then each row's values as their `repr`."""
    lines = [",".join(MetricsRow._fields)]
    lines.extend(",".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


# --- The run loop ---


@dataclass
class RunResult:
    events: list
    metrics: list
    eco: Ecosystem
    ledger: FlowLedger
    streams: dict
    workers: int  # the processes that stepped the habitats, the main one included

    def final_state(self) -> dict:
        return state_to_obj(self.eco, self.streams, self.ledger)


def build_run_state(config: SimConfig) -> tuple:
    """Fresh (ecosystem, streams, ledger) for a run, derived from the config."""
    habitats = [spec.build() for spec in config.scenario.habitats]
    build_rng = derive_substream(config.master_seed, "build")
    eco = build_ecosystem(habitats, config.scenario.initial_topology, build_rng,
                          w_min=config.ecosystem.w_min)
    streams = {hid: derive_substream(config.master_seed, f"habitat:{hid}")
               for hid in eco.habitat_ids()}
    return eco, streams, FlowLedger(eco.habitat_ids())


def run(config: SimConfig, state: dict | None = None, workers: int = 1) -> RunResult:
    """Execute the epoch loop from a fresh build or a restored snapshot state.

    Per epoch: apply scheduled failures, run the ecosystem epoch, record a
    transaction pair for each successful deployment whose provider habitat
    differs from the requesting one, and append one metrics row. Means are
    accumulated in habitat-id order.

    The habitats' steps of each epoch run through `shards.Shards` on
    `workers` processes, the main one included, but at most one per habitat
    present (`RunResult.workers`); the outputs are the same for every count.
    The default, one, forks nothing, so every draw is made where the
    caller's `Stream` objects live. With more, each worker draws on its own
    copies of its shard's streams, and their final states are set on the
    caller's objects when the run ends.

    Precondition: a config that `parse_config` returned, or one that
    `validate_config` returned `[]` for. The run core does not check it
    again. A snapshot state is checked as it is read (`SnapshotError`).
    """
    from .shards import Shards  # only `run` loads it, not the other commands

    if state is None:
        eco, streams, ledger = build_run_state(config)
    else:
        eco, streams, ledger = state_from_obj(config, state)
    schedule = {e: [] for e in range(eco.epoch + 1, config.epochs + 1)}  # epoch -> failures
    for f in config.failures:
        if f.epoch in schedule:
            schedule[f.epoch].append(f)
    leaving = [{v for f in failures for v in f.victims} for failures in schedule.values()]
    with Shards(eco, streams, config.evolution, simulate_execution, config.ecosystem.p_mig,
                workers, leaving) as shards:
        events, metrics = _epochs(config, eco, ledger, shards, schedule)
        shards.collect()
    return RunResult(events=events, metrics=metrics, eco=eco, ledger=ledger, streams=streams,
                     workers=1 + len(shards.shards))


def _epochs(config: SimConfig, eco: Ecosystem, ledger: FlowLedger, shards, schedule: dict) -> tuple:
    """The epoch loop of `run` over `schedule`, each epoch still to run and
    its failures; returns (events, metrics rows)."""
    events: list[tuple] = []
    metrics: list[MetricsRow] = []
    for epoch_now, failures in schedule.items():
        for f in failures:
            victims = [v for v in f.victims if v in eco.habitats]
            for gone in sorted(set(f.victims) - set(victims)):
                events.append((epoch_now, "warning", f"failure victim {gone} already removed"))
            if not victims:
                continue
            removed, created = failure_inject(eco, victims)
            events.append((epoch_now, "failure", removed))
            if created:
                events.append((epoch_now, "heal", created))

        deployments, migrations = run_epoch(eco, config.ecosystem, events, shards)

        total = 0.0
        successes = 0
        for h, genome, fitness, success, _ in deployments:
            total += fitness
            if not success:
                continue
            successes += 1
            provider = h.provenance.get(genome[0], h.id)
            if provider == h.id:
                continue  # native first service: no inter-habitat transaction
            price = chain_price([h.pool[sid] for sid in genome])
            record_transaction(ledger, provider, h.id, price, epoch_now)

        n = len(deployments)
        mean_best = total / n if n else 0.0
        rate = successes / n if n else 0.0
        clustering = clustering_statistic(eco) if len(eco.connections) >= 3 else 0.0
        metrics.append(MetricsRow(epoch_now, mean_best, rate, migrations, clustering,
                                  len(eco.habitats), len(eco.connections)))

    return events, metrics
