"""Deterministic orchestration of whole-ecosystem simulation runs.

A run is a pure function of its configuration: every random decision comes
from a named substream of the master seed, habitats are processed in id
order, and float accumulation order is pinned, so two runs of the same
config produce byte-identical event logs and metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    where the payload pairs the kind's `EVENT_KEYS` with the values. The
    wrapper is written out by hand around the one shared encoder's payload
    text (`config.COMPACT`, whose C encoder is built once): its keys are
    already in sorted order, an epoch is an int and a kind is a code
    constant token that needs no escaping, so the bytes are those of
    `json.dumps(record, sort_keys=True, separators=(",", ":"))`. Tuples
    encode as arrays, so a value is written as the run made it.
    """
    encode = COMPACT.encode
    keys = EVENT_KEYS
    return "".join([f'{{"epoch":{ev[0]},"kind":"{ev[1]}","payload":'
                    f'{encode(dict(zip(keys[ev[1]], ev[2:])))}}}\n' for ev in events])


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
        def emit(kind, *values, _epoch=epoch_now):
            events.append((_epoch, kind, *values))

        for f in failures:
            victims = [v for v in f.victims if v in eco.habitats]
            for gone in sorted(set(f.victims) - set(victims)):
                emit("warning", f"failure victim {gone} already removed")
            if not victims:
                continue
            removed, created = failure_inject(eco, victims)
            emit("failure", removed)
            if created:
                emit("heal", created)

        deployments, migrations = run_epoch(eco, config.ecosystem, emit, shards)

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
            chain = [h.pool[sid] for sid in genome]
            record_transaction(ledger, provider, h.id, chain_price(chain), epoch_now)

        n = len(deployments)
        mean_best = total / n if n else 0.0
        rate = successes / n if n else 0.0
        clustering = clustering_statistic(eco) if len(eco.connections) >= 3 else 0.0
        metrics.append(MetricsRow(
            epoch=epoch_now,
            mean_best_fitness=mean_best,
            deployment_success_rate=rate,
            total_migrations=migrations,
            clustering_statistic=clustering,
            habitat_count=len(eco.habitats),
            connection_count=len(eco.connections),
        ))

    return events, metrics
