"""Shared builders for the test suite."""

import json
import os

import pytest
from hypothesis import settings

from dbesim.config import config_from_obj
from dbesim.ecosystem import Habitat, RequestTemplate, evolve_request
from dbesim.engine import EVENT_KEYS
from dbesim.manifest import Request, ServiceManifest
from dbesim.rng import Stream

# Every property test draws the same examples on every run, and no example
# database carries failures from one run into the next: a tier-1 verdict does
# not depend on the run. Each test keeps its own `max_examples`.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

ASSETS = os.path.join(os.path.dirname(__file__), "..", "src", "dbesim", "assets")


def load_asset_obj(name):
    with open(os.path.join(ASSETS, name), "r", encoding="utf-8") as f:
        return json.load(f)


def load_asset_config(name):
    return config_from_obj(load_asset_obj(name))


def asset_path(name):
    return os.path.join(ASSETS, name)


def payload(event):
    """An event's payload: its kind's `EVENT_KEYS` paired with its values."""
    return dict(zip(EVENT_KEYS[event[1]], event[2:]))


def as_tuples(value):
    """`value` with every list or tuple in it a tuple, at any depth: JSON has
    one array type, so an event read back compares with one made this way."""
    if isinstance(value, (list, tuple)):
        return tuple(as_tuples(v) for v in value)
    return value


def read_events(path):
    """The events of an `events.jsonl`, read strictly by `EVENT_KEYS`.

    Each line's keys are exactly epoch, kind and payload, and its payload's
    are exactly its kind's keys, or a warning's message alone. Each event is
    rebuilt as the tuple (epoch, kind, *values), with every array a tuple.
    """
    events = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            record = json.loads(line)
            assert sorted(record) == ["epoch", "kind", "payload"], line
            kind, values = record["kind"], record["payload"]
            keys = EVENT_KEYS[kind]
            if kind == "warning" and len(values) == 1:  # no habitat
                keys = keys[:1]
            assert sorted(values) == sorted(keys), line
            events.append((record["epoch"], kind, *(as_tuples(values[k]) for k in keys)))
    return events


def svc(sid, attrs, in_port="src", out_port="dst", price=1.0, reliability=1.0,
        usage=0, success=0):
    return ServiceManifest(id=sid, attrs=frozenset(attrs), in_port=in_port,
                           out_port=out_port, price=price, reliability=reliability,
                           usage_count=usage, success_count=success)


def pool_of(services):
    """A habitat's pool of the services: id -> manifest, in their order."""
    return {s.id: s for s in services}


def req(rid="r", attrs=("a",), source="src", sink="dst", max_len=3, budget=None):
    return Request(id=rid, req_attrs=frozenset(attrs), source_port=source,
                   sink_port=sink, max_len=max_len, budget=budget)


def evolve(catalog, request, params, rng):
    """One whole evolution of `request` on `catalog`, as `dbesim evolve` runs it.

    A fresh habitat evolves until target fitness or max_generations.
    Returns (best individual, trace rows: (best, mean) fitness of generation
    0, 1, ...).
    """
    h = Habitat("h", catalog, [RequestTemplate(request)])
    best = evolve_request(h, request, params, rng, params.max_generations)
    return best, h.active[request.id].trace


class Scripted:
    """Duck-typed stream with scripted draws, for hand-traced operator tests."""

    def __init__(self, belows=(), randoms=()):
        self.belows = list(belows)
        self.randoms = list(randoms)

    def below(self, n):
        v = self.belows.pop(0)
        assert 0 <= v < n, f"scripted below({n}) value {v} out of range"
        return v

    def random(self):
        return self.randoms.pop(0)

    def weighted_index(self, weights):
        # same single-draw contract as the real stream
        return reference_weighted_index(weights, self.random())


def reference_weighted_index(weights, u):
    """The index `Stream.weighted_index` returns when its draw is u, as a
    two-pass loop: the total, summed left to right, then a walk to the
    first running sum above u times the total, or the last index if none
    is."""
    total = 0.0
    for w in weights:
        total += w
    r, acc = u * total, 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


def random_catalog(rng: Stream, n_services=None, attr_pool=("a", "b", "c", "d", "e", "f"),
                   port_pool=("p0", "p1", "p2")):
    """Random small catalog for property and oracle-dominance tests."""
    if n_services is None:
        n_services = 3 + rng.below(6)
    services = []
    for i in range(n_services):
        k = 1 + rng.below(2)
        attrs = set()
        while len(attrs) < k:
            attrs.add(attr_pool[rng.below(len(attr_pool))])
        services.append(svc(
            f"s{i:02d}", attrs,
            in_port=port_pool[rng.below(len(port_pool))],
            out_port=port_pool[rng.below(len(port_pool))],
            price=float(1 + rng.below(5)),
            reliability=0.5 + 0.5 * rng.random(),
        ))
    return pool_of(services)


def random_request(rng: Stream, attr_pool=("a", "b", "c", "d", "e", "f"),
                   port_pool=("p0", "p1", "p2"), max_len=3):
    k = 1 + rng.below(3)
    attrs = set()
    while len(attrs) < k:
        attrs.add(attr_pool[rng.below(len(attr_pool))])
    return req("rnd", attrs,
               source=port_pool[rng.below(len(port_pool))],
               sink=port_pool[rng.below(len(port_pool))],
               max_len=max_len)


@pytest.fixture
def tmp_out(tmp_path):
    return str(tmp_path / "out")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process unreaped, running or exited:
    every process `dbesim` forks must be reaped before it returns."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left child process {pid or '(still running)'} unreaped")
