"""Shared builders for the test suite."""

import json
import os

import pytest

from dbesim.config import config_from_obj
from dbesim.ecosystem import Habitat, RequestTemplate, evolve_request
from dbesim.manifest import Catalog, Request, ServiceManifest
from dbesim.rng import Stream

ASSETS = os.path.join(os.path.dirname(__file__), "..", "src", "dbesim", "assets")


def load_asset_obj(name):
    with open(os.path.join(ASSETS, name), "r", encoding="utf-8") as f:
        return json.load(f)


def load_asset_config(name):
    return config_from_obj(load_asset_obj(name))


def asset_path(name):
    return os.path.join(ASSETS, name)


def svc(sid, attrs, in_port="src", out_port="dst", price=1.0, reliability=1.0,
        usage=0, success=0):
    return ServiceManifest(id=sid, attrs=frozenset(attrs), in_port=in_port,
                           out_port=out_port, price=price, reliability=reliability,
                           usage_count=usage, success_count=success)


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
        r = self.random() * sum(weights)
        acc = 0.0
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
    return Catalog(services)


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
