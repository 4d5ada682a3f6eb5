"""Service manifests, requests, and the chain fitness function.

A service manifest is the complete description of one offered service:
a set of semantic attribute tokens, an input and an output port type,
price, per-invocation reliability, and usage counters that accumulate
run-time feedback. A request states the attributes a user needs, the
endpoint port types, and a bound on chain length. Fitness scores an
ordered chain of services against a request, and a chain's price is the
sum of its members'.

This module holds the model only. Attribute and port tokens are checked
and lowercased where they are read (`config.py`) and compare by exact
equality afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_BETA = 0.3


@dataclass
class ServiceManifest:
    """One service: semantic attributes, ports, business terms, feedback counters.

    Everything except the usage counters is immutable by convention; the
    counters are bumped only by deployment feedback inside the single-writer
    epoch loop.
    """

    id: str
    attrs: frozenset[str]
    in_port: str
    out_port: str
    price: float = 0.0
    reliability: float = 1.0
    usage_count: int = 0
    success_count: int = 0

    def copy(self) -> "ServiceManifest":
        """A new manifest with every field's value; the counters are its own.
        It calls the constructor: `dataclasses.replace` costs several times as much."""
        return ServiceManifest(self.id, self.attrs, self.in_port, self.out_port, self.price,
                               self.reliability, self.usage_count, self.success_count)


@dataclass(frozen=True)
class Request:
    """A user's semantic need: required attributes, endpoint ports, length bound."""

    id: str
    req_attrs: frozenset[str]
    source_port: str
    sink_port: str
    max_len: int
    budget: float | None = None


# --- Descriptor algebra and fitness ---


def chain_descriptor(chain) -> frozenset[str]:
    """Union of the attribute sets of every chain member."""
    attrs: frozenset[str] = frozenset()
    for s in chain:
        attrs |= s.attrs
    return attrs


def coverage(chain_attrs: frozenset[str], req: Request) -> float:
    """Fraction of the request's attributes present in the chain descriptor."""
    return len(chain_attrs & req.req_attrs) / len(req.req_attrs)


def compat(chain, req: Request) -> float:
    """Fraction of satisfied port junctions along the chain, in {0..k+1}/(k+1).

    A chain of k members has k+1 junctions: request source to first input,
    each member's output to the next member's input, and last output to the
    request sink. An empty chain has compatibility 0.
    """
    chain = list(chain)
    k = len(chain)
    if k == 0:
        return 0.0
    matches = 0
    if req.source_port == chain[0].in_port:
        matches += 1
    for i in range(k - 1):
        if chain[i].out_port == chain[i + 1].in_port:
            matches += 1
    if chain[-1].out_port == req.sink_port:
        matches += 1
    return matches / (k + 1)


def surplus(chain_attrs: frozenset[str], req: Request) -> float:
    """Fraction of the chain descriptor not demanded by the request."""
    if not chain_attrs:
        return 0.0
    return len(chain_attrs - req.req_attrs) / len(chain_attrs)


def fitness(chain, req: Request, beta: float = DEFAULT_BETA) -> float:
    """Score a chain against a request in [0, 1].

    Semantic match (coverage minus beta-weighted surplus, floored at 0) is
    gated multiplicatively by port compatibility, so a structurally broken
    chain scores 0 regardless of how well its attributes match. The score
    is 1 exactly when coverage is full, there is no surplus, and every
    junction is satisfied.
    """
    if not (0.0 <= beta < 1.0):
        raise ValueError("beta must be in [0, 1)")
    chain = list(chain)
    if len(chain) > req.max_len:
        raise ValueError(f"chain length {len(chain)} exceeds max_len {req.max_len}")
    if not chain:
        return 0.0
    attrs = chain_descriptor(chain)
    semantic = coverage(attrs, req) - beta * surplus(attrs, req)
    if semantic < 0.0:
        semantic = 0.0
    return semantic * compat(chain, req)


def chain_fitness(chain: list, req: Request, beta: float) -> float:
    """`fitness` without its argument checks: the GA's evaluation kernel.

    The caller guarantees a list of at most req.max_len members and
    0 <= beta < 1. The arithmetic is `fitness`'s, operation for operation,
    so both return the same float.
    """
    k = len(chain)
    if k == 0:
        return 0.0
    attrs: frozenset[str] = frozenset()
    for s in chain:
        attrs |= s.attrs
    want = req.req_attrs
    extra = len(attrs - want) / len(attrs) if attrs else 0.0
    semantic = len(attrs & want) / len(want) - beta * extra
    if semantic < 0.0:
        semantic = 0.0
    matches = 0
    port = req.source_port
    for s in chain:  # each junction: the port offered against the member's input
        if s.in_port == port:
            matches += 1
        port = s.out_port
    if port == req.sink_port:
        matches += 1
    return semantic * (matches / (k + 1))


def chain_price(chain) -> float:
    total = 0.0
    for s in chain:
        total += s.price
    return total
