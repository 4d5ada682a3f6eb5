"""The business graph of the growth experiment, and the flow ledger of a run.

Vertices are businesses with an attractiveness score eta in (0, 1]. The
graph grows one vertex per step; each new vertex attaches m distinct edges
to existing vertices with probability proportional to eta * degree, so
well-connected and attractive businesses become hubs, and a late vertex
with higher eta can displace them. A run's ledger records typed directed
flow edges instead: a service flow from provider to client paired with a
capital flow back.
The growth functions trust their arguments, which `config.TOPOLOGY` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import Stream

SERVICE_FLOW = "service_flow"
CAPITAL_FLOW = "capital_flow"

CHUNK_LINES = 1024  # lines per chunk of `degree_lines` and `dot_lines`


@dataclass(slots=True, eq=False)
class BusinessVertex:
    id: str
    eta: float
    degree: int = 0
    birth_step: int = 0


@dataclass(frozen=True)
class FlowEdge:
    src: str
    dst: str
    kind: str
    value: float
    step: int


@dataclass(frozen=True)
class EtaDist:
    """Attractiveness distribution: uniform on (0, cap] or a fixed value."""

    kind: str  # "uniform" | "fixed"
    value: float = 1.0  # cap for uniform, the value itself for fixed

    def draw(self, rng: Stream) -> float:
        """Uniform consumes one draw and maps [0,1) onto (0, cap]; fixed consumes none."""
        if self.kind == "uniform":
            return self.value * (1.0 - rng.random())
        return self.value


class BusinessGraph:
    """Undirected attachment graph of the growth experiment.

    The sampling pool holds the vertex objects themselves, one entry per
    unit of degree, and one floor entry for a vertex of degree 0, which its
    first edge takes over, so a uniform proposal over the pool is
    proportional to max(degree, 1); an eta-acceptance step then yields
    target probability proportional to eta * max(degree, 1).

    Only `seed_business_graph` and `_add_grown_vertex` add to it, each
    vertex under a fresh id as soon as the id is made, with checked etas
    and distinct targets, so no method checks them again.
    """

    def __init__(self):
        self.vertices: dict[str, BusinessVertex] = {}
        self.attachment_edges: list[tuple] = []
        self._pool: list[BusinessVertex] = []

    def add_vertex(self, vertex_id: str, eta: float, birth_step: int) -> BusinessVertex:
        v = BusinessVertex(vertex_id, eta, 0, birth_step)
        self.vertices[vertex_id] = v
        self._pool.append(v)
        return v

    def add_attachment_edge(self, a: BusinessVertex, b: BusinessVertex) -> None:
        """Join two vertices; at degree 0 the floor entry is the first degree unit."""
        ai, bi = a.id, b.id
        self.attachment_edges.append((ai, bi) if ai < bi else (bi, ai))
        if a.degree:
            self._pool.append(a)
        a.degree += 1
        if b.degree:
            self._pool.append(b)
        b.degree += 1

    def fresh_id(self) -> str:
        """The id of the next vertex: vertices are never removed, so the
        ids run v0, v1, ... in the order of addition."""
        return f"v{len(self.vertices)}"

    def degree_rank(self, vertex_id: str) -> int:
        """Competition rank by degree: 1 + number of strictly larger degrees."""
        d = self.vertices[vertex_id].degree
        return 1 + sum(1 for v in self.vertices.values() if v.degree > d)

    def _by_id(self) -> list:
        """The vertices in id order."""
        vertices = self.vertices
        return [vertices[vid] for vid in sorted(vertices)]

    def dot_lines(self):
        """The DOT text of the graph in pieces: the header line, the vertex and
        then the edge lines in chunks of `CHUNK_LINES`, the closing line."""
        yield "graph business {\n"
        rows = self._by_id()
        for i in range(0, len(rows), CHUNK_LINES):
            yield "".join([f'  "{v.id}" [label="{v.id} eta={v.eta:.4f} k={v.degree}"];\n'
                           for v in rows[i:i + CHUNK_LINES]])
        edges = sorted(self.attachment_edges)
        for i in range(0, len(edges), CHUNK_LINES):
            yield "".join([f'  "{a}" -- "{b}";\n' for a, b in edges[i:i + CHUNK_LINES]])
        yield "}\n"

    def degree_lines(self):
        """The degree CSV text in pieces: the header line, then the
        vertex lines in chunks of `CHUNK_LINES`."""
        yield "vertex,eta,degree,birth_step\n"
        rows = self._by_id()
        for i in range(0, len(rows), CHUNK_LINES):
            yield "".join([f"{v.id},{v.eta!r},{v.degree},{v.birth_step}\n"
                           for v in rows[i:i + CHUNK_LINES]])


class FlowLedger:
    """The business side of a run. Its vertices are fixed: one per habitat,
    each with eta 1.0, degree 0 and birth step 0, and no attachment edges.
    It writes the DOT and snapshot fields a `BusinessGraph` of them would.
    """

    def __init__(self, habitat_ids):
        self.ids = sorted(habitat_ids)
        self.flow_edges: list[FlowEdge] = []

    def fixed_fields(self) -> dict:
        """The snapshot's business fields other than `flow_edges`, new on every call."""
        return {
            "vertices": [{"id": vid, "eta": 1.0, "degree": 0, "birth_step": 0} for vid in self.ids],
            "attachment_edges": [],
            "next_index": 0,
            "pool": list(self.ids),
            "floor_active": dict.fromkeys(self.ids, True),
        }

    def to_dot(self) -> str:
        vertices = [f'  "{q}" [label="{q} eta=1.0000 k=0"];' for q in map(dot_escape, self.ids)]
        return "\n".join(["graph business {", *vertices, "}"]) + "\n"

    def flows_csv(self) -> str:
        name = {vid: csv_field(vid) for vid in self.ids}  # every flow edge joins two of them
        lines = ["from,to,kind,value,step"]
        for e in self.flow_edges:
            lines.append(f"{name[e.src]},{name[e.dst]},{e.kind},{e.value!r},{e.step}")
        return "\n".join(lines) + "\n"


def dot_escape(s: str) -> str:
    """`s` inside a quoted DOT string: a backslash before each `\\` and `"`, so
    the string ends at its closing quote even if `s` ends in a backslash.
    Graphviz draws such a label as `s`, but keeps `\\\\` in a vertex name."""
    return s.replace("\\", "\\\\").replace('"', '\\"')


def csv_field(s: str) -> str:
    """`s` as an RFC 4180 field: in double quotes with each `"` doubled if it
    holds a `,`, `"`, CR or LF, else as it is."""
    return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\r\n') else s


def seed_business_graph(count: int, eta_dist: EtaDist, rng: Stream) -> BusinessGraph:
    """Fully connected seed graph of count >= 1 vertices; etas drawn in id order."""
    g = BusinessGraph()
    vs = [g.add_vertex(g.fresh_id(), eta_dist.draw(rng), 0) for _ in range(count)]
    for i in range(count):
        for j in range(i + 1, count):
            g.add_attachment_edge(vs[i], vs[j])
    return g


def _add_grown_vertex(g: BusinessGraph, eta: float, step: int, m: int,
                      rng: Stream) -> BusinessVertex:
    """Add one vertex born at `step` with m distinct targets, each drawn
    with probability proportional to eta * max(degree, 1).

    Per target, repeats (proposal draw `below(len(pool))`; if already a
    target, redraw; else acceptance draw `random()`) until a proposal
    passes its eta acceptance test. The targets are all drawn before the
    vertex is added, so the pool is fixed while they are drawn. The
    acceptance draw is `random()` written out on `next_u64`, and a vertex
    is in `targets` by identity (`BusinessVertex` has `eq=False`).
    """
    pool = g._pool
    n = len(pool)
    below, nxt = rng.below, rng.next_u64
    targets: list[BusinessVertex] = []
    for _ in range(m):
        t = pool[below(n)]
        while t in targets or (nxt() >> 11) * 2.0**-53 >= t.eta:
            t = pool[below(n)]
        targets.append(t)
    v = g.add_vertex(g.fresh_id(), eta, step)
    for t in targets:
        g.add_attachment_edge(v, t)
    return v


def grow(g: BusinessGraph, steps: int, m: int, eta_dist: EtaDist, rng: Stream) -> None:
    """Add `steps` vertices with m preferential edges each.

    Per step: one eta draw (uniform only), then per target a proposal /
    acceptance draw sequence. 1 <= m <= the vertex count of `g`, or the
    target draw of a step never ends.
    """
    base = max((v.birth_step for v in g.vertices.values()), default=0)
    for step in range(base + 1, base + steps + 1):
        _add_grown_vertex(g, eta_dist.draw(rng), step, m, rng)


def inject_and_track(g: BusinessGraph, eta_star: float, at_step: int, total_steps: int,
                     m: int, eta_dist: EtaDist, rng: Stream) -> list:
    """Grow for total_steps, inserting one extra vertex with eta_star at at_step.

    The injected vertex is added just before the regular vertex of that
    step and consumes no eta draw. Returns the injected vertex's
    (step, degree rank) at every checkpoint (every total_steps // 20
    steps) from the injection onward, always including the final step.
    1 <= at_step < total_steps, and m is as for `grow`.
    """
    every = max(1, total_steps // 20)
    injected_id = None
    trajectory = []
    for step in range(1, total_steps + 1):
        if step == at_step:
            injected_id = _add_grown_vertex(g, eta_star, step, m, rng).id
        _add_grown_vertex(g, eta_dist.draw(rng), step, m, rng)
        if injected_id is not None and (step % every == 0 or step == total_steps):
            trajectory.append((step, g.degree_rank(injected_id)))
    return trajectory


def record_transaction(ledger: FlowLedger, provider: str, client: str, value: float,
                       step: int) -> None:
    """Append the paired flow edges of one transaction.

    A service flow runs provider -> client and a capital flow client ->
    provider, both carrying the same value and step. The endpoints are
    distinct habitats of `ledger` and the value is >= 0.
    """
    ledger.flow_edges.append(FlowEdge(provider, client, SERVICE_FLOW, value, step))
    ledger.flow_edges.append(FlowEdge(client, provider, CAPITAL_FLOW, value, step))
