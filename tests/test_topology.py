"""Business graph growth kernel, the flow ledger, and exports."""

import copy
import math

import pytest

from dbesim.config import TOPOLOGY, TopologyParams
from dbesim.rng import derive_substream
from dbesim.topology import (
    CAPITAL_FLOW,
    SERVICE_FLOW,
    BusinessGraph,
    EtaDist,
    FlowLedger,
    grow,
    inject_and_track,
    record_transaction,
    seed_business_graph,
)


def fixed(v):
    return EtaDist("fixed", v)


# --- construction and conservation ---

def test_seed_graph_fully_connected():
    g = seed_business_graph(4, fixed(0.5), derive_substream(0, "seed"))
    assert len(g.vertices) == 4
    assert len(g.attachment_edges) == 6
    assert all(v.degree == 3 for v in g.vertices.values())


def test_single_step_m1_adds_one_edge():
    g = seed_business_graph(2, fixed(0.5), derive_substream(1, "seed"))
    grow(g, 1, 1, fixed(0.5), derive_substream(1, "grow"))
    assert len(g.vertices) == 3
    assert len(g.attachment_edges) == 2  # one seed edge plus one new
    assert g.vertices["v2"].degree == 1


def test_growth_conservation():
    for seed in range(5):
        g = seed_business_graph(3, fixed(0.4), derive_substream(seed, "seed"))
        grow(g, 50, 2, EtaDist("uniform", 1.0), derive_substream(seed, "grow"))
        assert len(g.vertices) == 3 + 50
        assert len(g.attachment_edges) == 3 + 50 * 2


def test_growth_conservation_with_injection():
    g = seed_business_graph(3, fixed(0.4), derive_substream(9, "seed"))
    inject_and_track(g, 1.0, 10, 40, 2, EtaDist("uniform", 1.0),
                     derive_substream(9, "grow"))
    assert len(g.vertices) == 3 + 40 + 1
    assert len(g.attachment_edges) == 3 + 40 * 2 + 2


def test_degrees_consistent_with_edge_multiset():
    g = seed_business_graph(3, fixed(0.4), derive_substream(10, "seed"))
    grow(g, 100, 2, EtaDist("uniform", 0.5), derive_substream(10, "grow"))
    recount = {vid: 0 for vid in g.vertices}
    for a, b in g.attachment_edges:
        recount[a] += 1
        recount[b] += 1
    for vid, v in g.vertices.items():
        assert v.degree == recount[vid]


def test_eta_dist_validation():
    def violations(eta):
        return TOPOLOGY.violations(TopologyParams(eta=eta))

    assert violations(EtaDist("uniform", 0.5)) == []
    assert violations(EtaDist("fixed", 1.0)) == []
    assert violations(EtaDist("weird", 0.5)) == ["unknown eta distribution kind: 'weird'"]
    assert violations(EtaDist("uniform", 0.0))
    assert violations(EtaDist("fixed", 1.5))


def test_eta_uniform_draw_in_half_open_interval():
    dist = EtaDist("uniform", 0.5)
    rng = derive_substream(3, "eta")
    for _ in range(2000):
        v = dist.draw(rng)
        assert 0.0 < v <= 0.5


# --- attachment kernel ---

def _single_step_target(g, rng):
    """Target chosen by one m=1 growth step on a scratch copy."""
    scratch = copy.deepcopy(g)
    before = set(scratch.vertices)
    grow(scratch, 1, 1, fixed(1.0), rng)
    new_vid = (set(scratch.vertices) - before).pop()
    for a, b in scratch.attachment_edges:
        if a == new_vid:
            return b
        if b == new_vid:
            return a
    raise AssertionError("no edge added")


def _kernel_frequencies(g, draws, label):
    counts = {vid: 0 for vid in g.vertices}
    for i in range(draws):
        counts[_single_step_target(g, derive_substream(i, label))] += 1
    return counts


def _assert_multinomial(counts, expected_p, draws):
    for vid, c in counts.items():
        p = expected_p[vid]
        sigma = math.sqrt(draws * p * (1 - p))
        assert abs(c - draws * p) < 3.8 * sigma, (vid, c, draws * p)


def test_fixed_eta_reduces_to_degree_attachment():
    # With equal eta the kernel is plain preferential attachment.
    g = seed_business_graph(3, fixed(1.0), derive_substream(20, "seed"))
    grow(g, 5, 1, fixed(1.0), derive_substream(20, "grow"))
    total = sum(v.degree for v in g.vertices.values())
    expected = {vid: v.degree / total for vid, v in g.vertices.items()}
    draws = 4000
    counts = _kernel_frequencies(g, draws, "kern-fixed")
    _assert_multinomial(counts, expected, draws)


def test_mixed_eta_kernel_proportional_to_eta_times_degree():
    g = seed_business_graph(3, fixed(1.0), derive_substream(21, "seed"))
    grow(g, 4, 2, fixed(1.0), derive_substream(21, "grow"))
    etas = {"v0": 1.0, "v1": 0.2, "v2": 0.6, "v3": 0.9, "v4": 0.4, "v5": 0.7, "v6": 0.3}
    for vid, eta in etas.items():
        g.vertices[vid].eta = eta
    weights = {vid: v.eta * max(v.degree, 1) for vid, v in g.vertices.items()}
    total = sum(weights.values())
    expected = {vid: w / total for vid, w in weights.items()}
    draws = 4000
    counts = _kernel_frequencies(g, draws, "kern-mixed")
    _assert_multinomial(counts, expected, draws)


def test_isolated_seed_gets_degree_floor():
    # A single seed vertex has no edges; the floor makes it reachable.
    g = seed_business_graph(1, fixed(1.0), derive_substream(22, "seed"))
    grow(g, 1, 1, fixed(1.0), derive_substream(22, "grow"))
    assert g.vertices["v0"].degree == 1


def bianconi_barabasi_constant(cap: float = 1.0) -> float:
    """C solving the integral over (0, cap] of rho(eta) / (C/eta - 1) = 1 for
    eta uniform on (0, cap], by bisection on (cap, 2 cap].

    The integral is (C/cap) ln(C/(C - cap)) - 1, which falls from infinity
    at C = cap to 2 ln 2 - 1 < 1 at C = 2 cap.
    """
    lo, hi = cap, 2.0 * cap
    for _ in range(100):
        c = (lo + hi) / 2
        if c / cap * math.log(c / (c - cap)) - 1.0 > 1.0:
            lo = c
        else:
            hi = c
    return (lo + hi) / 2


def test_growth_normaliser_matches_bianconi_barabasi():
    """Sum of eta * k over the vertices grows as C * m * t (Bianconi and
    Barabasi, "Competition and multiscaling in evolving networks", EPL 54:436,
    2001), which tests the attachment kernel's proposal and acceptance draws
    as a whole. For eta uniform on (0, 1], C = 1.2550.

    Measured on `grow` with m = 2: Z(t) / (m t) read 1.235-1.261 over 3 seeds
    at 5k, 20k and 80k steps, all within 2% of C, which is the allowance
    here, per seed at t >= 20000. The seeds below read 1.244-1.253.
    """
    c = bianconi_barabasi_constant()
    assert abs(c - 1.2550) < 5e-4
    uniform, m = EtaDist("uniform", 1.0), 2
    for seed in range(3):
        rng = derive_substream(seed, "bb-normaliser")
        g = seed_business_graph(3, uniform, rng)
        t = 0
        for at in (20000, 40000):
            grow(g, at - t, m, uniform, rng)
            t = at
            z = sum(v.eta * v.degree for v in g.vertices.values())
            assert abs(z / (m * t) / c - 1) < 0.02, (seed, t, z / (m * t))


# --- injection ---

def test_injected_checkpoints_spacing_and_final():
    g = seed_business_graph(3, fixed(0.5), derive_substream(23, "seed"))
    traj = inject_and_track(g, 1.0, 37, 100, 1, fixed(0.5),
                            derive_substream(23, "grow"))
    steps = [s for s, _ in traj]
    assert steps[-1] == 100
    assert all(s >= 37 for s in steps)
    assert steps == sorted(steps)
    assert all(s % 5 == 0 or s == 100 for s in steps)  # every 100//20 steps


def test_injected_vanishing_eta_keeps_birth_degree():
    g = seed_business_graph(3, fixed(0.5), derive_substream(24, "seed"))
    before = set(g.vertices)
    inject_and_track(g, 1e-12, 50, 400, 2, EtaDist("uniform", 0.5),
                     derive_substream(24, "grow"))
    injected = [v for vid, v in g.vertices.items()
                if vid not in before and v.birth_step == 50]
    # two vertices born at step 50: the injected one is the earlier id
    injected.sort(key=lambda v: int(v.id[1:]))
    assert injected[0].degree == 2


def test_injected_equal_eta_no_systematic_advantage():
    ranks = []
    for seed in range(10):
        g = seed_business_graph(3, fixed(0.5), derive_substream(seed, "seed-eq"))
        traj = inject_and_track(g, 0.5, 500, 1000, 2, fixed(0.5),
                                derive_substream(seed, "grow-eq"))
        ranks.append(traj[-1][1])
    ranks.sort()
    median = ranks[len(ranks) // 2]
    # an average latecomer among ~1000 vertices should sit far from the top
    assert median > 50


def test_degree_rank_competition_style():
    g = BusinessGraph()
    for vid, deg in (("a", 5), ("b", 3), ("c", 3), ("d", 1)):
        v = g.add_vertex(vid, 1.0, 0)
        v.degree = deg
    assert g.degree_rank("a") == 1
    assert g.degree_rank("b") == 2
    assert g.degree_rank("c") == 2
    assert g.degree_rank("d") == 4


# --- transactions ---

def test_transaction_appends_matched_pair():
    ledger = FlowLedger(["p", "c"])
    record_transaction(ledger, "p", "c", 3.5, 7)
    assert len(ledger.flow_edges) == 2
    sflow, cflow = ledger.flow_edges
    assert (sflow.src, sflow.dst, sflow.kind) == ("p", "c", SERVICE_FLOW)
    assert (cflow.src, cflow.dst, cflow.kind) == ("c", "p", CAPITAL_FLOW)
    assert sflow.value == cflow.value == 3.5
    assert sflow.step == cflow.step == 7


def test_k_transactions_give_2k_edges():
    ledger = FlowLedger(["p", "c"])
    for step in range(5):
        record_transaction(ledger, "p", "c", 1.0, step)
    assert len(ledger.flow_edges) == 10


def test_zero_value_transaction_recorded():
    ledger = FlowLedger(["p", "c"])
    record_transaction(ledger, "p", "c", 0.0, 1)
    assert len(ledger.flow_edges) == 2


# --- exports ---

def test_exports_have_expected_shape():
    g = seed_business_graph(3, fixed(0.5), derive_substream(26, "seed"))
    grow(g, 5, 1, fixed(0.5), derive_substream(26, "grow"))

    dot = g.to_dot()
    assert dot.startswith("graph business {") and dot.rstrip().endswith("}")
    assert '"v0" -- "v1"' in dot

    csv_lines = g.degree_csv().strip().split("\n")
    assert csv_lines[0] == "vertex,eta,degree,birth_step"
    assert len(csv_lines) == 1 + len(g.vertices)


def test_ledger_flows_csv_shape():
    ledger = FlowLedger(["v0", "v1", "v2"])
    record_transaction(ledger, "v0", "v1", 2.0, 3)
    flow_lines = ledger.flows_csv().strip().split("\n")
    assert flow_lines[0] == "from,to,kind,value,step"
    assert flow_lines[1] == "v0,v1,service_flow,2.0,3"
    assert flow_lines[2] == "v1,v0,capital_flow,2.0,3"


@pytest.mark.parametrize("ids", [["h0", "h1"], ["zeta", "alpha", "mid"],
                                 [f"h{i:02d}" for i in range(16)], ["b", "a", "B", "a1"]])
def test_ledger_dot_matches_graph_of_its_habitats(ids):
    graph = BusinessGraph()
    for vid in ids:
        graph.add_vertex(vid, 1.0, 0)
    assert FlowLedger(ids).to_dot() == graph.to_dot()
