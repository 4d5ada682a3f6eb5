"""The adjacency index behind Ecosystem.neighbors against a brute-force scan.

Random sequences of construction, reinforcement, decay, failures, edge cuts
and healing; after every step the indexed neighbors must equal a scan of
every connection, and the index must hold exactly the connection keys.
"""

from hypothesis import given, settings, strategies as st

from conftest import req
from dbesim.ecosystem import (
    Habitat,
    RequestTemplate,
    build_ecosystem,
    decay_all,
    failure_inject,
    reinforce,
    self_heal,
)
from dbesim.rng import derive_substream


def scan_neighbors(eco, hid):
    """The O(E) reference: every connection touching hid, sorted by peer id."""
    out = []
    for (a, b), w in eco.connections.items():
        if a == hid:
            out.append((b, w))
        elif b == hid:
            out.append((a, w))
    return sorted(out)


def check_index(eco):
    for hid in eco.habitat_ids():
        assert eco.neighbors(hid) == scan_neighbors(eco, hid)
    adj = eco._adj
    assert set(adj) <= set(eco.habitats)
    assert all(adj[x] for x in adj)
    assert all(x in adj[y] for x in adj for y in adj[x])
    assert {(x, y) for x in adj for y in adj[x] if x < y} == set(eco.connections)


def pair(data, ids):
    a = data.draw(st.sampled_from(ids))
    b = data.draw(st.sampled_from([x for x in ids if x != a]))
    return a, b


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_neighbors_match_brute_force_scan(data):
    n = data.draw(st.integers(3, 12), label="habitats")
    if data.draw(st.booleans(), label="ring"):
        topology = ("ring",)
    else:
        topology = ("random_m", data.draw(st.integers(1, min(3, n - 1)), label="m"))
    habitats = [Habitat(id=f"h{i:02d}", pool={},
                        profile=[RequestTemplate(req(f"r{i}"), 1.0)]) for i in range(n)]
    seed = data.draw(st.integers(0, 2**16), label="seed")
    eco = build_ecosystem(habitats, topology, derive_substream(seed, "build"))
    check_index(eco)

    ops = st.sampled_from(["reinforce_new", "reinforce_old", "decay", "fail", "cut", "heal"])
    for _ in range(data.draw(st.integers(1, 25), label="steps")):
        ids = eco.habitat_ids()
        op = data.draw(ops)
        if op == "reinforce_new":
            missing = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
                       if (a, b) not in eco.connections]
            if missing:
                reinforce(eco, *data.draw(st.sampled_from(missing)), 0.1)
        elif op == "reinforce_old" and eco.connections:
            a, b = data.draw(st.sampled_from(sorted(eco.connections)))
            reinforce(eco, b, a, 0.25)
        elif op == "decay":
            decay_all(eco, data.draw(st.floats(0.01, 1.0)))
        elif op == "fail" and len(ids) > 3:
            k = data.draw(st.integers(1, 3))
            victims = data.draw(st.lists(st.sampled_from(ids), min_size=k, max_size=k,
                                         unique=True))
            failure_inject(eco, victims)
            assert eco.connected()
        elif op == "cut" and eco.connections:
            eco.remove_connection(*data.draw(st.sampled_from(sorted(eco.connections))))
        elif op == "heal":
            self_heal(eco)
            assert eco.connected()
        check_index(eco)


def test_reinforce_unconnected_pair_enters_index():
    habitats = [Habitat(id=h, pool={}, profile=[RequestTemplate(req(h), 1.0)])
                for h in ("a", "b", "c", "d")]
    eco = build_ecosystem(habitats, ("ring",), derive_substream(0, "build"))
    assert [n for n, _ in eco.neighbors("a")] == ["b", "d"]
    w = reinforce(eco, "c", "a", 0.5)
    assert eco.neighbors("a") == [("b", 1.0), ("c", w), ("d", 1.0)]
    assert ("a", w) in eco.neighbors("c")
