"""Stream derivation and draw helpers: frozen references and distributions."""

import math

from hypothesis import given, settings, strategies as st

from dbesim import engine
from dbesim.rng import FNV_OFFSET_BASIS, Stream, derive_substream, fnv1a64
from dbesim.topology import inject_and_track, seed_business_graph

from conftest import load_asset_config

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_fnv1a64(s):
    # Straight from the published FNV-1a definition, kept independent of the
    # library implementation on purpose.
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & MASK
    return h


def reference_splitmix64(state, n):
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_fnv_offset_basis_for_empty_string():
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("") == FNV_OFFSET_BASIS


def test_fnv_matches_reference_values():
    # Frozen values computed with the independent reference implementation.
    assert fnv1a64("habitat:0") == 0x31E93C1D69044AAA
    assert fnv1a64("habitat:1") == 0x31E93D1D69044C5D
    assert fnv1a64("x") == 0xAF63F54C86021707
    for label in ("", "a", "habitat:15", "build", "growth"):
        assert fnv1a64(label) == reference_fnv1a64(label)


def test_substream_frozen_first_outputs():
    # Frozen outputs for three (seed, label) pairs, computed independently
    # from the published splitmix64 and FNV-1a definitions.
    assert derive_substream(0, "").next_u64() == 14087677454934409008
    assert derive_substream(42, "habitat:0").next_u64() == 4546969177285681953
    assert derive_substream(123456789, "x").next_u64() == 6073546624125149474


def test_substream_matches_reference_sequence():
    for seed, label in ((0, ""), (42, "habitat:0"), (2**64 - 1, "build")):
        s = derive_substream(seed, label)
        expected = reference_splitmix64(seed ^ reference_fnv1a64(label), 100)
        assert [s.next_u64() for _ in range(100)] == expected


def test_same_inputs_same_stream():
    a = derive_substream(7, "habitat:3")
    b = derive_substream(7, "habitat:3")
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_labels_differ():
    a = derive_substream(42, "habitat:0")
    b = derive_substream(42, "habitat:1")
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_random_unit_interval():
    s = derive_substream(1, "unit")
    for _ in range(10000):
        u = s.random()
        assert 0.0 <= u < 1.0


def test_random_mean_and_variance():
    s = derive_substream(2, "moments")
    n = 20000
    vals = [s.random() for _ in range(n)]
    mean = sum(vals) / n
    var = sum((v - mean) ** 2 for v in vals) / n
    assert abs(mean - 0.5) < 3 * math.sqrt(1 / 12 / n)
    assert abs(var - 1 / 12) < 0.01


def test_below_range_and_uniformity():
    s = derive_substream(3, "below")
    n, buckets = 70000, 7
    counts = [0] * buckets
    for _ in range(n):
        v = s.below(buckets)
        counts[v] += 1
    p = 1 / buckets
    sigma = math.sqrt(n * p * (1 - p))
    for c in counts:
        assert abs(c - n * p) < 3.5 * sigma


def test_weighted_index_ratio():
    s = derive_substream(4, "weighted")
    counts = [0, 0]
    for _ in range(10000):
        counts[s.weighted_index([3.0, 1.0])] += 1
    ratio = counts[0] / counts[1]
    assert 2.5 < ratio < 3.5


def test_state_roundtrip():
    s = derive_substream(9, "resume")
    s.next_u64()
    snapshot = s.state
    tail = [s.next_u64() for _ in range(50)]
    resumed = Stream(snapshot)
    assert [resumed.next_u64() for _ in range(50)] == tail


# Streams compute their outputs ahead in blocks of 4, 8, 16, 32 and then 64
# outputs; 4 + 8 + 16 + 32 + 64 + 64 = 188 draws reach into the second
# 64-block, so the checks below run past 188 to cover every block size and
# every position in each.
PAST_EVERY_BLOCK_SIZE = 260


def test_state_is_the_logical_position_at_every_draw():
    start = 0x0123456789ABCDEF
    outputs = reference_splitmix64(start, PAST_EVERY_BLOCK_SIZE)
    s = Stream(start)
    for k, out in enumerate(outputs):
        assert s.state == (start + k * GAMMA) & MASK, k
        assert s.next_u64() == out, k


def test_setting_the_state_mid_block_restarts_from_it():
    start = MASK - 5 * GAMMA  # the state wraps around 2**64 within the first block
    outputs = reference_splitmix64(start & MASK, PAST_EVERY_BLOCK_SIZE + 70)
    for k in range(PAST_EVERY_BLOCK_SIZE):
        s = Stream(start)
        for _ in range(k):
            s.next_u64()
        s.state = s.state
        assert [s.next_u64() for _ in range(70)] == outputs[k:k + 70], k


# The first blocks: 4 + 8 + 16 + 32 + 64 = 124 outputs, and into the next.
FIRST_BLOCKS = 130


def test_setting_the_state_near_the_position_matches_the_scalar_recurrence():
    """From each position of the first blocks, a set to an offset of -1, 0,
    1, ... up to past the largest block's end: the state reads back and the
    draws after it are those of the scalar recurrence, whether the set
    skips forward in the block or drops it."""
    start = MASK - 5 * GAMMA  # the state wraps around 2**64 within the first block
    outputs = reference_splitmix64(start & MASK, FIRST_BLOCKS + 2 * 70)
    for k in range(FIRST_BLOCKS):
        for offset in range(-1 if k else 0, 67):
            s = Stream(start)
            for _ in range(k):
                s.next_u64()
            j = k + offset
            s.state = (start + j * GAMMA) & MASK
            assert s.state == (start + j * GAMMA) & MASK, (k, offset)
            assert [s.next_u64() for _ in range(70)] == outputs[j:j + 70], (k, offset)


def test_a_state_set_inside_the_block_computes_no_new_block(monkeypatch):
    """A set ahead within the block skips forward and keeps the block and its
    size; a set behind the position or past the block computes a new one."""
    refills = []
    refill = Stream._refill

    def counting_refill(self):
        refills.append(1)
        return refill(self)

    monkeypatch.setattr(Stream, "_refill", counting_refill)
    start = 0x0123456789ABCDEF
    outputs = reference_splitmix64(start, 100)
    at = lambda k: (start + k * GAMMA) & MASK  # noqa: E731
    s = Stream(start)
    draws = [s.next_u64() for _ in range(5)]  # the block of 4, then one of 8 (outputs 4..11)
    assert len(refills) == 2
    s.state = at(5)  # where it is
    s.state = at(9)  # ahead in the block
    draws += [s.next_u64() for _ in range(3)]  # outputs 9..11: the rest of the block
    assert len(refills) == 2
    s.state = at(12)  # the block's end
    draws += [s.next_u64() for _ in range(16)]  # outputs 12..27: one block of 16, as without sets
    assert len(refills) == 3
    assert draws == outputs[:5] + outputs[9:28]
    s.state = at(27)  # behind the position
    assert s.next_u64() == outputs[27]
    assert len(refills) == 4
    s.state = at(40)  # past the new block of 4 (outputs 27..30)
    assert s.next_u64() == outputs[40]
    assert len(refills) == 5


def reference_weighted_index(weights, u):
    total = 0.0
    for w in weights:
        total += w
    r, acc = u * total, 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


def _expected(op, arg, out):
    """What `op` returns when its one draw yields `out`."""
    if op == "below":
        return (out * arg) >> 64
    u = (out >> 11) * 2.0**-53
    return u if op == "random" else reference_weighted_index(arg, u)


_weights = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5).filter(lambda w: sum(w) > 0)
_ops = st.lists(st.one_of(
    st.tuples(st.just("next_u64"), st.integers(1, 70)),  # a burst of that many draws
    st.tuples(st.just("below"), st.integers(1, 2**64)),
    st.tuples(st.just("random"), st.none()),
    st.tuples(st.just("weighted_index"), _weights),
    st.tuples(st.just("read"), st.none()),
    st.tuples(st.just("write"), st.integers(0, MASK)),
), max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, MASK), _ops)
def test_any_interleaving_matches_the_scalar_recurrence(start, ops):
    """Draws, state reads and state writes in any order give the outputs
    and the state of the scalar splitmix64, whatever block each lands in."""
    s, state = Stream(start), start
    for op, arg in ops:
        if op == "write":
            s.state = state = arg
        elif op == "next_u64":
            outs = reference_splitmix64(state, arg)
            assert [s.next_u64() for _ in range(arg)] == outs
            state = (state + arg * GAMMA) & MASK
        elif op != "read":
            out = reference_splitmix64(state, 1)[0]
            draw = getattr(s, op)
            assert (draw() if arg is None else draw(arg)) == _expected(op, arg, out)
            state = (state + GAMMA) & MASK
        assert s.state == state, (op, arg)


class CountingStream(Stream):
    """Counts its draws by overriding `next_u64`, as a profiler would."""

    __slots__ = ("draws",)

    def __init__(self, state):
        super().__init__(state)
        self.draws = 0

    def next_u64(self):
        self.draws += 1
        return Stream.next_u64(self)


def draws_from_state(start, end):
    return ((end - start) * pow(GAMMA, -1, 1 << 64)) & MASK


@settings(max_examples=100, deadline=None)
@given(st.integers(0, MASK), _ops.map(lambda ops: [o for o in ops if o[0] != "write"]))
def test_a_counting_subclass_sees_every_draw(start, ops):
    s = CountingStream(start)
    for op, arg in ops:
        if op == "next_u64":
            for _ in range(arg):
                s.next_u64()
        elif op != "read":
            draw = getattr(s, op)
            draw() if arg is None else draw(arg)
    assert s.draws == draws_from_state(start, s.state)


def test_every_draw_of_a_run_goes_through_next_u64(monkeypatch):
    """Each helper the simulator uses draws through `next_u64`, so counting
    calls there agrees with the state delta over a whole run."""
    created = []

    def counting_substream(master_seed, label):
        s = CountingStream(derive_substream(master_seed, label).state)
        created.append((s, s.state))
        return s

    cfg = load_asset_config("two_communities.json")
    cfg.epochs = 5
    monkeypatch.setattr(engine, "derive_substream", counting_substream)
    engine.run(cfg)
    counted = sum(s.draws for s, _ in created)
    assert counted > 1000
    assert counted == sum(draws_from_state(start, s.state) for s, start in created)


class ProposalCountingStream(CountingStream):
    """Also counts its `below` calls, which the benchmark reads as proposals."""

    __slots__ = ("belows",)

    def __init__(self, state):
        super().__init__(state)
        self.belows = 0

    def below(self, n):
        self.belows += 1
        return Stream.below(self, n)


class ReadCountingList(list):
    """A sampling pool that counts its index reads: one per proposal."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return list.__getitem__(self, i)


def test_every_draw_of_the_growth_experiment_goes_through_next_u64():
    """The benchmark's draw self-check on `topology`, as a test: the growth
    draws all go through `next_u64`, and each proposal is one `below` call,
    so its acceptance ratio counts proposals there."""
    topo = load_asset_config("topology_experiment.json").topology
    start = derive_substream(1, "growth").state
    rng = ProposalCountingStream(start)
    g = seed_business_graph(topo.seed_vertices, topo.eta, rng)
    g._pool = pool = ReadCountingList(g._pool)
    inject_and_track(g, topo.inject_eta, 1000, 2000, topo.m, topo.eta, rng)
    assert rng.draws > 2 * 2000 * topo.m
    assert rng.draws == draws_from_state(start, rng.state)
    assert rng.belows == pool.reads >= 2001 * topo.m
