"""Stream derivation and draw helpers: frozen references and distributions."""

import math

from dbesim.rng import FNV_OFFSET_BASIS, Stream, derive_substream, fnv1a64

MASK = (1 << 64) - 1


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
