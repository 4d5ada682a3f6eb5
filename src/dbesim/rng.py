"""Deterministic random streams for reproducible simulation runs.

Every random decision in a run is drawn from a named substream derived from
the master seed, so results are bit-identical across runs and platforms.
The generator is splitmix64; substream labels are hashed with 64-bit FNV-1a
and XORed into the master seed. Both algorithms are fixed-width integer
recurrences with published constants, so any implementation that follows
the same definitions produces the same streams.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1

FNV_OFFSET_BASIS = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv1a64(label: str) -> int:
    """64-bit FNV-1a hash of a label string (UTF-8 bytes)."""
    h = FNV_OFFSET_BASIS
    for byte in label.encode("utf-8"):
        h ^= byte
        h = (h * FNV_PRIME) & _MASK64
    return h


class Stream:
    """A splitmix64 stream.

    Draw order is part of the determinism contract: callers document the
    sequence of draws they make, and every helper below consumes exactly
    the stated number of raw 64-bit outputs.
    """

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK64

    def next_u64(self) -> int:
        """Advance the state and return the next 64-bit output."""
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits of one output."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) via multiply-shift (one output).

        n >= 1 is not checked. The multiply-shift map has bias below
        n / 2**64, negligible for the range sizes used here, and is exactly
        reproducible cross-platform.
        """
        return (self.next_u64() * n) >> 64

    def weighted_index(self, weights) -> int:
        """Index drawn with probability proportional to weights (one output).

        Weights must be non-negative with a positive sum, which is not
        checked. The cumulative walk accumulates left to right, which pins
        the float summation order.
        """
        total = 0.0
        for w in weights:
            total += w
        r = self.random() * total
        acc = 0.0
        last = 0
        for i, w in enumerate(weights):
            acc += w
            last = i
            if r < acc:
                return i
        return last  # guard against float round-up at the top end


def derive_substream(master_seed: int, stream_label: str) -> Stream:
    """Derive the named substream of a master seed.

    The stream state starts at ``master_seed XOR fnv1a64(stream_label)``;
    identical inputs yield identical streams in any implementation of the
    same recurrences.
    """
    return Stream((master_seed & _MASK64) ^ fnv1a64(stream_label))
