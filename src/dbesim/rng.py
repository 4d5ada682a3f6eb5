"""Deterministic random streams for reproducible simulation runs.

Every random decision in a run is drawn from a named substream derived from
the master seed, so results are bit-identical across runs and platforms.
The generator is splitmix64; substream labels are hashed with 64-bit FNV-1a
and XORed into the master seed. Both algorithms are fixed-width integer
recurrences with published constants, so any implementation that follows
the same definitions produces the same streams.

Splitmix64's state is a counter: its k-th output after state s depends only
on s + k * GAMMA. A stream therefore computes its outputs ahead, a block of
64 at a time, with a few big-integer operations on one packed `int` (one
128-bit lane per output, so no product carries into the next lane), and
hands them out one per draw. The outputs are exactly those of the scalar
recurrence, and `Stream.state` is always the logical position: the state
after the draws taken so far, as if each had advanced it once. Setting the
state drops the block. A run sets each stream's state before its first
draw and never after it, so a stream computes at most one block whose tail
it never reads, its last, and one block size serves every stream.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from itertools import accumulate
from operator import length_hint

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


_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_BLOCK = 64  # outputs per block
_STRIDE = _BLOCK * _GAMMA & _MASK64  # the state advance over one block
# One 128-bit lane per output: 1 in every lane, k * GAMMA mod 2**64 in lane
# k - 1 for k = 1..64, and the low 64 bits of every lane set.
_ONES = sum(1 << 128 * k for k in range(_BLOCK))
_GAMMAS = sum(((k + 1) * _GAMMA & _MASK64) << 128 * k for k in range(_BLOCK))
_LOW = _ONES * _MASK64
_EXHAUSTED = iter(())  # no block: the next draw computes one
# the low 64-bit word of each 128-bit lane of `int.to_bytes(..., sys.byteorder)`
_LOW_WORDS = slice(None, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


class Stream:
    """A splitmix64 stream.

    Draw order is part of the determinism contract: callers document the
    sequence of draws they make, and every helper below consumes exactly
    the stated number of raw 64-bit outputs, each through `next_u64`.

    The outputs are computed ahead in blocks (see the module docstring).
    `state` reads the logical position and may be set, which drops the
    block.
    """

    __slots__ = ("_base", "_block")

    def __init__(self, state: int):
        self.state = state

    @property
    def state(self) -> int:
        """The state after every draw so far (what the scalar recurrence holds)."""
        taken = _BLOCK - length_hint(self._block)  # exact on a list iterator
        return (self._base + taken * _GAMMA) & _MASK64

    @state.setter
    def state(self, value: int) -> None:
        """Start over at `value`, as the end of a block already spent."""
        self._base = (value - _STRIDE) & _MASK64
        self._block = _EXHAUSTED

    def next_u64(self) -> int:
        """Advance the state and return the next 64-bit output."""
        for z in self._block:
            return z
        return self._refill()

    def _refill(self) -> int:
        """Compute the next block of outputs and return its first."""
        self._base = base = (self._base + _STRIDE) & _MASK64
        z = (base * _ONES + _GAMMAS) & _LOW
        z = ((z ^ z >> 30) & _LOW) * _MUL1 & _LOW
        z = ((z ^ z >> 27) & _LOW) * _MUL2 & _LOW
        z ^= z >> 31  # the high words hold leftovers, which are not read
        words = memoryview(z.to_bytes(16 * _BLOCK, sys.byteorder)).cast("Q")
        self._block = block = iter(words[_LOW_WORDS].tolist())
        return next(block)

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
        checked. The running sums accumulate left to right, which pins the
        float summation order; `pick` maps the draw onto them.
        """
        return pick(list(accumulate(weights)), self.random())


def pick(cum: list, u: float) -> int:
    """The first index whose running sum in `cum` exceeds `u * cum[-1]`.

    `cum` holds the running sums of non-negative weights with a positive
    total, and u is in [0, 1); neither is checked. When float round-up
    carries the scaled draw onto the total, no sum exceeds it, and the
    last index is returned.
    """
    i = bisect_right(cum, u * cum[-1])
    return i if i < len(cum) else len(cum) - 1


def derive_substream(master_seed: int, stream_label: str) -> Stream:
    """Derive the named substream of a master seed.

    The stream state starts at ``master_seed XOR fnv1a64(stream_label)``;
    identical inputs yield identical streams in any implementation of the
    same recurrences.
    """
    return Stream((master_seed & _MASK64) ^ fnv1a64(stream_label))
