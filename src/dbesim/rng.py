"""Deterministic random streams for reproducible simulation runs.

Every random decision in a run is drawn from a named substream derived from
the master seed, so results are bit-identical across runs and platforms.
The generator is splitmix64; substream labels are hashed with 64-bit FNV-1a
and XORed into the master seed. Both algorithms are fixed-width integer
recurrences with published constants, so any implementation that follows
the same definitions produces the same streams.

Splitmix64's state is a counter: its k-th output after state s depends only
on s + k * GAMMA. A stream therefore computes its outputs ahead, a block at
a time, with a few big-integer operations on one packed `int` (one 128-bit
lane per output, so no product carries into the next lane), and hands them
out one per draw. The outputs are exactly those of the scalar recurrence,
and `Stream.state` is always the logical position: the state after the
draws taken so far, as if each had advanced it once. Setting the state to a
position at or ahead of the current one within the block already computed
skips forward in that block; any other position drops the block.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from itertools import accumulate, islice
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
_GAMMA_INV = pow(_GAMMA, -1, 1 << 64)  # the draws from state a to b: (b - a) * _GAMMA_INV
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_EXHAUSTED = iter(())  # no block: the next draw computes one
# the low 64-bit word of each 128-bit lane of `int.to_bytes(..., sys.byteorder)`
_LOW_WORDS = slice(None, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


def _block_constants(n: int) -> tuple:
    """For a block of n outputs, one per 128-bit lane: (1 in every lane,
    k * GAMMA mod 2**64 in lane k - 1 for k = 1..n, the low 64 bits of every
    lane set, the size of the next block)."""
    ones = sum(1 << 128 * k for k in range(n))
    gammas = sum(((k + 1) * _GAMMA & _MASK64) << 128 * k for k in range(n))
    return ones, gammas, ones * _MASK64, min(2 * n, 64)


# Blocks start at 4 outputs whenever the state is set outside the block
# computed (a sharded run moves many streams per epoch for a few draws each)
# and double up to 64. A state set inside that block keeps it and its size:
# a shard worker's stream survives the migration draws the main process made
# on it since the last epoch.
_BLOCKS = {n: _block_constants(n) for n in (4, 8, 16, 32, 64)}


class Stream:
    """A splitmix64 stream.

    Draw order is part of the determinism contract: callers document the
    sequence of draws they make, and every helper below consumes exactly
    the stated number of raw 64-bit outputs, each through `next_u64`.

    The outputs are computed ahead in blocks (see the module docstring).
    `state` reads the logical position and may be set, which skips forward
    in the block when the new position lies ahead within it, and else drops
    the block.
    """

    __slots__ = ("_base", "_block", "_size", "_next_size")

    def __init__(self, state: int):
        self._drop(state)

    @property
    def state(self) -> int:
        """The state after every draw so far (what the scalar recurrence holds)."""
        taken = self._size - length_hint(self._block)  # exact on a list iterator
        return (self._base + taken * _GAMMA) & _MASK64

    @state.setter
    def state(self, value: int) -> None:
        at = (value - self._base) * _GAMMA_INV & _MASK64  # outputs from the block's start
        skip = at - self._size + length_hint(self._block)
        if skip < 0 or at > self._size:
            self._drop(value)
        elif skip:
            next(islice(self._block, skip, skip), None)

    def _drop(self, state: int) -> None:
        """Start over at `state`: the next draw computes a block of 4."""
        self._base = state & _MASK64
        self._block = _EXHAUSTED
        self._size = 0
        self._next_size = 4

    def next_u64(self) -> int:
        """Advance the state and return the next 64-bit output."""
        for z in self._block:
            return z
        return self._refill()

    def _refill(self) -> int:
        """Compute the next block of outputs and return its first."""
        self._base = base = (self._base + self._size * _GAMMA) & _MASK64
        n = self._size = self._next_size
        ones, gammas, low, self._next_size = _BLOCKS[n]
        z = (base * ones + gammas) & low
        z = ((z ^ z >> 30) & low) * _MUL1 & low
        z = ((z ^ z >> 27) & low) * _MUL2 & low
        z ^= z >> 31  # the high words hold leftovers, which are not read
        words = memoryview(z.to_bytes(16 * n, sys.byteorder)).cast("Q")
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
        float summation order; the index is the first whose running sum
        exceeds the draw scaled by the total.
        """
        cum = list(accumulate(weights))
        i = bisect_right(cum, self.random() * cum[-1])
        return i if i < len(cum) else len(cum) - 1  # guard against float round-up at the top end


def derive_substream(master_seed: int, stream_label: str) -> Stream:
    """Derive the named substream of a master seed.

    The stream state starts at ``master_seed XOR fnv1a64(stream_label)``;
    identical inputs yield identical streams in any implementation of the
    same recurrences.
    """
    return Stream((master_seed & _MASK64) ^ fnv1a64(stream_label))
