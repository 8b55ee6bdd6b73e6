"""Deterministic pseudo-randomness built on SplitMix64.

Every stochastic component of the package (synthetic corpus generation,
parameter init, shuffling, dropout, fold assignment, randomization tests)
draws from SplitMix64 streams instead of library RNGs, so results are
reproducible bit-for-bit across runs and platforms for integer outputs.

SplitMix64 (Steele, Lea & Flood 2014): the state advances by the 64-bit
golden-gamma constant and each output is a finalizer hash of the state:

    state   = (state + 0x9E3779B97F4A7C15) mod 2^64
    z       = state
    z       = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z       = (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output  = z XOR (z >> 31)

Because the output is a pure function of ``seed + i * gamma``, the stream
doubles as a counter-based generator: `counter_u64` evaluates arbitrary
slices of the same sequence without sequential state.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

T = TypeVar("T")


def mix64(x: int) -> int:
    """SplitMix64 finalizer: avalanching hash of a 64-bit integer."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: int | str) -> int:
    """Hash a tuple of ints/strings into an independent 64-bit substream seed.

    Strings are folded in with FNV-1a, integers with the SplitMix64
    finalizer; parts are chained so (1, "a") and ("a", 1) differ.
    """
    h = _FNV_OFFSET
    for part in parts:
        if isinstance(part, str):
            for byte in part.encode("utf-8"):
                h = ((h ^ byte) * _FNV_PRIME) & MASK64
        else:
            h = mix64(h ^ mix64(int(part) & MASK64))
        h = mix64(h + GOLDEN_GAMMA)
    return h


class SplitMix64:
    """Sequential SplitMix64 stream with the sampling helpers we need."""

    def __init__(self, seed: int):
        self._state = int(seed) & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        limit = MASK64 - (MASK64 + 1) % n
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % n

    def choice(self, items: Sequence[T]) -> T:
        return items[self.randint(len(items))]

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        total = float(sum(weights))
        u = self.uniform() * total
        acc = 0.0
        for item, w in zip(items, weights):
            acc += w
            if u < acc:
                return item
        return items[-1]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        perm = list(range(n))
        self.shuffle(perm)
        return perm


def counter_u64(seed: int, count: int,
                offset: int | np.ndarray = 0) -> np.ndarray:
    """Vectorized SplitMix64: outputs ``offset .. offset+count-1`` of the stream.

    Identical values to ``SplitMix64(seed)`` consumed sequentially. `offset`
    may also be an array of starts; the result then has shape
    ``offset.shape + (count,)``, one run of `count` outputs per start.
    """
    z = (np.asarray(offset, dtype=np.uint64)[..., None]
         + np.arange(1, count + 1, dtype=np.uint64))
    z *= np.uint64(GOLDEN_GAMMA)
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def counter_uniforms(seed: int, count: int,
                     offset: int | np.ndarray = 0) -> np.ndarray:
    """Vectorized floats in [0, 1), matching SplitMix64.uniform draws.

    `offset` is a start or an array of starts, as in `counter_u64`.
    """
    return (counter_u64(seed, count, offset) >> np.uint64(11)) * 2.0**-53


def normals(seed: int, count: int) -> np.ndarray:
    """Standard normal draws via Box-Muller over counter uniforms."""
    n_pairs = (count + 1) // 2
    u = counter_u64(seed, 2 * n_pairs)
    # u1 in (0, 1] keeps the log finite; u2 in [0, 1).
    u1 = ((u[0::2] >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    u2 = (u[1::2] >> np.uint64(11)) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * n_pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]


def truncated_normal(seed: int, shape: Iterable[int], std: float) -> np.ndarray:
    """Normal(0, std) draws with values beyond two standard deviations resampled.

    Deterministic given the seed: rejected draws consume fixed positions of
    the counter stream, so the accepted subsequence is reproducible.
    """
    shape = tuple(shape)
    need = int(np.prod(shape)) if shape else 1
    accepted: list[np.ndarray] = []
    got = 0
    block_seed = seed
    while got < need:
        block = normals(block_seed, max(2 * (need - got), 16))
        keep = block[np.abs(block) <= 2.0]
        accepted.append(keep)
        got += keep.size
        block_seed = mix64(block_seed ^ GOLDEN_GAMMA)
    flat = np.concatenate(accepted)[:need] * std
    return flat.reshape(shape)
