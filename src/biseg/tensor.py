"""The image tensor wrapper and the deterministic RNG.

A Tensor is a thin, data-only wrapper over a contiguous float32 numpy array
laid out (batch, channel, height, width); it carries images through the
data, inference and benchmark code, while the graph executor works on raw
arrays.

Randomness comes from a counter-based SplitMix64 generator so that a seed
produces the same stream everywhere regardless of platform RNG defaults.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ArgumentError, ShapeError


class Tensor:
    """Contiguous float32 NCHW array."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        if not isinstance(data, np.ndarray) or data.ndim != 4:
            raise ShapeError("tensor data must be a rank-4 numpy array")
        if data.dtype != np.float32:
            raise ShapeError(f"tensor data must be float32, got {data.dtype}")
        self.data = np.ascontiguousarray(data)


# ---------------------------------------------------------------------------
# Deterministic RNG
# ---------------------------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
_NORMAL_PAIRS = 1 << 16  # Box-Muller pairs per float64 chunk of Rng.normal


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied elementwise to a uint64 array."""
    with np.errstate(over="ignore"):
        z = (z + _GOLDEN).astype(np.uint64)
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


class Rng:
    """Counter-based SplitMix64 stream.

    The i-th raw draw is mix(seed + (i+1) * golden), so the stream is a pure
    function of (seed, position): identical seeds give identical integer
    streams on every platform. Gaussian variates use Box-Muller on the
    uniform stream (float64 math; last-ulp libm differences are the only
    platform dependence).
    """

    __slots__ = ("seed", "_pos")

    def __init__(self, seed: int):
        self.seed = int(seed) & _U64_MASK
        self._pos = 0

    def split(self, salt: int) -> "Rng":
        """Derive an independent child stream from (seed, salt)."""
        salted = np.uint64((self.seed ^ (int(salt) & _U64_MASK)) & _U64_MASK)
        child = int(_mix64(salted[None] * _GOLDEN)[0])
        return Rng(child)

    def fork(self, count: int) -> "Rng":
        """Hand the next count raw draws to a copy of this stream: the copy
        starts at this position, and this stream skips past them."""
        if count < 0:
            raise ArgumentError("draw count must be non-negative")
        own = Rng(self.seed)
        own._pos = self._pos
        self._pos += count
        return own

    @staticmethod
    def normal_draws(count: int) -> int:
        """Raw draws normal(count) consumes: Box-Muller takes them in pairs."""
        return 2 * ((count + 1) // 2)

    def u64(self, count: int) -> np.ndarray:
        if count < 0:
            raise ArgumentError("draw count must be non-negative")
        idx = np.arange(self._pos + 1, self._pos + count + 1, dtype=np.uint64)
        self._pos += count
        with np.errstate(over="ignore"):
            ctr = np.uint64(self.seed) + idx * _GOLDEN
        return _mix64(ctr)

    def uniform(self, count: int) -> np.ndarray:
        """count float64 draws in [0, 1)."""
        return (self.u64(count) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def normal(self, count: int, std: float = 1.0, dtype=np.float64) -> np.ndarray:
        """count N(0, std^2) draws via Box-Muller, computed in float64 and
        stored as dtype, _NORMAL_PAIRS pairs at a time: u1 of pair i is raw
        draw i and u2 draw pairs + i, so no float64 temporary spans the draw."""
        pairs = self.normal_draws(count) // 2
        first, second = self.fork(pairs), self.fork(pairs)
        out = np.empty(2 * pairs, dtype=dtype)
        for i in range(0, pairs, _NORMAL_PAIRS):
            m = min(_NORMAL_PAIRS, pairs - i)
            # u1 in (0, 1] so the log is finite; u2 in [0, 1).
            u1 = ((first.u64(m) >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)
            u2 = (second.u64(m) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
            r = np.sqrt(-2.0 * np.log(u1))
            theta = (2.0 * np.pi) * u2
            out[2 * i : 2 * (i + m) : 2] = r * np.cos(theta) * std
            out[2 * i + 1 : 2 * (i + m) : 2] = r * np.sin(theta) * std
        return out[:count]

    def randint(self, lo: int, hi: int) -> int:
        """One integer in [lo, hi). Uses rejection-free modulo (desk scale)."""
        if hi <= lo:
            raise ArgumentError(f"empty range [{lo}, {hi})")
        span = hi - lo
        return lo + int(self.u64(1)[0] % np.uint64(span))

    def choice(self, items):
        return items[self.randint(0, len(items))]


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def init_kaiming(shape: tuple, fan_in: int, rng: Rng) -> np.ndarray:
    """He-normal init: Normal(0, sqrt(2 / fan_in)) truncated to float32."""
    return defer_kaiming(shape, fan_in, rng)()


def defer_kaiming(shape: tuple, fan_in: int, rng: Rng) -> Callable[[], np.ndarray]:
    """init_kaiming with the draw put off: fan_in is checked and rng moves
    past the draws now, so later draws from rng do not depend on whether or
    when this one is made. The returned function makes the array; call it
    once."""
    if fan_in < 1:
        raise ArgumentError(f"fan_in must be >= 1, got {fan_in}")
    std = float(np.sqrt(2.0 / fan_in))
    count = math.prod(shape)
    own = rng.fork(Rng.normal_draws(count))
    return lambda: own.normal(count, std=std, dtype=np.float32).reshape(shape)
