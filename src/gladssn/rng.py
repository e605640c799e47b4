"""Deterministic random streams for reproducible problem instances.

Nothing here depends on numpy's Generator internals.  The uniform stream
is integer arithmetic and reproduces bit for bit; gaussians go through
np.log, np.cos and np.sin, so they match a pure-Python Box-Muller to
rounding of the platform's libm (the tests allow 1e-15 absolute).  Draw i
(0-based) of a stream with seed s is

    z_i = mix64((s + (i + 1) * 0x9E3779B97F4A7C15) mod 2**64)

where mix64 is the splitmix64 finalizer (_mix_in_place)

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

(all on 64-bit words), mapped to a uniform in (0, 1] by

    u_i = ((z_i >> 11) + 1) * 2**-53.

A request for q gaussians consumes the next 2*ceil(q/2) uniforms as pairs
(u1, u2, u1, u2, ...); each pair yields the Box-Muller values

    sqrt(-2 ln u1) * cos(2 pi u2),  sqrt(-2 ln u1) * sin(2 pi u2)

in that order, and the trailing value is dropped when q is odd.  Any
implementation following this recipe reproduces the uniform stream exactly
and the gaussians up to libm rounding.

Here a draw forms its counters in one uint64 array and runs splitmix64 over
it in one in-place pass per block; a gaussian block then builds its radius
in place and writes the two Box-Muller halves straight into the output.
So a call costs a fixed number of numpy operations, whatever the form of
its size, plus the arithmetic per value.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)
_SHIFT_U53 = np.uint64(11)
_ONE = np.uint64(1)
_U53 = 2.0**-53
# Uniforms per block of a gaussian draw: even, so each block holds whole
# Box-Muller pairs and the values do not depend on the blocking.  Drawing
# by blocks bounds the temporaries of a large draw to a few blocks.
_NORMAL_BLOCK = 2**16


def _mix_in_place(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on a uint64 array, which it returns.

    Array arithmetic wraps mod 2**64 silently; only numpy scalars warn.
    """
    z ^= z >> _SHIFT1
    z *= _MIX1
    z ^= z >> _SHIFT2
    z *= _MIX2
    z ^= z >> _SHIFT3
    return z


def _count(size) -> int:
    """The number of values in a draw of shape size: one integer, or a sequence
    of them; a negative one raises ValueError before the stream moves."""
    try:
        dims = (operator.index(size),)
    except TypeError:
        dims = tuple(size)
    if min(dims, default=0) < 0:
        raise ValueError(f"negative dimensions are not allowed, got size {size}")
    return int(math.prod(dims))


class Rng:
    """Counter-based splitmix64 stream with Box-Muller gaussians."""

    def __init__(self, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise TypeError(f"seed must be an integer, got {seed!r}")
        self._seed = np.uint64(int(seed) % 2**64)
        self._count = 0

    def _u53(self, n: int) -> np.ndarray:
        """The next n uniforms ((z >> 11) + 1) * 2**-53 of the stream."""
        z = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z *= _GAMMA
        z += self._seed
        _mix_in_place(z)
        z >>= _SHIFT_U53
        z += _ONE  # at most 2**53, so the one conversion below is exact
        return z * _U53

    def uniform(self, size=None) -> np.ndarray | float:
        """Uniform draws in (0, 1]."""
        if size is None:
            return float(self._u53(1)[0])
        return self._u53(_count(size)).reshape(size)

    def normal(self, size=None) -> np.ndarray | float:
        """Standard normal draws."""
        q = 1 if size is None else _count(size)
        out = np.empty(2 * ((q + 1) // 2))
        for start in range(0, out.size, _NORMAL_BLOCK):
            u = self._u53(min(_NORMAL_BLOCK, out.size - start))
            radius = np.log(u[0::2])
            radius *= -2.0
            np.sqrt(radius, out=radius)
            angle = u[1::2] * (2.0 * np.pi)
            block = out[start:start + u.size]
            even, odd = block[0::2], block[1::2]
            np.cos(angle, out=even)
            even *= radius
            np.sin(angle, out=odd)
            odd *= radius
        if size is None:
            return float(out[0])
        return out[:q].reshape(size)
