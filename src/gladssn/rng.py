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

Here a gaussian draw goes by blocks of _NORMAL_BLOCK uniforms.  A block
forms its counters as fixed steps plus one offset in a uint64 array, runs
splitmix64 over it in place, turns it into uniforms, and writes the two
Box-Muller halves into the output.  Every block is a pure function of its
counter and runs the same numpy operations on the same layouts wherever it
runs, so the values of a draw do not depend on how its blocks are split
among threads: an instance has the same bits at any CPU count.

Splitting a large draw.  A gaussian draw of at least _THREADED_VALUES
values hands its blocks, one task each, to one thread per CPU the process
may run on (at most _MAX_THREADS), started and joined inside the call;
smaller draws, every NMF and quadratic one among them, run in the calling
thread.  log, cos and sin release the GIL and take most of the time, so
the threads overlap them.  Why the sizes are what they are, from a 2M-value
draw on two CPUs:

* task size: with fresh scratch per task, tasks of 2**12, 2**14, 2**15 and
  2**16 uniforms ran 0.74x, 1.14x, 1.36x and 1.68x the serial speed; with
  the scratch below, 2**15 and 2**16 both ran about 1.8x, so a task is
  2**15 uniforms and never smaller;
* threshold: draws of 2**16, 2**17 and 2**18 values ran 1.25x, 1.5x and
  1.4x the serial speed, saving 2 ms at most, against 1.8x at 2**21, so a
  smaller draw starts no thread;
* scratch: the calling thread allocates every array a task writes into,
  2 * _MAX_THREADS blocks at most, whatever the CPU count.  Scratch a
  worker thread allocated itself stayed resident in its malloc arena, 1.6
  to 4 MB of it, into the solve that followed.

Worker threads call only this module's block functions, never a method of
Rng, so a tracer that wraps those methods sees one call per draw, in the
calling thread.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)
_SHIFT_U53 = np.uint64(11)
_ONE = np.uint64(1)
_U53 = 2.0**-53
# (i + 1) * gamma mod 2**64: the counters of a block are these steps plus
# one offset per stretch of _STEPS.size, so no block makes an arange
_STEPS = np.arange(1, 2**12 + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_STEPS.flags.writeable = False
# Uniforms per block of a gaussian draw, and per task of a threaded one:
# even, so each block holds whole Box-Muller pairs and the values do not
# depend on the blocking.
_NORMAL_BLOCK = 2**15
# Gaussian values from which a draw is split among threads, and the most
# threads one draw starts, which bounds its scratch (see above).
_THREADED_VALUES = 2**18
_MAX_THREADS = 8


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _mix_in_place(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on a uint64 array, which it returns.

    tmp is uint64 scratch of z's size.  Array arithmetic wraps mod 2**64
    silently; only numpy scalars warn.
    """
    z ^= np.right_shift(z, _SHIFT1, out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, _SHIFT2, out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, _SHIFT3, out=tmp)
    return z


def _fill_uniform(seed: int, first: int, u: np.ndarray, z: np.ndarray) -> None:
    """Write uniforms first, first + 1, ... of stream seed into u.

    u is a contiguous float64 array and z uint64 scratch at least as long;
    allocates no array.
    """
    z = z[:u.size]
    for at in range(0, u.size, _STEPS.size):
        part = z[at:at + _STEPS.size]
        offset = np.uint64(((first + at) * _GAMMA + seed) % 2**64)
        np.add(_STEPS[:part.size], offset, out=part)
    _mix_in_place(z, u.view(np.uint64))
    z >>= _SHIFT_U53
    z += _ONE  # at most 2**53, so the one conversion below is exact
    np.copyto(u, z)
    u *= _U53


def _fill_normal(seed: int, first: int, out: np.ndarray, z: np.ndarray) -> None:
    """Write the Box-Muller values of uniforms first, first + 1, ... into out.

    out is contiguous float64 of even size and z as for _fill_uniform.  The
    uniforms go into out, the radius and the angle into z once it is spent;
    allocates no array.
    """
    _fill_uniform(seed, first, out, z)
    even, odd = out[0::2], out[1::2]
    scratch = z.view(np.float64)
    radius, angle = scratch[:even.size], scratch[even.size:out.size]
    np.log(even, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    np.multiply(odd, 2.0 * np.pi, out=angle)
    np.cos(angle, out=even)
    even *= radius
    np.sin(angle, out=odd)
    odd *= radius


def _normal_task(seed: int, first: int, start: int, q: int, flat, out, z: np.ndarray,
                 spare) -> None:
    """Draw the block at uniform start of a q-value gaussian draw whose
    first uniform is stream position first: straight into flat, or into
    spare (float64 scratch of a block) and from there into the rows of out."""
    stop = min(start + _NORMAL_BLOCK, 2 * ((q + 1) // 2))
    if out is None:
        _fill_normal(seed, first + start, flat[start:stop], z)
    else:
        _fill_normal(seed, first + start, spare[:stop - start], z)
        _put(out, start, spare[:min(stop, q) - start])


def _put(out: np.ndarray, start: int, values: np.ndarray) -> None:
    """Write values into the rows of out from C-order position start on."""
    n = out.shape[1]
    row, col = divmod(start, n)
    if col:
        head = min(n - col, values.size)
        out[row, col:col + head] = values[:head]
        values = values[head:]
        row += 1
    rows = values.size // n
    out[row:row + rows] = values[:rows * n].reshape(rows, n)
    if values.size > rows * n:
        tail = values[rows * n:]
        out[row + rows, :tail.size] = tail


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
        self._seed = int(seed) % 2**64
        self._count = 0

    def uniform(self, size=None) -> np.ndarray | float:
        """Uniform draws in (0, 1]."""
        q = 1 if size is None else _count(size)
        u = np.empty(q)
        _fill_uniform(self._seed, self._count, u, np.empty(q, np.uint64))
        self._count += q
        return float(u[0]) if size is None else u.reshape(size)

    def normal(self, size=None, out=None) -> np.ndarray | float:
        """Standard normal draws; a draw of _THREADED_VALUES values or more
        is split among threads, with the same values (see the module
        docstring).

        out, if given, is a 2-d float64 array with unit-stride rows, which
        the draw fills in C order and returns; a size given with it must be
        its shape.
        """
        if out is None:
            q = 1 if size is None else _count(size)
            flat = np.empty(2 * ((q + 1) // 2))
        else:
            if not (isinstance(out, np.ndarray) and out.dtype == np.float64
                    and out.ndim == 2 and out.flags.writeable
                    and (out.strides[1] == out.itemsize or min(out.shape[1], out.size) < 2)):
                raise ValueError("out must be a writeable 2-d float64 array with "
                                 "unit-stride rows")
            if size is not None and tuple(np.atleast_1d(size)) != out.shape:
                raise ValueError(f"size {size} is not the shape {out.shape} of out")
            q = out.size
            flat = None
        total = 2 * ((q + 1) // 2)
        seed, first = self._seed, self._count
        self._count += total
        starts = range(0, total, _NORMAL_BLOCK)
        threads = min(_cpu_count(), len(starts), _MAX_THREADS) if q >= _THREADED_VALUES else 1
        # the calling thread allocates the scratch of every thread
        block = min(total, _NORMAL_BLOCK)
        scratch = [(np.empty(block, np.uint64), None if out is None else np.empty(block))
                   for _ in range(threads)]
        if threads == 1:
            for start in starts:
                _normal_task(seed, first, start, q, flat, out, *scratch[0])
        else:
            tasks, lock = iter(starts), threading.Lock()

            def work(z, spare):
                while True:
                    with lock:
                        start = next(tasks, None)
                    if start is None:
                        return
                    _normal_task(seed, first, start, q, flat, out, z, spare)

            with ThreadPoolExecutor(threads - 1) as pool:
                futures = [pool.submit(work, *args) for args in scratch[1:]]
                work(*scratch[0])
            for future in futures:
                future.result()
        if out is not None:
            return out
        if size is None:
            return float(flat[0])
        return flat[:q].reshape(size)
