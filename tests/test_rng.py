import itertools
import math

import numpy as np
import pytest

from gladssn import rng
from gladssn.problems import make_quadratic
from gladssn.rng import Rng

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix64_py(z):
    # independent reimplementation on python ints, straight from the recipe
    z &= MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return z


def uniform_py(seed, i):
    z = mix64_py((seed + (i + 1) * GAMMA) & MASK)
    return ((z >> 11) + 1) * 2.0**-53


def test_mix64_matches_pure_python():
    # the in-place finalizer, elementwise on a uint64 array, which it returns
    words = [0, 1, 42, 2**63, MASK, 0xDEADBEEFCAFEBABE]
    z = np.array(words, dtype=np.uint64)
    out = rng._mix_in_place(z, np.empty_like(z))
    assert out is z
    assert [int(o) for o in out] == [mix64_py(w) for w in words]


def test_uniform_stream_matches_pure_python():
    seed = 12345
    r = Rng(seed)
    got = r.uniform(size=8)
    want = np.array([uniform_py(seed, i) for i in range(8)])
    np.testing.assert_array_equal(got, want)
    # stream continues from the counter, no overlap
    got2 = r.uniform(size=3)
    want2 = np.array([uniform_py(seed, i) for i in range(8, 11)])
    np.testing.assert_array_equal(got2, want2)


def test_normal_stream_matches_pure_python():
    seed = 7
    r = Rng(seed)
    got = r.normal(size=5)
    us = [uniform_py(seed, i) for i in range(6)]  # 5 draws -> 3 pairs
    want = []
    for u1, u2 in zip(us[0::2], us[1::2]):
        rad = math.sqrt(-2.0 * math.log(u1))
        want.append(rad * math.cos(2.0 * math.pi * u2))
        want.append(rad * math.sin(2.0 * math.pi * u2))
    np.testing.assert_allclose(got, want[:5], rtol=0, atol=1e-15)


def test_same_seed_same_stream():
    a = Rng(99)
    b = Rng(99)
    np.testing.assert_array_equal(a.uniform(size=100), b.uniform(size=100))
    np.testing.assert_array_equal(a.normal(size=(7, 3)), b.normal(size=(7, 3)))


def test_different_seeds_differ():
    a = Rng(1).uniform(size=64)
    b = Rng(2).uniform(size=64)
    assert np.any(a != b)


def test_uniform_range_and_moments():
    u = Rng(3).uniform(size=100000)
    assert np.all(u > 0.0)
    assert np.all(u <= 1.0)
    assert abs(u.mean() - 0.5) < 5e-3
    assert abs(u.var() - 1.0 / 12.0) < 5e-3


def test_normal_moments():
    z = Rng(4).normal(size=100000)
    assert abs(z.mean()) < 2e-2
    assert abs(z.std() - 1.0) < 2e-2


def test_scalar_draws_match_array_head():
    assert Rng(11).uniform() == Rng(11).uniform(size=1)[0]
    assert Rng(11).normal() == Rng(11).normal(size=1)[0]


def test_odd_normal_request_consumes_full_pair():
    # 3 gaussians burn 4 uniforms; the next draw starts at index 4
    r = Rng(5)
    r.normal(size=3)
    assert r.uniform() == uniform_py(5, 4)


def test_seed_wraps_mod_2_64():
    big = 2**64 + 123
    np.testing.assert_array_equal(Rng(big).uniform(size=4),
                                  Rng(123).uniform(size=4))
    # a numpy integer is a seed; a fraction or a bool is refused, not rounded
    np.testing.assert_array_equal(Rng(np.int64(123)).uniform(size=4),
                                  Rng(123).uniform(size=4))
    for seed in (1.5, True):
        with pytest.raises(TypeError, match="seed must be an integer"):
            make_quadratic(seed, n=4)


def normal_unblocked(seed, skip, q):
    # the recipe in one piece: q gaussians from the pairs of uniforms that
    # follow the first skip uniforms of the stream
    u = Rng(seed).uniform(size=skip + 2 * ((q + 1) // 2))[skip:]
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    out = np.empty(u.size)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:q]


def test_blocked_normal_draw_equals_the_unblocked_recipe(monkeypatch):
    # normal() draws by blocks of rng._NORMAL_BLOCK uniforms and splits a
    # draw of rng._THREADED_VALUES values or more among threads, one per
    # CPU; a draw that spans block boundaries equals the recipe computed in
    # one piece bit for bit, for an odd count too, on this process's CPUs,
    # on one and on three, and the stream continues after it
    block = rng._NORMAL_BLOCK
    threaded = rng._THREADED_VALUES + block // 2 + 1
    assert block % 2 == 0 and threaded % 2 == 1
    counts = (2 * block + 1, threaded, block - 1, block, 3)
    skips = list(itertools.accumulate((2 * ((q + 1) // 2) for q in counts), initial=0))
    want = [normal_unblocked(21, skip, q) for skip, q in zip(skips, counts)]
    for cpus in (None, 1, 3):
        if cpus is not None:
            monkeypatch.setattr(rng, "_cpu_count", lambda: cpus)
        r = Rng(21)
        for q, values in zip(counts, want):
            np.testing.assert_array_equal(r.normal(size=q), values, err_msg=f"cpus {cpus}")
        assert r.uniform() == uniform_py(21, skips[-1])


@pytest.mark.parametrize("size, shape", [
    (None, None), (5, (5,)), (np.int64(5), (5,)), (np.int32(3), (3,)), ((), ()), ((3,), (3,)),
    ((2, 3), (2, 3)), ([2, 3], (2, 3)), ((np.int64(2), np.int64(3)), (2, 3)),
    ([np.int32(3), 1], (3, 1))])
def test_draws_give_the_recipe_for_every_form_of_size(size, shape):
    # every form of size a draw takes, with the shape it gives (None: a float)
    q = 1 if shape is None else math.prod(shape)
    want = {"uniform": np.array([uniform_py(9, i) for i in range(q)]),
            "normal": normal_unblocked(9, 0, q)}
    for method, values in want.items():
        got = getattr(Rng(9), method)(size)
        if shape is None:
            assert type(got) is float and got == values[0], method
        else:
            assert got.shape == shape, method
            np.testing.assert_array_equal(got.ravel(), values, err_msg=method)


@pytest.mark.parametrize("size", [-1, np.int64(-1), (2, -1), (-2, -3), [0, -4]])
def test_a_negative_size_is_refused_before_the_stream_moves(size):
    # a negative dimension raises before any value is drawn, so the stream
    # does not move: the next draw is a fresh stream's first
    for method in ("uniform", "normal"):
        r = Rng(13)
        with pytest.raises(ValueError, match="negative dimensions"):
            getattr(r, method)(size)
        np.testing.assert_array_equal(r.uniform(size=3), Rng(13).uniform(size=3), err_msg=method)


@pytest.mark.parametrize("out, size", [
    (np.empty((4, 6), dtype=np.float32), None), (np.empty(24), None),
    (np.empty((2, 3, 4)), None), (np.empty((4, 6), order="F"), None),
    (np.empty((4, 12))[:, ::2], None), (np.empty((4, 6)), (6, 4)),
    (np.zeros((4, 6)).view(np.int64), None), ([[0.0] * 6] * 4, None),
    (np.broadcast_to(np.zeros(6), (4, 6)), None)])
def test_a_bad_out_is_refused_before_the_stream_moves(out, size):
    # normal(out=) takes a writeable 2-d float64 array with unit-stride
    # rows, and a size only if it is that array's shape; anything else
    # raises before any value is drawn
    r = Rng(13)
    with pytest.raises(ValueError, match="out"):
        r.normal(size, out=out)
    np.testing.assert_array_equal(r.uniform(size=3), Rng(13).uniform(size=3))


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (3, 1), (1, 7), (7, 5)])
def test_normal_fills_the_rows_of_out_in_c_order(shape):
    # out may be a view whose rows lie apart, one column, or empty (numpy
    # gives an empty array zero strides): it gets the values of the same
    # draw by size, the columns beside it keep theirs, and the stream
    # continues after the draw
    store = np.full((shape[0], shape[1] + 2), 7.0)
    q = math.prod(shape)
    for out in (store[:, 1:-1], np.empty(shape)):
        r = Rng(3)
        assert r.normal(out=out) is out
        np.testing.assert_array_equal(out, Rng(3).normal(shape))
        assert r.uniform() == uniform_py(3, 2 * ((q + 1) // 2))
    assert np.all(store[:, [0, -1]] == 7.0)
