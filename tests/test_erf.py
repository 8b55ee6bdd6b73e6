"""The numpy port of Cephes erf keeps scipy.special.erf's bits.

scipy is the test oracle only: the program itself never imports it.
"""

import math
import threading
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import erf as scipy_erf

from infostat.encoder import layers
from infostat.encoder.layers import ERF_BLOCK, _MAXLOG

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def neighbours(values):
    """Each value and the doubles on either side of it."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])


def edge_values():
    tiny = np.finfo(np.float64).tiny
    points = [0.0, 1.0, 8.0, math.sqrt(_MAXLOG), 27.0]
    return np.concatenate([
        neighbours(points), -neighbours(points),
        [-0.0, 5e-324, -5e-324, tiny / 3, -tiny / 3, tiny, 1e-300, 1e-20,
         1e154, 1e300, np.finfo(np.float64).max,
         -np.finfo(np.float64).max, np.inf, -np.inf, np.nan, -np.nan]])


def branch_values(seed, n):
    """n draws from each of |x| <= 1, 1 < |x| < 8, 8 <= |x| < sqrt(MAXLOG)
    and past it, either sign."""
    rng = np.random.default_rng(seed)
    sign = np.where(rng.random(4 * n) < 0.5, -1.0, 1.0)
    magnitude = np.concatenate([
        rng.uniform(0.0, 1.0, n), rng.uniform(1.0, 8.0, n),
        rng.uniform(8.0, math.sqrt(_MAXLOG), n),
        np.exp(rng.uniform(math.log(math.sqrt(_MAXLOG)), 700.0, n))])
    return sign * magnitude


def as_dtype(x, dtype):
    with np.errstate(over="ignore"):  # float64 values past float32's range
        return np.asarray(x).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_port_has_scipys_bits_in_every_branch(dtype):
    x = as_dtype(np.concatenate([branch_values(0, 20_000), edge_values()]),
                 dtype)
    rng = np.random.default_rng(1)
    x = x[rng.permutation(x.size)]
    got = layers.erf(x)
    assert got.dtype == dtype
    assert got.tobytes() == scipy_erf(x).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("size", [1, 7, ERF_BLOCK - 1, ERF_BLOCK + 1,
                                  2 * ERF_BLOCK + 5])
def test_port_has_scipys_bits_at_any_size(dtype, size):
    """Sizes off the block, with the values past [-1, 1] only in the last
    block, as the only values past it, or nowhere."""
    x = np.random.default_rng(size).uniform(-1.0, 1.0, size)
    cases = [x, x.copy(), x.reshape(1, size, 1)]
    cases[1][-1] = 3.5
    for case in cases:
        case = as_dtype(case, dtype)
        assert layers.erf(case).tobytes() == scipy_erf(case).tobytes()
    assert layers.erf(np.empty((0, 3), dtype)).shape == (0, 3)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_gelu_has_scipys_bits_with_a_tenth_past_one(dtype):
    """About 10% of GELU's erf arguments z / sqrt 2 lie outside [-1, 1]."""
    z = as_dtype(np.random.default_rng(2).standard_normal((5, 24, 700))
                 * 0.85, dtype)
    t = z * _INV_SQRT2
    assert 0.08 < np.mean(np.abs(t) > 1) < 0.12
    phi = 0.5 * (1.0 + scipy_erf(t))
    out, (z_kept, got_phi) = layers.gelu_forward(z)
    assert z_kept is z and got_phi.tobytes() == phi.tobytes()
    assert out.tobytes() == (z * phi).tobytes()
    assert layers.gelu_forward(z, keep_cache=False)[0].tobytes() \
        == out.tobytes()


def test_two_threads_at_once_give_the_single_thread_bits():
    z = np.random.default_rng(3).standard_normal(3 * ERF_BLOCK + 11) * 0.85
    expected = layers.gelu_forward(z, keep_cache=False)[0].tobytes()
    start = threading.Barrier(2)
    results = [[], []]

    def work(slot):
        start.wait()
        for _ in range(5):
            results[slot].append(
                layers.gelu_forward(z, keep_cache=False)[0].tobytes())

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert results == [[expected] * 5] * 2


def test_port_is_accurate_to_50_digits():
    x = np.concatenate([np.linspace(-6.5, 6.5, 1301),
                        np.geomspace(1e-300, 1.0, 301),
                        -np.geomspace(1e-12, 1.0, 61)])
    with mpmath.workdps(50):
        for value, got in zip(x, layers.erf(x)):
            exact = float(mpmath.erf(mpmath.mpf(float(value))))
            assert abs(got - exact) \
                <= 2 * np.finfo(np.float64).eps * abs(exact)


def test_huge_and_non_finite_inputs_raise_no_warning():
    """Past sqrt(MAXLOG) no square or polynomial is formed. (GELU's own
    -inf * 0 at -inf is invalid, as it was with scipy's erf.)"""
    x = np.array([1e308, -1e308, 1e200, -1e200, 26.7, 1e-320, 0.5, np.inf,
                  -np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = layers.erf(x)
        out = layers.gelu_forward(x[:7], keep_cache=False)[0]
    assert got.tobytes() == scipy_erf(x).tobytes()
    assert out[:4].tolist() == [1e308, -0.0, 1e200, -0.0]
