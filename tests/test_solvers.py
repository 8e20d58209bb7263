"""`_solvers.brentq` against scipy's own `brentq`, root for root.

The port claims to be scipy's `brentq.c` line for line at xtol 1e-15, so
every root it returns must equal scipy's with `==`, not within a tolerance:
over seeded product-LMSR slice roots (`Σ expit(z + t) − j`, |z| up to 50),
the medal-count LCMM's coordinate functions and polynomial-plus-sine
functions, and at the edges (a zero at an end, a NaN value, a bracket that
does not change sign, maxiter exhausted). Handing it the values at both
ends, as its callers do, changes no root and saves those two calls.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq
from scipy.special import expit

from cfmarkets import medal_count_model
from cfmarkets._solvers import brentq


def reference(f, lo, hi):
    return scipy_brentq(f, lo, hi, xtol=1e-15, disp=False)


def counted(f):
    """f, counting its calls in `.calls`."""
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


def check(f, lo, hi):
    """Assert the port's root equals scipy's, with and without the two end
    values handed in, and that handing them in saves exactly two calls."""
    want = reference(f, lo, hi)
    own, given = counted(f), counted(f)
    assert brentq(own, lo, hi) == want
    assert brentq(given, lo, hi, f(lo), f(hi)) == want
    assert given.calls == own.calls - 2


def slice_cases(count, seed):
    """(f, lo, hi) of product-LMSR slice roots: j ones among m coordinates
    at states z up to 50 in magnitude, half on a wide bracket and half on
    the slice projector's own bracket, measured from the j-th largest z."""
    rng = np.random.default_rng(seed)
    while count:
        m = int(rng.integers(2, 9))
        j = int(rng.integers(1, m))
        z = rng.uniform(-50.0, 50.0, m) * rng.choice([1e-3, 0.1, 1.0, 1.0])
        if count % 2:
            lo, hi = -40.0 - float(z.max()), 40.0 - float(z.min())
        else:
            below, ref = np.sort(z)[m - j - 1:m - j + 1]
            z = z - ref
            lo, hi = -math.log(m - j), float(ref - below) + math.log(j)

        def f(t, z=z, j=j):
            return float(expit(z + t).sum()) - j

        if f(lo) < 0.0 < f(hi):
            count -= 1
            yield f, lo, hi


def coordinate_cases(n, count, seed):
    """(g, lo, hi, g_lo, g_hi) of the medal(n) LCMM's coordinate step at
    seeded states and multipliers, bracketed by its own doubling."""
    m = medal_count_model(n)
    rng = np.random.default_rng(seed)
    while count:
        q = rng.normal(0.0, 1.5, m.dim)
        eta = rng.exponential(0.5, m.A.shape[1]) * (rng.random(m.A.shape[1])
                                                   < 0.5)
        j = int(rng.integers(m.A.shape[1]))
        a = m.A[:, j]
        base = q + m.A @ eta - eta[j] * a

        def g(t, a=a, base=base, b=m.b_c[j]):
            return float(a @ m._dmu(base + t * a)) - b

        lo, hi = 0.0, 1.0
        g_lo = g(lo)
        if g_lo >= 0.0:
            continue
        g_hi = g(hi)
        while g_hi < 0.0:
            lo, hi, g_lo = hi, 2.0 * hi, g_hi
            g_hi = g(hi)
        count -= 1
        yield g, lo, hi, g_lo, g_hi


def test_slice_roots_are_scipys_to_the_bit():
    for f, lo, hi in slice_cases(6000, 0):
        check(f, lo, hi)


@pytest.mark.parametrize("n", [2, 3])
def test_medal_coordinate_roots_are_scipys_to_the_bit(n):
    for g, lo, hi, g_lo, g_hi in coordinate_cases(n, 1000, n):
        want = reference(g, lo, hi)
        assert brentq(g, lo, hi, g_lo, g_hi) == want
        assert brentq(g, lo, hi) == want


def test_polynomial_plus_sine_roots_are_scipys_to_the_bit():
    rng = np.random.default_rng(5)
    cases = 0
    while cases < 3000:
        c = rng.normal(size=4)
        w = rng.uniform(0.1, 5.0)
        lo, hi = sorted(rng.uniform(-10.0, 10.0, 2))

        def f(x, c=c, w=w):
            return c[0] + c[1] * x + c[2] * x ** 3 + w * math.sin(c[3] * x)

        if (f(lo) < 0.0) != (f(hi) < 0.0) and f(lo) and f(hi):
            check(f, lo, hi)
            cases += 1


@pytest.mark.parametrize("lo, hi", [(1.0, 3.0), (-2.0, 1.0)])
def test_a_zero_at_an_end_is_returned_at_once(lo, hi):
    f = counted(lambda x: x - 1.0)
    assert brentq(f, lo, hi) == reference(f, lo, hi) == 1.0
    f.calls = 0
    assert brentq(f, lo, hi, f(lo), f(hi)) == 1.0 and f.calls == 2


def test_a_nan_value_raises_as_scipys_does():
    def f(x):
        return math.nan if 0.2 < x < 0.8 else x - 0.5

    with pytest.raises(ValueError, match="NaN"):
        reference(f, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        brentq(f, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: x, -1.0, 1.0, math.nan, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: x, -1.0, 1.0, -1.0, math.nan)


def test_a_bracket_without_a_sign_change_raises_as_scipys_does():
    with pytest.raises(ValueError):
        reference(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_maxiter_exhausted_returns_the_last_iterate_as_scipys_does():
    # a step at 0.3 on a bracket of width 2e300: bisection needs about
    # 1,050 halvings, far past the 100 iterations
    def f(x):
        return -1.0 if x < 0.3 else 1.0

    root, info = scipy_brentq(f, -1e300, 1e300, xtol=1e-15,
                              full_output=True, disp=False)
    assert not info.converged and info.iterations == 100
    assert brentq(f, -1e300, 1e300) == root
    assert brentq(f, -1e300, 1e300, -1.0, 1.0) == root
