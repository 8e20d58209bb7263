"""Internal convex solvers: conditional-gradient projection over vertex
hulls, and the bracketed root of a function.

Away-step Frank-Wolfe (Lacoste-Julien & Jaggi, 2015) with an exact line
search: the directional derivative along each step is nondecreasing, so the
step is its root, or the full step when the derivative is still nonpositive
there. That root-find, `increasing_root`, also serves a closed form that
needs one, such as product-LMSR's projection onto a band of the cube, and
the LCMM's coordinate step reads `brentq` directly. `brentq` is the
library's one root-finder: Brent's method (Brent 1973) as scipy's
`brentq.c` implements it, line for line, so its roots are scipy's to the
bit, and no root-find loads scipy.optimize.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan

import numpy as np

_GAP_TOL = 1e-9  # Frank-Wolfe duality gap at which a projection stops
_MAX_ITER = 1000
_XTOL = 1e-15  # `brentq`'s absolute tolerance on the root
_RTOL = 4 * float(np.finfo(float).eps)  # and its relative one, scipy's least
_ROOT_ITER = 100  # `brentq`'s iterations, scipy's default maxiter


@dataclass(frozen=True)
class ProjectionResult:
    mu: np.ndarray
    value: float
    gap: float
    converged: bool
    iterations: int


def _value(f, x: float, fx=None) -> float:
    """f(x), or the fx a caller already has, raising ValueError where it is
    NaN, as scipy's `brentq` does."""
    if fx is None:
        fx = f(x)
    if isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; "
                         "solver cannot continue.")
    return fx


def brentq(f, lo: float, hi: float, f_lo=None, f_hi=None) -> float:
    """A root of f in [lo, hi] by Brent's method: scipy 1.17's `brentq.c`,
    line for line, at xtol _XTOL, rtol _RTOL and maxiter _ROOT_ITER, the
    same float operations in the same order, so it returns the root
    `scipy.optimize.brentq(f, lo, hi, xtol=1e-15, disp=False)` does. f(lo)
    and f(hi) may be passed in as f_lo and f_hi where the caller has them;
    f is called at the other points only. A NaN value raises ValueError,
    as does a bracket whose ends have the same sign, and after _ROOT_ITER
    steps the last iterate is returned, as `disp=False` does."""
    xpre, xcur = lo, hi
    fpre, fcur = _value(f, lo, f_lo), _value(f, hi, f_hi)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(lo) and f(hi) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    return xcur


def increasing_root(f, lo: float, hi: float) -> float:
    """A root of the nondecreasing f in [lo, hi], to about 1e-15: hi where
    f(hi) <= 0 and lo where f(lo) >= 0, since a bracket computed in floats
    can miss the root by a rounding, else `brentq`'s, which reuses both
    ends' values."""
    f_hi = f(hi)
    if f_hi <= 0.0:
        return hi
    f_lo = f(lo)
    if f_lo >= 0.0:
        return lo
    return brentq(f, lo, hi, f_lo, f_hi)


def project_onto_hull(vertices: np.ndarray, conj, conj_grad,
                      q: np.ndarray) -> ProjectionResult:
    """Minimize R(mu) - q.mu over the convex hull of `vertices`.

    Away-step Frank-Wolfe over vertex weights; `conj` evaluates R and
    `conj_grad` its gradient (finite, boundary-clamped). The reported gap is
    the standard Frank-Wolfe duality gap, an upper bound on suboptimality.
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    q = np.asarray(q, dtype=float)
    n = V.shape[0]
    if n == 1:
        mu = V[0]
        return ProjectionResult(mu.copy(), float(conj(mu) - q @ mu), 0.0,
                                True, 0)

    lam = np.full(n, 1.0 / n)
    gap = np.inf
    it = 0
    for it in range(1, _MAX_ITER + 1):
        mu = V.T @ lam
        g = V @ (conj_grad(mu) - q)
        s = int(g.argmin())
        gap = float(lam @ g - g[s])
        if gap <= _GAP_TOL:
            break
        active = np.flatnonzero(lam > 1e-15)
        a = active[int(g[active].argmax())]
        fw_improve = gap
        away_improve = float(g[a] - lam @ g)
        if fw_improve >= away_improve:
            d = -lam.copy()
            d[s] += 1.0
            gamma_max = 1.0
        else:
            d = lam.copy()
            d[a] -= 1.0
            gamma_max = lam[a] / (1.0 - lam[a]) if lam[a] < 1.0 else 1.0
        Vd = V.T @ d

        def deriv(gamma):
            point = mu + gamma * Vd
            return float(Vd @ (conj_grad(point) - q))

        # the exact line search: the root of the nondecreasing derivative,
        # the full step where it is still nonpositive there, and no step
        # where it is not negative at 0, as rounding can leave it where the
        # gap is near 0
        gamma = increasing_root(deriv, 0.0, gamma_max)
        if gamma <= 0.0:
            break
        lam = (lam + gamma * d).clip(0.0, None)
        lam /= lam.sum()
    mu = V.T @ lam
    return ProjectionResult(mu, float(conj(mu) - q @ mu), gap,
                            gap <= _GAP_TOL, it)
