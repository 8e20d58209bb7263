"""Internal convex solver: conditional-gradient projection over vertex hulls.

Away-step Frank-Wolfe (Lacoste-Julien & Jaggi, 2015) with an exact line
search: the directional derivative along each step is nondecreasing, so the
step is its root, found by `brentq`, or the full step when the derivative is
still nonpositive there. `brentq` is imported inside `_line_search`, so
scipy.optimize loads on the first line search that needs a root, not with
this module: a run whose projections are all closed forms never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GAP_TOL = 1e-9  # Frank-Wolfe duality gap at which a projection stops
_MAX_ITER = 1000


@dataclass(frozen=True)
class ProjectionResult:
    mu: np.ndarray
    value: float
    gap: float
    converged: bool
    iterations: int


def _line_search(deriv, gamma_max: float) -> float:
    """Exact line search for a convex 1-d restriction on [0, gamma_max].
    `deriv(gamma)` must be the directional derivative, negative at 0."""
    if deriv(gamma_max) <= 0.0:
        return gamma_max
    from scipy.optimize import brentq

    return brentq(deriv, 0.0, gamma_max, xtol=1e-15, disp=False)


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

        gamma = _line_search(deriv, gamma_max)
        if gamma <= 0.0:
            break
        lam = (lam + gamma * d).clip(0.0, None)
        lam /= lam.sum()
    mu = V.T @ lam
    return ProjectionResult(mu, float(conj(mu) - q @ mu), gap,
                            gap <= _GAP_TOL, it)
