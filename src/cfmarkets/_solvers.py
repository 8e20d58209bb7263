"""Internal convex solvers: conditional-gradient projection over vertex hulls
and a projected-gradient polish for nonnegativity-constrained minimization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ProjectionResult:
    mu: np.ndarray
    value: float
    gap: float
    converged: bool
    iterations: int


def _line_search(deriv, gamma_max: float, iters: int = 80) -> float:
    """Exact-ish line search for a convex 1-d restriction via derivative
    bisection. `deriv(gamma)` must be the directional derivative."""
    lo, hi = 0.0, gamma_max
    if deriv(hi) <= 0.0:
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if deriv(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def project_onto_hull(vertices: np.ndarray, conj, conj_grad, q: np.ndarray,
                      tol: float = 1e-9, max_iter: int = 1000) -> ProjectionResult:
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
    for it in range(1, max_iter + 1):
        mu = V.T @ lam
        g = V @ (conj_grad(mu) - q)
        s = int(np.argmin(g))
        gap = float(lam @ g - g[s])
        if gap <= tol:
            break
        active = np.flatnonzero(lam > 1e-15)
        a = active[int(np.argmax(g[active]))]
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
        lam = np.clip(lam + gamma * d, 0.0, None)
        lam /= lam.sum()
    mu = V.T @ lam
    return ProjectionResult(mu, float(conj(mu) - q @ mu), gap, gap <= tol,
                            it)


def polish_nonnegative(f, grad, x0: np.ndarray, stop,
                       max_iter: int = 5000) -> np.ndarray:
    """Projected gradient descent with backtracking on the nonnegative
    orthant; `stop(x)` may end the loop early (certificate satisfied)."""
    x = np.clip(np.asarray(x0, dtype=float), 0.0, None)
    step = 1.0
    fx = f(x)
    for _ in range(max_iter):
        if stop(x):
            break
        g = grad(x)
        while True:
            x_new = np.clip(x - step * g, 0.0, None)
            d = x - x_new
            if f(x_new) <= fx - 0.5 * (g @ d) + 1e-18:
                break
            step *= 0.5
            if step < 1e-18:
                return x
        if np.max(np.abs(x_new - x), initial=0.0) < 1e-16:
            break
        x = x_new
        fx = f(x)
        step *= 1.4
    return x
