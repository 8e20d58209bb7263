"""Small dense linear-feasibility helpers over vertex hulls.

Everything here works on an explicit vertex list V (n x K): hull membership
and hull overlap (one min-slack LP, `_min_slack`), separating directions,
and minimum-value convex combinations. Instances are desk-scale, so a dense
LP per query is fine; `min_weighted_value` takes a whole stack of query
points as block-diagonal LPs (one on desk-scale probe sets), because
scipy's per-call overhead, not HiGHS, is most of a small LP's time. The
switched cost's sampled convex roof is its one library caller.
`Hull` answers membership and overlap for simplex and sub-cube faces in
closed form and sends every other vertex set to these LPs.
"""

from __future__ import annotations

from math import isqrt

import numpy as np
from scipy.optimize import linprog

DEFAULT_TOL = 1e-9

# At its default feasibility tolerance (1e-7) HiGHS may round a convex weight
# of 1e-8 to zero, so a point just inside a hull reads as just outside it.
# A miss of at most _RESOLVE_BELOW is solved once more at the tightest
# tolerances HiGHS takes; larger misses are real. `min_weighted_value` always
# solves at them: at 1e-7 its optimum could use far more than its own +- tol
# of slack, and a point's minimum would then move by ~1e-10 with the other
# blocks of its stack.
_RESOLVE_ABOVE = 1e-12
_RESOLVE_BELOW = 1e-6
_TIGHT = {"options": {"primal_feasibility_tolerance": 1e-10,
                      "dual_feasibility_tolerance": 1e-10}}
# A stack of points goes to HiGHS in LPs whose dense inequality matrix holds
# at most this many entries (512 KB), so memory stays bounded however many
# points a stack has: J blocks of 2K x n take 2K * n * J^2 entries.
_STACK_ENTRIES = 2 ** 16


def _near_miss(residual: float) -> bool:
    return _RESOLVE_ABOVE < residual <= _RESOLVE_BELOW


def _min_slack(m, r, a_eq, b_eq, read, tol: float = 0.0):
    """Minimize the slack s over nonnegative x with |m x - r| <= s and
    a_eq x = b_eq, the slack as the last LP variable.

    `read(solution)` returns (answer, miss). A near miss above `tol` is
    solved once more at `_TIGHT`. Returns the last (answer, miss).
    """
    k, n = m.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * k, n + 1))
    a_ub[:k, :n] = m
    a_ub[k:, :n] = -m
    a_ub[:, -1] = -1.0
    a_eq = np.hstack([a_eq, np.zeros((a_eq.shape[0], 1))])
    for extra in ({}, _TIGHT):
        res = linprog(c, A_ub=a_ub, b_ub=np.concatenate([r, -r]), A_eq=a_eq,
                      b_eq=b_eq, bounds=[(0, None)] * (n + 1),
                      method="highs", **extra)
        if not res.success:  # pragma: no cover - the slack makes this feasible
            raise RuntimeError(f"min-slack LP failed: {res.message}")
        answer, miss = read(res.x)
        if miss <= tol or not _near_miss(miss):
            break
    return answer, miss


def hull_contains(vertices, mu, tol: float = DEFAULT_TOL) -> bool:
    """Whether mu is within L-inf distance tol of the vertices' hull: the
    least L-inf error of a convex combination of the vertices, from the
    min-slack LP and recomputed from its weights."""
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    mu = np.asarray(mu, dtype=float)
    n = V.shape[0]
    if n == 1:
        return float(np.max(np.abs(V[0] - mu), initial=0.0)) <= tol

    def residual(x):
        lam = np.clip(x[:n], 0.0, None)
        lam /= lam.sum()
        return None, float(np.max(np.abs(V.T @ lam - mu), initial=0.0))

    _, miss = _min_slack(V.T, mu, np.ones((1, n)), [1.0], residual)
    return miss <= tol


def min_weighted_value(points: np.ndarray, values: np.ndarray, mu,
                       tol: float = DEFAULT_TOL):
    """Minimize sum(w * values) over convex weights w with P^T w = mu (+- tol).

    `mu` is one point (K,) or a stack (J, K). A stack is solved as
    block-diagonal LPs, as many blocks to an LP as `_STACK_ENTRIES` allows
    (all of them on desk-scale probe sets): block j holds its own weights,
    its own convexity row and its own rows P^T w_j = mu_j (+- tol), and the
    objectives add up, so each block's minimum is the one its point alone
    has. A single point is the one-block case, the LP of one point. Returns (min_value, weights), as (J,) values and
    (J, n) weights for a stack, or None when some point is not in the hull
    of points. Non-finite values drop their points from the program.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(values, dtype=float)
    keep = np.isfinite(v)
    if not keep.any():
        return None
    P, v = P[keep], v[keep]
    n = len(v)
    mu = np.asarray(mu, dtype=float)
    mus = np.atleast_2d(mu)
    found, w = np.empty(len(mus)), np.zeros((len(mus), keep.shape[0]))
    rows = np.vstack([P.T, -P.T])  # one point's inequality rows
    step = max(1, isqrt(_STACK_ENTRIES // rows.size))
    for i in range(0, len(mus), step):
        block = mus[i:i + step]
        J = len(block)
        res = linprog(np.tile(v, J), A_ub=np.kron(np.eye(J), rows),
                      b_ub=np.hstack([block + tol, -block + tol]).ravel(),
                      A_eq=np.kron(np.eye(J), np.ones((1, n))),
                      b_eq=np.ones(J), bounds=[(0, None)] * (J * n),
                      method="highs", **_TIGHT)
        if not res.success:
            return None
        x = res.x.reshape(J, n)
        found[i:i + J] = x @ v
        w[i:i + J, keep] = np.clip(x, 0.0, None)
    if mu.ndim == 1:
        return float(found[0]), w[0]
    return found, w


def separating_direction(inside_points: np.ndarray, outside_points: np.ndarray,
                         margin: float = 1.0):
    """Direction v with v.p constant on inside_points and at least `margin`
    above every outside point, or None if there is none.

    Among feasible v the L1-smallest is returned, which keeps witnesses tidy.
    """
    P_in = np.atleast_2d(np.asarray(inside_points, dtype=float))
    P_out = np.atleast_2d(np.asarray(outside_points, dtype=float))
    k = P_in.shape[1]
    if P_out.size == 0:
        return np.zeros(k)
    # variables: [v (k), c (1), u (k)]; minimize sum u, |v| <= u
    n_var = 2 * k + 1
    c_obj = np.zeros(n_var)
    c_obj[k + 1:] = 1.0
    a_eq = np.zeros((P_in.shape[0], n_var))
    a_eq[:, :k] = P_in
    a_eq[:, k] = -1.0
    b_eq = np.zeros(P_in.shape[0])
    m = P_out.shape[0]
    a_ub = np.zeros((m + 2 * k, n_var))
    b_ub = np.zeros(m + 2 * k)
    a_ub[:m, :k] = P_out  # v.p - c <= -margin for each outside point
    a_ub[:m, k] = -1.0
    b_ub[:m] = -margin
    # then |v_i| <= u_i as the row pair v_i - u_i <= 0, -v_i - u_i <= 0
    rows = m + np.arange(2 * k)
    cols = np.repeat(np.arange(k), 2)
    a_ub[rows, cols] = np.tile([1.0, -1.0], k)
    a_ub[rows, k + 1 + cols] = -1.0
    bounds = [(None, None)] * (k + 1) + [(0, None)] * k
    res = linprog(c_obj, A_ub=a_ub, b_ub=b_ub,
                  A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        return None
    return res.x[:k].copy()


def hulls_intersect(vertices_a: np.ndarray, vertices_b: np.ndarray,
                    tol: float = DEFAULT_TOL) -> bool:
    """Whether two vertex hulls share a point (within tol)."""
    A = np.atleast_2d(np.asarray(vertices_a, dtype=float))
    B = np.atleast_2d(np.asarray(vertices_b, dtype=float))
    na, nb = A.shape[0], B.shape[0]
    # variables [lam_a, lam_b]: minimize s with |A^T la - B^T lb| <= s
    a_eq = np.zeros((2, na + nb))
    a_eq[0, :na] = 1.0
    a_eq[1, na:] = 1.0
    _, gap = _min_slack(np.hstack([A.T, -B.T]), np.zeros(A.shape[1]), a_eq,
                        [1.0, 1.0], lambda x: (None, float(x[-1])), tol)
    return gap <= tol


_EQ_TOL = 1e-12  # payoff entries this close count as equal


class Hull:
    """Convex hull of an event's payoff vertices, sorted once into a kind.

    - "box": 0/1 vertices forming the full sub-cube over the `free`
      coordinates, with the other coordinates `pinned`;
    - "simplex": distinct unit vectors e_i for i in `free`, every other
      coordinate pinned to 0;
    - "generic": anything else (`pinned` empty, `free` every coordinate).

    A single unit vector is a box with every coordinate pinned, unless the
    vertices come from a `complete` market (payoffs distinct unit vectors),
    where every event is a simplex face. Membership and overlap of boxes and
    simplices are decided in closed form, with the meaning `hull_contains`
    and `hulls_intersect` give them (an L-inf residual of at most tol);
    generic hulls go to those LPs.
    """

    def __init__(self, vertices, complete: bool = False):
        V = np.array(vertices, dtype=float, ndmin=2)
        V.setflags(write=False)
        n, k = V.shape
        self.vertices = V
        self.kind = "generic"
        self.free = np.arange(k)
        one = np.abs(V - 1.0) < _EQ_TOL
        if np.all(one | (np.abs(V) < _EQ_TOL)):
            free = np.flatnonzero(np.ptp(V, axis=0) >= _EQ_TOL)
            patterns = {tuple(row) for row in one[:, free]}
            units = np.argmax(V, axis=1)
            unit = (np.all(one.sum(axis=1) == 1)
                    and len(set(units)) == n)
            cube = n == 2 ** len(free) and len(patterns) == n
            if unit and (complete or not cube):
                self.kind, self.free = "simplex", np.unique(units)
            elif cube:
                self.kind, self.free = "box", free
        self.pinned = ({} if self.kind == "generic" else
                       {int(i): float(V[0, i])
                        for i in np.setdiff1d(np.arange(k), self.free)})

    def contains(self, mu, tol: float = DEFAULT_TOL) -> bool:
        """Whether mu is within L-inf distance tol of the hull."""
        if self.kind == "generic":
            return hull_contains(self.vertices, mu, tol)
        mu = np.asarray(mu, dtype=float)
        if any(abs(mu[i] - c) > tol for i, c in self.pinned.items()):
            return False
        f = mu[self.free]
        if np.any(f < -tol):
            return False
        if self.kind == "box":
            return bool(np.all(f <= 1.0 + tol))
        # some point with coordinates in [max(f - tol, 0), f + tol] sums to 1
        return bool(np.maximum(f - tol, 0.0).sum() <= 1.0 <= (f + tol).sum())

    def intersects(self, other: "Hull", tol: float = DEFAULT_TOL) -> bool:
        """Whether the two hulls share a point (within L-inf distance tol)."""
        if self.kind == other.kind == "box":
            shared = self.pinned.keys() & other.pinned.keys()
            return all(abs(self.pinned[i] - other.pinned[i]) <= tol
                       for i in shared)
        if self.kind == other.kind == "simplex":
            # disjoint simplex faces are max(1/|a|, 1/|b|) apart in L-inf
            a, b = self.free, other.free
            return bool(np.intersect1d(a, b).size
                        or max(1.0 / a.size, 1.0 / b.size) <= tol)
        for one, rest in ((self, other), (other, self)):
            if one.vertices.shape[0] == 1 and rest.kind != "generic":
                return rest.contains(one.vertices[0], tol)
        return hulls_intersect(self.vertices, other.vertices, tol)
