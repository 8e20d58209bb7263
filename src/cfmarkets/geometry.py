"""Small dense linear-feasibility helpers over vertex hulls.

Everything here works on an explicit vertex list V (n x K), with two LP
shapes: minimum-value convex combinations, which also answer hull
membership (every value 0) and overlap (membership of 0 in the hull of the
differences), and separating directions. Each answers None only when HiGHS
proves it infeasible, and raises RuntimeError on any other stop. Instances
are desk-scale, so a dense LP per query is fine; `min_weighted_value` takes
a whole stack of query points as block-diagonal LPs (one on desk-scale
probe sets), because scipy's per-call overhead, not HiGHS, is most of a
small LP's time. Its library callers are the switched cost's sampled convex
roof and `hull_contains`.
`Hull` answers membership and overlap for simplex and sub-cube faces in
closed form and sends every other vertex set to these LPs.

`linprog` is scipy.optimize's own function, bound lazily (PEP 562): the
module `__getattr__` imports it on the first LP and stores it in the module,
so importing geometry does not import scipy.optimize, and a run that makes
no LP never loads it. The two LP builders read `linprog` from the module at
call time, so a binding that replaced it (a test's patch, a tracer's
wrapper) is the one they call.
"""

from __future__ import annotations

import sys
from math import isqrt

import numpy as np

DEFAULT_TOL = 1e-9
_MODULE = sys.modules[__name__]  # the LP builders call `_MODULE.linprog`

# At its default feasibility tolerance (1e-7) HiGHS may round a convex weight
# of 1e-8 to zero, so a point just inside a hull reads as just outside it,
# and a min-value optimum could use far more than its own +- tol of slack, so
# a point's minimum would move by ~1e-10 with the other blocks of its stack.
# The min-value LP, and so membership and overlap, solves once, at the
# tightest tolerances HiGHS takes.
_TIGHT = {"options": {"primal_feasibility_tolerance": 1e-10,
                      "dual_feasibility_tolerance": 1e-10}}
# A stack of points goes to HiGHS in LPs whose dense inequality matrix holds
# at most this many entries (512 KB), so memory stays bounded however many
# points a stack has: J blocks of 2K x n take 2K * n * J^2 entries.
_STACK_ENTRIES = 2 ** 16


def __getattr__(name):
    """Import scipy.optimize's `linprog` on its first use and bind it here,
    so later lookups find it in the module and skip this hook."""
    if name != "linprog":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import linprog
    globals()["linprog"] = linprog
    return linprog


def _solution(res):
    """The LP's solution, or None when HiGHS proves it infeasible; any other
    stop raises, so it is never read as "outside" or "not exposed"."""
    if res.status == 2:
        return None
    if not res.success:
        raise RuntimeError(f"HiGHS stopped without an answer: {res.message}")
    return res.x


def hull_contains(vertices, mu, tol: float = DEFAULT_TOL) -> bool:
    """Whether mu is within L-inf distance tol of the vertices' hull: the
    min-value LP with every value 0 is feasible. A vertex within tol of mu
    is itself a feasible point, so that answers True with no LP, and a
    single vertex that is not answers False; any other point goes to the
    LP, which raises RuntimeError when HiGHS stops without deciding."""
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    mu = np.asarray(mu, dtype=float)
    if np.any(np.max(np.abs(V - mu), axis=1, initial=0.0) <= tol):
        return True
    if V.shape[0] == 1:
        return False
    return min_weighted_value(V, np.zeros(len(V)), mu, tol) is not None


def min_weighted_value(points: np.ndarray, values: np.ndarray, mu,
                       tol: float):
    """Minimize sum(w * values) over convex weights w with P^T w = mu (+- tol).

    `mu` is one point (K,) or a stack (J, K). A stack is solved as
    block-diagonal LPs, as many blocks to an LP as `_STACK_ENTRIES` allows
    (all of them on desk-scale probe sets): block j holds its own weights,
    its own convexity row and its own rows P^T w_j = mu_j (+- tol), and the
    objectives add up, so each block's minimum is the one its point alone
    has. A single point is the one-block case, the LP of one point. Returns
    (min_value, weights), as (J,) values and (J, n) weights for a stack, or
    None when HiGHS proves some point off the hull of points; any other
    HiGHS stop raises RuntimeError. The values must be finite (scipy
    raises ValueError otherwise).
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(values, dtype=float)
    n = len(v)
    mu = np.asarray(mu, dtype=float)
    mus = np.atleast_2d(mu)
    found, w = np.empty(len(mus)), np.empty((len(mus), n))
    rows = np.vstack([P.T, -P.T])  # one point's inequality rows
    step = max(1, isqrt(_STACK_ENTRIES // rows.size))
    for i in range(0, len(mus), step):
        block = mus[i:i + step]
        J = len(block)
        res = _MODULE.linprog(
            np.tile(v, J), A_ub=np.kron(np.eye(J), rows),
            b_ub=np.hstack([block + tol, -block + tol]).ravel(),
            A_eq=np.kron(np.eye(J), np.ones((1, n))),
            b_eq=np.ones(J), bounds=[(0, None)] * (J * n),
            method="highs", **_TIGHT)
        x = _solution(res)
        if x is None:
            return None
        x = x.reshape(J, n)
        found[i:i + J] = x @ v
        w[i:i + J] = np.clip(x, 0.0, None)
    if mu.ndim == 1:
        return float(found[0]), w[0]
    return found, w


def separating_direction(inside_points: np.ndarray, outside_points: np.ndarray,
                         margin: float):
    """Direction v with v.p constant on inside_points and at least `margin`
    above every outside point, or None when HiGHS proves there is none; any
    other HiGHS stop raises RuntimeError.

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
    res = _MODULE.linprog(c_obj, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                          bounds=bounds, method="highs")
    x = _solution(res)
    return None if x is None else x[:k]


def hulls_intersect(vertices_a: np.ndarray, vertices_b: np.ndarray) -> bool:
    """Whether two vertex hulls share a point (within L-inf distance
    DEFAULT_TOL): `hull_contains` of 0 in the hull of the differences
    a_i - b_j, which raises RuntimeError when HiGHS stops without deciding."""
    A = np.atleast_2d(np.asarray(vertices_a, dtype=float))
    B = np.atleast_2d(np.asarray(vertices_b, dtype=float))
    diffs = (A[:, None, :] - B[None, :, :]).reshape(-1, A.shape[1])
    return hull_contains(diffs, np.zeros(A.shape[1]))


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
    simplices are decided in closed form by the exact-arithmetic rule (an
    L-inf residual of at most tol, DEFAULT_TOL for overlap); HiGHS, at its
    1e-10 feasibility tolerance, may answer "in" where a simplex sum misses
    1 by rounding (about 1e-16). Generic hulls go to the LPs of
    `hull_contains` and `hulls_intersect`, which raise RuntimeError when
    HiGHS stops without deciding.
    Membership is decided on a stack of points, `contains_rows`; one point,
    `contains`, is the stack's single row.
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
        self._pin_at = np.fromiter(self.pinned, dtype=int,
                                   count=len(self.pinned))

    def contains(self, mu, tol: float = DEFAULT_TOL) -> bool:
        """Whether mu is within L-inf distance tol of the hull: the
        one-row stack of `contains_rows`."""
        return bool(self.contains_rows(np.asarray(mu, dtype=float)[None, :],
                                       tol)[0])

    def contains_rows(self, mus, tol: float) -> np.ndarray:
        """Membership of each row of a (J, K) stack, as a (J,) bool array:
        the closed-form rule as array operations on a box or simplex, and
        `hull_contains` row by row on a generic hull."""
        mus = np.ascontiguousarray(mus, dtype=float)
        if self.kind == "generic":
            return np.array([hull_contains(self.vertices, mu, tol)
                             for mu in mus], dtype=bool)
        at = self._pin_at
        f = mus[:, self.free]
        ok = ~((np.abs(mus[:, at] - self.vertices[0, at]) > tol).any(axis=1)
               | (f < -tol).any(axis=1))
        if self.kind == "box":
            return ok & (f <= 1.0 + tol).all(axis=1)
        # some point with coordinates in [max(f - tol, 0), f + tol] sums to 1
        return (ok & (np.maximum(f - tol, 0.0).sum(axis=1) <= 1.0)
                & (1.0 <= (f + tol).sum(axis=1)))

    def intersects(self, other: "Hull") -> bool:
        """Whether the two hulls share a point (within L-inf distance
        DEFAULT_TOL)."""
        if self.kind == other.kind == "box":
            shared = self.pinned.keys() & other.pinned.keys()
            return all(abs(self.pinned[i] - other.pinned[i]) <= DEFAULT_TOL
                       for i in shared)
        if self.kind == other.kind == "simplex":
            # disjoint faces are max(1/|a|, 1/|b|) >> DEFAULT_TOL apart
            return bool(np.intersect1d(self.free, other.free).size)
        for one, rest in ((self, other), (other, self)):
            if one.vertices.shape[0] == 1 and rest.kind != "generic":
                return rest.contains(one.vertices[0])
        return hulls_intersect(self.vertices, other.vertices)
