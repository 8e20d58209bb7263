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
`Hull` answers membership and overlap of bands (every 0/1 vector with a
count of ones in a range on some free coordinates, the others pinned:
sub-cube faces, simplex faces, slices of the cube) in closed form, and
sends every other question to these LPs.

`linprog` is scipy.optimize's own function, bound lazily (PEP 562): the
module `__getattr__` imports it on the first LP and stores it in the module,
so importing geometry does not import scipy.optimize, and a run that makes
no LP never loads it. It is the one scipy.optimize name the library uses:
every root-find is `_solvers.brentq`'s. The two LP builders read `linprog`
from the module at call time, so a binding that replaced it (a test's
patch, a tracer's wrapper) is the one they call.
"""

from __future__ import annotations

import sys
from math import comb, isqrt

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
    if (np.abs(V - mu).max(axis=1, initial=0.0) <= tol).any():
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
        w[i:i + J] = x.clip(0.0, None)
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
    """Convex hull of an event's payoff vertices, sorted once as a *band*
    or as generic.

    A band is every 0/1 vector on the `free` coordinates whose count of
    ones lies in `levels` = (lo, hi), with the other coordinates `pinned`
    to one 0/1 value each. Its hull is {f in [0, 1]^free : lo <= sum f <=
    hi}, whose vertices are integral because the constraint matrix is
    totally unimodular. A sub-cube face is the band (0, |free|)
    (`is_box`), a single vertex the band (0, 0) with nothing free, the
    unit vectors e_i for i in `free` the band (1, 1) with every pin 0, and
    a level set of the cube's coordinate sum the band (j, j). In a
    `complete` market (payoffs distinct unit vectors) every event keeps
    its unit coordinates free at (1, 1), a single outcome too. Any other
    vertex set is generic: `levels` is None, nothing is pinned and every
    coordinate is free.

    Membership and overlap of bands are decided in closed form by the
    exact-arithmetic rule (an L-inf residual of at most tol, DEFAULT_TOL
    for overlap); HiGHS, at its 1e-10 feasibility tolerance, may answer
    "in" where a level sum misses by rounding (about 1e-16). Generic hulls,
    and overlap with a generic hull, go to the LPs of `hull_contains` and
    `hulls_intersect`, which raise RuntimeError when HiGHS stops without
    deciding. Membership is decided on a stack of points, `contains_rows`;
    one point, `contains`, is the stack's single row.
    """

    def __init__(self, vertices, complete: bool = False):
        V = np.array(vertices, dtype=float, ndmin=2)
        V.setflags(write=False)
        n, k = V.shape
        self.vertices = V
        self.free = np.arange(k)
        self.levels = None
        one = np.abs(V - 1.0) < _EQ_TOL
        if (one | (np.abs(V) < _EQ_TOL)).all():
            free = (np.unique(V.argmax(axis=1)) if complete
                    else np.flatnonzero(np.ptp(V, axis=0) >= _EQ_TOL))
            ones = one[:, free].sum(axis=1)
            lo, hi = int(ones.min()), int(ones.max())
            if (len({tuple(row) for row in one[:, free]}) == n
                    == sum(comb(free.size, j) for j in range(lo, hi + 1))):
                self.free, self.levels = free, (lo, hi)
        self.pinned = ({} if self.levels is None else
                       {int(i): float(V[0, i])
                        for i in np.setdiff1d(np.arange(k), self.free)})
        self._pin_at = np.fromiter(self.pinned, dtype=int,
                                   count=len(self.pinned))

    @property
    def is_box(self) -> bool:
        """Whether the hull is a sub-cube face: the band (0, |free|)."""
        return self.levels == (0, self.free.size)

    def contains(self, mu, tol: float = DEFAULT_TOL) -> bool:
        """Whether mu is within L-inf distance tol of the hull: the
        one-row stack of `contains_rows`."""
        return bool(self.contains_rows(np.asarray(mu, dtype=float)[None, :],
                                       tol)[0])

    def contains_rows(self, mus, tol: float) -> np.ndarray:
        """Membership of each row of a (J, K) stack, as a (J,) bool array:
        on a band, the pins within tol and some point of the box
        [max(f - tol, 0), min(f + tol, 1)] around the free part f with a
        sum in `levels`, as array operations (a level of 0 or of |free|
        bounds no such point, so it is not summed); `hull_contains` row by
        row on a generic hull."""
        mus = np.ascontiguousarray(mus, dtype=float)
        if self.levels is None:
            return np.array([hull_contains(self.vertices, mu, tol)
                             for mu in mus], dtype=bool)
        (lo, hi), at = self.levels, self._pin_at
        f = mus[:, self.free]
        ok = ~((np.abs(mus[:, at] - self.vertices[0, at]) > tol).any(axis=1)
               | (f < -tol).any(axis=1)) & (f <= 1.0 + tol).all(axis=1)
        if 0 < lo:
            ok &= lo <= np.minimum(f + tol, 1.0).sum(axis=1)
        if hi < self.free.size:
            ok &= np.maximum(f - tol, 0.0).sum(axis=1) <= hi
        return ok

    def intersects(self, other: "Hull") -> bool:
        """Whether the two hulls share a point (within L-inf distance
        DEFAULT_TOL). Two bands do when their shared pins agree and some
        count s of ones on the coordinates both keep free, 0 <= s <= their
        number, meets both level ranges, less the ones the other's pins put
        on the coordinates only one keeps free."""
        if self.levels is None or other.levels is None:
            return hulls_intersect(self.vertices, other.vertices)
        a, b = self.pinned, other.pinned
        if any(abs(a[i] - b[i]) > DEFAULT_TOL for i in a.keys() & b.keys()):
            return False
        low, high = 0, np.intersect1d(self.free, other.free).size
        for one, rest in ((self, other), (other, self)):
            filled = round(sum(rest.pinned.get(int(i), 0.0)
                               for i in one.free))
            lo, hi = one.levels
            low, high = max(low, lo - filled), min(high, hi - filled)
        return low <= high
