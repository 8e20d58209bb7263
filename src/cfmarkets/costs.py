"""Cost-function market makers: potentials, conjugates, divergences, prices.

A cost model prices bundle trades through a convex potential C: moving the
outstanding-share state from q to q+r costs C(q+r) - C(q). The convex
conjugate R of C is finite exactly on the price space M (bounded loss, no
arbitrage), and the mixed Bregman divergence

    D(mu || q) = R(mu) + C(q) - q.mu

is the market maker's utility for the belief mu at state q. Prices are the
(sub)gradient of C; non-differentiable kinds report a per-coordinate interval
(the bid-ask spread).

Infinity is used as an explicit saturating sentinel: R and D return +inf
outside the price space, and comparisons treat it as maximal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations

import numpy as np
from scipy.special import expit, xlogy

from . import geometry
from ._solvers import ProjectionResult, project_onto_hull
from .markets import OutcomeSpace, exposure_witness, probe_points

INF = float("inf")

_LOG_CLIP = 1e-300  # keeps entropy gradients finite at the hull boundary
_STATE_CLIP = 120.0  # logit magnitude used when inverting boundary prices
CONSISTENCY_TOL = 1e-7  # roof undercut above which a switch is inconsistent
FD_STEP = 1e-6  # finite_difference_price's step
FD_KINK_TOL = 1e-7  # one-sided slopes further apart than this are a kink
_CACHE_LIMIT = 256  # entries a memo holds; a full memo is cleared first
_RANK_TOL = 1e-9  # singular values at or below this count as 0
_TIE_TOL = 1e-9  # cells within this of a switch's max tie for its price
_CERT_TOL = 1e-12  # a Fenchel-Young bound this near R(mu) - b certifies it


def _as_vector(x, dim: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape[0] != dim:
        raise ValueError(f"{name} must have length {dim}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


@dataclass(frozen=True)
class PriceSet:
    """Per-coordinate price interval; a point when lo == hi."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(-1).copy()
        hi = np.asarray(self.hi, dtype=float).reshape(-1).copy()
        if lo.shape != hi.shape or (hi < lo - 1e-12).any():
            raise ValueError("invalid price interval")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, p) -> "PriceSet":
        """One read-only copy of p, shared as lo and hi; a point needs no
        interval check."""
        p = np.array(p, dtype=float).reshape(-1)
        p.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "lo", p)
        object.__setattr__(out, "hi", p)
        return out

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def spread(self) -> np.ndarray:
        return self.hi - self.lo


def _logsumexp(a) -> float:
    """ln sum_i exp(a_i) for a nonempty 1-D float array.

    Same float operations, in the same order, as scipy.special.logsumexp
    (the maxima are split off the sum and counted), so results are
    bit-identical, at a small fraction of its per-call overhead.
    """
    a_max = a.max()
    at_max = a == a_max
    e = np.exp(a - a_max)
    e[at_max] = 0.0
    s = e.sum()
    k = np.count_nonzero(at_max)
    if s != 0:
        s = s / k
    return float(np.log1p(s) + np.log(k) + a_max)


def _softmax(z) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def _floored(d: float) -> float:
    """A divergence with roundoff below its theoretical floor 0 cut off."""
    return 0.0 if -1e-9 < d < 0.0 else d


class CostModel:
    """Abstract convex cost over a finite-outcome market.

    The public `cost`, `price` and `conjugate` check their input once, at
    the boundary. Below them sit private kernels on trusted input, finite
    float arrays of length `dim`: `_mu(q)` the price point (the centre of
    the price set), `_cost(q)` and `_conj(mu)`, which is inf off the price
    space. `_conjs(mus)` is `_conj` at every row of a stack; a kind with a
    closed-form conjugate writes it once, there, and its `_conj` is the
    one-row stack. A composite's kernels call its base's kernels, so a
    solver that calls a kernel in its inner loop validates nothing there.
    The defaults here fall back to the public methods, so a kind without
    kernels works unchanged, only without the saving. Kernels call the
    ndarray method or the ufunc, never numpy's module-level function of the
    same name (`m.clip(0.0, 1.0)`, not `np.clip(m, 0.0, 1.0)`): both run
    the same loop, bit for bit, but on desk-scale arrays of 1 to 8 entries
    the function's dispatch costs more than the arithmetic, about 2 to
    3 us a call on a 2-core Xeon VM (numpy 2.4).
    """

    kind = "abstract"
    strictly_convex = False
    differentiable = True
    domain_tol = 1e-9

    def __init__(self, space: OutcomeSpace):
        self.space = space

    @property
    def dim(self) -> int:
        return self.space.dim

    # -- core surface ------------------------------------------------------
    def cost(self, q) -> float:
        raise NotImplementedError

    def price(self, q) -> PriceSet:
        raise NotImplementedError

    def conjugate(self, mu) -> float:
        raise NotImplementedError

    def conjugate_grad(self, mu) -> np.ndarray:
        raise NotImplementedError(f"{self.kind}: no conjugate gradient")

    def divergence(self, mu, q) -> float:
        return self._div(_as_vector(mu, self.dim, "mu"),
                         _as_vector(q, self.dim, "q"))

    # -- kernels on trusted arrays (see the class docstring) ---------------
    def _mu(self, q) -> np.ndarray:
        return self.price(q).center

    def _cost(self, q) -> float:
        return self.cost(q)

    def _conj(self, mu) -> float:
        return self.conjugate(mu)

    def _div(self, mu, q) -> float:
        r = self._conj(mu)
        if not np.isfinite(r):
            return INF
        return _floored(r + self._cost(q) - float(q @ mu))

    def _conjs(self, mus) -> np.ndarray:
        """R at each row of a (J, K) stack of finite price points, inf off
        the price space, one row at a time through `conjugate`. The LMSR
        and product-LMSR kinds override it with their closed form as array
        operations, and the switched kind with its roof over a cell mask."""
        return np.array([self.conjugate(mu) for mu in mus], dtype=float)

    def trade_cost(self, q, r) -> float:
        q = _as_vector(q, self.dim, "q")
        r = _as_vector(r, self.dim, "r")
        return self.cost(q + r) - self.cost(q)

    def state_with_price(self, mu) -> np.ndarray:
        """A state whose price (set) contains mu; optional per kind."""
        raise NotImplementedError(f"{self.kind}: no closed-form state inverse")

    def restrict(self, event):
        """The Bregman projection onto `event`'s hull as one trusted
        callable, q -> ProjectionResult: the maximizer mu of q.mu - R(mu)
        (the conditional price) with value R(mu) - q.mu = -C_E(q); a closed
        form reports gap 0, converged, 0 iterations. This default, for the
        kinds with no closed form, is the library's one away-step
        Frank-Wolfe call. It solves a state once and keeps the answer, `mu`
        read-only, in a memo keyed by q's bytes and cleared at _CACHE_LIMIT
        entries. It reads the conjugate, its gradient and the solver at each
        solve, so a patched or traced binding is the one called."""
        vertices, solved = self.space.hull(event).vertices, {}

        def project(q):
            key = q.tobytes()
            res = solved.get(key)
            if res is None:
                res = project_onto_hull(vertices, self.conjugate,
                                        self.conjugate_grad, q)
                res.mu.setflags(write=False)
                if len(solved) >= _CACHE_LIMIT:
                    solved.clear()
                solved[key] = res
            return res

        return project


class LmsrCost(CostModel):
    """Logarithmic market scoring rule over a complete market.

    C(q) = ln sum_i exp(q_i); prices are the softmax; R is negative entropy
    on the probability simplex.
    """

    kind = "lmsr"
    strictly_convex = True
    differentiable = True

    def __init__(self, space: OutcomeSpace):
        super().__init__(space)
        if not (space.n_outcomes == space.dim
                and np.allclose(space.payoff, np.eye(space.dim), atol=1e-12)):
            raise ValueError("lmsr requires a complete (simplex) market")

    def cost(self, q) -> float:
        return self._cost(_as_vector(q, self.dim, "q"))

    def price(self, q) -> PriceSet:
        return PriceSet.point(self._mu(_as_vector(q, self.dim, "q")))

    def conjugate(self, mu) -> float:
        return self._conj(_as_vector(mu, self.dim, "mu"))

    def _cost(self, q) -> float:
        return _logsumexp(q)

    def _mu(self, q) -> np.ndarray:
        return _softmax(q)

    def _conj(self, mu) -> float:
        return float(self._conjs(mu[None, :])[0])

    def _conjs(self, mus) -> np.ndarray:
        mus = np.ascontiguousarray(mus, dtype=float)
        off = ((mus < -self.domain_tol).any(axis=1)
               | (np.abs(mus.sum(axis=1) - 1.0) > self.domain_tol))
        m = mus.clip(0.0, None)
        out = xlogy(m, m).sum(axis=1)
        out[off] = INF
        return out

    def conjugate_grad(self, mu) -> np.ndarray:
        m = np.asarray(mu, dtype=float).clip(_LOG_CLIP, None)
        return np.log(m) + 1.0

    def state_with_price(self, mu) -> np.ndarray:
        m = np.asarray(mu, dtype=float).clip(0.0, None)
        return np.log(m.clip(np.exp(-_STATE_CLIP), None))

    def restrict(self, event):
        """Any event: softmax and log-sum-exp over the event's securities,
        the free coordinates of its hull, a simplex face."""
        idx = self.space.hull(event).free

        def project(q):
            p = np.zeros(self.dim)
            p[idx] = _softmax(q[idx])
            return ProjectionResult(p, -_logsumexp(q[idx]), 0.0, True, 0)

        return project


class IndependentBinaryCost(CostModel):
    """Product of binary LMSR markets over {0,1}^K.

    C(q) = sum_i ln(1 + e^{q_i}); prices are per-coordinate sigmoids; R is a
    sum of per-coordinate binary entropies on the unit cube.
    """

    kind = "product-lmsr"
    strictly_convex = True
    differentiable = True

    def __init__(self, space: OutcomeSpace):
        super().__init__(space)
        hull = space.hull()
        if not (hull.kind == "box" and hull.free.size == space.dim):
            raise ValueError("product-lmsr requires the full binary cube")

    def cost(self, q) -> float:
        return self._cost(_as_vector(q, self.dim, "q"))

    def price(self, q) -> PriceSet:
        return PriceSet.point(self._mu(_as_vector(q, self.dim, "q")))

    def conjugate(self, mu) -> float:
        return self._conj(_as_vector(mu, self.dim, "mu"))

    def _cost(self, q) -> float:
        return float(np.logaddexp(0.0, q).sum())

    def _mu(self, q) -> np.ndarray:
        return expit(q)

    def _conj(self, mu) -> float:
        return float(self._conjs(mu[None, :])[0])

    def _conjs(self, mus) -> np.ndarray:
        mus = np.ascontiguousarray(mus, dtype=float)
        off = ((mus < -self.domain_tol)
               | (mus > 1.0 + self.domain_tol)).any(axis=1)
        m = mus.clip(0.0, 1.0)
        out = (xlogy(m, m) + xlogy(1.0 - m, 1.0 - m)).sum(axis=1)
        out[off] = INF
        return out

    def conjugate_grad(self, mu) -> np.ndarray:
        m = np.asarray(mu, dtype=float).clip(_LOG_CLIP, 1.0 - 1e-16)
        return np.log(m) - np.log1p(-m)

    def state_with_price(self, mu) -> np.ndarray:
        m = np.asarray(mu, dtype=float).clip(0.0, 1.0)
        q = (np.log(m.clip(_LOG_CLIP, None))
             - np.log((1.0 - m).clip(_LOG_CLIP, None)))
        return q.clip(-_STATE_CLIP, _STATE_CLIP)

    def restrict(self, event):
        """Sub-cube faces: binary LMSR in the free coordinates, linear in
        the pinned ones. Other events have no closed form."""
        hull = self.space.hull(event)
        if hull.kind != "box":
            return super().restrict(event)
        fixed, free = hull.pinned, hull.free

        def project(q):
            p = np.empty(self.dim)
            p[free] = expit(q[free])
            for i, x in fixed.items():
                p[i] = x
            c = (sum(x * q[i] for i, x in fixed.items())
                 + np.logaddexp(0.0, q[free]).sum())
            return ProjectionResult(p, -float(c), 0.0, True, 0)

        return project


class PiecewiseLinearCost(CostModel):
    """Single binary security priced by C(q) = max(0, q).

    The conjugate is the indicator of [0,1]; at q = 0 the price is the full
    bid-ask interval [0,1].
    """

    kind = "piecewise-linear"
    strictly_convex = False
    differentiable = False

    def __init__(self, space: OutcomeSpace):
        super().__init__(space)
        if space.dim != 1 or sorted(space.payoff[:, 0]) != [0.0, 1.0]:
            raise ValueError("piecewise-linear requires one 0/1 security")

    def cost(self, q) -> float:
        q = _as_vector(q, 1, "q")
        return float(max(0.0, q[0]))

    def price(self, q) -> PriceSet:
        q = _as_vector(q, 1, "q")
        if abs(q[0]) <= 1e-12:
            return PriceSet(np.array([0.0]), np.array([1.0]))
        p = 1.0 if q[0] > 0 else 0.0
        return PriceSet.point(np.array([p]))

    def conjugate(self, mu) -> float:
        mu = _as_vector(mu, self.dim, "mu")
        if mu[0] < -self.domain_tol or mu[0] > 1.0 + self.domain_tol:
            return INF
        return 0.0

    def conjugate_grad(self, mu) -> np.ndarray:
        return np.zeros(1)

    def state_with_price(self, mu) -> np.ndarray:
        return np.zeros(1)


class RestrictedCost(CostModel):
    """Cost of the base market restricted to an event E.

    C_E(q) = sup over mu in the hull of E's payoffs of [q.mu - R(mu)], and
    the maximizer is the conditional price. Bounded-loss and arbitrage-free
    for outcomes in E. `project` is the base's projector, `restrict(E)`,
    built once with the cell.
    """

    kind = "restricted"

    def __init__(self, base: CostModel, outcomes):
        super().__init__(base.space)
        self.base = base
        self.event = tuple(outcomes)
        self.hull = base.space.hull(self.event)
        self.strictly_convex = base.strictly_convex
        self.differentiable = base.differentiable
        self._projector = base.restrict(self.event)

    def project(self, q) -> ProjectionResult:
        """Bregman projection of q onto the event's hull: the maximizer mu
        of q.mu - R(mu), with `value` R(mu) - q.mu = -C_E(q). A closed form
        is exact (gap 0, converged, 0 iterations)."""
        return self._project(_as_vector(q, self.dim, "q"))

    def _project(self, q) -> ProjectionResult:
        """`project` on a trusted q."""
        return self._projector(q)

    def cost(self, q) -> float:
        return -self.project(q).value

    def price(self, q) -> PriceSet:
        return PriceSet.point(self.project(q).mu)

    def conjugate(self, mu) -> float:
        mu = _as_vector(mu, self.dim, "mu")
        if not self.hull.contains(mu, self.domain_tol):
            return INF
        return self.base._conj(mu)

    def restrict(self, event):
        """Inside this cost's event: the base restricted to `event`, so
        Frank-Wolfe never runs over a restricted cost; this cell's own
        projection when `event` is its event. An event that leaves this
        one raises ValueError."""
        if tuple(event) == self.event:
            return self._project
        if not set(event) <= set(self.event):
            raise ValueError(f"event {tuple(event)!r} leaves {self.event!r}")
        return self.base.restrict(event)


def _statistic_levels(space: OutcomeSpace, observation):
    """a: a linear statistic a.rho of the payoffs whose level sets the
    cells are; None where there is none. a is constant on a
    cell when it is orthogonal to every difference of the cell's payoffs;
    the cells' values under all such a must lie on one line, apart."""
    P = space.payoff
    rows = [P[[space.index(w) for w in observation.cell(x)]]
            for x in observation.realizations]
    _, sv, vt = np.linalg.svd(np.vstack([r - r[0] for r in rows]))
    basis = vt[np.count_nonzero(sv > _RANK_TOL):]
    if not basis.size:
        return None
    u = np.array([r[0] for r in rows]) @ basis.T
    _, su, ut = np.linalg.svd(u - u[0])
    if su[0] <= _RANK_TOL or (su.size > 1 and su[1] > _RANK_TOL):
        return None
    levels = (u - u[0]) @ ut[0]
    if np.diff(np.sort(levels)).min() <= _RANK_TOL:
        return None
    return basis.T @ ut[0]


@dataclass
class ConsistencyVerdict:
    consistent: bool
    worst_violation: float
    # what decided it: "overlap", "exposed", "sum" or "sampled"
    path: str
    witness: dict | None  # where the roof fails; None when consistent
    switched: SwitchedCost  # the switch that was checked

    def __bool__(self):
        return self.consistent


class SwitchedCost(CostModel):
    """Post-revelation cost: the max of offset restricted costs.

    C_sw(q) = max_x [ b_x + C_x(q) ] where C_x restricts the base cost to the
    cell of realization x and b_x = C(s) - C_x(s) is the utility the maker
    forgoes for that cell at the switch state s. The constructor validates
    the observation and s and solves each cell once at s, for its offset and
    its conditional price. The conjugate is the convex roof of the offset
    conjugates R(mu) - b_x and is never materialized. The switch decides its
    own `consistency` when it is built, and with it which cells are exact
    (`_exact`), from one exposure read: when it is consistent, and inside
    an exposed cell of any switch, the roof inside a cell is that cell's
    R(mu) - b_x, returned in closed form. Inside the other cells, a
    Fenchel-Young lower bound mu.q - C_sw(q) certifies that closed form at
    most prices with no LP (`_certified`). Elsewhere (off the cells, and at
    the in-cell prices the bound does not settle) `_roof` bounds the roof
    by a convex-combination LP over sampled probe points (cell vertices
    and pairwise midpoints), one LP for a whole stack of prices. One price
    is a one-row stack: `conjugate` is `_conjs` at a single row.

    The verdict is "sampled" in general: the roof LP at the same probe
    points lies on or above the exact roof, so an undercut it finds is
    real, but a "consistent" verdict holds at the probe points only. It is
    exact, with no LP, on a product-LMSR base whose cells are the level
    sets of sum_{i in S} x_i for a support S of size n (`observe_sum` is S
    = every coordinate), or of any statistic whose weights on S are equal
    in magnitude, with x_i read flipped, as 1 - x_i, where its weight's
    sign differs from the first weight's on S. It is decided "sum" by
    `_sum`: with c_y the centroid of the cell of (flipped) sum y (y/n on S,
    1 - y/n where flipped, 1/2 off S) and f(y) = b_y - R(c_y), the
    switch is consistent exactly when f is concave on 0..n, and the worst
    violation is the largest gap l f(j) + (1 - l) f(h) - f(k), j < k < h,
    l = (h - k) / (h - j), attained at c_k by the mixture l c_j +
    (1 - l) c_h. The flip is an isometry of the cube that maps the cells
    onto the level sets of the sum and preserves the separable R, so the
    proof, given for the sum, holds as it is. It takes three steps:

    1. Two cells suffice. Let p lie in cell k and put q0 = grad R(p). The
       undercut at p is at most the value of the 1-D LP in t that asks
       cell k to win the max along q0 + t a (fewer states, a lower roof).
       Its dual names cells j < k < h and their projections u*, w* of q0;
       p' = l u* + (1 - l) w* lies in cell k, since an equal-weight level
       set's hull is the whole slice of the cube at its level (the
       hypersimplex has integral vertices), and the two-cell undercut at
       p' is that value plus D_R(p' || p). So the worst undercut over the
       cell is the largest, over u in H_j and w in H_h, of
       Phi(u, w) = R(l u + (1 - l) w) - l R(u) - (1 - l) R(w)
       + l b_j + (1 - l) b_h - b_k.
    2. Phi is concave. For the separable R its first three terms are
       -sum_i JS_l(u_i, w_i), an l-weighted Jensen-Shannon divergence of
       Bernoulli pairs (Lin 1991): the f-divergence of
       g(t) = l t ln t - (l t + 1 - l) ln(l t + 1 - l), whose
       g'' = l (1 - l) / (t (l t + 1 - l)) > 0, so it is jointly convex
       (Csiszar 1967).
    3. The max sits at the centroids. Permutations of S preserve H_j, H_h
       and Phi, so averaging a maximiser over them keeps it feasible and
       does not lower Phi; a coordinate off S adds a Jensen gap of at most
       0, which is 0 at u_i = w_i.

    `state_with_price(mu)` moves the base's state q0 for mu along a
    direction d of the first cell k that holds mu, k's exposure witness or
    else the statistic, until k wins the max; it raises NotImplementedError
    naming mu where k has neither, or where the roof undercuts R(mu) - b_k
    at mu. Restricted to an event E inside cell x, every switch is
    b_x + C_E (`restrict`). The switch is also the plan of a
    sudden-revelation run: `plan_switch` returns it and it prices every
    trade after the switch.
    """

    kind = "switched"
    strictly_convex = False
    differentiable = False

    def __init__(self, base: CostModel, observation, switch_state):
        super().__init__(base.space)
        observation.validate(base.space)
        self.base = base
        self.observation = observation
        self.switch_state = _as_vector(switch_state, base.space.dim, "s")
        self.realizations = observation.realizations
        self._cost_at_switch = cs = base.cost(self.switch_state)
        self.cell_models, self.offsets, self.conditional_prices = {}, {}, {}
        for x in self.realizations:
            cell = RestrictedCost(base, observation.cell(x))
            res = cell._project(self.switch_state)  # value -C_x(s)
            b, self.conditional_prices[x] = cs + res.value, res.mu
            if b < -1e-8:
                raise ValueError(f"negative switch offset for {x!r}: {b}")
            self.cell_models[x], self.offsets[x] = cell, max(b, 0.0)
        self._b = np.array([self.offsets[x] for x in self.realizations])
        exposed = exposure_witness(self.space, observation)
        self._witnesses = [exposed[x] for x in self.realizations]
        self._statistic = (None if all(w is not None for w in self._witnesses)
                           else _statistic_levels(self.space, observation))
        self._violation = self._judge()
        self._exact = (self._violation[0] <= CONSISTENCY_TOL) | np.array(
            [w is not None for w in self._witnesses])

    def cost(self, q) -> float:
        # through each cell's public `cost`, which perfbench's sudden_mc
        # workload must reach (`costs.restricted.cost.calls`)
        q = _as_vector(q, self.dim, "q")
        return max(self.offsets[x] + self.cell_models[x].cost(q)
                   for x in self.realizations)

    def price(self, q) -> PriceSet:
        q = _as_vector(q, self.dim, "q")
        solved = [self.cell_models[x]._project(q) for x in self.realizations]
        vals = [self.offsets[x] - res.value
                for x, res in zip(self.realizations, solved)]
        top = max(vals) - _TIE_TOL
        prices = np.array([res.mu for v, res in zip(vals, solved)
                           if v >= top])
        return PriceSet(prices.min(axis=0), prices.max(axis=0))

    def conjugate(self, mu) -> float:
        return float(self._conjs(_as_vector(mu, self.dim, "mu")[None, :])[0])

    def _held(self, mus) -> np.ndarray:
        """The X x J mask of the cells whose hull holds each row of a
        stack, with each cell's membership asked once for the whole
        stack."""
        return np.array([self.cell_models[x].hull.contains_rows(
            mus, self.domain_tol) for x in self.realizations])

    def _conjs(self, mus) -> np.ndarray:
        """The roof at each row of a stack: R(mu) - max b_x over the cells
        that hold the row, in closed form, where each of those cells is
        `_exact` or where `_certified` proves the form, one row at a time;
        inf off the price space; elsewhere the least of R(mu) - max b_x and
        the sampled roof, with every such row in one `_roof` call, which
        raises if that roof fails on the price space, and no call when no
        row is left. The closed forms are array operations over the `_held`
        mask."""
        mus = np.ascontiguousarray(mus, dtype=float)
        inside = self._held(mus)
        held = inside.any(axis=0)
        top = np.where(inside, self._b[:, None], -INF).max(axis=0)
        out = np.full(len(mus), INF)
        out[held] = self.base._conjs(mus[held]) - top[held]
        sampled = (inside & ~self._exact[:, None]).any(axis=0)
        if not held.all():
            sampled[~held] = self.space.hull().contains_rows(
                mus[~held], self.domain_tol)
        for j in np.flatnonzero(sampled & held):
            sampled[j] = not self._certified(mus[j], inside[:, j], out[j])
        if sampled.any():
            rows = mus[sampled]
            found = self._roof(rows)
            if found is None:  # each row passed the price-space test above
                raise RuntimeError("the roof LP failed inside the price space")
            s, cs = self.switch_state, self._cost_at_switch
            # from divergence units to R(mu) - b_x
            roof = found[0] + np.array([float(s @ mu) for mu in rows]) - cs
            out[sampled] = np.where(roof < out[sampled], roof, out[sampled])
        return out

    @property
    def consistency(self) -> ConsistencyVerdict:
        """The verdict on this switch at `CONSISTENCY_TOL`, with the path of
        the roof test that decided it. Built afresh on each read from
        `_violation`, which the constructor decided, so the verdict's
        `switched` makes no reference cycle."""
        worst, witness, path = self._violation
        ok = worst <= CONSISTENCY_TOL
        return ConsistencyVerdict(ok, worst, path, None if ok else witness,
                                  self)

    def _judge(self) -> tuple[float, dict | None, str]:
        """(worst, witness, path) of the roof test, with the path that
        decided it: (inf, the pair, "overlap") for overlapping cells;
        (0.0, None, "exposed"), with no LP, when every cell has an exposure
        witness (`_witnesses`), which makes the switch consistent
        at every state (arXiv 1407.8161); "sum" (`_sum`), exact and with no
        LP, when the base is product-LMSR and the cells are the level sets
        of a statistic with weights equal in magnitude on its support;
        else "sampled": the worst probe value D(p || s) - b_x less the
        sampled roof at p, both in divergence units, from one `_roof` LP
        over every probe point. Level sets lie in disjoint hyperplanes
        a.x = v_x, so they are not scanned for overlap."""
        stat = self._statistic if self.space.hull().kind == "box" else None
        if stat is None:
            for x, y in combinations(self.realizations, 2):
                if self.cell_models[x].hull.intersects(
                        self.cell_models[y].hull):
                    return INF, {"overlap": (x, y)}, "overlap"
        if all(w is not None for w in self._witnesses):
            return 0.0, None, "exposed"
        judged = None if stat is None else self._sum(stat)
        if judged is not None:
            return judged
        points, values, owners = self._roof_samples
        found = self._roof(points)
        if found is None:  # pragma: no cover - each probe is a candidate
            raise RuntimeError("the roof LP failed at its own probe points")
        under = values - found[0]
        j = int(under.argmax())
        if under[j] <= 0.0:
            return 0.0, None, "sampled"
        return float(under[j]), {
            "mu": points[j].copy(), "realization": owners[j],
            "value": values[j], "roof_value": found[0][j]}, "sampled"

    def _sum(self, a):
        """(worst, witness, "sum"): the class docstring's exact verdict, on
        a product-LMSR base whose cells are the level sets of a statistic
        `a` with weights equal in magnitude on its support S; None for any
        other base or statistic. A coordinate whose weight's sign differs
        from the first weight's on S is read flipped, 1 - x_i, so a
        one-sign statistic flips nothing whichever sign the SVD gave it.
        The witness names the worst centroid c_k, its realization, and the
        two cells whose centroids mix to it, with their weights."""
        on = np.abs(a) > _RANK_TOL
        if (self.base.kind != "product-lmsr"
                or np.ptp(np.abs(a[on])) > _RANK_TOL):
            return None
        flip = on & (np.sign(a) != np.sign(a[on][0]))  # |x - 1| is 1 - x
        n, P = int(on.sum()), self.space.payoff
        first = [self.space.index(self.cell_models[x].event[0])
                 for x in self.realizations]
        by_sum = np.argsort(np.abs(P[first] - flip)[:, on].sum(axis=1))
        xs = [self.realizations[y] for y in by_sum]
        c = np.where(on, np.abs(np.arange(n + 1)[:, None] / n - flip), 0.5)
        f = self._b[by_sum] - self.base._conjs(c)
        worst, witness = 0.0, None
        for j, k, h in combinations(range(n + 1), 3):
            gap = float(((h - k) * f[j] + (k - j) * f[h]) / (h - j) - f[k])
            if gap > worst:
                worst, witness = gap, {
                    "mu": c[k], "realization": xs[k],
                    "mixture": {xs[j]: (h - k) / (h - j),
                                xs[h]: (k - j) / (h - j)}}
        return worst, witness, "sum"

    @cached_property
    def _roof_samples(self):
        """Probe points of every cell, their offset divergences
        D(p || s) - b_x = R(p) - b_x + C(s) - s.p, and the realization x
        that owns each point. The affine shift leaves the roof test as it
        is, and keeps the values, and so the LP's slack, at the scale of a
        divergence rather than of the state s."""
        s, cs = self.switch_state, self._cost_at_switch
        chunks, values, owners = [], [], []
        for x in self.realizations:
            pts = probe_points(self.space, self.cell_models[x].event)
            chunks.append(pts)
            values.extend(self.base._conj(p) + cs - float(s @ p)
                          - self.offsets[x] for p in pts)
            owners.extend([x] * len(pts))
        return np.vstack(chunks), np.array(values), owners

    def _roof(self, mus):
        """Sampled convex roof at each row of a stack, in divergence units:
        (values, weights) of the cheapest convex combinations of probe
        points that match the rows, from one LP on desk-scale probe sets, or
        None when a row is off their hull."""
        points, values, _ = self._roof_samples
        return geometry.min_weighted_value(points, values, mus,
                                           self.domain_tol)

    @cached_property
    def _lines(self):
        """Per cell k, the line (d, v) that `_walk` moves along: d is k's
        exposure witness or else the statistic, and v_y the largest d.rho
        over cell y's vertices; None where k has neither."""
        lines = []
        for d in self._witnesses:
            d = self._statistic if d is None else d
            lines.append(None if d is None else (d, np.array(
                [(self.cell_models[x].hull.vertices @ d).max()
                 for x in self.realizations])))
        return lines

    @staticmethod
    def _walk(c, v, k):
        """(t, excess) on the line q0 + t d of cell k. c_y bounds
        b_y + C_y(q0) from above, and cell y's cost rises by at most v_y t
        for t >= 0 (exactly, for any t, on a statistic). Cell k wins the max
        on an interval of t, bounded below by the cells whose v_y is below
        v_k and above by the others; t is its point nearest 0, or its upper
        end where it is empty, and excess is the most any cell rises above
        k there. A witness puts every other v_y below v_k, so its t is
        never negative."""
        gaps = list(zip((c - c[k]).tolist(), (v - v[k]).tolist()))
        lo = max([g / -w for g, w in gaps if w < 0], default=-INF)
        hi = min([g / -w for g, w in gaps if w > 0], default=INF)
        t = min(max(0.0, lo), hi)
        return t, max(g + w * t for g, w in gaps)

    def _certified(self, mu, holds, closed) -> bool:
        """Whether the closed form `closed` = R(mu) - max b over the cells
        that hold mu (`holds`) is the roof at mu, within _CERT_TOL: the
        Fenchel-Young bound L = mu.q - C_sw(q) <= R_sw(mu) reaches it at
        some q = q0 + t d (arXiv 1407.8161). k is the holding cell with the
        largest offset, so R_sw(mu) <= closed; q0 is the base's state for
        mu and `_walk` picks t. C_sw(q) <= max_y c_y + v_y t, with c_y from
        each other cell's projector, plus its Frank-Wolfe gap, and
        c_k = b_k + C(q0), which bounds C_k from above, so the holding cell
        is never projected. The bound holds at any q0, so its state need
        not price mu exactly. False where k has no line or the base no
        state inverse."""
        k = int(np.where(holds, self._b, -INF).argmax())
        if self._lines[k] is None:
            return False
        d, v = self._lines[k]
        try:
            q0 = self.base.state_with_price(mu)
        except NotImplementedError:  # the inverse is optional per kind
            return False
        c = np.empty(len(self._b))
        for y, x in enumerate(self.realizations):
            if y == k:
                c[y] = self._b[y] + self.base._cost(q0)
            else:
                res = self.cell_models[x]._project(q0)
                c[y] = self._b[y] - res.value + res.gap
        t, _ = self._walk(c, v, k)
        bound = float(mu @ (q0 + t * d)) - float((c + v * t).max())
        return bound >= closed - _CERT_TOL

    def state_with_price(self, mu) -> np.ndarray:
        """q0 + t d, `_walk`'s t on the line of the first cell k that holds
        mu, with c_y = b_y + C_y(q0): k's cost rises by v_k t there, its
        price staying mu, and k is within _TIE_TOL of the max."""
        mu = _as_vector(mu, self.dim, "mu")
        held = self._held(mu[None, :])[:, 0]
        if not held.any():
            raise ValueError("mu is not in any revelation cell")
        k = int(held.argmax())
        cells = [self.cell_models[x] for x in self.realizations]
        where = f"mu = {mu.round(6).tolist()} in cell {cells[k].event!r}"
        if self._lines[k] is None:
            raise NotImplementedError(f"no state prices {where}: the cell "
                                      "is neither exposed nor a level set")
        d, v = self._lines[k]
        q0 = self.base.state_with_price(mu)
        c = self._b - np.array([cell._project(q0).value for cell in cells])
        t, excess = self._walk(c, v, k)
        if excess > _TIE_TOL:
            raise NotImplementedError(f"no state prices {where}: the roof "
                                      "undercuts the cell there")
        return q0 + t * d

    def restrict(self, event):
        """Inside cell x, for every kind of cell: the base's own projection
        onto the event, as the cell's `restrict` makes it, its value less
        b_x. Frank-Wolfe never runs over the roof: an event that spans
        cells raises ValueError."""
        for x in self.realizations:
            cell = self.cell_models[x]
            if set(event) <= set(cell.event):
                inner, b = cell.restrict(event), self.offsets[x]

                def project(q):
                    res = inner(q)
                    return replace(res, value=res.value - b)

                return project
        raise ValueError(f"event {tuple(event)!r} spans the switch's cells")


class ScaledCost(CostModel):
    """Liquidity-scaled cost C_a(q) = a C(q/a) for a in (0,1].

    Prices are preserved under q -> a q; the conjugate and every divergence
    scale by a, so utility for all beliefs decreases by the multiplier.
    """

    kind = "scaled"

    def __init__(self, base: CostModel, alpha: float):
        super().__init__(base.space)
        if not 0.0 < alpha <= 1.0:
            raise ValueError("liquidity multiplier must be in (0, 1]")
        self.base = base
        self.alpha = float(alpha)
        self.strictly_convex = base.strictly_convex
        self.differentiable = base.differentiable

    # cost and price hand q / alpha to the base's public method, whose
    # check also catches the overflow of q / alpha near the float maximum
    def cost(self, q) -> float:
        q = _as_vector(q, self.dim, "q")
        return self.alpha * self.base.cost(q / self.alpha)

    def price(self, q) -> PriceSet:
        q = _as_vector(q, self.dim, "q")
        return self.base.price(q / self.alpha)

    def conjugate(self, mu) -> float:
        return self._conj(_as_vector(mu, self.dim, "mu"))

    def _cost(self, q) -> float:
        return self.alpha * self.base._cost(q / self.alpha)

    def _mu(self, q) -> np.ndarray:
        return self.base._mu(q / self.alpha)

    def _conj(self, mu) -> float:
        return self.alpha * self.base._conj(mu)

    def conjugate_grad(self, mu) -> np.ndarray:
        return self.alpha * self.base.conjugate_grad(mu)

    def state_with_price(self, mu) -> np.ndarray:
        return self.alpha * self.base.state_with_price(mu)

    def restrict(self, event):
        """The base's projection at q / a, its value and gap times a."""
        inner, a = self.base.restrict(event), self.alpha

        def project(q):
            res = inner(q / a)
            return replace(res, value=a * res.value, gap=a * res.gap)

        return project


# ---------------------------------------------------------------------------
# Numerical oracles


def finite_difference_price(m: CostModel, q) -> PriceSet:
    """One-sided finite-difference price oracle with kink detection.

    A coordinate is a kink when the one-sided slopes differ by more than
    FD_KINK_TOL; the interval then spans the two slopes.
    """
    q = _as_vector(q, m.dim, "q")
    c0 = m.cost(q)
    lo = np.empty(m.dim)
    hi = np.empty(m.dim)
    for i in range(m.dim):
        e = np.zeros(m.dim)
        e[i] = FD_STEP
        up = (m.cost(q + e) - c0) / FD_STEP
        dn = (c0 - m.cost(q - e)) / FD_STEP
        if abs(up - dn) > FD_KINK_TOL:
            lo[i], hi[i] = min(dn, up), max(dn, up)
        else:
            lo[i] = hi[i] = 0.5 * (dn + up)
    return PriceSet(lo, hi)
