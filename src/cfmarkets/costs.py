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

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, xlogy

from . import geometry
from ._solvers import ProjectionResult, project_onto_hull
from .markets import OutcomeSpace, exposure_witness, probe_points

INF = float("inf")

_LOG_CLIP = 1e-300  # keeps entropy gradients finite at the hull boundary
_STATE_CLIP = 120.0  # logit magnitude used when inverting boundary prices
CONSISTENCY_TOL = 1e-7  # roof undercut above which a switch is inconsistent


def _as_vector(x, dim: int, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape[0] != dim:
        raise ValueError(f"{name} must have length {dim}")
    if not np.all(np.isfinite(v)):
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
        if lo.shape != hi.shape or np.any(hi < lo - 1e-12):
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

    @property
    def is_point(self) -> bool:
        return bool(np.max(self.spread, initial=0.0) <= 1e-12)

    def contains(self, mu, tol: float = 1e-9) -> bool:
        mu = np.asarray(mu, dtype=float)
        return bool(np.all(mu >= self.lo - tol) and np.all(mu <= self.hi + tol))

    def agrees_with(self, other: "PriceSet", tol: float = 1e-9) -> bool:
        return bool(np.max(np.abs(self.lo - other.lo), initial=0.0) <= tol
                    and np.max(np.abs(self.hi - other.hi), initial=0.0) <= tol)


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
    e = np.exp(z - np.max(z))
    return e / e.sum()


class ClosedForm(NamedTuple):
    """Closed form of a cost restricted to an event E.

    `cost(q)` is C_E(q) = sup over mu in M(E) of [q.mu - R(mu)] and
    `price(q)` its maximizer, the conditional price. `fixed_coords` lists the
    coordinates a binary-cube face pins, with their values.
    """

    cost: Callable
    price: Callable
    fixed_coords: dict = {}


def _floored(d: float) -> float:
    """A divergence with roundoff below its theoretical floor 0 cut off."""
    return 0.0 if -1e-9 < d < 0.0 else d


class CostModel:
    """Abstract convex cost over a finite-outcome market.

    The public `cost`, `price` and `conjugate` check their input once, at
    the boundary. Below them sit private kernels on trusted input, finite
    float arrays of length `dim`: `_mu(q)` the price point (the centre of
    the price set), `_cost(q)` and `_conj(mu)`, which is inf off the price
    space. A composite's kernels call its base's kernels, so a solver that
    calls a kernel in its inner loop validates nothing there. The defaults
    here fall back to the public methods, so a kind without kernels works
    unchanged, only without the saving.
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
        r = self.conjugate(mu)
        if not np.isfinite(r):
            return INF
        mu = _as_vector(mu, self.dim, "mu")
        q = _as_vector(q, self.dim, "q")
        return _floored(r + self.cost(q) - float(q @ mu))

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
        """R at each row of a stack of price points, one row at a time; a
        kind that prices a stack at once overrides it."""
        return np.array([self.conjugate(mu) for mu in mus], dtype=float)

    def trade_cost(self, q, r) -> float:
        q = _as_vector(q, self.dim, "q")
        r = _as_vector(r, self.dim, "r")
        return self.cost(q + r) - self.cost(q)

    def state_with_price(self, mu) -> np.ndarray:
        """A state whose price (set) contains mu; optional per kind."""
        raise NotImplementedError(f"{self.kind}: no closed-form state inverse")

    def restrict(self, event) -> ClosedForm | None:
        """Closed form of the cost restricted to `event`, or None when this
        kind has none and the restriction needs a Frank-Wolfe projection."""
        return None


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
        if np.any(mu < -self.domain_tol) or abs(mu.sum() - 1.0) > self.domain_tol:
            return INF
        m = np.clip(mu, 0.0, None)
        return float(np.sum(xlogy(m, m)))

    def conjugate_grad(self, mu) -> np.ndarray:
        m = np.clip(np.asarray(mu, dtype=float), _LOG_CLIP, None)
        return np.log(m) + 1.0

    def state_with_price(self, mu) -> np.ndarray:
        m = np.clip(np.asarray(mu, dtype=float), 0.0, None)
        return np.log(np.clip(m, np.exp(-_STATE_CLIP), None))

    def restrict(self, event) -> ClosedForm:
        """Any event: log-sum-exp and softmax over the event's securities."""
        idx = np.unique([self.space.index(w) for w in event])

        def price(q):
            p = np.zeros(self.dim)
            p[idx] = _softmax(q[idx])
            return p

        return ClosedForm(lambda q: _logsumexp(q[idx]), price)


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
        expected = sorted(product((0, 1), repeat=space.dim))
        got = sorted(tuple(int(round(v)) for v in row) for row in space.payoff)
        ok = (space.n_outcomes == 2 ** space.dim and got == expected
              and np.allclose(space.payoff, np.round(space.payoff), atol=1e-12))
        if not ok:
            raise ValueError("product-lmsr requires the full binary cube")

    def cost(self, q) -> float:
        return self._cost(_as_vector(q, self.dim, "q"))

    def price(self, q) -> PriceSet:
        return PriceSet.point(self._mu(_as_vector(q, self.dim, "q")))

    def conjugate(self, mu) -> float:
        return self._conj(_as_vector(mu, self.dim, "mu"))

    def _cost(self, q) -> float:
        return float(np.sum(np.logaddexp(0.0, q)))

    def _mu(self, q) -> np.ndarray:
        return expit(q)

    def _conj(self, mu) -> float:
        if np.any(mu < -self.domain_tol) or np.any(mu > 1.0 + self.domain_tol):
            return INF
        m = np.clip(mu, 0.0, 1.0)
        return float(np.sum(xlogy(m, m) + xlogy(1.0 - m, 1.0 - m)))

    def conjugate_grad(self, mu) -> np.ndarray:
        m = np.clip(np.asarray(mu, dtype=float), _LOG_CLIP, 1.0 - 1e-16)
        return np.log(m) - np.log1p(-m)

    def state_with_price(self, mu) -> np.ndarray:
        m = np.clip(np.asarray(mu, dtype=float), 0.0, 1.0)
        q = np.log(np.clip(m, _LOG_CLIP, None)) - np.log(np.clip(1.0 - m, _LOG_CLIP, None))
        return np.clip(q, -_STATE_CLIP, _STATE_CLIP)

    def restrict(self, event) -> ClosedForm | None:
        """Sub-cube faces: linear in the pinned coordinates, binary LMSR in
        the free ones. Other events have no closed form."""
        hull = self.space.hull(event)
        if hull.kind != "box":
            return None
        fixed, free = hull.pinned, hull.free

        def cost(q):
            pinned = sum(x * q[i] for i, x in fixed.items())
            return float(pinned + np.sum(np.logaddexp(0.0, q[free])))

        def price(q):
            p = np.empty(self.dim)
            p[free] = expit(q[free])
            for i, x in fixed.items():
                p[i] = x
            return p

        return ClosedForm(cost, price, fixed)


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


class ExponentialFamilyCost(CostModel):
    """Log-partition cost over arbitrary payoff vectors.

    C(q) = ln sum_w exp(rho(w).q). Generalizes the LMSR to non-identity
    payoffs; the conjugate has no closed form and is evaluated numerically.
    """

    kind = "exp-family"
    strictly_convex = False
    differentiable = True

    def cost(self, q) -> float:
        q = _as_vector(q, self.dim, "q")
        return _logsumexp(self.space.payoff @ q)

    def price(self, q) -> PriceSet:
        q = _as_vector(q, self.dim, "q")
        return PriceSet.point(_softmax(self.space.payoff @ q) @ self.space.payoff)

    def conjugate(self, mu) -> float:
        mu = _as_vector(mu, self.dim, "mu")
        if not self.space.hull().contains(mu, self.domain_tol):
            return INF
        res = minimize(lambda q: self.cost(q) - mu @ q, np.zeros(self.dim),
                       method="BFGS", options={"gtol": 1e-12, "maxiter": 500})
        return float(-res.fun)


class RestrictedCost(CostModel):
    """Cost of the base market restricted to an event E.

    C_E(q) = sup over mu in the hull of E's payoffs of [q.mu - R(mu)], and
    the maximizer is the conditional price. Bounded-loss and arbitrage-free
    for outcomes in E. `project` is the library's one Bregman projection:
    the base's `restrict(E)` supplies a closed form where its kind has one;
    otherwise it runs away-step Frank-Wolfe over the event's hull.
    """

    kind = "restricted"

    def __init__(self, base: CostModel, outcomes):
        super().__init__(base.space)
        self.base = base
        self.event = tuple(outcomes)
        self.hull = base.space.hull(self.event)
        self.vertices = self.hull.vertices
        self.strictly_convex = base.strictly_convex
        self.differentiable = base.differentiable
        self._closed = base.restrict(self.event)
        self.fixed_coords = (dict(self._closed.fixed_coords)
                             if self._closed is not None else {})

    def project(self, q) -> ProjectionResult:
        """Bregman projection of q onto the event's hull: the maximizer mu
        of q.mu - R(mu), with `value` R(mu) - q.mu = -C_E(q). A closed form
        is exact (gap 0, converged, 0 iterations)."""
        return self._project(_as_vector(q, self.dim, "q"))

    def _project(self, q) -> ProjectionResult:
        """`project` on a trusted q."""
        if self._closed is None:
            return project_onto_hull(self.vertices, self.base.conjugate,
                                     self.base.conjugate_grad, q)
        return ProjectionResult(self._closed.price(q), -self._closed.cost(q),
                                0.0, True, 0)

    def solve(self, q) -> tuple[float, np.ndarray]:
        """C_E(q) and the conditional price, from one projection."""
        res = self.project(q)
        return -res.value, res.mu

    def cost(self, q) -> float:
        return self.solve(q)[0]

    def price(self, q) -> PriceSet:
        return PriceSet.point(self.solve(q)[1])

    def conjugate(self, mu) -> float:
        mu = _as_vector(mu, self.dim, "mu")
        if not self.hull.contains(mu, self.domain_tol):
            return INF
        return self.base._conj(mu)

    def conjugate_grad(self, mu) -> np.ndarray:
        return self.base.conjugate_grad(mu)

    def state_with_price(self, mu) -> np.ndarray:
        if self._closed is None:
            raise NotImplementedError(
                "no closed-form state inverse for generic events")
        q = self.base.state_with_price(mu)
        for i in self.fixed_coords:
            q[i] = 0.0
        return q

    def restrict(self, event) -> ClosedForm | None:
        if set(event) <= set(self.event):
            return self.base.restrict(event)
        return None


class SwitchedCost(CostModel):
    """Post-revelation cost: pointwise max of offset restricted costs.

    C_sw(q) = max_x [ b_x + C_x(q) ] where C_x restricts the base cost to the
    cell of realization x and b_x = C(s) - C_x(s) is the utility the maker
    forgoes for that cell at the switch state s. The constructor validates
    the observation and s and solves each cell once at s, for its offset and
    its conditional price. The conjugate is the convex roof of the offset
    conjugates R(mu) - b_x and is never materialized. The switch decides its
    own consistency (`violation`): when it is `consistent` the roof inside a
    cell is that cell's R(mu) - b_x, returned in closed form. Off the cells,
    and at every price of an inconsistent switch, `_roof` bounds it by a
    convex-combination LP over sampled probe points (cell vertices and
    pairwise midpoints), one LP for a whole stack of prices. The sampled
    roof lies on or above the exact one, so an undercut it finds is real
    and an "inconsistent" verdict is sound; on cells that are not exposed a
    "consistent" verdict is only as good as the samples.
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
            c_x, self.conditional_prices[x] = cell.solve(self.switch_state)
            b = cs - c_x
            if b < -1e-8:
                raise ValueError(f"negative switch offset for {x!r}: {b}")
            self.cell_models[x], self.offsets[x] = cell, max(b, 0.0)

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
        top = max(vals)
        prices = [res.mu for v, res in zip(vals, solved) if v >= top - 1e-9]
        return PriceSet(np.min(prices, axis=0), np.max(prices, axis=0))

    def containing_cells(self, mu) -> list:
        return self._cells(_as_vector(mu, self.dim, "mu"))

    def _cells(self, mu) -> list:
        return [x for x in self.realizations
                if self.cell_models[x].hull.contains(mu, self.domain_tol)]

    def conjugate(self, mu) -> float:
        return float(self._conjs(_as_vector(mu, self.dim, "mu")[None, :])[0])

    def _conjs(self, mus) -> np.ndarray:
        """The roof at each row of a stack: R(mu) - max b_x, in closed form,
        inside the cells of a consistent switch; inf off the price space;
        elsewhere the least of the in-cell values R(mu) - b_x and the sampled
        roof, with every such row in one `_roof` call, which raises if that
        roof fails on the price space."""
        out = np.full(len(mus), INF)
        sampled = []  # (row, in-cell candidates)
        for j, mu in enumerate(mus):
            cells = self._cells(mu)
            if cells and self.consistent:
                out[j] = self.base._conj(mu) - max(self.offsets[x]
                                                   for x in cells)
            elif cells or self.space.hull().contains(mu, self.domain_tol):
                sampled.append((j, [self.base._conj(mu) - self.offsets[x]
                                    for x in cells]))
        if sampled:
            found = self._roof(mus[[j for j, _ in sampled]])
            if found is None:  # each row passed the price-space test above
                raise RuntimeError("the roof LP failed inside the price space")
            s, cs = self.switch_state, self._cost_at_switch
            for i, (j, candidates) in enumerate(sampled):
                # from divergence units to R(mu) - b_x
                candidates.append(found[0][i] + float(s @ mus[j]) - cs)
                out[j] = min(candidates)
        return out

    @cached_property
    def violation(self) -> tuple[float, dict | None, str]:
        """(worst, witness, path) of the roof test, with the path that
        decided it: (inf, the pair, "overlap") for overlapping cells;
        (0.0, None, "exposed"), with no LP, when every cell is exposed,
        which makes the switch consistent at every state (arXiv
        1407.8161); else "sampled": the worst probe value D(p || s) - b_x
        less the sampled roof at p, both in divergence units, from one
        `_roof` LP over every probe point."""
        for x, y in combinations(self.realizations, 2):
            if self.cell_models[x].hull.intersects(self.cell_models[y].hull,
                                                   tol=1e-9):
                return INF, {"overlap": (x, y)}, "overlap"
        if all(exposure_witness(self.space, self.observation).values()):
            return 0.0, None, "exposed"
        points, values, owners = self._roof_samples
        found = self._roof(points)
        if found is None:  # pragma: no cover - each probe is a candidate
            raise RuntimeError("the roof LP failed at its own probe points")
        low, weights = found
        under = values - low
        j = int(np.argmax(under))
        if under[j] <= 0.0:
            return 0.0, None, "sampled"
        return float(under[j]), {
            "mu": points[j].copy(), "realization": owners[j],
            "value": values[j], "roof_value": low[j],
            "weights": weights[j].copy()}, "sampled"

    @property
    def consistent(self) -> bool:
        return self.violation[0] <= CONSISTENCY_TOL

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

    def conjugate_grad(self, mu) -> np.ndarray:
        return self.base.conjugate_grad(mu)

    def state_with_price(self, mu) -> np.ndarray:
        mu = _as_vector(mu, self.dim, "mu")
        cells = self._cells(mu)
        if not cells:
            raise ValueError("mu is not in any revelation cell")
        model = self.cell_models[cells[0]]
        q = model.state_with_price(mu)
        # push fixed coordinates past the switch state so this cell wins the max
        for i, x in model.fixed_coords.items():
            q[i] = self.switch_state[i] + (_STATE_CLIP if x > 0.5 else -_STATE_CLIP)
        return q

    def restrict(self, event) -> ClosedForm | None:
        # inside one cell the conjugate of a consistent switch is the base's
        # less the cell offset: same maximizer, value raised by the offset
        for x in self.realizations:
            if set(event) <= set(self.cell_models[x].event):
                inner, b = self.base.restrict(event), self.offsets[x]
                return inner and inner._replace(cost=lambda q: b + inner.cost(q))
        return None


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

    def restrict(self, event) -> ClosedForm | None:
        inner, a = self.base.restrict(event), self.alpha
        return inner and inner._replace(cost=lambda q: a * inner.cost(q / a),
                                        price=lambda q: inner.price(q / a))


class ShiftedCost(CostModel):
    """State-translated cost C'(q) = C(q + shift); divergences transport
    exactly: D'(mu || q) = D(mu || q + shift)."""

    kind = "shifted"

    def __init__(self, base: CostModel, shift):
        super().__init__(base.space)
        self.base = base
        self.shift = _as_vector(shift, base.space.dim, "shift")
        self.strictly_convex = base.strictly_convex
        self.differentiable = base.differentiable

    # as in ScaledCost, the base's public check also catches an overflow
    def cost(self, q) -> float:
        q = _as_vector(q, self.dim, "q")
        return self.base.cost(q + self.shift)

    def price(self, q) -> PriceSet:
        q = _as_vector(q, self.dim, "q")
        return self.base.price(q + self.shift)

    def conjugate(self, mu) -> float:
        return self._conj(_as_vector(mu, self.dim, "mu"))

    def _cost(self, q) -> float:
        return self.base._cost(q + self.shift)

    def _mu(self, q) -> np.ndarray:
        return self.base._mu(q + self.shift)

    def _conj(self, mu) -> float:
        r = self.base._conj(mu)
        if not np.isfinite(r):
            return INF
        return r - float(self.shift @ mu)

    def conjugate_grad(self, mu) -> np.ndarray:
        return self.base.conjugate_grad(mu) - self.shift

    def state_with_price(self, mu) -> np.ndarray:
        return self.base.state_with_price(mu) - self.shift

    def restrict(self, event) -> ClosedForm | None:
        inner, d = self.base.restrict(event), self.shift
        return inner and inner._replace(cost=lambda q: inner.cost(q + d),
                                        price=lambda q: inner.price(q + d))


# ---------------------------------------------------------------------------
# Numerical oracles


def finite_difference_price(m: CostModel, q, h: float = 1e-6,
                            kink_tol: float = 1e-7) -> PriceSet:
    """One-sided finite-difference price oracle with kink detection.

    A coordinate is a kink when the one-sided slopes differ by more than
    kink_tol; the interval then spans the two slopes.
    """
    q = _as_vector(q, m.dim, "q")
    c0 = m.cost(q)
    lo = np.empty(m.dim)
    hi = np.empty(m.dim)
    for i in range(m.dim):
        e = np.zeros(m.dim)
        e[i] = h
        up = (m.cost(q + e) - c0) / h
        dn = (c0 - m.cost(q - e)) / h
        if abs(up - dn) > kink_tol:
            lo[i], hi[i] = min(dn, up), max(dn, up)
        else:
            lo[i] = hi[i] = 0.5 * (dn + up)
    return PriceSet(lo, hi)
