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


def _as_vector(x, dim: int, name: str) -> np.ndarray:
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
    kernels works unchanged, only without the saving.
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
        form reports gap 0, converged, 0 iterations. None when this kind
        has no projector, and `RestrictedCost` runs Frank-Wolfe."""
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
        return float(self._conjs(mu[None, :])[0])

    def _conjs(self, mus) -> np.ndarray:
        mus = np.ascontiguousarray(mus, dtype=float)
        off = ((mus < -self.domain_tol).any(axis=1)
               | (np.abs(mus.sum(axis=1) - 1.0) > self.domain_tol))
        m = np.clip(mus, 0.0, None)
        out = np.sum(xlogy(m, m), axis=1)
        out[off] = INF
        return out

    def conjugate_grad(self, mu) -> np.ndarray:
        m = np.clip(np.asarray(mu, dtype=float), _LOG_CLIP, None)
        return np.log(m) + 1.0

    def state_with_price(self, mu) -> np.ndarray:
        m = np.clip(np.asarray(mu, dtype=float), 0.0, None)
        return np.log(np.clip(m, np.exp(-_STATE_CLIP), None))

    def restrict(self, event):
        """Any event: softmax and log-sum-exp over the event's securities."""
        idx = np.unique([self.space.index(w) for w in event])

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
        return float(np.sum(np.logaddexp(0.0, q)))

    def _mu(self, q) -> np.ndarray:
        return expit(q)

    def _conj(self, mu) -> float:
        return float(self._conjs(mu[None, :])[0])

    def _conjs(self, mus) -> np.ndarray:
        mus = np.ascontiguousarray(mus, dtype=float)
        off = ((mus < -self.domain_tol)
               | (mus > 1.0 + self.domain_tol)).any(axis=1)
        m = np.clip(mus, 0.0, 1.0)
        out = np.sum(xlogy(m, m) + xlogy(1.0 - m, 1.0 - m), axis=1)
        out[off] = INF
        return out

    def conjugate_grad(self, mu) -> np.ndarray:
        m = np.clip(np.asarray(mu, dtype=float), _LOG_CLIP, 1.0 - 1e-16)
        return np.log(m) - np.log1p(-m)

    def state_with_price(self, mu) -> np.ndarray:
        m = np.clip(np.asarray(mu, dtype=float), 0.0, 1.0)
        q = np.log(np.clip(m, _LOG_CLIP, None)) - np.log(np.clip(1.0 - m, _LOG_CLIP, None))
        return np.clip(q, -_STATE_CLIP, _STATE_CLIP)

    def restrict(self, event):
        """Sub-cube faces: binary LMSR in the free coordinates, linear in
        the pinned ones. Other events have no closed form."""
        hull = self.space.hull(event)
        if hull.kind != "box":
            return None
        fixed, free = hull.pinned, hull.free

        def project(q):
            p = np.empty(self.dim)
            p[free] = expit(q[free])
            for i, x in fixed.items():
                p[i] = x
            c = sum(x * q[i] for i, x in fixed.items()) + np.sum(
                np.logaddexp(0.0, q[free]))
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
    for outcomes in E. `project` is the library's one Bregman projection:
    it calls the base's projector, `restrict(E)`, where the kind has one,
    and otherwise runs away-step Frank-Wolfe over the event's hull.
    `fixed_coords` lists the coordinates a sub-cube face with a projector
    pins, with their values.
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
        self.fixed_coords = (dict(self.hull.pinned) if self.hull.kind == "box"
                             and self._projector is not None else {})

    def project(self, q) -> ProjectionResult:
        """Bregman projection of q onto the event's hull: the maximizer mu
        of q.mu - R(mu), with `value` R(mu) - q.mu = -C_E(q). A closed form
        is exact (gap 0, converged, 0 iterations)."""
        return self._project(_as_vector(q, self.dim, "q"))

    def _project(self, q) -> ProjectionResult:
        """`project` on a trusted q."""
        if self._projector is None:
            return project_onto_hull(self.hull.vertices, self.base.conjugate,
                                     self.base.conjugate_grad, q)
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

    def state_with_price(self, mu) -> np.ndarray:
        if self._projector is None:
            raise NotImplementedError(
                "no closed-form state inverse for generic events")
        q = self.base.state_with_price(mu)
        for i in self.fixed_coords:
            q[i] = 0.0
        return q

    def restrict(self, event):
        """Inside this cost's event: the base restricted to `event`, so
        Frank-Wolfe never runs over a restricted cost. An event that leaves
        this one raises ValueError."""
        if not set(event) <= set(self.event):
            raise ValueError(f"event {tuple(event)!r} leaves {self.event!r}")
        return RestrictedCost(self.base, event)._project


@dataclass
class ConsistencyVerdict:
    consistent: bool
    worst_violation: float
    path: str  # what decided it: "overlap", "exposed" or "sampled"
    witness: dict | None  # where the roof fails; None when consistent
    switched: SwitchedCost  # the switch that was checked

    def __bool__(self):
        return self.consistent


class SwitchedCost(CostModel):
    """Post-revelation cost: pointwise max of offset restricted costs.

    C_sw(q) = max_x [ b_x + C_x(q) ] where C_x restricts the base cost to the
    cell of realization x and b_x = C(s) - C_x(s) is the utility the maker
    forgoes for that cell at the switch state s. The constructor validates
    the observation and s and solves each cell once at s, for its offset and
    its conditional price. The conjugate is the convex roof of the offset
    conjugates R(mu) - b_x and is never materialized. The switch decides its
    own `consistency` when it is built, and with it which cells are exact
    (`_exact`), from one exposure read: when it is consistent, and inside
    an exposed cell of any switch, the roof inside a cell is that cell's
    R(mu) - b_x, returned in closed form. Elsewhere (off the cells, and
    inside the non-exposed cells of an inconsistent switch) `_roof` bounds
    it by a convex-combination LP over sampled probe points (cell vertices
    and pairwise midpoints), one LP for a whole stack of prices. One price
    is a one-row stack: `conjugate` is `_conjs` at a single row. The sampled
    roof lies on or above the exact one, so an undercut it finds is real
    and an "inconsistent" verdict is sound; on cells that are not exposed a
    "consistent" verdict is only as good as the samples. Restricted to an
    event E inside cell x, every switch is b_x + C_E (`restrict`). The
    switch is also the plan of a sudden-revelation run: `plan_switch`
    returns it and it prices every trade after the switch.
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
        self._violation = self._judge(exposed)
        self._exact = (self._violation[0] <= CONSISTENCY_TOL) | np.array(
            [exposed[x] is not None for x in self.realizations])

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
        `_exact`; inf off the price space; elsewhere the least of
        R(mu) - max b_x and the sampled roof, with every such row in one
        `_roof` call, which raises if that roof fails on the price space.
        The rows are priced as array operations over the `_held` mask."""
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

    def _judge(self, exposed) -> tuple[float, dict | None, str]:
        """(worst, witness, path) of the roof test, given each cell's
        exposure witness, with the path that decided it: (inf, the pair,
        "overlap") for overlapping cells; (0.0, None, "exposed"), with no
        LP, when every cell is exposed, which makes the switch consistent
        at every state (arXiv 1407.8161); else "sampled": the worst probe
        value D(p || s) - b_x less the sampled roof at p, both in
        divergence units, from one `_roof` LP over every probe point."""
        for x, y in combinations(self.realizations, 2):
            if self.cell_models[x].hull.intersects(self.cell_models[y].hull):
                return INF, {"overlap": (x, y)}, "overlap"
        if all(w is not None for w in exposed.values()):
            return 0.0, None, "exposed"
        points, values, owners = self._roof_samples
        found = self._roof(points)
        if found is None:  # pragma: no cover - each probe is a candidate
            raise RuntimeError("the roof LP failed at its own probe points")
        under = values - found[0]
        j = int(np.argmax(under))
        if under[j] <= 0.0:
            return 0.0, None, "sampled"
        return float(under[j]), {
            "mu": points[j].copy(), "realization": owners[j],
            "value": values[j], "roof_value": found[0][j]}, "sampled"

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

    def state_with_price(self, mu) -> np.ndarray:
        mu = _as_vector(mu, self.dim, "mu")
        held = self._held(mu[None, :])[:, 0]
        if not held.any():
            raise ValueError("mu is not in any revelation cell")
        # the first realization whose cell holds mu
        model = self.cell_models[self.realizations[int(np.argmax(held))]]
        q = model.state_with_price(mu)
        # push fixed coordinates past the switch state so this cell wins the max
        for i, x in model.fixed_coords.items():
            q[i] = self.switch_state[i] + (_STATE_CLIP if x > 0.5 else -_STATE_CLIP)
        return q

    def restrict(self, event):
        """Inside cell x, for every kind of cell: the base's own projection
        onto the event (the cell's, when it is the whole cell, else the
        one the cell's `restrict` builds), its value less b_x. Frank-Wolfe
        never runs over the roof: an event that spans cells raises
        ValueError."""
        for x in self.realizations:
            cell = self.cell_models[x]
            if set(event) <= set(cell.event):
                inner = (cell._project if tuple(event) == cell.event
                         else cell.restrict(event))
                b = self.offsets[x]

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
        if inner is None:
            return None

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
