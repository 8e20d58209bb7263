"""Linearly constrained market makers.

A direct sum of per-block cost functions prices blocks independently; linear
constraints A^T mu >= b_c couple the blocks (they hold for every coherent
belief). The LCMM charges

    C(q) = inf over eta >= 0 of [ C_sum(q + A eta) - b_c . eta ],

returning constraint-bundle arbitrage to traders. The infimum is attained;
first-order optimality gives a checkable certificate: with mu the direct-sum
price at q + A eta and g = A^T mu - b_c, the gap (direct-sum divergence plus
complementary slackness g . eta) and the projected-gradient residual
max_i |min(eta_i, g_i)| both vanish at eta*. `solve` finds eta* one
multiplier at a time: g_j is nondecreasing in eta_j, so each coordinate is 0
or the root of g_j. The certificate, value, price and divergence at q read
one evaluation of the direct sum at q + A eta (its price and each block's
cost), kept for the last state evaluated, so a point prices the sum once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .costs import (_CACHE_LIMIT, CostModel, IndependentBinaryCost,
                    LmsrCost, PriceSet, _as_vector, _floored)
from .markets import (OutcomeSpace, _checked_index, exposure_witness,
                      independent_binary_market, observe_identity,
                      simplex_market)

INF = float("inf")
CERTIFICATE_TOL = 1e-7  # certificate_check's gap and hull-membership slack
TIGHTNESS_TOL = 1e-7  # residual and hull-membership slack of tightness_check
_MAX_CYCLES = 50  # coordinate sweeps before a solve stops unconverged
_ETA_BOUND = 2.0 ** 40  # largest multiplier the bracket doubling tries


@dataclass(frozen=True)
class ArbitrageSolution:
    eta: np.ndarray
    delta: np.ndarray
    value: float
    certificate_gap: float
    converged: bool


class LcmmCost(CostModel):
    """Cost model combining block costs under linear belief constraints;
    `blocks` partitions the security indices, one index group per cost,
    and each cost is differentiable: the solve reads its price as a point."""

    kind = "lcmm"
    solve_tol = 1e-9  # certificate gap at which a solve is converged

    def __init__(self, space: OutcomeSpace, blocks, block_costs, A, b_c):
        super().__init__(space)
        self.blocks = blocks = tuple(tuple(_checked_index(
            i, space.dim, "block index") for i in g) for g in blocks)
        flat = sorted(i for g in blocks for i in g)
        if not blocks or not all(blocks):
            raise ValueError("blocks must be non-empty")
        if len(flat) != len(set(flat)):
            raise ValueError("blocks must be disjoint")
        if flat != list(range(space.dim)):
            raise ValueError("blocks must cover all security indices")
        self.block_costs = tuple(block_costs)
        if len(self.block_costs) != len(blocks):
            raise ValueError("one cost per block required")
        for g, c in zip(blocks, self.block_costs):
            if c.dim != len(g):
                raise ValueError("block cost dimension mismatch")
            if not c.differentiable:
                raise ValueError(f"block cost {c.kind!r} is not differentiable")
        A = np.asarray(A, dtype=float)
        if A.size == 0:
            A = A.reshape(space.dim, 0)
        if A.shape[0] != space.dim:
            raise ValueError("A must have one row per security")
        b_c = np.asarray(b_c, dtype=float).reshape(-1)
        if b_c.shape[0] != A.shape[1]:
            raise ValueError("b_c length must match constraint count")
        slack = self.space.payoff @ A - b_c
        if A.shape[1] and slack.min(initial=0.0) < -1e-9:
            raise ValueError("constraints must hold at every payoff vertex")
        self.A = A
        self.b_c = b_c
        self.strictly_convex = all(c.strictly_convex for c in self.block_costs)
        self._slices = [np.array(g, dtype=int) for g in blocks]
        self._cache: dict = {}
        self._last = (None, None, None)  # `_at`'s (state bytes, mu, costs)

    # -- direct-sum surface ------------------------------------------------
    def direct_sum_cost(self, q) -> float:
        return float(sum(self._at(_as_vector(q, self.dim, "q"))[1]))

    def direct_sum_price(self, q) -> PriceSet:
        return PriceSet.point(self._at(_as_vector(q, self.dim, "q"))[0])

    def direct_sum_conjugate(self, mu) -> float:
        mu = _as_vector(mu, self.dim, "mu")
        total = 0.0
        for g, c in zip(self._slices, self.block_costs):
            r = c._conj(mu[g])
            if not np.isfinite(r):
                return INF
            total += r
        return total

    # -- direct-sum kernels on trusted arrays ------------------------------
    def _dmu(self, q) -> np.ndarray:
        mu = np.empty(self.dim)
        for g, c in zip(self._slices, self.block_costs):
            mu[g] = c._mu(q[g])
        return mu

    def _ddiv(self, mu, q, costs) -> float:
        """D_sum(mu || q) from each block's cost at q, in block order: the
        sum of `CostModel._div`'s terms, inf at the first that is not
        finite."""
        total = 0.0
        for g, c, cost in zip(self._slices, self.block_costs, costs):
            r = c._conj(mu[g])
            if not np.isfinite(r):
                return INF
            d = _floored(r + cost - float(q[g] @ mu[g]))
            if not np.isfinite(d):
                return INF
            total += d
        return total

    def _at(self, shifted):
        """(mu, costs) at a state q + A eta: the direct-sum price and each
        block's public `cost`. The last answer is kept, keyed by the bytes of
        `shifted`, so every answer read at one certified point (gap,
        residual, value, price, divergence) shares a single evaluation."""
        key = shifted.tobytes()
        if self._last[0] != key:
            costs = [c.cost(shifted[g])
                     for g, c in zip(self._slices, self.block_costs)]
            self._last = (key, self._dmu(shifted), costs)
        return self._last[1], self._last[2]

    # -- arbitrage minimization --------------------------------------------
    def solve(self, q) -> ArbitrageSolution:
        """The optimal arbitrage bundle at q, by cyclic coordinate
        root-finding on the multipliers.

        The eta_j-derivative of C_sum(q + A eta) - b_c . eta is
        g_j = a_j . mu - b_{c,j}, nondecreasing in eta_j, so each sweep sets
        every eta_j in turn to its exact minimizer with the others fixed.
        Sweeps stop when `_kkt` certifies eta or after _MAX_CYCLES; a
        multiplier past _ETA_BOUND ends the solve unconverged.
        """
        q = _as_vector(q, self.dim, "q")
        hit = self._cache.get(q.tobytes())
        if hit is not None:
            return hit
        tol = self.solve_tol
        eta = np.zeros(self.A.shape[1])
        for _ in range(_MAX_CYCLES):
            bounded = all(self._coordinate(q, eta, j)
                          for j in range(eta.size))
            gap, residual = self._kkt(q, eta)
            converged = bounded and gap <= tol and residual <= tol
            if converged or not bounded:
                break
        return self._remember(q, eta, gap, converged)

    def _coordinate(self, q, eta, j) -> bool:
        """With the other multipliers fixed, set eta[j] to 0 when
        g_j(0) >= 0 and otherwise to the root of g_j. False when g_j is
        still negative at _ETA_BOUND, where eta[j] is then left."""
        a = self.A[:, j]
        base = q + self.A @ eta - eta[j] * a

        def g(t):
            return float(a @ self._dmu(base + t * a)) - self.b_c[j]

        lo, hi = 0.0, 1.0
        if g(lo) >= 0.0:
            eta[j] = 0.0
            return True
        while g(hi) < 0.0:
            if hi >= _ETA_BOUND:
                eta[j] = hi
                return False
            lo, hi = hi, 2.0 * hi
        from scipy.optimize import brentq  # loaded by the first root-find

        eta[j] = brentq(g, lo, hi, xtol=1e-15, disp=False)
        return True

    def _remember(self, q, eta, gap, converged) -> ArbitrageSolution:
        """Keep the solution at q. Every later caller at q is handed the
        same object, so its `eta` and `delta` are made read-only."""
        delta = self.A @ eta
        value = float(sum(self._at(q + delta)[1])) - float(self.b_c @ eta)
        eta.setflags(write=False)
        delta.setflags(write=False)
        sol = ArbitrageSolution(eta, delta, value, gap, converged)
        if len(self._cache) >= _CACHE_LIMIT:
            self._cache.clear()
        self._cache[q.tobytes()] = sol
        return sol

    def _adopt(self, q, eta) -> bool:
        """Store `eta` as the solution at q when `_kkt` certifies it within
        solve_tol, and return whether it was stored. A q that already has a
        solution keeps it, and nothing is stored. A caller that knows a
        near-optimal bundle (a price-preserving re-anchor keeps the old one
        optimal) saves the solve."""
        q = _as_vector(q, self.dim, "q")
        if q.tobytes() in self._cache:
            return False
        gap, residual = self._kkt(q, eta)
        if not (gap <= self.solve_tol and residual <= self.solve_tol):
            return False
        self._remember(q, eta, gap, True)
        return True

    def certificate_gap(self, q, eta) -> float:
        """Direct-sum divergence at q + A eta plus the complementary-slackness
        term (A^T mu - b_c) . eta, mu the direct-sum price there. Both read
        `_at`, whose block costs go through the public `cost`: a state whose
        block scaling overflows raises `q must be finite`."""
        q = _as_vector(q, self.dim, "q")
        eta = np.asarray(eta, dtype=float).reshape(-1)
        shifted = q + self.A @ eta
        mu, costs = self._at(shifted)
        return (self._ddiv(mu, shifted, costs)
                + float((self.A.T @ mu - self.b_c) @ eta))

    def _kkt(self, q, eta):
        """The certificate of a candidate bundle eta at q: (gap, residual),
        and eta is certified at tol when both are at most tol.

        gap is `certificate_gap`; residual is the projected-gradient
        residual max_i |min(eta_i, g_i)| of the eta-minimization,
        g = A^T mu - b_c with mu the direct-sum price at q + A eta, read from
        the `_at` evaluation the gap has just made. The gap alone misses a
        negative g_i: its complementary-slackness term g.eta can then be
        negative.
        """
        gap = self.certificate_gap(q, eta)
        grad = self.A.T @ self._at(q + self.A @ eta)[0] - self.b_c
        return gap, float(np.abs(np.minimum(eta, grad)).max(initial=0.0))

    # -- cost-model surface ------------------------------------------------
    def cost(self, q) -> float:
        return self.solve(q).value

    def price(self, q) -> PriceSet:
        q = _as_vector(q, self.dim, "q")
        return self.direct_sum_price(q + self.solve(q).delta)

    def conjugate(self, mu) -> float:
        mu = _as_vector(mu, self.dim, "mu")
        if not self.space.hull().contains(mu, self.domain_tol):
            return INF
        return self.direct_sum_conjugate(mu)

    def conjugate_grad(self, mu) -> np.ndarray:
        mu = _as_vector(mu, self.dim, "mu")
        g_out = np.empty(self.dim)
        for g, c in zip(self._slices, self.block_costs):
            g_out[g] = c.conjugate_grad(mu[g])
        return g_out

    def state_with_price(self, mu) -> np.ndarray:
        mu = _as_vector(mu, self.dim, "mu")
        q = np.empty(self.dim)
        for g, c in zip(self._slices, self.block_costs):
            q[g] = c.state_with_price(mu[g])
        return q


# ---------------------------------------------------------------------------
# Functional surface


def lcmm_divergence(model: LcmmCost, mu, q) -> float:
    """Divergence via the arbitrage decomposition, inf off the price space:
    D(mu || q) = D_sum(mu || q + delta*) + (A^T mu - b_c) . eta*."""
    mu = _as_vector(mu, model.dim, "mu")
    if not model.space.hull().contains(mu, model.domain_tol):
        return INF
    sol = model.solve(q)
    shifted = _as_vector(q, model.dim, "q") + sol.delta
    return (model._ddiv(mu, shifted, model._at(shifted)[1])
            + float((model.A.T @ mu - model.b_c) @ sol.eta))


def certificate_check(model: LcmmCost, q, eta) -> bool:
    """Whether eta is an optimal arbitrage bundle at q."""
    eta = _as_vector(eta, model.A.shape[1], "eta")
    if eta.min(initial=0.0) < -1e-12:
        raise ValueError("eta must be nonnegative")
    q = _as_vector(q, model.dim, "q")
    mu = model._at(q + model.A @ eta)[0]
    if not model.space.hull().contains(mu, CERTIFICATE_TOL):
        return False
    gap, residual = model._kkt(q, eta)
    return gap <= CERTIFICATE_TOL and residual <= CERTIFICATE_TOL


def medal_count_model(n: int) -> LcmmCost:
    """Market over n binary events plus their count, coupled by linearity
    of expectation (sum of event prices equals the expected count)."""
    if n < 1:
        raise ValueError("need n >= 1")
    outcomes = tuple(product((0, 1), repeat=n))
    dim = 2 * n + 1
    payoff = np.zeros((len(outcomes), dim))
    for i, w in enumerate(outcomes):
        payoff[i, :n] = w
        payoff[i, n + sum(w)] = 1.0
    space = OutcomeSpace(outcomes, payoff)
    blocks = tuple((i,) for i in range(n)) + (tuple(range(n, dim)),)
    block_costs = [IndependentBinaryCost(independent_binary_market(1))
                   for _ in range(n)]
    block_costs.append(LmsrCost(simplex_market(n + 1)))
    v = np.concatenate([-np.ones(n), np.arange(n + 1, dtype=float)])
    A = np.column_stack([v, -v])  # equality as two inequality rows
    return LcmmCost(space, blocks, block_costs, A, np.zeros(2))


@dataclass
class TightnessResult:
    """`tightness_check`'s answer for one block. `witness` maps each block
    realization to its read-only witness vector, in block coordinates, or
    None; "not_tight" comes with a `counterexample` belief."""

    status: str  # "tight" | "not_tight"
    witness: dict
    counterexample: dict | None = None

    def __bool__(self):
        return self.status != "not_tight"


def _block_realizations(model: LcmmCost, g: int):
    """Block g's distinct payoff rows, keyed by their entries rounded to 12
    places, as an outcome space, and the outcomes of each key's cell."""
    rows, cells = {}, {}
    for w, row in zip(model.space.outcomes,
                      model.space.payoff[:, model._slices[g]]):
        key = tuple(np.round(row, 12).tolist())
        rows.setdefault(key, row)
        cells.setdefault(key, []).append(w)
    return OutcomeSpace(tuple(rows), np.array(list(rows.values()))), cells


def tightness_check(model: LcmmCost, g: int) -> TightnessResult:
    """Whether fixing block g's prices to a realization pins beliefs to the
    conditional hull (Dudik, Lahaie, Pennock & Rothschild, EC 2013).

    A realization x exposed among the block's realizations has a witness v
    with v.x >= v.x' + margin for every other realization x', so a belief
    whose block part is x puts no weight outside x's cell. Otherwise the
    coherent beliefs whose block part is x mix x's cell with the beliefs nu
    over the other outcomes that average to x on the block. Each vertex of
    that polytope solves [1; V_g^T] nu = [1; x] on at most rank-many
    distinct off-cell payoff rows, so every support up to that size is
    solved: "not_tight" at the first nonnegative solution whose belief lies
    outside x's conditional hull, with that belief as the counterexample;
    otherwise "tight", which is exact. The supports number sum over
    k <= 1 + |g| of C(m, k) in the m distinct off-cell payoff rows.
    """
    g = _checked_index(g, len(model.blocks), "block index")
    block, cells = _block_realizations(model, g)
    witness = exposure_witness(block, observe_identity(block))
    for key, x in zip(block.outcomes, block.payoff):
        if witness[key] is not None:
            continue
        cell = set(cells[key])
        rows = np.unique(model.space.payoff[[w not in cell for w in
                                             model.space.outcomes]], axis=0)
        M = np.vstack([np.ones(len(rows)), rows[:, model._slices[g]].T])
        rhs = np.concatenate([[1.0], x])
        hull = model.space.hull(cells[key])
        for k in range(1, np.linalg.matrix_rank(M) + 1):
            for support in map(list, combinations(range(len(rows)), k)):
                nu = np.linalg.lstsq(M[:, support], rhs, rcond=None)[0]
                if (nu.min() < 0.0 or np.abs(M[:, support] @ nu - rhs).max()
                        > TIGHTNESS_TOL):
                    continue
                mu = nu @ rows[support]
                if not hull.contains(mu, TIGHTNESS_TOL):
                    return TightnessResult(
                        "not_tight", witness,
                        counterexample={"realization": key, "mu": mu})
    return TightnessResult("tight", witness)
