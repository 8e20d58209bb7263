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
or the root of g_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.optimize import brentq, linprog

from .costs import (CostModel, IndependentBinaryCost, LmsrCost, PriceSet,
                    _as_vector)
from .markets import BlockStructure, OutcomeSpace, independent_binary_market, \
    simplex_market

INF = float("inf")
CERTIFICATE_TOL = 1e-7  # certificate_check's gap and hull-membership slack
TIGHTNESS_SAMPLES = 20  # sampled coherent beliefs per block realization
TIGHTNESS_TOL = 1e-7  # hull-membership slack of the sampled tightness check
_MAX_CYCLES = 50  # coordinate sweeps before a solve stops unconverged
_ETA_BOUND = 2.0 ** 40  # largest multiplier the bracket doubling tries


@dataclass
class ArbitrageSolution:
    eta: np.ndarray
    delta: np.ndarray
    value: float
    certificate_gap: float
    converged: bool


class LcmmCost(CostModel):
    """Cost model combining block costs under linear belief constraints."""

    kind = "lcmm"
    differentiable = True
    solve_tol = 1e-9  # certificate gap at which a solve is converged

    def __init__(self, space: OutcomeSpace, blocks: BlockStructure,
                 block_costs, A, b_c):
        super().__init__(space)
        blocks.validate_cover(space.dim)
        self.blocks = blocks
        self.block_costs = tuple(block_costs)
        if len(self.block_costs) != len(blocks.blocks):
            raise ValueError("one cost per block required")
        for g, c in zip(blocks.blocks, self.block_costs):
            if c.dim != len(g):
                raise ValueError("block cost dimension mismatch")
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
        self.differentiable = all(c.differentiable for c in self.block_costs)
        self._slices = [np.array(g, dtype=int) for g in blocks.blocks]
        self._cache: dict = {}

    # -- direct-sum surface ------------------------------------------------
    def direct_sum_cost(self, q) -> float:
        q = _as_vector(q, self.dim, "q")
        return float(sum(c.cost(q[g]) for g, c in zip(self._slices,
                                                      self.block_costs)))

    def direct_sum_price(self, q) -> PriceSet:
        q = _as_vector(q, self.dim, "q")
        lo = np.empty(self.dim)
        hi = np.empty(self.dim)
        for g, c in zip(self._slices, self.block_costs):
            p = c.price(q[g])
            lo[g], hi[g] = p.lo, p.hi
        return PriceSet(lo, hi)

    def direct_sum_conjugate(self, mu) -> float:
        mu = _as_vector(mu, self.dim, "mu")
        total = 0.0
        for g, c in zip(self._slices, self.block_costs):
            r = c.conjugate(mu[g])
            if not np.isfinite(r):
                return INF
            total += r
        return total

    def direct_sum_divergence(self, mu, q) -> float:
        mu = _as_vector(mu, self.dim, "mu")
        q = _as_vector(q, self.dim, "q")
        total = 0.0
        for g, c in zip(self._slices, self.block_costs):
            d = c.divergence(mu[g], q[g])
            if not np.isfinite(d):
                return INF
            total += d
        return total

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
            mu = self.direct_sum_price(base + t * a).center
            return float(a @ mu) - self.b_c[j]

        lo, hi = 0.0, 1.0
        if g(lo) >= 0.0:
            eta[j] = 0.0
            return True
        while g(hi) < 0.0:
            if hi >= _ETA_BOUND:
                eta[j] = hi
                return False
            lo, hi = hi, 2.0 * hi
        eta[j] = brentq(g, lo, hi, xtol=1e-15, disp=False)
        return True

    def _remember(self, q, eta, gap, converged) -> ArbitrageSolution:
        delta = self.A @ eta
        value = self.direct_sum_cost(q + delta) - float(self.b_c @ eta)
        sol = ArbitrageSolution(eta, delta, value, gap, converged)
        if len(self._cache) > 256:
            self._cache.clear()
        self._cache[q.tobytes()] = sol
        return sol

    def _adopt(self, q, eta) -> bool:
        """Store `eta` as the solution at q when `_kkt` certifies it within
        solve_tol; otherwise store nothing, so `solve(q)` computes one. A
        caller that knows a near-optimal bundle (a price-preserving
        re-anchor keeps the old one optimal) saves the solve."""
        q = _as_vector(q, self.dim, "q")
        if q.tobytes() in self._cache:
            return True
        gap, residual = self._kkt(q, eta)
        if not (gap <= self.solve_tol and residual <= self.solve_tol):
            return False
        self._remember(q, eta, gap, True)
        return True

    def certificate_gap(self, q, eta) -> float:
        """Direct-sum divergence at q + A eta plus the complementary-slackness
        term (A^T mu - b_c) . eta, mu the direct-sum price there."""
        q = _as_vector(q, self.dim, "q")
        eta = np.asarray(eta, dtype=float).reshape(-1)
        shifted = q + self.A @ eta
        mu = self.direct_sum_price(shifted).center
        return (self.direct_sum_divergence(mu, shifted)
                + float((self.A.T @ mu - self.b_c) @ eta))

    def _kkt(self, q, eta):
        """The certificate of a candidate bundle eta at q: (gap, residual),
        and eta is certified at tol when both are at most tol.

        gap is `certificate_gap`; residual is the projected-gradient
        residual max_i |min(eta_i, g_i)| of the eta-minimization,
        g = A^T mu - b_c with mu the direct-sum price at q + A eta. The gap
        alone misses a negative g_i: its complementary-slackness term g.eta
        can then be negative.
        """
        mu = self.direct_sum_price(q + self.A @ eta).center
        grad = self.A.T @ mu - self.b_c
        return (self.certificate_gap(q, eta),
                float(np.abs(np.minimum(eta, grad)).max(initial=0.0)))

    # -- cost-model surface ------------------------------------------------
    def cost(self, q) -> float:
        return self.solve(q).value

    def price(self, q) -> PriceSet:
        sol = self.solve(q)
        q = _as_vector(q, self.dim, "q")
        return self.direct_sum_price(q + sol.delta)

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
    """Divergence via the arbitrage decomposition:
    D(mu || q) = D_sum(mu || q + delta*) + (A^T mu - b_c) . eta*."""
    mu = _as_vector(mu, model.dim, "mu")
    if not np.isfinite(model.conjugate(mu)):
        return INF
    sol = model.solve(q)
    q = _as_vector(q, model.dim, "q")
    comp = float((model.A.T @ mu - model.b_c) @ sol.eta)
    return model.direct_sum_divergence(mu, q + sol.delta) + comp


def certificate_check(model: LcmmCost, q, eta) -> bool:
    """Whether eta is an optimal arbitrage bundle at q."""
    eta = np.asarray(eta, dtype=float).reshape(-1)
    if eta.min(initial=0.0) < -1e-12:
        raise ValueError("eta must be nonnegative")
    q = _as_vector(q, model.dim, "q")
    mu = model.direct_sum_price(q + model.A @ eta).center
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
    blocks = BlockStructure(tuple((i,) for i in range(n))
                            + (tuple(range(n, dim)),))
    block_costs = [IndependentBinaryCost(independent_binary_market(1))
                   for _ in range(n)]
    block_costs.append(LmsrCost(simplex_market(n + 1)))
    v = np.concatenate([-np.ones(n), np.arange(n + 1, dtype=float)])
    A = np.column_stack([v, -v])  # equality as two inequality rows
    return LcmmCost(space, blocks, block_costs, A, np.zeros(2))


@dataclass
class TightnessResult:
    status: str  # "tight" | "not_tight" | "tight_by_binary"
    witness: dict | None = None
    counterexample: dict | None = None

    def __bool__(self):
        return self.status != "not_tight"


def _block_realizations(model: LcmmCost, g: int):
    V = model.space.payoff[:, model._slices[g]]
    seen: dict = {}
    for row in V:
        seen.setdefault(tuple(np.round(row, 12)), np.asarray(row))
    return list(seen.values())


def tightness_check(model: LcmmCost, g: int) -> TightnessResult:
    """Whether fixing block g's prices to a realization pins beliefs to the
    conditional hull.

    Binary-payoff blocks are tight by a constructive argument (the witness is
    the +-1 separating vector per realization). Otherwise a brute-force
    sampled check searches for a coherent belief matching the block
    realization without lying in the conditional hull.
    """
    idx = model._slices[g]
    V_block = model.space.payoff[:, idx]
    xs = _block_realizations(model, g)
    if len(xs) == 1:
        return TightnessResult("tight", witness={"realizations": 1})
    if np.all((np.abs(V_block) < 1e-12) | (np.abs(V_block - 1.0) < 1e-12)):
        witness = {}
        for x in xs:
            v = np.zeros(model.dim)
            v[idx] = np.where(x > 0.5, 1.0, -1.0)
            witness[tuple(x)] = v
        return TightnessResult("tight_by_binary", witness=witness)
    rng = np.random.default_rng(0)
    P = model.space.payoff
    n = P.shape[0]
    samples = {}
    for x in xs:
        cell = [w for w, row in zip(model.space.outcomes, V_block)
                if np.max(np.abs(row - x), initial=0.0) < 1e-9]
        hull = model.space.hull(cell)
        found = []
        for _ in range(TIGHTNESS_SAMPLES):
            c = rng.standard_normal(n)
            res = linprog(c, A_eq=np.vstack([np.ones(n), V_block.T]),
                          b_eq=np.concatenate([[1.0], x]),
                          bounds=[(0, None)] * n, method="highs")
            if not res.success:
                continue
            mu = P.T @ res.x
            if not hull.contains(mu, TIGHTNESS_TOL):
                return TightnessResult(
                    "not_tight",
                    counterexample={"realization": tuple(x), "mu": mu})
            found.append(mu)
        samples[tuple(x)] = found
    return TightnessResult("tight", witness={"samples": samples})
