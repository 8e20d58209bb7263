"""Linearly constrained market makers.

A direct sum of per-block cost functions prices blocks independently; linear
constraints A^T mu >= b_c couple the blocks (they hold for every coherent
belief). The LCMM charges

    C(q) = inf over eta >= 0 of [ C_sum(q + A eta) - b_c . eta ],

returning constraint-bundle arbitrage to traders. The infimum is attained;
first-order optimality gives a checkable certificate: the direct-sum price mu
at q + A eta* must be a coherent belief with zero direct-sum divergence and
complementary slackness (A^T mu - b_c) . eta* = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.optimize import linprog, minimize

from ._solvers import polish_nonnegative
from .costs import (CostModel, IndependentBinaryCost, LmsrCost, PriceSet,
                    _as_vector)
from .markets import BlockStructure, OutcomeSpace, independent_binary_market, \
    simplex_market

INF = float("inf")
CERTIFICATE_TOL = 1e-7  # certificate_check's gap and hull-membership slack
TIGHTNESS_SAMPLES = 20  # sampled coherent beliefs per block realization
TIGHTNESS_TOL = 1e-7  # hull-membership slack of the sampled tightness check


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
        q = _as_vector(q, self.dim, "q")
        tol = self.solve_tol
        key = q.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        n_c = self.A.shape[1]
        if n_c == 0:
            eta = np.zeros(0)
            sol = ArbitrageSolution(eta, np.zeros(self.dim),
                                    self.direct_sum_cost(q),
                                    self.certificate_gap(q, eta), True)
        else:
            def f(eta):
                return (self.direct_sum_cost(q + self.A @ eta)
                        - float(self.b_c @ eta))

            def grad(eta):
                p = self.direct_sum_price(q + self.A @ eta).center
                return self.A.T @ p - self.b_c

            res = minimize(f, np.zeros(n_c), jac=grad, method="L-BFGS-B",
                           bounds=[(0.0, None)] * n_c,
                           options={"ftol": 1e-18, "gtol": 1e-12,
                                    "maxiter": 2000})
            eta = np.clip(res.x, 0.0, None)
            if self.certificate_gap(q, eta) > tol:
                eta = polish_nonnegative(
                    f, grad, eta,
                    stop=lambda e: self.certificate_gap(q, e) <= tol)
            gap = self.certificate_gap(q, eta)
            sol = ArbitrageSolution(eta, self.A @ eta, f(eta), gap, gap <= tol)
        self._remember(key, sol)
        return sol

    def _remember(self, key, sol: ArbitrageSolution):
        if len(self._cache) > 256:
            self._cache.clear()
        self._cache[key] = sol

    def _adopt(self, q, eta) -> bool:
        """Store `eta` as the solution at q when it certifies within
        solve_tol; otherwise store nothing, so `solve(q)` computes one.

        Certified means the certificate gap is at most solve_tol and so is
        the projected-gradient residual max_i |min(eta_i, g_i)| of the
        eta-minimization, g = A^T mu - b_c with mu the direct-sum price at
        q + A eta. The gap alone misses a negative g_i: its complementary
        slackness term g.eta can then be negative. A caller that knows a
        near-optimal bundle (a price-preserving re-anchor keeps the old one
        optimal) saves the L-BFGS-B run.
        """
        q = _as_vector(q, self.dim, "q")
        key = q.tobytes()
        if key in self._cache:
            return True
        gap, grad = self._kkt(q, eta)
        residual = np.abs(np.minimum(eta, grad)).max(initial=0.0)
        if not (gap <= self.solve_tol and residual <= self.solve_tol):
            return False
        delta = self.A @ eta
        value = self.direct_sum_cost(q + delta) - float(self.b_c @ eta)
        self._remember(key, ArbitrageSolution(eta, delta, value, gap, True))
        return True

    def certificate_gap(self, q, eta) -> float:
        """First-order optimality residual for a candidate arbitrage eta."""
        return self._kkt(q, eta)[0]

    def _kkt(self, q, eta):
        """(certificate gap, gradient A^T mu - b_c) at a candidate eta, with
        mu the direct-sum price at q + A eta."""
        q = _as_vector(q, self.dim, "q")
        eta = np.asarray(eta, dtype=float).reshape(-1)
        shifted = q + self.A @ eta
        mu = self.direct_sum_price(shifted).center
        grad = self.A.T @ mu - self.b_c
        comp = float(grad @ eta) if eta.size else 0.0
        return self.direct_sum_divergence(mu, shifted) + comp, grad

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
    comp = (float((model.A.T @ mu - model.b_c) @ sol.eta)
            if sol.eta.size else 0.0)
    return model.direct_sum_divergence(mu, q + sol.delta) + comp


def certificate_check(model: LcmmCost, q, eta) -> bool:
    """Whether eta is an optimal arbitrage bundle at q."""
    eta = np.asarray(eta, dtype=float).reshape(-1)
    if eta.size and eta.min() < -1e-12:
        raise ValueError("eta must be nonnegative")
    q = _as_vector(q, model.dim, "q")
    mu = model.direct_sum_price(q + model.A @ eta).center
    if not model.space.hull().contains(mu, CERTIFICATE_TOL):
        return False
    return model.certificate_gap(q, eta) <= CERTIFICATE_TOL


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
