"""Independent brute-force oracles used to cross-check the library.

Everything in this module is computed from first principles with its own
formulas and plain grid search / refinement; nothing here calls back into
the solver paths it is used to verify. `face_check` decides exposure with
the convex-combination LP, not with the separating direction that
`exposure_witness` solves for. `switched_best_response` maximizes over the
switched cost's cells, not over its sampled convex roof. `max_outside_weight`
decides whether a block realization is extreme with a convex-combination LP
over the outcomes, not with a separating direction. `fiber_escape` looks
for a coherent belief that leaves a realization's cell at random LP
vertices, not by enumerating supports, and tests membership with its own
feasibility LP (`hull_member`), not with `geometry.Hull`. `hull_member` and
`hulls_meet` are plain feasibility LPs over convex weights, the independent
references for `geometry.hull_contains` and `geometry.hulls_intersect`.
`lmsr_conjugate` and `product_lmsr_conjugate` are the closed-form conjugates
written one row at a time, each with its own domain test; the library writes
them once, as numpy passes over a stack of rows. `LogPartitionCost` is a
block cost over payoff rows that are not 0/1, for LCMM tests: a closed-form
cost and price, and a conjugate only where a test reaches it.
`sum_switch_violation` reads a sum switch's violation off the explicit
two-centroid mixtures with its own entropy, not through the library's
conjugate.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from scipy.special import logsumexp, softmax, xlogy

from scipy.optimize import brentq, linprog, minimize

from cfmarkets import (CostModel, Observation, OutcomeSpace, PriceSet,
                       geometry, probe_points)


# ---------------------------------------------------------------------------
# Vectorized cost formulas (independent of the library implementations)


def lmsr_cost_vec(Q: np.ndarray) -> np.ndarray:
    """C(q) = ln sum_i e^{q_i}, rowwise."""
    return logsumexp(Q, axis=1)


def product_lmsr_cost_vec(Q: np.ndarray) -> np.ndarray:
    """C(q) = sum_i ln(1 + e^{q_i}), rowwise."""
    return np.logaddexp(0.0, Q).sum(axis=1)


def piecewise_cost_vec(Q: np.ndarray) -> np.ndarray:
    """C(q) = max(0, q) for a single security, rowwise."""
    return np.maximum(0.0, Q[:, 0])


# ---------------------------------------------------------------------------
# Closed-form conjugates, one row at a time


def lmsr_conjugate(mu: np.ndarray, tol: float) -> float:
    """R(mu) = sum_i mu_i ln mu_i within tol of the probability simplex,
    inf off it, for one row."""
    if np.any(mu < -tol) or abs(mu.sum() - 1.0) > tol:
        return float("inf")
    m = np.clip(mu, 0.0, None)
    return float(np.sum(xlogy(m, m)))


def product_lmsr_conjugate(mu: np.ndarray, tol: float) -> float:
    """R(mu) = sum_i [mu_i ln mu_i + (1 - mu_i) ln(1 - mu_i)] within tol of
    the unit cube, inf off it, for one row."""
    if np.any(mu < -tol) or np.any(mu > 1.0 + tol):
        return float("inf")
    m = np.clip(mu, 0.0, 1.0)
    return float(np.sum(xlogy(m, m) + xlogy(1.0 - m, 1.0 - m)))


# ---------------------------------------------------------------------------
# Brute-force minimax utility for an event


def grid_minimax_util(cost_vec, vertices, q, rounds: int = 8, pts: int = 9,
                      radius: float = 12.0) -> float:
    """max over bundles r of [min_{w in E} rho(w).r - (C(q+r) - C(q))].

    Multi-round grid refinement over bundle space; the objective is concave,
    so shrinking the grid around the incumbent converges to the global value.
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    q = np.asarray(q, dtype=float)
    k = q.size
    c0 = float(cost_vec(q[None, :])[0])
    center = np.zeros(k)
    best = 0.0  # r = 0 guarantees zero payoff
    for _ in range(rounds):
        axes = [np.linspace(center[i] - radius, center[i] + radius, pts)
                for i in range(k)]
        R = np.array(list(product(*axes)))
        vals = (R @ V.T).min(axis=1) - (cost_vec(q[None, :] + R) - c0)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            center = R[i]
        radius *= 2.0 * 1.6 / (pts - 1)
    return best


# ---------------------------------------------------------------------------
# Medal-count LCMM: independent direct-sum formula and 1-D eta grid search


def medal_direct_sum_vec(Q: np.ndarray, n: int) -> np.ndarray:
    """Direct-sum cost of n binary blocks plus an (n+1)-outcome count block."""
    return (np.logaddexp(0.0, Q[:, :n]).sum(axis=1)
            + logsumexp(Q[:, n:], axis=1))


def medal_constraint_vector(n: int) -> np.ndarray:
    """Constraint direction: sum of event prices equals the expected count."""
    return np.concatenate([-np.ones(n), np.arange(n + 1, dtype=float)])


def medal_eta_grid_value(q, n: int, rounds: int = 4, pts: int = 2001,
                         radius: float = 20.0) -> float:
    """min over signed multipliers z of C_sum(q + z v) (constraint offsets
    are zero, and the two one-sided multipliers combine into one signed z)."""
    q = np.asarray(q, dtype=float)
    v = medal_constraint_vector(n)
    center = 0.0
    best = np.inf
    for _ in range(rounds):
        z = np.linspace(center - radius, center + radius, pts)
        vals = medal_direct_sum_vec(q[None, :] + z[:, None] * v[None, :], n)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            center = float(z[i])
        radius *= 4.0 / (pts - 1)
    return best


# ---------------------------------------------------------------------------
# Square market, count observation: independent switch-inconsistency value


def square_count_violation(s, grid: int = 200001) -> float:
    """Midpoint convex-roof violation for revealing the payoff sum on the
    square market at state s, from scratch.

    Cells by sum: {(0,0)}, the diagonal segment {(t, 1-t)}, {(1,1)}. The
    offset conjugate of the middle cell at the midpoint must exceed the
    cheapest convex combination of the two endpoint cells' values; the gap
    is the inconsistency.
    """
    s = np.asarray(s, dtype=float)

    def binary_entropy_sum(mu):
        m = np.clip(np.asarray(mu, dtype=float), 1e-300, 1.0 - 1e-16)
        return (m * np.log(m) + (1 - m) * np.log(1 - m)).sum(axis=-1)

    cs = float(np.logaddexp(0.0, s).sum())
    # restricted cost of each cell at s: sup_{mu in cell} [s.mu - R(mu)]
    b0 = cs  # cell {(0,0)}: mu = (0,0), s.mu = 0 and R = 0
    b2 = cs - float(s.sum())  # cell {(1,1)}: mu = (1,1), R = 0
    t = np.linspace(0.0, 1.0, grid)
    mid = np.stack([t, 1.0 - t], axis=1)
    b1 = cs - float((mid @ s - binary_entropy_sum(mid)).max())
    own = float(binary_entropy_sum(np.array([0.5, 0.5]))) - b1
    roof = 0.5 * (0.0 - b0) + 0.5 * (0.0 - b2)  # R = 0 at both corners
    return own - roof


def sum_switch_violation(b, n_support: int) -> float:
    """Worst convex-roof violation of a product-LMSR switch whose cells are
    the level sets of a sum over `n_support` coordinates, from scratch,
    given the offsets b[y] of the cells of sum y = 0..n_support.

    For j < k < h the centroid of cell k, (k/n', ..., k/n') on the support,
    is the mixture of the centroids of cells j and h with weights
    (h - k)/(h - j) and (k - j)/(h - j). The offset conjugate of cell k at
    its centroid less that mixture of the outer cells' offset conjugates is
    an undercut; the violation is the worst over every triple, or 0. The
    coordinates off the support sit at 1/2 in all three points and cancel.
    Generalises `square_count_violation` (n' = 2).
    """
    n = n_support

    def conjugate(point):  # sum of binary negative entropies, 0 ln 0 = 0
        return sum(t * math.log(t) for c in point for t in (c, 1.0 - c)
                   if t > 0.0)

    centroid = [[y / n] * n for y in range(n + 1)]
    worst = 0.0
    for j in range(n + 1):
        for k in range(j + 1, n + 1):
            for h in range(k + 1, n + 1):
                lj, lh = (h - k) / (h - j), (k - j) / (h - j)
                mixed = [lj * u + lh * w
                         for u, w in zip(centroid[j], centroid[h])]
                assert max(abs(m - c) for m, c in zip(mixed,
                                                      centroid[k])) <= 1e-12
                roof = (lj * (conjugate(centroid[j]) - b[j])
                        + lh * (conjugate(centroid[h]) - b[h]))
                worst = max(worst, conjugate(centroid[k]) - b[k] - roof)
    return worst


# ---------------------------------------------------------------------------
# Faces: a sampled check of what `exposure_witness` decides exactly


def face_check(space: OutcomeSpace, obs: Observation, x,
               tol: float = 1e-9) -> bool:
    """Whether the hull of cell x is a face of the full price space.

    Brute-force sampled check: every probe point of the cell hull must admit
    no convex decomposition over all vertices that puts more than tol weight
    outside the cell. Sound at polytope test scale (probes are vertices and
    pairwise midpoints), documented as a sampled check. The largest outside
    weight is minus the least value of a decomposition that values each
    vertex outside the cell at -1 and each one inside at 0.
    """
    obs.validate(space)
    cell = obs.cell(x)
    values = np.array([0.0 if obs.of(w) == x else -1.0
                       for w in space.outcomes])
    for mu in probe_points(space, cell):
        found = geometry.min_weighted_value(space.payoff, values, mu, tol)
        if found is None:  # numerically outside the hull; skip
            continue
        if -found[0] > max(tol, 1e-7):
            return False
    return True


# ---------------------------------------------------------------------------
# Switched costs: the exact best response, off the sampled roof

BOX = 120.0  # state bound of the search, the library's logit clip


def switched_best_response(sw, mu, q):
    """The belief-mu trader's best trade from state q on the switched cost
    sw, as (profit, target state), from the epigraph program

        max mu.z - t  s.t.  t >= b_x + C_x(z) for every cell x,  |z_i| <= BOX

    solved by SLSQP. Each constraint's gradient is (-p_x(z), 1), with p_x
    the cell's conditional price (Danskin). The program never looks at the
    sampled roof: its optimum mu.z - t is the exact conjugate R_sw(mu) (a
    local solver can only fall short of it), so the profit is
    D_sw(mu || q) = R_sw(mu) + C_sw(q) - mu.q.
    """
    mu, q = np.asarray(mu, dtype=float), np.asarray(q, dtype=float)
    cells = [(sw.offsets[x], sw.cell_models[x]) for x in sw.realizations]

    def solved(z):
        return [(b, cell._project(z[:-1])) for b, cell in cells]

    cons = {"type": "ineq",
            "fun": lambda z: np.array([z[-1] - b + res.value
                                       for b, res in solved(z)]),
            "jac": lambda z: np.array([np.append(-res.mu, 1.0)
                                       for _, res in solved(z)])}
    start = np.append(q, sw.cost(q))
    res = minimize(lambda z: z[-1] - mu @ z[:-1], start,
                   jac=lambda z: np.append(-mu, 1.0), constraints=[cons],
                   bounds=[(-BOX, BOX)] * len(q) + [(None, None)],
                   method="SLSQP", options={"ftol": 1e-14, "maxiter": 500})
    z = res.x[:-1]
    return float(mu @ (z - q) - (sw.cost(z) - sw.cost(q))), z


# ---------------------------------------------------------------------------
# A block cost over any payoff rows


class LogPartitionCost(CostModel):
    """C(q) = ln sum_w exp(rho(w).q) over the space's payoff rows, priced by
    the softmax-weighted payoffs. Its conjugate is written only for a single
    security, the one case an LCMM test reaches: -ln k at an end of the
    value range that k outcomes hold, and q.mu - C(q) inside it, at the root
    q of the increasing price. Other dimensions raise NotImplementedError.
    """

    kind = "log-partition"

    def cost(self, q) -> float:
        return float(logsumexp(self.space.payoff @ np.asarray(q, dtype=float)))

    def price(self, q) -> PriceSet:
        payoff = self.space.payoff
        return PriceSet.point(softmax(payoff @ np.asarray(q, dtype=float))
                              @ payoff)

    def conjugate(self, mu) -> float:
        if self.dim != 1:
            raise NotImplementedError("log-partition: one security only")
        values, m = self.space.payoff[:, 0], float(np.reshape(mu, -1)[0])
        tol = self.domain_tol
        if not values.min() - tol <= m <= values.max() + tol:
            return float("inf")
        for end in (values.min(), values.max()):
            if abs(m - end) <= tol:
                return float(-np.log(np.count_nonzero(values == end)))

        def excess(t):
            return float(self.price([t]).lo[0]) - m

        lo, hi = -1.0, 1.0
        while excess(lo) > 0.0:
            lo *= 2.0
        while excess(hi) < 0.0:
            hi *= 2.0
        t = brentq(excess, lo, hi, xtol=1e-15)
        return t * m - self.cost([t])


# ---------------------------------------------------------------------------
# Block tightness


def max_outside_weight(model, g, x) -> float:
    """The most weight a belief whose block-g part is x can put on outcomes
    outside x's cell: max of sum over w outside the cell of lam_w, over lam
    in the simplex with V_g^T lam = x. It is 0 exactly when x is an extreme
    point of block g's realizations."""
    V = model.space.payoff[:, list(model.blocks[g])]
    x = np.asarray(x, dtype=float)
    outside = (np.max(np.abs(V - x), axis=1) > 1e-9).astype(float)
    n = V.shape[0]
    res = linprog(-outside, A_eq=np.vstack([np.ones(n), V.T]),
                  b_eq=np.concatenate([[1.0], x]), bounds=[(0, None)] * n,
                  method="highs")
    assert res.success, res.message
    return float(-res.fun)


def hull_member(rows, mu) -> bool:
    """Whether mu is a convex combination of the rows: a feasibility LP
    with HiGHS's default tolerances."""
    rows = np.asarray(rows, dtype=float)
    k = rows.shape[0]
    res = linprog(np.zeros(k), A_eq=np.vstack([np.ones(k), rows.T]),
                  b_eq=np.concatenate([[1.0], mu]), bounds=[(0, None)] * k,
                  method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def hulls_meet(a, b) -> bool:
    """Whether the hulls of the rows of a and of b share a point: a
    feasibility LP over both weight vectors, a^T la = b^T lb, with HiGHS's
    default tolerances."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    na, nb = len(a), len(b)
    convex = np.zeros((2, na + nb))
    convex[0, :na] = convex[1, na:] = 1.0
    res = linprog(np.zeros(na + nb),
                  A_eq=np.vstack([convex, np.hstack([a.T, -b.T])]),
                  b_eq=np.concatenate([[1.0, 1.0], np.zeros(a.shape[1])]),
                  bounds=[(0, None)] * (na + nb), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def fiber_escape(model, g, x, draws: int, seed: int):
    """A coherent belief whose block-g part is x and which lies outside the
    hull of x's cell, or None: the beliefs at `draws` random-objective
    vertices of {lam in the simplex : V_g^T lam = x}, each tested against
    the cell's payoff rows with `hull_member`. None proves nothing; a
    belief returned is a real counterexample to tightness."""
    P = model.space.payoff
    V = P[:, list(model.blocks[g])]
    x = np.asarray(x, dtype=float)
    cell = P[np.max(np.abs(V - x), axis=1) <= 1e-9]
    n = P.shape[0]
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        res = linprog(rng.standard_normal(n),
                      A_eq=np.vstack([np.ones(n), V.T]),
                      b_eq=np.concatenate([[1.0], x]), bounds=[(0, None)] * n,
                      method="highs")
        assert res.success, res.message
        mu = P.T @ res.x
        if not hull_member(cell, mu):
            return mu
    return None
