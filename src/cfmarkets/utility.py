"""Utility for beliefs and events, conditional prices, optimizing sequences.

The maker's utility for a belief mu at state q is the mixed Bregman
divergence D(mu || q). The utility for an event E (the largest payoff a
trader can guarantee knowing the outcome lies in E) is the smallest
divergence to the event's price hull, attained at the conditional price
vector: the Bregman projection of the state onto M(E). That projection is
the maximizer of the restricted cost C_E, so `RestrictedCost.project` makes
it: in closed form where the cost kind has one, otherwise by away-step
Frank-Wolfe over the event's payoff vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# project_onto_hull is bound here only for perfbench's tracer test, which
# expects a `utility.project_onto_hull` binding; nothing here calls it
from .costs import CostModel, RestrictedCost, _as_vector, \
    project_onto_hull  # noqa: F401

MEMBERSHIP_TOL = 1e-7  # L-inf slack of excess_util's belief-in-event test
STEP_CAP = 1.0  # longest step optimizing_sequence tries along a direction
GAIN_TOL = 1e-12  # smallest payoff gain that keeps optimizing_sequence going


@dataclass
class EventUtility:
    value: float
    minimizer: np.ndarray
    residual: float
    converged: bool = True
    multiple: bool = False


def util_belief(m: CostModel, mu, q) -> float:
    """Largest expected payoff of a trader with belief mu; D(mu || q)."""
    return m.divergence(mu, q)


def util_event(m: CostModel, event, q) -> EventUtility:
    """Minimum divergence from state q to the event's price hull, at the
    projection `RestrictedCost(m, event)` makes."""
    q = _as_vector(q, m.dim, "q")
    res = RestrictedCost(m, event)._project(q)
    return EventUtility(m.divergence(res.mu, q), res.mu, res.gap,
                        res.converged, multiple=not m.strictly_convex)


def conditional_price(m: CostModel, event, q):
    """Bregman projection of the state onto M(E).

    Returns (price vector, multiplicity flag). The flag is set when the
    conjugate is not strictly convex, in which case the projection may not be
    unique and the solver's limit point is returned.
    """
    res = util_event(m, event, q)
    multiple = res.multiple and len(tuple(event)) > 1
    return res.minimizer, multiple


def excess_util(m: CostModel, mu, event, q) -> float:
    """Utility of belief mu beyond the utility of knowing only the event."""
    event = tuple(event)
    mu = _as_vector(mu, m.dim, "mu")
    if not m.space.hull(event).contains(mu, MEMBERSHIP_TOL):
        raise ValueError("belief must lie in the event's price hull")
    return util_belief(m, mu, q) - util_event(m, event, q).value


@dataclass
class OptimizingSequence:
    states: list = field(default_factory=list)
    trace: list = field(default_factory=list)  # Util(E; q_i) after each step
    payoffs: list = field(default_factory=list)  # guaranteed payoff so far
    bundle: np.ndarray | None = None


def _guaranteed_payoff(m: CostModel, vertices, q0, c0, r) -> float:
    return float(np.min(vertices @ r) - (m.cost(q0 + r) - c0))


def optimizing_sequence(m: CostModel, event, q,
                        n_steps: int) -> OptimizingSequence:
    """Greedy trading run of a trader who knows the outcome lies in E.

    Each step line-searches the guaranteed payoff along the event-bundle
    direction and the coordinate directions, accepting the best improving
    move. The divergence trace Util(E; q_i) is non-increasing across accepted
    steps and tends to zero for smooth strictly convex costs.
    """
    event = tuple(event)
    if not event or n_steps < 1:
        raise ValueError("need a nonempty event and n_steps >= 1")
    q0 = _as_vector(q, m.dim, "q")
    out = OptimizingSequence()
    if set(event) == set(m.space.outcomes):
        out.bundle = np.zeros(m.dim)
        return out  # knowing E carries no information; already optimal
    V = m.space.vertices(event)
    c0 = m.cost(q0)
    directions = [V.mean(axis=0)]
    for i in range(m.dim):
        e = np.zeros(m.dim)
        e[i] = 1.0
        directions.extend([e, -e])
    r = np.zeros(m.dim)
    best = 0.0
    out.states.append(q0.copy())
    out.trace.append(util_event(m, event, q0).value)
    out.payoffs.append(0.0)
    for _ in range(n_steps):
        cand_gain, cand_r = 0.0, None
        for d in directions:
            t = _line_search_payoff(m, V, q0, c0, r, d, STEP_CAP)
            if t <= 0.0:
                continue
            g = _guaranteed_payoff(m, V, q0, c0, r + t * d)
            if g - best > cand_gain:
                cand_gain, cand_r = g - best, r + t * d
        if cand_r is None or cand_gain <= GAIN_TOL:
            break
        r = cand_r
        best += cand_gain
        out.states.append(q0 + r)
        out.trace.append(util_event(m, event, q0 + r).value)
        out.payoffs.append(best)
    out.bundle = r
    return out


def _line_search_payoff(m, V, q0, c0, r, d, cap, iters: int = 60) -> float:
    """Ternary search for the step maximizing the guaranteed payoff along d."""
    lo, hi = 0.0, cap
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        g1 = _guaranteed_payoff(m, V, q0, c0, r + m1 * d)
        g2 = _guaranteed_payoff(m, V, q0, c0, r + m2 * d)
        if g1 < g2:
            lo = m1
        else:
            hi = m2
    t = 0.5 * (lo + hi)
    if _guaranteed_payoff(m, V, q0, c0, r + t * d) <= \
            _guaranteed_payoff(m, V, q0, c0, r) + 1e-15:
        return 0.0
    return t
