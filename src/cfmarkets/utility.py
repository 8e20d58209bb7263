"""Utility for beliefs and events, conditional prices, optimizing sequences.

The maker's utility for a belief mu at state q is the mixed Bregman
divergence D(mu || q). The utility for an event E (the largest payoff a
trader can guarantee knowing the outcome lies in E) is the smallest
divergence to the event's price hull, attained at the conditional price
vector: the Bregman projection of the state onto M(E). That projection is
the maximizer of the restricted cost C_E, so `RestrictedCost.project` makes
it: through the cost kind's projector (`restrict`) where it has one,
otherwise by away-step Frank-Wolfe over the event's payoff vertices. An
optimizing sequence trades to states priced ever nearer that projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# project_onto_hull is bound here only for perfbench's tracer test, which
# expects a `utility.project_onto_hull` binding; nothing here calls it
from .costs import CostModel, RestrictedCost, _as_vector, \
    project_onto_hull  # noqa: F401

MEMBERSHIP_TOL = 1e-7  # L-inf slack of excess_util's belief-in-event test
UTIL_TOL = 1e-9  # shortfall from Util(E; q) at which optimizing_sequence stops


@dataclass
class EventUtility:
    value: float
    minimizer: np.ndarray
    residual: float
    converged: bool
    multiple: bool


def util_belief(m: CostModel, mu, q) -> float:
    """Largest expected payoff of a trader with belief mu; D(mu || q)."""
    return m.divergence(mu, q)


def util_event(m: CostModel, event, q) -> EventUtility:
    """Minimum divergence from state q to the event's price hull, at the
    projection `RestrictedCost(m, event)` makes."""
    q = _as_vector(q, m.dim, "q")
    res = RestrictedCost(m, event)._project(q)
    return EventUtility(m.divergence(res.mu, q), res.mu, res.gap,
                        res.converged, not m.strictly_convex)


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
    trace: list = field(default_factory=list)  # Util(E; q_i) at each state
    payoffs: list = field(default_factory=list)  # of each trade q_i - q_0
    bundle: np.ndarray | None = None
    util: EventUtility | None = None  # at q_0, the projection traded toward


def optimizing_sequence(m: CostModel, event, q,
                        n_steps: int) -> OptimizingSequence:
    """Trades straight to states priced near the Bregman projection mu_E of
    q onto E's hull, by a trader who knows the outcome lies in E.

    Trade k is r_k = state_with_price(mu_k) - q, with mu_k =
    (1 - 10^-k) mu_E + 10^-k c_E and c_E the mean of E's vertices. Its
    guaranteed payoff, the least rho.r_k over E's vertices less the trade's
    cost, tends to Util(E; q) by minimax (arXiv 1407.8161). The sequence
    stops at the first trade, the zero trade included, within UTIL_TOL of
    Util(E; q), after n_steps trades, or short of Util(E; q) at a mu_k the
    cost has no state for.
    """
    event = tuple(event)
    if not event or n_steps < 1:
        raise ValueError("need a nonempty event and n_steps >= 1")
    q0 = _as_vector(q, m.dim, "q")
    if set(event) == set(m.space.outcomes):
        # knowing E carries no information; already optimal
        return OptimizingSequence(bundle=np.zeros(m.dim))
    util = util_event(m, event, q0)
    out = OptimizingSequence([q0.copy()], [util.value], [0.0],
                             np.zeros(m.dim), util)
    target = util.value - UTIL_TOL
    if target <= 0.0:
        return out  # the zero trade already collects Util(E; q)
    V = m.space.vertices(event)
    c0 = m.cost(q0)
    for k in range(1, n_steps + 1):
        eps = 10.0 ** -k
        mu = (1.0 - eps) * util.minimizer + eps * V.mean(axis=0)
        try:
            r = m.state_with_price(mu) - q0
        except NotImplementedError:
            break
        out.states.append(q0 + r)
        out.trace.append(util_event(m, event, q0 + r).value)
        out.payoffs.append(float(np.min(V @ r) - (m.cost(q0 + r) - c0)))
        out.bundle = r
        if out.payoffs[-1] >= target:
            break
    return out
