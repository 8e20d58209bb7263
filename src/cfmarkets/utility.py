"""Utility for beliefs and events, conditional prices, optimizing sequences.

The maker's utility for a belief mu at state q is the mixed Bregman
divergence D(mu || q). The utility for an event E (the largest payoff a
trader can guarantee knowing the outcome lies in E) is the smallest
divergence to the event's price hull, attained at the conditional price
vector: the Bregman projection of the state onto M(E). That projection is
the maximizer of the restricted cost C_E, so `RestrictedCost.project` makes
it: through the cost kind's projector (`restrict`) where it has one,
otherwise by away-step Frank-Wolfe over the event's payoff vertices. An
optimizing sequence projects once, then trades to states priced ever nearer
that projection, at most MAX_TRADES of them, and keeps only its trades.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# project_onto_hull is bound here only for perfbench's tracer test, which
# expects a `utility.project_onto_hull` binding; nothing here calls it
from .costs import CostModel, RestrictedCost, _as_vector, \
    project_onto_hull  # noqa: F401

MEMBERSHIP_TOL = 1e-7  # L-inf slack of excess_util's belief-in-event test
UTIL_TOL = 1e-9  # shortfall from Util(E; q) at which optimizing_sequence stops
MAX_TRADES = 60  # most trades optimizing_sequence makes


@dataclass
class EventUtility:
    value: float
    minimizer: np.ndarray
    residual: float
    converged: bool


def util_belief(m: CostModel, mu, q) -> float:
    """Largest expected payoff of a trader with belief mu; D(mu || q)."""
    return m.divergence(mu, q)


def util_event(m: CostModel, event, q) -> EventUtility:
    """Minimum divergence from state q to the event's price hull, at the
    projection `RestrictedCost(m, event)` makes."""
    q = _as_vector(q, m.dim, "q")
    res = RestrictedCost(m, event)._project(q)
    return EventUtility(m.divergence(res.mu, q), res.mu, res.gap,
                        res.converged)


def conditional_price(m: CostModel, event, q):
    """Bregman projection of the state onto M(E).

    Returns (price vector, multiplicity flag). The flag is set when the
    conjugate is not strictly convex, in which case the projection may not be
    unique and the solver's limit point is returned.
    """
    multiple = not m.strictly_convex and len(tuple(event)) > 1
    return util_event(m, event, q).minimizer, multiple


def excess_util(m: CostModel, mu, event, q) -> float:
    """Utility of belief mu beyond the utility of knowing only the event."""
    event = tuple(event)
    mu = _as_vector(mu, m.dim, "mu")
    if not m.space.hull(event).contains(mu, MEMBERSHIP_TOL):
        raise ValueError("belief must lie in the event's price hull")
    return util_belief(m, mu, q) - util_event(m, event, q).value


@dataclass
class OptimizingSequence:
    states: list  # q_0, then the state after each trade
    payoffs: list  # guaranteed payoff of each trade q_i - q_0; 0 for q_0
    bundle: np.ndarray  # the last trade
    util: EventUtility | None  # at q_0, traded toward; None for the full event


def optimizing_sequence(m: CostModel, event, q) -> OptimizingSequence:
    """Trades straight to states priced near the Bregman projection mu_E of
    q onto E's hull, by a trader who knows the outcome lies in E.

    Trade k is r_k = state_with_price(mu_k) - q, with mu_k =
    (1 - 10^-k) mu_E + 10^-k c_E and c_E the mean of E's vertices. Its
    guaranteed payoff, the least rho.r_k over E's vertices less the trade's
    cost, tends to Util(E; q) by minimax (arXiv 1407.8161). The sequence
    stops at the first trade, the zero trade included, within UTIL_TOL of
    Util(E; q), after MAX_TRADES trades, or short of Util(E; q) at a mu_k
    the cost has no state for. Util is projected once, at q, and not at
    the states the trades reach.
    """
    event = tuple(event)
    if not event:
        raise ValueError("need a nonempty event")
    q0 = _as_vector(q, m.dim, "q")
    # knowing the full event carries no information; already optimal
    util = None if set(event) == set(m.space.outcomes) \
        else util_event(m, event, q0)
    out = OptimizingSequence([q0.copy()], [0.0], np.zeros(m.dim), util)
    if util is None or util.value <= UTIL_TOL:
        return out  # the zero trade already collects Util(E; q)
    target = util.value - UTIL_TOL
    V = m.space.vertices(event)
    c0 = m.cost(q0)
    for k in range(1, MAX_TRADES + 1):
        eps = 10.0 ** -k
        mu = (1.0 - eps) * util.minimizer + eps * V.mean(axis=0)
        try:
            r = m.state_with_price(mu) - q0
        except NotImplementedError:
            break
        out.states.append(q0 + r)
        out.payoffs.append(float((V @ r).min() - (m.cost(q0 + r) - c0)))
        out.bundle = r
        if out.payoffs[-1] >= target:
            break
    return out
