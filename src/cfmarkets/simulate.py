"""Trading protocols, scripted agents, ledgers, and loss-bound verification.

Protocol 1 (sudden revelation): trade under C, switch to the revelation cost
at the announced time, keep trading, settle. Protocol 2 (gradual decrease):
an LCMM whose state is advanced along liquidity schedules before each trade.
The worst-case maker loss for either protocol is the largest divergence from
the initial state to a payoff vertex, and settlement accounting verifies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import CostModel, SwitchedCost, _as_vector
from .gradual import Schedule, model_at, new_state
from .lcmm import LcmmCost
from .markets import Observation
from .switching import plan_switch
# util_event is bound here only for perfbench's tracer test, which expects
# a `simulate.util_event` binding; nothing here calls it
from .utility import UTIL_TOL, optimizing_sequence, util_event  # noqa: F401


class InconsistentPlanError(RuntimeError):
    """Raised when a protocol would trade through an inconsistent switch."""

    def __init__(self, plan: SwitchedCost):
        self.plan = plan
        super().__init__(
            f"switch plan is inconsistent (worst violation "
            f"{plan.consistency.worst_violation:.6g}); pass "
            f"allow_inconsistent=True to proceed")


@dataclass
class TradeRecord:
    time: float
    trader: str
    bundle: np.ndarray
    cost: float
    state_before: np.ndarray
    state_after: np.ndarray
    model: CostModel  # the cost that priced the trade


@dataclass
class Ledger:
    records: list = field(default_factory=list)
    events: list = field(default_factory=list)
    outcome: object = None
    payouts: dict = field(default_factory=dict)
    costs: dict = field(default_factory=dict)
    trader_pnl: dict = field(default_factory=dict)
    maker_loss: float = 0.0
    final_state: np.ndarray | None = None
    plan: SwitchedCost | None = None  # the switch, once it happened

    def record_trade(self, time, trader, bundle, cost, before, after, model):
        self.records.append(TradeRecord(time, trader, np.asarray(bundle),
                                        float(cost), np.asarray(before),
                                        np.asarray(after), model))
        self.costs[trader] = self.costs.get(trader, 0.0) + float(cost)

    def settle(self, space, outcome):
        self.outcome = outcome
        rho = space.payoff_of(outcome)
        for rec in self.records:
            self.payouts[rec.trader] = (self.payouts.get(rec.trader, 0.0)
                                        + float(rec.bundle @ rho))
        for name, cost in self.costs.items():  # in first-trade order
            self.trader_pnl[name] = self.payouts[name] - cost
        self.maker_loss = (sum(self.payouts.values())
                           - sum(self.costs.values()))


class TraderAgent:
    """A scripted trader; a budget, finite and >= 0, caps each trade's cost."""

    def __init__(self, name: str, times, budget: float | None = None):
        self.name = name
        self.times = tuple(sorted(float(t) for t in times))
        if not np.isfinite(self.times).all():
            raise ValueError(f"trader {name!r}: trade times must be finite")
        self.budget = None if budget is None else float(budget)
        if budget is not None and not 0.0 <= self.budget < np.inf:
            raise ValueError(f"trader {name!r}: budget must be finite and >= 0")

    def bundle(self, model: CostModel, q, t, rng) -> np.ndarray:
        raise NotImplementedError

    def _cap(self, model, q, r):
        if self.budget is None:
            return r
        c = model.trade_cost(q, r)
        if c <= self.budget:
            return r
        # the trade cost along t*r is convex in t and 0 at t = 0, so the
        # affordable t form an interval containing 0 and not 1: bisect
        # for its upper end, keeping lo affordable
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if model.trade_cost(q, mid * r) <= self.budget:
                lo = mid
            else:
                hi = mid
        return lo * r


class BeliefTrader(TraderAgent):
    """Risk-neutral trader who trades to `state_with_price(mu)` and so takes
    D(mu || q); RuntimeError names it where the cost has no such state."""

    def __init__(self, name, times, mu, budget=None):
        super().__init__(name, times, budget)
        self.mu = np.asarray(mu, dtype=float)

    def bundle(self, model, q, t, rng):
        try:
            target = model.state_with_price(self.mu)
        except NotImplementedError as e:
            raise RuntimeError(f"belief trader {self.name!r}: {e}") from None
        return self._cap(model, q, target - np.asarray(q, dtype=float))


class NoiseTrader(TraderAgent):
    """Seeded bounded random bundles."""

    def __init__(self, name, times, scale: float = 1.0, budget=None):
        super().__init__(name, times, budget)
        self.scale = float(scale)
        if not 0.0 <= 2.0 * self.scale < np.inf:  # rng.uniform's range
            raise ValueError("noise scale must be >= 0 with 2 * scale "
                             f"finite, not {scale!r}")

    def bundle(self, model, q, t, rng):
        r = rng.uniform(-self.scale, self.scale, size=model.dim)
        return self._cap(model, q, r)


class JitArbitrageur(TraderAgent):
    """Knows the realization; trades the last trade of `optimizing_sequence`
    on its cell, to a `state_with_price` state, with the cell projected once,
    at q. The trade must collect that Util(E; q) within its gap and UTIL_TOL;
    otherwise it raises RuntimeError naming the trader, the cell and
    Util(E; q), or the projection if that stopped unconverged."""

    def __init__(self, name, times, obs: Observation, x, budget=None):
        super().__init__(name, times, budget)
        self.obs = obs
        self.x = x

    def bundle(self, model, q, t, rng):
        cell = self.obs.cell(self.x)
        seq = optimizing_sequence(model, cell, q)
        util = seq.util
        if util is not None and \
                seq.payoffs[-1] < util.value - util.residual - UTIL_TOL:
            if not util.converged:
                raise RuntimeError(
                    f"jit trader {self.name!r} has no converged projection "
                    f"onto cell {cell!r}: it stopped at Util(E; q) = "
                    f"{util.value:.6g}, gap {util.residual:.3g}")
            raise RuntimeError(f"jit trader {self.name!r} finds no trade "
                               f"that collects Util(E; q) = "
                               f"{util.value:.6g} in cell {cell!r}")
        return self._cap(model, q, seq.bundle)


def _check_settlement(model: CostModel, outcome) -> None:
    """Raise ValueError for a settlement `space.index`, and so
    `Ledger.settle`, does not know."""
    try:
        model.space.index(outcome)
    except (KeyError, TypeError):
        raise ValueError(f"settlement {outcome!r} is not an outcome") from None


def _check_agent(model: CostModel, tr: TraderAgent | None, outcome) -> None:
    """Raise ValueError for an agent of either protocol whose realization
    contradicts the settlement, or whose belief is not a finite vector of
    the model's length in the price space (elsewhere its trade would clip)."""
    if isinstance(tr, JitArbitrageur) and tr.x != tr.obs.of(outcome):
        raise ValueError("arbitrageur realization contradicts settlement")
    if isinstance(tr, BeliefTrader):
        mu = _as_vector(tr.mu, model.dim, f"trader {tr.name!r}: belief")
        if not model.space.hull().contains(mu, model.domain_tol):
            raise ValueError(f"belief trader {tr.name!r} holds a belief "
                             "outside the price space")


def check_sudden_inputs(model: CostModel, obs: Observation, traders,
                        switch_time: float, outcome) -> None:
    """Raise ValueError for a sudden-revelation run that cannot be carried
    out as specified: a settlement that is not an outcome, a switch time
    that is not finite, a trader that fails `_check_agent`, an arbitrageur
    that acts before the switch, or a belief trader that trades at or after
    switch_time with a belief in no cell's hull (the switched cost has no
    state there)."""
    _check_settlement(model, outcome)
    if not np.isfinite(switch_time):
        raise ValueError("switch_time must be finite")
    for tr in traders:
        _check_agent(model, tr, outcome)
        if not tr.times:
            continue
        if isinstance(tr, JitArbitrageur) and tr.times[0] < switch_time:
            # acting before the observation is announced is disallowed
            raise ValueError("arbitrageur may only act at/after the switch")
        if (isinstance(tr, BeliefTrader) and tr.times[-1] >= switch_time
                and not any(model.space.hull(obs.cell(x)).contains(
                    tr.mu, model.domain_tol) for x in obs.realizations)):
            raise ValueError(f"belief trader {tr.name!r} trades after the "
                             "switch with a belief in no revelation cell")


def _trade(ledger: Ledger, model: CostModel, q, events, rng) -> np.ndarray:
    """Trade the (time, index, trader) events from q under `model`."""
    for t, _, tr in events:
        r = tr.bundle(model, q, t, rng)
        c = model.trade_cost(q, r)
        ledger.record_trade(t, tr.name, r, c, q, q + r, model)
        q = q + r
    return q


def run_protocol1(model: CostModel, s_ini, obs: Observation, traders,
                  switch_time: float, outcome, seed: int = 0,
                  allow_inconsistent: bool = False) -> Ledger:
    """Sudden-revelation run: trade, switch at switch_time, trade, settle.

    Trades strictly before switch_time price under the original cost; the
    maker switches once, at the state they reach, and every trade at or
    after switch_time prices under the switched cost. A run with no trade
    after the switch still switches, so the ledger always holds the plan.
    """
    obs.validate(model.space)
    check_sudden_inputs(model, obs, traders, switch_time, outcome)
    rng = np.random.default_rng(seed)
    q = _as_vector(s_ini, model.dim, "s_ini")
    ledger = Ledger()
    events = sorted(((t, i, tr) for i, tr in enumerate(traders)
                     for t in tr.times), key=lambda e: (e[0], e[1]))
    n_before = sum(t < switch_time for t, _, _ in events)  # a sorted prefix
    q = _trade(ledger, model, q, events[:n_before], rng)
    plan = plan_switch(model, obs, q)
    consistent = plan.consistency.consistent
    ledger.plan = plan
    ledger.events.append({"time": switch_time, "event": "switch",
                          "consistent": consistent})
    if not consistent and not allow_inconsistent:
        raise InconsistentPlanError(plan)
    q = _trade(ledger, plan, q, events[n_before:], rng)
    ledger.final_state = q
    ledger.settle(model.space, outcome)
    return ledger


@dataclass
class TradeRequest:
    time: float
    trader: str
    bundle: np.ndarray | None = None
    agent: TraderAgent | None = None


def check_gradual_inputs(model: LcmmCost, schedule: Schedule, t0: float,
                         requests, outcome) -> None:
    """Raise ValueError for a gradual-decrease run that cannot be carried
    out as specified: a settlement that is not an outcome, a schedule that
    does not fit the model, request times that decrease or start before t0,
    a request without exactly one of a bundle and an agent, a bundle that is
    not a finite vector of the model's length, or an agent that fails
    `_check_agent`."""
    _check_settlement(model, outcome)
    schedule.validate(model)
    times = [float(t0)] + [req.time for req in requests]
    if not all(a <= b for a, b in zip(times, times[1:])):  # false at a nan
        raise ValueError("request times must be non-decreasing and not "
                         "before t0")
    for req in requests:
        if (req.bundle is None) == (req.agent is None):
            raise ValueError(f"request of {req.trader!r} needs exactly one "
                             "of a bundle and an agent")
        if req.bundle is not None:
            _as_vector(req.bundle, model.dim, "request bundle")
        _check_agent(model, req.agent, outcome)


def run_protocol2(model: LcmmCost, schedule: Schedule, s0, t0: float,
                  requests, outcome, seed: int = 0) -> Ledger:
    """Gradual-decrease run: `check_gradual_inputs` before any trade, then
    advance the state along the schedules before each request, trade at
    the request's time, settle."""
    requests = list(requests)
    check_gradual_inputs(model, schedule, t0, requests, outcome)
    rng = np.random.default_rng(seed)
    q = _as_vector(s0, model.dim, "s0")
    t = float(t0)
    ledger = Ledger()
    for req in requests:
        ts = new_state(model, schedule, q, t, req.time)
        if not np.array_equal(ts.q, q):
            ledger.events.append({"time": req.time, "event": "reanchor"})
        q, t = ts.q, req.time
        m_t = model_at(model, schedule, t)
        r = (np.asarray(req.bundle, dtype=float) if req.bundle is not None
             else req.agent.bundle(m_t, q, t, rng))
        c = m_t.trade_cost(q, r)
        ledger.record_trade(t, req.trader, r, c, q, q + r, m_t)
        q = q + r
    ledger.final_state = q
    ledger.settle(model.space, outcome)
    return ledger


def wc_loss_bound(m: CostModel, s) -> float:
    """Worst-case maker loss from state s: the largest divergence to a
    payoff vertex. Finite because the conjugate is finite on the hull."""
    s = _as_vector(s, m.dim, "s")
    return max(m.divergence(m.space.payoff_of(w), s) for w in m.space.outcomes)


def verify_loss(ledger: Ledger, bound: float, tol: float = 1e-6):
    """Check the settled maker loss against a worst-case bound."""
    if ledger.outcome is None:
        raise ValueError("ledger is not settled")
    slack = bound - ledger.maker_loss
    return slack >= -tol, slack
