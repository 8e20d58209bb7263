"""Gradual liquidity decrease for linearly constrained market makers.

Each block g carries a non-increasing liquidity schedule beta_g with values
in (0, 1] and beta_g(t0) = 1. At time t the maker prices with the per-block
scaled direct-sum cost sum_g beta_g(t) C_g(q_g / beta_g(t)) wrapped in the
usual constraint-arbitrage infimum. Moving time forward applies the affine
state update

    q_new_g = alpha_g (q_g + delta*_g) - delta*_g,   alpha_g = beta_g(t_new)/beta_g(t),

which preserves prices while shrinking every block divergence by alpha_g.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import ScaledCost, _as_vector
from .lcmm import ArbitrageSolution, LcmmCost, tightness_check
from .markets import _checked_index, observe_block_payoff
from .switching import check_desiderata

AUDIT_TOL = 1e-6  # partial_decrease_audit's desiderata and drop tolerance


@dataclass(frozen=True)
class BlockSchedule:
    kind: str = "constant"  # constant | linear-to-floor | exponential
    rate: float = 0.0
    floor: float = 1e-3

    def __post_init__(self):
        if self.kind not in ("constant", "linear-to-floor", "exponential"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0.0 <= self.rate < float("inf"):
            raise ValueError("rate must be finite and nonnegative")
        if not 0.0 < self.floor <= 1.0:
            raise ValueError("floor must be in (0, 1]")

    def value(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("time before schedule start")
        if self.kind == "constant":
            return 1.0
        if self.kind == "linear-to-floor":
            return max(self.floor, 1.0 - self.rate * dt)
        return max(float(np.exp(-self.rate * dt)), 1e-300)


@dataclass(frozen=True)
class Schedule:
    per_block: tuple
    t0: float = 0.0
    # (model, t) -> time-t LCMM built by `model_at`; private to this object
    _models: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    def __post_init__(self):
        object.__setattr__(self, "per_block", tuple(self.per_block))

    def validate(self, model: LcmmCost):
        if len(self.per_block) != len(model.blocks):
            raise ValueError("need one schedule per block")
        return self

    def beta(self, g: int, t: float) -> float:
        return self.per_block[g].value(t - self.t0)

    def alpha(self, g: int, t: float, t_new: float) -> float:
        return self.beta(g, t_new) / self.beta(g, t)


@dataclass
class TimedState:
    q: np.ndarray
    solution: ArbitrageSolution


def model_at(model: LcmmCost, schedule: Schedule, t: float) -> LcmmCost:
    """The LCMM in effect at time t: per-block liquidity-scaled costs under
    the same constraints.

    The schedule object keeps the models it has built, so every call with
    the same (model, t) returns the same LCMM and its solve cache.
    """
    key = (model, float(t))
    m = schedule._models.get(key)
    if m is not None:
        return m
    schedule.validate(model)
    scaled = []
    for g, c in enumerate(model.block_costs):
        b = schedule.beta(g, t)
        scaled.append(c if b == 1.0 else ScaledCost(c, b))
    m = LcmmCost(model.space, model.blocks, scaled, model.A, model.b_c)
    if len(schedule._models) > 256:
        schedule._models.clear()
    schedule._models[key] = m
    return m


def new_state(model: LcmmCost, schedule: Schedule, q, t: float,
              t_new: float) -> TimedState:
    """Advance the state from time t to t_new, preserving prices.

    The direct-sum price at q_new + A eta* equals the one at q + A eta*, and
    every block divergence shrinks by alpha_g, so eta* stays optimal at
    (t_new, q_new). It is handed to the time-t_new model, which keeps it as
    its solution at q_new when it certifies there.
    """
    if not schedule.t0 <= t <= t_new:
        raise ValueError("need t0 <= t <= t_new")
    q = _as_vector(q, model.dim, "q")
    m_t = model_at(model, schedule, t)
    sol = m_t.solve(q)
    q_new = np.empty(model.dim)
    for g, idx in enumerate(model._slices):
        a = schedule.alpha(g, t, t_new)
        q_new[idx] = a * (q[idx] + sol.delta[idx]) - sol.delta[idx]
    model_at(model, schedule, t_new)._adopt(q_new, sol.eta)
    return TimedState(q_new, sol)


def divergence_decomposition(model: LcmmCost, schedule: Schedule, mu, q,
                             t: float, t_new: float):
    """Both sides of the time-update divergence identity.

    lhs: divergence at the advanced state under the time-t_new cost.
    rhs: sum over blocks of alpha_g times the time-t block divergence at the
    arbitrage-adjusted state, plus the constraint-slack term.
    Returns (lhs, rhs, per-block terms).
    """
    mu = _as_vector(mu, model.dim, "mu")
    q = _as_vector(q, model.dim, "q")
    ts = new_state(model, schedule, q, t, t_new)
    m_t = model_at(model, schedule, t)
    m_new = model_at(model, schedule, t_new)
    lhs = m_new.divergence(mu, ts.q)
    shifted = q + ts.solution.delta
    per_block = []
    rhs = (float((model.A.T @ mu - model.b_c) @ ts.solution.eta)
           if ts.solution.eta.size else 0.0)
    for g, idx in enumerate(model._slices):
        c_t = m_t.block_costs[g]
        term = schedule.alpha(g, t, t_new) * c_t.divergence(mu[idx], shifted[idx])
        per_block.append(term)
        rhs += term
    return lhs, rhs, per_block


@dataclass
class PartialDecreaseAudit:
    report: dict  # `check_desiderata`'s rows, by name
    drops: dict  # realization -> (measured, predicted)
    tightness: object
    alpha: float
    passed: bool


def partial_decrease_audit(model: LcmmCost, schedule: Schedule, g: int, q,
                           t: float, t_new: float) -> PartialDecreaseAudit:
    """Audit a single-block liquidity decrease against the update desiderata.

    Only block g's schedule may move on (t, t_new]. Conditional prices and
    excess utility for the block-payoff observation are preserved; the
    per-realization utility drop equals (1 - alpha_g) times the time-t block
    divergence from the realization to the arbitrage-adjusted block state.
    Strict decrease additionally requires a tight block.
    The measured drops are the per-cell utilities the DECUTIL row records.
    """
    g = _checked_index(g, len(model.blocks), "block index")
    schedule.validate(model)
    for g2 in range(len(model.blocks)):
        if g2 != g and abs(schedule.beta(g2, t_new) - schedule.beta(g2, t)) > 1e-12:
            raise ValueError("only block g's schedule may change on (t, t_new]")
    q = _as_vector(q, model.dim, "q")
    obs = observe_block_payoff(model.space, model.blocks[g])
    ts = new_state(model, schedule, q, t, t_new)
    m_old = model_at(model, schedule, t)
    m_new = model_at(model, schedule, t_new)
    report = check_desiderata((m_old, q), (m_new, ts.q), obs, tol=AUDIT_TOL)
    alpha = schedule.alpha(g, t, t_new)
    idx = model._slices[g]
    c_t = m_old.block_costs[g]
    shifted_block = (q + ts.solution.delta)[idx]
    drops = {}
    drop_ok = True
    for x, utils in report["DECUTIL"].details.items():
        measured = utils["util_old"] - utils["util_new"]
        predicted = (1.0 - alpha) * c_t.divergence(np.asarray(x), shifted_block)
        drops[x] = (measured, predicted)
        if abs(measured - predicted) > AUDIT_TOL:
            drop_ok = False
    tight = tightness_check(model, g)
    rows_ok = all(report[k].passed for k in ("CONDPRICE", "EXUTIL", "PRICE"))
    if tight and alpha < 1.0:
        rows_ok = rows_ok and report["DECUTIL"].passed
    return PartialDecreaseAudit(report, drops, tight, alpha,
                                rows_ok and drop_ok)
