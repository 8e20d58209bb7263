"""Implicit submarket closing: switched costs, consistency, desiderata audit.

When an observation's realization becomes public, the maker switches from C
to the max of per-cell restricted costs, each offset by the utility
the maker was due for that cell at the switch state. The construction zeroes
the utility of knowing the realization; whether it also preserves conditional
prices and excess utility is exactly the consistency question checked here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import ConsistencyVerdict, CostModel, SwitchedCost, _as_vector
from .markets import Observation, OutcomeSpace, probe_points
from .utility import util_event


@dataclass
class DesiderataRow:
    passed: bool
    worst: float
    details: dict = field(default_factory=dict)


def plan_switch(m: CostModel, obs: Observation, s) -> SwitchedCost:
    """The post-revelation cost for observation `obs` at state s, with
    offsets b_x = C(s) - C_x(s), each cell's divergence from s: the switch
    `consistency_check` built and judged, so its verdict is already known."""
    return consistency_check(m, obs, s).switched


def consistency_check(m: CostModel, obs: Observation, s) -> ConsistencyVerdict:
    """Whether the offset conjugates admit a consistent convex roof: the
    `SwitchedCost.consistency` of the switch at s, the one threshold
    `cfmarkets run` and `check` share. The verdict carries that switch."""
    return SwitchedCost(m, obs, s).consistency


def _cell_samples(space: OutcomeSpace, cell, n_random: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Probe grid inside a cell hull: vertices, midpoints, random points."""
    pts = [probe_points(space, cell)]
    V = space.vertices(cell)
    if n_random > 0 and V.shape[0] > 1:
        w = rng.dirichlet(np.ones(V.shape[0]), size=n_random)
        pts.append(w @ V)
    return np.vstack(pts)


def check_desiderata(old, new, obs: Observation, tol: float = 1e-6,
                     n_random: int = 32, seed: int = 0) -> dict:
    """Audit the five update desiderata between (model, state) pairs.

    old/new are (CostModel, state) tuples over the same outcome space.
    Rows, a `DesiderataRow` by name: PRICE (price sets agree), CONDPRICE
    (per-cell conditional prices agree), ZEROUTIL (no post-update utility
    for any realization), DECUTIL (utility decreased wherever it was
    positive), EXUTIL (divergence change constant on each cell, so
    within-cell preferences are untouched).
    Each row is measured and reported, never gated here: callers choose the
    rows that must pass (a switch opens a spread on the revealed
    coordinates, so `cfmarkets run` does not gate PRICE).
    """
    m_old, s_old = old
    m_new, s_new = new
    if m_old.space is not m_new.space and not (
            m_old.space.outcomes == m_new.space.outcomes
            and np.array_equal(m_old.space.payoff, m_new.space.payoff)):
        raise ValueError("models must share an outcome space")
    obs.validate(m_old.space)
    s_old = _as_vector(s_old, m_old.dim, "old state")
    s_new = _as_vector(s_new, m_new.dim, "new state")
    rng = np.random.default_rng(seed)
    rows = {}

    p_old, p_new = m_old.price(s_old), m_new.price(s_new)
    dev = max(float(np.abs(p_old.lo - p_new.lo).max(initial=0.0)),
              float(np.abs(p_old.hi - p_new.hi).max(initial=0.0)))
    rows["PRICE"] = DesiderataRow(dev <= tol, dev)

    cp_dev = 0.0
    zero_worst = 0.0
    dec_ok = True
    dec_worst = 0.0
    ex_dev = 0.0
    details = {}
    for x in obs.realizations:
        cell = obs.cell(x)
        ev_old = util_event(m_old, cell, s_old)
        ev_new = util_event(m_new, cell, s_new)
        dev = np.abs(ev_old.minimizer - ev_new.minimizer)
        cp_dev = max(cp_dev, float(dev.max(initial=0.0)))

        u_old, u_new = ev_old.value, ev_new.value
        zero_worst = max(zero_worst, u_new)
        if u_new > u_old + tol:
            dec_ok = False
        if u_old > tol and not u_new < u_old:
            dec_ok = False
        dec_worst = max(dec_worst, u_new - u_old)

        # D_old(mu||s_old) - D_new(mu||s_new) less C_old(s_old) - C_new(s_new),
        # a constant that cancels in the spread; each model prices the
        # samples as one stack (a switched cost: one roof LP per cell)
        samples = _cell_samples(m_old.space, cell, n_random, rng)
        shift = [float((s_old - s_new) @ mu) for mu in samples]
        with np.errstate(invalid="ignore"):  # inf - inf is dropped below
            diffs = m_old._conjs(samples) - m_new._conjs(samples) - shift
        diffs = diffs[np.isfinite(diffs)]
        if diffs.size:
            ex_dev = max(ex_dev, float(diffs.max() - diffs.min()))
        details[x] = {"util_old": u_old, "util_new": u_new}

    rows["CONDPRICE"] = DesiderataRow(cp_dev <= tol, cp_dev)
    rows["ZEROUTIL"] = DesiderataRow(zero_worst <= tol, zero_worst, details)
    rows["DECUTIL"] = DesiderataRow(dec_ok, dec_worst, details)
    rows["EXUTIL"] = DesiderataRow(ex_dev <= tol, ex_dev)
    return rows
