"""Implicit submarket closing: switched costs, consistency, desiderata audit.

When an observation's realization becomes public, the maker switches from C
to the pointwise max of per-cell restricted costs, each offset by the utility
the maker was due for that cell at the switch state. The construction zeroes
the utility of knowing the realization; whether it also preserves conditional
prices and excess utility is exactly the consistency question checked here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import CostModel, SwitchedCost, _as_vector
from .markets import Observation, OutcomeSpace, exposure_witness, probe_points
from .utility import util_event


@dataclass
class ConsistencyVerdict:
    consistent: bool
    worst_violation: float
    path: str  # what decided it: "overlap", "exposed" or "sampled"
    witness: dict | None = None
    switched: SwitchedCost | None = None  # the switch that was checked

    def __bool__(self):
        return self.consistent


@dataclass
class SwitchPlan:
    observation: Observation
    switch_state: np.ndarray
    offsets: dict
    cell_models: dict
    switched: SwitchedCost
    conditional_prices: dict
    consistency: ConsistencyVerdict


@dataclass
class DesiderataRow:
    name: str
    passed: bool
    worst: float
    informational: bool = False
    details: dict = field(default_factory=dict)


@dataclass
class DesiderataReport:
    rows: dict

    def row(self, name: str) -> DesiderataRow:
        return self.rows[name]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows.values() if not r.informational)


def plan_switch(m: CostModel, obs: Observation, s) -> SwitchPlan:
    """Build the post-revelation cost for observation `obs` at state s: the
    one `SwitchedCost` that `consistency_check` built and judged, whose
    offsets b_x = C(s) - C_x(s) are each cell's divergence from s."""
    verdict = consistency_check(m, obs, s)
    sw = verdict.switched
    return SwitchPlan(obs, sw.switch_state, sw.offsets, sw.cell_models, sw,
                      sw.conditional_prices, verdict)


def consistency_check(m: CostModel, obs: Observation, s) -> ConsistencyVerdict:
    """Whether the offset conjugates admit a consistent convex roof: the
    switch's `SwitchedCost.consistent`, the one threshold `cfmarkets run`
    and `check` share. The verdict carries the switch it checked and the
    path of `SwitchedCost.violation` that decided it."""
    sw = SwitchedCost(m, obs, s)
    worst, witness, path = sw.violation
    ok = sw.consistent
    return ConsistencyVerdict(ok, worst, path, None if ok else witness, sw)


@dataclass
class FeasibilityResult:
    status: str  # "guaranteed" | "unknown"
    witnesses: dict

    def __bool__(self):
        return self.status == "guaranteed"


def feasibility_precheck(space: OutcomeSpace, obs: Observation) -> FeasibilityResult:
    """State-independent sufficient condition for a fully consistent switch.

    Guaranteed when every cell is exposed (the argmax set of some linear
    functional of payoffs). The condition is sufficient, not necessary, so
    the negative answer is "unknown" rather than "impossible".
    """
    witnesses = exposure_witness(space, obs)
    status = ("guaranteed" if all(w is not None for w in witnesses.values())
              else "unknown")
    return FeasibilityResult(status, witnesses)


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
                     n_random: int = 32, seed: int = 0,
                     price_informational: bool = False) -> DesiderataReport:
    """Audit the five update desiderata between (model, state) pairs.

    old/new are (CostModel, state) tuples over the same outcome space.
    Rows: PRICE (price sets agree), CONDPRICE (per-cell conditional prices
    agree), ZEROUTIL (no post-update utility for any realization), DECUTIL
    (utility decreased wherever it was positive), EXUTIL (divergence change
    constant on each cell, so within-cell preferences are untouched).
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
    dev = max(float(np.max(np.abs(p_old.lo - p_new.lo), initial=0.0)),
              float(np.max(np.abs(p_old.hi - p_new.hi), initial=0.0)))
    rows["PRICE"] = DesiderataRow("PRICE", dev <= tol, dev,
                                  informational=price_informational)

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
        cp_dev = max(cp_dev, float(np.max(dev, initial=0.0)))

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

    rows["CONDPRICE"] = DesiderataRow("CONDPRICE", cp_dev <= tol, cp_dev)
    rows["ZEROUTIL"] = DesiderataRow("ZEROUTIL", zero_worst <= tol, zero_worst,
                                     details=details)
    rows["DECUTIL"] = DesiderataRow("DECUTIL", dec_ok, dec_worst,
                                    details=details)
    rows["EXUTIL"] = DesiderataRow("EXUTIL", ex_dev <= tol, ex_dev)
    return DesiderataReport(rows)
