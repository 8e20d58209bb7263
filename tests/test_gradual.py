import numpy as np
import pytest

import cfmarkets.costs
from cfmarkets import (BlockSchedule, Schedule, divergence_decomposition,
                       medal_count_model, model_at, new_state,
                       observe_block_payoff, partial_decrease_audit,
                       util_event)


def decaying_schedule(model, rates, t0=0.0):
    per_block = []
    for g in range(len(model.blocks)):
        r = rates.get(g)
        per_block.append(BlockSchedule("exponential", rate=r)
                         if r else BlockSchedule())
    return Schedule(tuple(per_block), t0)


# ---------------------------------------------------------------------------
# Schedules


def test_block_schedule_kinds():
    assert BlockSchedule().value(5.0) == 1.0
    lin = BlockSchedule("linear-to-floor", rate=0.25, floor=0.1)
    assert lin.value(2.0) == pytest.approx(0.5)
    assert lin.value(100.0) == pytest.approx(0.1)  # clamped at the floor
    exp = BlockSchedule("exponential", rate=0.5)
    assert exp.value(2.0) == pytest.approx(np.exp(-1.0))
    with pytest.raises(ValueError):
        BlockSchedule("quadratic")
    with pytest.raises(ValueError):
        BlockSchedule(rate=-1.0)
    with pytest.raises(ValueError):
        BlockSchedule("linear-to-floor", floor=0.0)
    with pytest.raises(ValueError):
        BlockSchedule().value(-0.1)


def test_schedule_validation_and_ratios():
    m = medal_count_model(1)
    sched = decaying_schedule(m, {0: 0.5})
    sched.validate(m)
    assert sched.beta(0, 2.0) == pytest.approx(np.exp(-1.0))
    assert sched.beta(1, 2.0) == 1.0
    assert sched.alpha(0, 1.0, 2.0) == pytest.approx(np.exp(-0.5))
    with pytest.raises(ValueError):
        Schedule((BlockSchedule(),), 0.0).validate(m)
    with pytest.raises(ValueError):
        sched.beta(0, -1.0)


# ---------------------------------------------------------------------------
# Time-indexed models


def test_model_at_start_is_unscaled():
    m = medal_count_model(1)
    sched = decaying_schedule(m, {0: 0.5})
    m0 = model_at(m, sched, 0.0)
    q = np.array([0.4, -0.2, 0.6])
    assert m0.cost(q) == pytest.approx(m.cost(q), abs=1e-12)
    m1 = model_at(m, sched, 1.0)
    # scaling shrinks the worst-case block utility, hence the cost at 0
    assert m1.cost(np.zeros(3)) < m0.cost(np.zeros(3))


def test_model_at_solve_is_certified_cost():
    m = medal_count_model(2)
    sched = decaying_schedule(m, {0: 0.3, 1: 0.7})
    q = np.random.default_rng(0).uniform(-1, 1, m.dim)
    sol = model_at(m, sched, 1.5).solve(q)
    assert sol.value == pytest.approx(model_at(m, sched, 1.5).cost(q),
                                      abs=1e-12)
    assert sol.certificate_gap <= 1e-9


def test_new_state_preserves_prices():
    m = medal_count_model(2)
    sched = decaying_schedule(m, {0: 0.4, 1: 0.2})
    rng = np.random.default_rng(1)
    for _ in range(5):
        q = rng.uniform(-1.5, 1.5, m.dim)
        t, t_new = 0.5, 2.0
        ts = new_state(m, sched, q, t, t_new)
        p_before = model_at(m, sched, t).price(q)
        p_after = model_at(m, sched, t_new).price(ts.q)
        assert np.max(np.abs(p_after.lo - p_before.lo)) <= 1e-7
        assert np.max(np.abs(p_after.hi - p_before.hi)) <= 1e-7
    with pytest.raises(ValueError):
        new_state(m, sched, np.zeros(m.dim), 2.0, 1.0)


def test_constant_schedule_is_identity():
    m = medal_count_model(1)
    sched = decaying_schedule(m, {})
    q = np.array([0.3, 0.1, -0.4])
    ts = new_state(m, sched, q, 0.0, 5.0)
    assert np.allclose(ts.q, q, atol=1e-12)
    assert model_at(m, sched, 3.0).cost(q) == pytest.approx(m.cost(q))


def test_model_at_memo_is_per_schedule_object():
    m = medal_count_model(2)
    per_block = (BlockSchedule("exponential", rate=0.4),
                 BlockSchedule("linear-to-floor", rate=0.2, floor=0.25),
                 BlockSchedule())
    sched, twin = Schedule(per_block, 0.0), Schedule(per_block, 0.0)
    m1 = model_at(m, sched, 1.0)
    assert model_at(m, sched, 1.0) is m1
    assert model_at(m, twin, 1.0) is not m1  # equal, but shares no models
    assert model_at(m, sched, 2.0) is not m1
    assert model_at(medal_count_model(2), sched, 1.0) is not m1
    # the memo is invisible to equality, hashing and repr
    assert sched == twin == Schedule(per_block, 0.0)
    assert hash(sched) == hash(twin) == hash((per_block, 0.0))
    assert len({sched, twin}) == 1
    assert repr(sched) == f"Schedule(per_block={per_block!r}, t0=0.0)"


def transport_schedule(n):
    """Exponential, linear-to-floor and constant blocks; block 1 reaches its
    floor at t = 0.5 and stays there."""
    per_block = [BlockSchedule("exponential", rate=0.5),
                 BlockSchedule("linear-to-floor", rate=1.2, floor=0.4)]
    per_block += [BlockSchedule("linear-to-floor", rate=0.1, floor=0.2)
                  for _ in range(n - 2)]
    per_block.append(BlockSchedule())
    return tuple(per_block)


@pytest.fixture
def cold_solves(monkeypatch):
    """Counts the LCMM solves that computed a solution, whatever the solver:
    the calls that the model's own cache did not answer."""
    from cfmarkets import LcmmCost

    runs = []
    real = LcmmCost.solve

    def counted(self, q):
        cached = self._cache.get(np.asarray(q, dtype=float).tobytes())
        sol = real(self, q)
        if sol is not cached:
            runs.append(1)
        return sol

    monkeypatch.setattr(LcmmCost, "solve", counted)
    return runs


@pytest.mark.parametrize("n", [2, 3])
def test_transported_bundle_matches_cold_solve(n, cold_solves):
    m = medal_count_model(n)
    per_block = transport_schedule(n)
    rng = np.random.default_rng(n)
    times = [(0.0, 0.3), (0.6, 2.0), (1.0, 1.0)]
    times += [tuple(np.sort(rng.uniform(0.0, 2.0, 2))) for _ in range(5)]
    kept = 0
    for t, t_new in times:
        q = rng.normal(0.0, 1.5, m.dim)
        sched = Schedule(per_block, 0.0)
        ts = new_state(m, sched, q, t, t_new)
        before = len(cold_solves)
        warm = model_at(m, sched, t_new)
        got = warm.solve(ts.q)
        cold_model = model_at(m, Schedule(per_block, 0.0), t_new)
        cold = cold_model.solve(ts.q)
        if len(cold_solves) == before + 2:  # rejected: solved from scratch
            assert np.array_equal(got.eta, cold.eta)
            continue
        assert len(cold_solves) == before + 1
        kept += 1
        assert got.converged and got.certificate_gap <= m.solve_tol
        assert got.value == pytest.approx(cold.value, abs=1e-9)
        # a gap of 1e-9 pins the value; delta only to within about 1e-8
        assert np.allclose(got.delta, cold.delta, rtol=0.0, atol=1e-7)
        p_warm, p_cold = warm.price(ts.q), cold_model.price(ts.q)
        assert np.max(np.abs(p_warm.lo - p_cold.lo)) <= 1e-7
        assert np.max(np.abs(p_warm.hi - p_cold.hi)) <= 1e-7
    assert kept >= len(times) // 2


def test_rejected_bundle_leaves_the_cold_solve(cold_solves):
    m = medal_count_model(2)
    per_block = transport_schedule(2)
    q = np.random.default_rng(5).normal(0.0, 1.5, m.dim)
    ts = new_state(m, Schedule(per_block, 0.0), q, 0.2, 1.1)
    candidate = ts.solution.eta.copy()
    candidate[0] += 0.5  # moves delta off the optimum
    target = model_at(m, Schedule(per_block, 0.0), 1.1)
    assert not target._adopt(ts.q, candidate)
    runs = len(cold_solves)
    got = target.solve(ts.q)
    assert len(cold_solves) == runs + 1
    cold = model_at(m, Schedule(per_block, 0.0), 1.1).solve(ts.q)
    assert np.array_equal(got.eta, cold.eta)
    assert np.array_equal(got.delta, cold.delta)
    assert (got.value, got.certificate_gap, got.converged) == \
        (cold.value, cold.certificate_gap, cold.converged)


# ---------------------------------------------------------------------------
# Divergence decomposition


def test_divergence_decomposition_identity():
    m = medal_count_model(1)
    sched = decaying_schedule(m, {0: 0.6})
    rng = np.random.default_rng(2)
    for _ in range(10):
        lam = rng.dirichlet(np.ones(m.space.n_outcomes))
        mu = lam @ m.space.payoff
        q = rng.uniform(-2, 2, m.dim)
        t = float(rng.uniform(0, 1))
        t_new = t + float(rng.uniform(0, 2))
        lhs, rhs, per_block = divergence_decomposition(m, sched, mu, q, t,
                                                       t_new)
        assert lhs == pytest.approx(rhs, abs=1e-7)
        assert len(per_block) == len(m.blocks)
        assert all(term >= -1e-9 for term in per_block)


def test_block_utility_decays_monotonically():
    m = medal_count_model(1)
    sched = decaying_schedule(m, {0: 0.8})
    obs = observe_block_payoff(m.space, m.blocks[0])
    cell = obs.cell((1.0,))
    q = np.array([0.7, -0.2, 0.3])
    utils = []
    state, t = q, 0.0
    for t_new in (0.0, 0.5, 1.0, 2.0, 4.0):
        ts = new_state(m, sched, state, t, t_new)
        state, t = ts.q, t_new
        utils.append(util_event(model_at(m, sched, t), cell, state).value)
    assert all(b <= a + 1e-9 for a, b in zip(utils, utils[1:]))
    # the decayed block's share of the utility drains away; the remaining
    # utility comes from the still-liquid count block the cell also pins
    assert utils[-1] < utils[0] - 0.1


# ---------------------------------------------------------------------------
# Partial decrease audit


def test_partial_decrease_audit_passes_on_binary_block():
    m = medal_count_model(1)
    sched = decaying_schedule(m, {0: 0.5})
    audit = partial_decrease_audit(m, sched, 0, np.array([0.6, 0.1, -0.3]),
                                   0.0, 1.0)
    assert audit.passed
    assert audit.alpha == pytest.approx(np.exp(-0.5))
    assert audit.tightness.status == "tight"
    for x, (measured, predicted) in audit.drops.items():
        assert measured == pytest.approx(predicted, abs=1e-6)
        assert measured > 0.0  # liquidity strictly decreased


def test_partial_decrease_audit_second_block():
    m = medal_count_model(2)
    sched = decaying_schedule(m, {1: 0.4})
    audit = partial_decrease_audit(m, sched, 1,
                                   np.array([0.2, -0.5, 0.1, 0.4, -0.2]),
                                   0.5, 1.5)
    assert audit.passed
    assert audit.report["PRICE"].passed
    assert audit.report["CONDPRICE"].passed
    assert audit.report["EXUTIL"].passed


def test_partial_decrease_audit_reads_its_drops_off_the_report(monkeypatch):
    m = medal_count_model(2)
    sched = decaying_schedule(m, {1: 0.4})
    q = np.array([0.2, -0.5, 0.1, 0.4, -0.2])
    projections = []
    real = cfmarkets.costs.project_onto_hull

    def counted(*args):
        projections.append(args)
        return real(*args)

    monkeypatch.setattr(cfmarkets.costs, "project_onto_hull", counted)
    audit = partial_decrease_audit(m, sched, 1, q, 0.5, 1.5)
    obs = observe_block_payoff(m.space, m.blocks[1])
    # one Frank-Wolfe projection per model and realization: the report's own
    assert len(projections) == 2 * len(obs.realizations)
    ts = new_state(m, sched, q, 0.5, 1.5)
    m_old, m_new = model_at(m, sched, 0.5), model_at(m, sched, 1.5)
    for x in obs.realizations:
        cell = obs.cell(x)
        measured = (util_event(m_old, cell, q).value
                    - util_event(m_new, cell, ts.q).value)
        assert audit.drops[x][0] == measured


def test_partial_decrease_audit_rejects_other_moving_blocks():
    m = medal_count_model(2)
    sched = decaying_schedule(m, {0: 0.4, 1: 0.4})
    with pytest.raises(ValueError):
        partial_decrease_audit(m, sched, 0, np.zeros(m.dim), 0.0, 1.0)


def test_partial_decrease_audit_constant_alpha_is_no_op():
    m = medal_count_model(1)
    sched = decaying_schedule(m, {})
    audit = partial_decrease_audit(m, sched, 0, np.array([0.6, 0.1, -0.3]),
                                   0.0, 1.0)
    assert audit.alpha == 1.0
    for measured, predicted in audit.drops.values():
        assert measured == pytest.approx(0.0, abs=1e-9)
        assert predicted == pytest.approx(0.0, abs=1e-12)
