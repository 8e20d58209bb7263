"""Acceptance suite: closed-form fidelity, worked-example reproduction,
independent-oracle equivalence, loss bounds, and determinism.

Each test prints a single PASS line tagged with its criterion number.
"""

import json
import time
from itertools import product

import numpy as np
import pytest
from scipy.special import logsumexp

from cfmarkets import (BlockSchedule, IndependentBinaryCost, LmsrCost,
                       NoiseTrader, PiecewiseLinearCost, Schedule,
                       TradeRequest, bundled_scenarios, check_desiderata,
                       conditional_price, consistency_check,
                       divergence_decomposition, medal_count_model,
                       model_at, new_state, observe_coordinate, observe_sum,
                       optimizing_sequence, partial_decrease_audit,
                       plan_switch, run_protocol1, run_protocol2,
                       simplex_market, single_binary_market, square_market,
                       util_event, verify_loss, wc_loss_bound)
from cfmarkets.cli import cmd_run
from cfmarkets.utility import MAX_TRADES

from oracles import (grid_minimax_util, lmsr_cost_vec, medal_eta_grid_value,
                     piecewise_cost_vec, product_lmsr_cost_vec,
                     square_count_violation)


def done(n, label):
    print(f"ACCEPTANCE {n:02d} {label}: PASS")


def test_01_closed_form_fidelity():
    start = time.perf_counter()
    worst = 0.0

    m = LmsrCost(simplex_market(3))
    axis = np.linspace(-2.0, 2.0, 10)
    for q in product(axis, axis, axis):
        q = np.array(q)
        worst = max(worst, abs(m.cost(q) - logsumexp(q)))
        p = np.exp(q - logsumexp(q))
        worst = max(worst, float(np.max(np.abs(m.price(q).center - p))))
    tri = [np.array([a, b, 1.0 - a - b])
           for a in np.linspace(0, 1, 44) for b in np.linspace(0, 1, 44)
           if a + b <= 1.0 + 1e-12]
    for mu in tri[:1000]:
        mu = np.clip(mu, 0.0, 1.0)
        ref = float(np.sum(mu[mu > 0] * np.log(mu[mu > 0])))
        worst = max(worst, abs(m.conjugate(mu) - ref))

    sq = IndependentBinaryCost(square_market())
    axis = np.linspace(-3.0, 3.0, 32)
    for q in product(axis, axis):
        q = np.array(q)
        worst = max(worst, abs(sq.cost(q) - np.logaddexp(0, q).sum()))
        p = 1 / (1 + np.exp(-q))
        worst = max(worst, float(np.max(np.abs(sq.price(q).center - p))))
    axis = np.linspace(0.0, 1.0, 32)
    for mu in product(axis, axis):
        mu = np.array(mu)
        ref = 0.0
        for v in np.concatenate([mu, 1 - mu]):
            if v > 0:
                ref += v * np.log(v)
        worst = max(worst, abs(sq.conjugate(mu) - ref))

    pw = PiecewiseLinearCost(single_binary_market())
    for q in np.linspace(-2.0, 2.0, 1000):
        worst = max(worst, abs(pw.cost([q]) - max(0.0, q)))
        p = pw.price([q])
        if abs(q) > 1e-9:
            worst = max(worst, abs(p.center[0] - (1.0 if q > 0 else 0.0)))
    for mu in np.linspace(0.0, 1.0, 1000):
        worst = max(worst, abs(pw.conjugate([mu])))

    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, worst
    assert elapsed < 1.0, elapsed
    done(1, f"closed forms within {worst:.2e} in {elapsed:.2f}s")


def test_02_switched_cost_worked_example():
    m = IndependentBinaryCost(square_market())
    obs = observe_coordinate(m.space, 0)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(3):
        s = rng.uniform(-2, 2, 2)
        plan = plan_switch(m, obs, s)
        axis = np.linspace(-3.0, 3.0, 32)
        for q in product(axis, axis):
            q = np.array(q)
            expected = (max(0.0, q[0] - s[0]) + np.log1p(np.exp(s[0]))
                        + np.log1p(np.exp(q[1])))
            worst = max(worst, abs(plan.cost(q) - expected))
        for q2 in np.linspace(-2, 2, 9):
            p = plan.price(np.array([s[0], q2]))
            sig = 1 / (1 + np.exp(-q2))
            assert abs(p.lo[0] - 0.0) <= 1e-8 and abs(p.hi[0] - 1.0) <= 1e-8
            assert abs(p.lo[1] - sig) <= 1e-8 and abs(p.hi[1] - sig) <= 1e-8
    assert worst <= 1e-9, worst
    done(2, f"switched-cost formula within {worst:.2e}; spread [0,1] x point")


def test_03_desiderata_on_square_coordinate():
    m = IndependentBinaryCost(square_market())
    obs = observe_coordinate(m.space, 0)
    for s in (np.zeros(2), np.array([0.5, 0.4]), np.array([-1.2, 0.9])):
        plan = plan_switch(m, obs, s)
        report = check_desiderata((m, s), (plan, s), obs,
                                  n_random=100, seed=0)
        assert report["ZEROUTIL"].worst <= 1e-8
        assert report["EXUTIL"].worst <= 1e-6
        assert report["CONDPRICE"].worst <= 1e-7
    done(3, "ZeroUtil<=1e-8, ExUtil<=1e-6 (100 samples/cell), CondPrice<=1e-7")


def test_04_count_observation_impossibility():
    m = IndependentBinaryCost(square_market())
    obs = observe_sum(m.space)
    s = np.array([1.0, 0.0])
    oracle = square_count_violation(s)
    closed = 2.0 * np.log(np.cosh(0.25))
    assert oracle == pytest.approx(closed, abs=1e-6)  # oracle sanity
    verdict = consistency_check(m, obs, s)
    assert not verdict.consistent
    assert verdict.worst_violation == pytest.approx(oracle, abs=1e-4)
    for c in (0.0, 1.0):
        assert consistency_check(m, obs, np.array([c, c])).consistent
    done(4, f"violation {verdict.worst_violation:.6f} vs oracle "
            f"{oracle:.6f}; symmetric states consistent")


def test_05_lmsr_conditioning():
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(100):
        k = 3 + i % 4  # K in 3..6
        m = LmsrCost(simplex_market(k))
        q = rng.uniform(-2, 2, k)
        event = tuple(rng.choice(k, size=rng.integers(1, k), replace=False))
        p, _ = conditional_price(m, event, q)
        expected = np.zeros(k)
        idx = list(event)
        expected[idx] = np.exp(q[idx]) / np.exp(q[idx]).sum()
        worst = max(worst, float(np.max(np.abs(p - expected))))
    assert worst <= 1e-12, worst
    done(5, f"renormalized conditioning within {worst:.2e} over 100 pairs")


def test_06_event_utility_matches_grid_minimax():
    rng = np.random.default_rng(1)
    cases = []
    m3 = LmsrCost(simplex_market(3))
    cases += [(m3, lmsr_cost_vec, e) for e in ((0,), (0, 1))]
    m4 = LmsrCost(simplex_market(4))
    cases += [(m4, lmsr_cost_vec, (0, 2, 3))]
    sq = IndependentBinaryCost(square_market())
    cases += [(sq, product_lmsr_cost_vec, e)
              for e in ((((1, 0)), ((1, 1))), (((0, 1)), ((1, 0))),
                        (((1, 1)),))]
    pw = PiecewiseLinearCost(single_binary_market())
    cases += [(pw, piecewise_cost_vec, (1,)), (pw, piecewise_cost_vec, (0,))]
    worst = 0.0
    for m, cvec, event in cases:
        for _ in range(3):
            q = rng.uniform(-1.5, 1.5, m.dim)
            lib = util_event(m, event, q).value
            oracle = grid_minimax_util(cvec, m.space.vertices(event), q)
            worst = max(worst, abs(lib - oracle))
    assert worst <= 1e-3, worst
    done(6, f"event utility within {worst:.2e} of grid minimax")


def test_07_lcmm_certificates_and_value_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_val, worst_gap = 0.0, 0.0
    for n, runs in ((1, 80), (2, 60), (3, 60)):
        m = medal_count_model(n)
        for _ in range(runs):
            q = rng.uniform(-3, 3, m.dim)
            sol = m.solve(q)
            worst_gap = max(worst_gap, sol.certificate_gap)
            worst_val = max(worst_val,
                            abs(sol.value - medal_eta_grid_value(q, n)))
    elapsed = time.perf_counter() - start
    assert worst_val <= 1e-4, worst_val
    assert worst_gap <= 1e-7, worst_gap
    assert elapsed < 30.0, elapsed
    done(7, f"200 states: |value-oracle|<={worst_val:.2e}, "
            f"gap<={worst_gap:.2e}, {elapsed:.1f}s")


def test_08_time_update_decomposition():
    rng = np.random.default_rng(3)
    worst_dec, worst_price = 0.0, 0.0
    for i in range(200):
        n = 1 + i % 2
        m = medal_count_model(n)
        sched = Schedule(tuple(
            BlockSchedule("exponential", rate=float(rng.uniform(0.1, 0.8)))
            for _ in m.blocks), 0.0)
        lam = rng.dirichlet(np.ones(m.space.n_outcomes))
        mu = lam @ m.space.payoff
        q = rng.uniform(-2, 2, m.dim)
        t = float(rng.uniform(0, 1))
        t_new = t + float(rng.uniform(0, 1.5))
        lhs, rhs, _ = divergence_decomposition(m, sched, mu, q, t, t_new)
        worst_dec = max(worst_dec, abs(lhs - rhs))
        ts = new_state(m, sched, q, t, t_new)
        p0 = model_at(m, sched, t).price(q)
        p1 = model_at(m, sched, t_new).price(ts.q)
        worst_price = max(worst_price,
                          float(np.max(np.abs(p0.center - p1.center))))
    assert worst_dec <= 1e-6, worst_dec
    assert worst_price <= 1e-6, worst_price
    done(8, f"200 tuples: |lhs-rhs|<={worst_dec:.2e}, "
            f"price shift<={worst_price:.2e}")


def test_09_utility_drop_formula():
    rng = np.random.default_rng(4)
    worst = 0.0
    for n in (1, 2):
        m = medal_count_model(n)
        for g in range(n):  # every binary block
            for _ in range(3):
                sched = Schedule(tuple(
                    BlockSchedule("exponential",
                                  rate=(0.6 if g2 == g else 0.0))
                    for g2 in range(n + 1)), 0.0)
                q = rng.uniform(-1.5, 1.5, m.dim)
                t = float(rng.uniform(0, 1))
                audit = partial_decrease_audit(m, sched, g, q, t,
                                               t + float(rng.uniform(0.2, 1)))
                assert audit.passed
                for measured, predicted in audit.drops.values():
                    worst = max(worst, abs(measured - predicted))
    assert worst <= 1e-6, worst
    done(9, f"drop formula within {worst:.2e} on binary blocks")


def test_10_loss_bounds_over_seeded_runs():
    m4 = LmsrCost(simplex_market(4))
    assert wc_loss_bound(m4, np.zeros(4)) == pytest.approx(np.log(4),
                                                           abs=1e-12)
    sq = IndependentBinaryCost(square_market())
    obs = observe_coordinate(sq.space, 0)
    bound1 = wc_loss_bound(sq, np.zeros(2))
    min_slack = np.inf
    for seed in range(1000):
        traders = [NoiseTrader("n1", [0.2, 0.5, 0.8, 1.2, 1.6], 1.5)]
        outcome = sq.space.outcomes[seed % 4]
        ledger = run_protocol1(sq, np.zeros(2), obs, traders, 1.0, outcome,
                               seed=seed)
        ok, slack = verify_loss(ledger, bound1)
        assert ok, (seed, slack)
        min_slack = min(min_slack, slack)

    m = medal_count_model(2)
    sched = Schedule((BlockSchedule("exponential", rate=0.4),
                      BlockSchedule("exponential", rate=0.2),
                      BlockSchedule()), 0.0)
    bound2 = wc_loss_bound(m, np.zeros(m.dim))
    for seed in range(1000):
        requests = [
            TradeRequest(0.4, "n", agent=NoiseTrader("n", [], 0.8)),
            TradeRequest(1.0, "n", agent=NoiseTrader("n", [], 0.8)),
            TradeRequest(1.8, "n", agent=NoiseTrader("n", [], 0.8))]
        outcome = m.space.outcomes[seed % 4]
        ledger = run_protocol2(m, sched, np.zeros(m.dim), 0.0, requests,
                               outcome, seed=seed)
        ok, slack = verify_loss(ledger, bound2)
        assert ok, (seed, slack)
        min_slack = min(min_slack, slack)
    done(10, f"2000 runs under the bound (min slack {min_slack:.3f}); "
             f"ln 4 reproduced")


def test_11_optimizing_sequence_convergence():
    m = LmsrCost(simplex_market(3))
    seq = optimizing_sequence(m, (0, 1), np.zeros(3))
    trace = np.array([util_event(m, (0, 1), s).value for s in seq.states])
    assert np.all(np.diff(trace) <= 1e-12)
    assert trace[-1] < 1e-3, trace[-1]
    assert len(trace) <= MAX_TRADES + 1
    done(11, f"divergence trace reaches {trace[-1]:.2e} "
             f"in {len(trace) - 1} steps")


def test_12_bundled_scenarios_are_deterministic(tmp_path):
    for name, path in sorted(bundled_scenarios().items()):
        allow = "impossible" in name
        outputs = []
        for i in (0, 1):
            out = tmp_path / f"{name}.{i}.jsonl"
            code = cmd_run(str(path), out=str(out),
                           allow_inconsistent=allow)
            assert code == 0, name
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], name
        for line in outputs[0].splitlines():
            json.loads(line)
    done(12, "byte-identical reruns for every bundled scenario")
