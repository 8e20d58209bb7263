import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfmarkets import (BeliefTrader, BlockSchedule, IndependentBinaryCost,
                       InconsistentPlanError, JitArbitrageur, LmsrCost,
                       NoiseTrader, Schedule, TradeRequest, TraderAgent,
                       medal_count_model,
                       observe_block_payoff, observe_coordinate, observe_sum,
                       plan_switch,
                       run_protocol1, run_protocol2, simplex_market,
                       square_market, trivial_observation, util_event,
                       verify_loss, wc_loss_bound)

SRC = Path(__file__).resolve().parents[1] / "src"


def square():
    return IndependentBinaryCost(square_market())


def constant_schedule(m):
    return Schedule(tuple(BlockSchedule() for _ in m.blocks))


def run_square(traders, outcome=(1, 1), seed=0, **kw):
    m = square()
    obs = observe_coordinate(m.space, 0)
    return m, run_protocol1(m, np.zeros(2), obs, traders, 1.0, outcome,
                            seed=seed, **kw)


# ---------------------------------------------------------------------------
# Ledger accounting


def test_ledger_conserves_value():
    traders = [NoiseTrader("n1", [0.2, 0.5, 1.5], 1.2),
               NoiseTrader("n2", [0.8, 1.2], 0.6)]
    m, ledger = run_square(traders, outcome=(0, 1), seed=3)
    assert ledger.outcome == (0, 1)
    assert sum(ledger.trader_pnl.values()) == pytest.approx(
        ledger.maker_loss, abs=1e-12)
    total_cost = sum(r.cost for r in ledger.records)
    assert sum(ledger.costs.values()) == pytest.approx(total_cost, abs=1e-12)
    assert len(ledger.records) == 5


def test_loss_respects_worst_case_bound():
    traders = [NoiseTrader("n1", [0.2, 0.5, 0.8, 1.2, 1.6], 1.5)]
    m, ledger = run_square(traders, outcome=(1, 0), seed=11)
    bound = wc_loss_bound(square(), np.zeros(2))
    assert bound == pytest.approx(2 * np.log(2), abs=1e-12)
    ok, slack = verify_loss(ledger, bound)
    assert ok and slack >= -1e-6


def test_verify_loss_requires_settlement():
    from cfmarkets import Ledger
    with pytest.raises(ValueError):
        verify_loss(Ledger(), 1.0)


def test_wc_loss_bound_lmsr_uniform():
    m = LmsrCost(simplex_market(4))
    assert wc_loss_bound(m, np.zeros(4)) == pytest.approx(np.log(4),
                                                          abs=1e-12)


def test_trader_pnl_is_in_first_trade_order_under_any_hash_seed():
    # six names whose set order differs between hash seeds; each trades
    # once, in the reverse of their sorted order
    code = ("import json\n"
            "from cfmarkets import (IndependentBinaryCost, NoiseTrader,\n"
            "    observe_coordinate, run_protocol1, square_market)\n"
            "m = IndependentBinaryCost(square_market())\n"
            "names = ['n5', 'n4', 'n3', 'n2', 'n1', 'n0']\n"
            "traders = [NoiseTrader(n, [0.1 * (i + 1)], 0.5)\n"
            "           for i, n in enumerate(names)]\n"
            "ledger = run_protocol1(m, [0.0, 0.0],\n"
            "    observe_coordinate(m.space, 0), traders, 1.0, (1, 1))\n"
            "print(json.dumps([list(ledger.trader_pnl),\n"
            "    list(dict.fromkeys(r.trader for r in ledger.records))]))\n")
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        pnl_order, first_trades = json.loads(proc.stdout)
        assert pnl_order == first_trades == ["n5", "n4", "n3", "n2", "n1",
                                             "n0"]


# ---------------------------------------------------------------------------
# Agents


def test_belief_trader_moves_price_to_belief():
    m = square()
    mu = np.array([0.8, 0.25])
    tr = BeliefTrader("b", [0.5], mu)
    r = tr.bundle(m, np.zeros(2), 0.5, np.random.default_rng(0))
    assert np.allclose(m.price(r).center, mu, atol=1e-9)


@pytest.mark.xfail(strict=True, reason="with no closed-form state inverse "
                   "the belief trader falls back to Powell, which stops at "
                   "the zero trade on the switch's kink (ROADMAP item 3)")
def test_belief_trader_earns_the_switched_divergence():
    m = square()
    s = np.zeros(2)
    sw = plan_switch(m, observe_sum(m.space), s)
    mu = np.array([0.2, 0.8])
    r = BeliefTrader("b", [0.5], mu).bundle(sw, s, 0.5,
                                            np.random.default_rng(0))
    # D_sw(mu || s), from the exact best response of the oracles
    assert float(mu @ r) - sw.trade_cost(s, r) == pytest.approx(0.385489514,
                                                                abs=1e-8)


def test_budget_caps_trade_cost():
    m = square()
    tr = BeliefTrader("b", [0.5], np.array([0.99, 0.99]), budget=0.05)
    q = np.zeros(2)
    r = tr.bundle(m, q, 0.5, np.random.default_rng(0))
    assert m.trade_cost(q, r) <= 0.05 + 1e-9


@pytest.mark.parametrize("budget", [float("nan"), -1.0, float("inf")])
def test_a_budget_must_be_finite_and_nonnegative(budget):
    # a nan or negative budget used to be accepted, and protocol 1 then
    # recorded a zero trade at cost 0
    obs = observe_sum(square().space)
    for make in (lambda: NoiseTrader("n", [0.5], 1.0, budget=budget),
                 lambda: BeliefTrader("b", [0.5], [0.5, 0.5], budget=budget),
                 lambda: JitArbitrageur("a", [1.5], obs, 2.0, budget=budget),
                 lambda: TraderAgent("t", [0.5], budget)):
        with pytest.raises(ValueError, match="budget must be finite and >= 0"):
            make()
    assert NoiseTrader("n", [0.5], budget=0).budget == 0.0
    assert NoiseTrader("n", [0.5]).budget is None


def test_noise_trader_is_seeded_and_bounded():
    m = square()
    tr = NoiseTrader("n", [0.5], scale=0.7)
    r1 = tr.bundle(m, np.zeros(2), 0.5, np.random.default_rng(42))
    r2 = tr.bundle(m, np.zeros(2), 0.5, np.random.default_rng(42))
    assert np.array_equal(r1, r2)
    assert np.max(np.abs(r1)) <= 0.7


def test_jit_arbitrageur_stays_out_without_edge():
    m = square()
    obs = observe_coordinate(m.space, 0)
    tr = JitArbitrageur("a", [1.5], obs, 1.0)
    # state already prices the revealed cell: nothing to take
    q = np.array([50.0, 0.0])
    r = tr.bundle(m, q, 1.5, np.random.default_rng(0))
    assert np.allclose(r, 0.0)


# ---------------------------------------------------------------------------
# Protocol 1: sudden revelation


def test_jit_profit_after_switch_is_nonnegative_and_tiny():
    traders = [NoiseTrader("n1", [0.2, 0.6], 1.0),
               JitArbitrageur("a1", [1.1], None, None)]
    m = square()
    obs = observe_coordinate(m.space, 0)
    traders[1] = JitArbitrageur("a1", [1.1], obs, 1.0)
    ledger = run_protocol1(m, np.zeros(2), obs, traders, 1.0, (1, 1), seed=7)
    # the switch zeroes the revealed cell's utility, so knowing the
    # realization pays nothing beyond roundoff
    assert abs(ledger.trader_pnl.get("a1", 0.0)) <= 1e-8


def test_jit_trades_away_the_utility_a_post_switch_trade_opens():
    # the noise trade after the switch moves the state off the switch
    # state, so the revealed cell pays again and the arbitrageur takes it
    m = square()
    obs = observe_coordinate(m.space, 0)
    traders = [NoiseTrader("n1", [1.2], 1.0),
               JitArbitrageur("a1", [1.5], obs, 1.0)]
    ledger = run_protocol1(m, np.zeros(2), obs, traders, 1.0, (1, 1), seed=2)
    rec = ledger.records[-1]
    assert rec.trader == "a1" and rec.model is ledger.plan
    cell = obs.cell(1.0)
    util = util_event(ledger.plan, cell, rec.state_before).value
    assert util > 1e-12
    guaranteed = min(float(rec.bundle @ m.space.payoff_of(w))
                     for w in cell) - rec.cost
    assert 0 < guaranteed <= util + 1e-9


def test_jit_before_switch_rejected():
    m = square()
    obs = observe_coordinate(m.space, 0)
    jit = JitArbitrageur("a", [0.5], obs, 1.0)
    with pytest.raises(ValueError):
        run_protocol1(m, np.zeros(2), obs, [jit], 1.0, (1, 1))


@pytest.mark.parametrize("switch_time", [float("nan"), float("inf")])
def test_non_finite_switch_time_rejected(switch_time):
    m = square()
    obs = observe_coordinate(m.space, 0)
    with pytest.raises(ValueError):
        run_protocol1(m, np.zeros(2), obs, [NoiseTrader("n", [0.5])],
                      switch_time, (1, 1))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_trader_rejects_a_non_finite_trade_time(bad):
    obs = observe_sum(square().space)
    for make in (lambda times: NoiseTrader("n", times),
                 lambda times: BeliefTrader("b", times, [0.5, 0.5]),
                 lambda times: JitArbitrageur("a", times, obs, 2.0)):
        with pytest.raises(ValueError, match="trade times must be finite"):
            make([0.2, bad])
        assert make([0.7, 0.2]).times == (0.2, 0.7)


def test_jit_realization_must_match_settlement():
    m = square()
    obs = observe_coordinate(m.space, 0)
    jit = JitArbitrageur("a", [1.5], obs, 0.0)
    with pytest.raises(ValueError):
        run_protocol1(m, np.zeros(2), obs, [jit], 1.0, (1, 1))


def test_off_cell_belief_after_the_switch_is_rejected_before_any_trade(
        monkeypatch):
    m = square()
    obs = observe_coordinate(m.space, 0)
    traded = []
    monkeypatch.setattr(NoiseTrader, "bundle",
                        lambda self, *a: traded.append(a) or np.zeros(2))
    off = BeliefTrader("b", [1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="no revelation cell"):
        run_protocol1(m, np.zeros(2), obs, [NoiseTrader("n", [0.5]), off],
                      1.0, (1, 1))
    assert traded == []
    # before the switch it prices under the original cost, where the belief
    # is a price
    ledger = run_protocol1(m, np.zeros(2), obs,
                           [BeliefTrader("b", [0.5], [0.5, 0.5])], 1.0, (1, 1))
    assert np.allclose(m.price(ledger.final_state).center, [0.5, 0.5])


@pytest.mark.parametrize("times", [[0.5], [1.5]], ids=["before", "after"])
def test_belief_outside_the_price_space_is_rejected(times):
    # before the switch such a belief used to clip: it bought [120, 0]
    m = square()
    obs = observe_coordinate(m.space, 0)
    with pytest.raises(ValueError, match="outside the price space"):
        run_protocol1(m, np.zeros(2), obs,
                      [BeliefTrader("b", times, [2.0, 0.5])], 1.0, (1, 1))


def test_inconsistent_plan_raises_without_override():
    m = square()
    obs = observe_sum(m.space)
    traders = [NoiseTrader("n", [1.5], 0.5)]
    with pytest.raises(InconsistentPlanError):
        run_protocol1(m, np.array([1.0, 0.0]), obs, traders, 1.0, (1, 0))
    ledger = run_protocol1(m, np.array([1.0, 0.0]), obs, traders, 1.0, (1, 0),
                           allow_inconsistent=True)
    assert ledger.plan is not None
    assert not ledger.plan.consistency.consistent
    assert ledger.events[0]["event"] == "switch"


def test_a_trade_at_the_switch_instant_prices_under_the_plan():
    m = square()
    obs = observe_coordinate(m.space, 0)
    traders = [NoiseTrader("n", [1.0], 1.0)]  # trades exactly at switch time
    ledger = run_protocol1(m, np.zeros(2), obs, traders, 1.0, (0, 0), seed=5)
    rec = ledger.records[0]
    assert rec.model is ledger.plan
    assert rec.cost == ledger.plan.trade_cost(rec.state_before, rec.bundle)
    # switched pricing (a max of offset cell costs) differs from the original
    assert rec.cost != m.trade_cost(rec.state_before, rec.bundle)


def test_a_run_with_every_trade_before_the_switch_still_switches():
    m = square()
    obs = observe_coordinate(m.space, 0)
    traders = [NoiseTrader("n", [0.2, 0.6], 1.0),
               BeliefTrader("b", [0.9], [0.5, 0.5])]
    ledger = run_protocol1(m, np.zeros(2), obs, traders, 1.0, (1, 1), seed=3)
    assert all(rec.model is m for rec in ledger.records)
    assert [e["event"] for e in ledger.events] == ["switch"]
    assert np.array_equal(ledger.plan.switch_state, ledger.final_state)


def test_trivial_observation_run_matches_no_switch_run():
    m = square()
    obs = trivial_observation(m.space)
    traders = [NoiseTrader("n1", [0.2, 0.6, 1.3, 1.8], 1.1)]
    mid = run_protocol1(m, np.zeros(2), obs, traders, 1.0, (1, 1), seed=9)
    never = run_protocol1(m, np.zeros(2), obs, traders, 1e9, (1, 1), seed=9)
    assert len(mid.records) == len(never.records)
    for a, b in zip(mid.records, never.records):
        assert np.array_equal(a.bundle, b.bundle)
        assert a.cost == b.cost  # single-cell switch reprices identically
    assert mid.maker_loss == pytest.approx(never.maker_loss, abs=0.0)


def test_single_cell_plan_is_consistent_with_zero_offset():
    m = square()
    obs = trivial_observation(m.space)
    ledger = run_protocol1(m, np.zeros(2), obs, [], 1.0, (1, 1))
    assert ledger.plan.consistency.consistent
    assert ledger.plan.offsets[0] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Protocol 2: gradual decrease


def medal_schedule(m):
    per_block = [BlockSchedule("exponential", rate=0.4)
                 for _ in range(len(m.blocks) - 1)]
    per_block.append(BlockSchedule())
    return Schedule(tuple(per_block), 0.0)


def test_protocol2_reanchors_and_respects_bound():
    m = medal_count_model(2)
    sched = medal_schedule(m)
    requests = [TradeRequest(0.5, "n", agent=NoiseTrader("n", [], 0.8)),
                TradeRequest(1.2, "n", agent=NoiseTrader("n", [], 0.8)),
                TradeRequest(2.0, "t", bundle=np.array([0.3, 0, 0, 0, -0.2]))]
    ledger = run_protocol2(m, sched, np.zeros(m.dim), 0.0, requests, (1, 0),
                           seed=13)
    assert any(e["event"] == "reanchor" for e in ledger.events)
    bound = wc_loss_bound(m, np.zeros(m.dim))
    ok, _ = verify_loss(ledger, bound)
    assert ok
    assert sum(ledger.trader_pnl.values()) == pytest.approx(
        ledger.maker_loss, abs=1e-12)


def test_protocol2_constant_schedule_never_reanchors():
    m = medal_count_model(1)
    sched = constant_schedule(m)
    requests = [TradeRequest(0.5, "t", bundle=np.array([0.4, 0.0, 0.0])),
                TradeRequest(1.5, "t", bundle=np.array([-0.2, 0.1, 0.0]))]
    ledger = run_protocol2(m, sched, np.zeros(m.dim), 0.0, requests, (1,))
    assert not ledger.events


def test_protocol2_empty_requests_settles_immediately():
    m = medal_count_model(1)
    ledger = run_protocol2(m, constant_schedule(m), np.zeros(m.dim), 0.0,
                           [], (0,))
    assert ledger.maker_loss == 0.0
    assert ledger.final_state is not None


def test_protocol2_rejects_time_travel():
    m = medal_count_model(1)
    requests = [TradeRequest(1.0, "t", bundle=np.zeros(3)),
                TradeRequest(0.5, "t", bundle=np.zeros(3))]
    with pytest.raises(ValueError):
        run_protocol2(m, constant_schedule(m), np.zeros(3), 0.0, requests,
                      (0,))


@pytest.mark.parametrize("late, error", [
    (TradeRequest(0.5, "x"), "exactly one of a bundle and an agent"),
    (TradeRequest(0.5, "x", bundle=np.zeros(3), agent=NoiseTrader("x", [])),
     "exactly one of a bundle and an agent"),
    (TradeRequest(0.1, "x", bundle=np.zeros(3)),
     "request times must be non-decreasing and not before t0"),
    (TradeRequest(0.5, "x", bundle=np.zeros(1)),
     "request bundle must have length 3"),
    (TradeRequest(0.5, "x", bundle=[0.0, np.nan, 0.0]),
     "request bundle must be finite")],
    ids=["neither", "both", "backwards", "short", "nan"])
def test_protocol2_checks_its_requests_before_any_trade(late, error):
    # each used to fail only after the first request had traded: an
    # AttributeError, the time check when reached, and `r must have length
    # 3` from trade_cost
    m = medal_count_model(1)
    calls = []

    class Counting(NoiseTrader):
        def bundle(self, *a):
            calls.append(a)
            return np.zeros(3)

    requests = [TradeRequest(0.2, "n", agent=Counting("n", [])), late]
    with pytest.raises(ValueError, match=error):
        run_protocol2(m, constant_schedule(m), np.zeros(3), 0.0, requests,
                      (1,))
    assert calls == []
    with pytest.raises(ValueError, match="not before t0"):
        run_protocol2(m, constant_schedule(m), np.zeros(3), 0.3,
                      requests[:1], (1,))
    assert calls == []
    run_protocol2(m, constant_schedule(m), np.zeros(3), 0.0, requests[:1],
                  (1,))
    assert len(calls) == 1


@pytest.mark.parametrize("agent, error", [
    (BeliefTrader("b", [], [2.0, 0.5, 0.5]), "outside the price space"),
    (BeliefTrader("b", [], [0.5, 0.5]), "trader 'b': belief must have "
                                        "length 3"),
    (JitArbitrageur("a", [], observe_block_payoff(
        medal_count_model(1).space, [0]), (0.0,)),
     "contradicts settlement")], ids=["belief", "short-belief", "jit"])
def test_protocol2_checks_its_agents_before_any_trade(monkeypatch, agent,
                                                      error):
    # the belief used to trade the clipped bundle [120, -0.693, -0.693]; the
    # arbitrageur used to pay for a realization the settlement contradicts
    m = medal_count_model(1)
    traded = []
    monkeypatch.setattr(NoiseTrader, "bundle",
                        lambda self, *a: traded.append(a) or np.zeros(3))
    requests = [TradeRequest(0.2, "n", agent=NoiseTrader("n", [])),
                TradeRequest(0.5, "x", agent=agent)]
    with pytest.raises(ValueError, match=error):
        run_protocol2(m, constant_schedule(m), np.zeros(3), 0.0, requests,
                      (1,))
    assert traded == []
