"""Sudden revelation: closing a submarket without being told the answer.

When an observation X becomes public at a known time, the maker switches from
C to a pointwise max of per-cell restricted costs, each offset by the utility
it was owed for that cell. The switch zeroes the utility of knowing the
realization -- just-in-time arbitrageurs earn nothing -- while conditional
prices and within-cell preferences survive untouched, *when* the observation
admits a consistent switch. Revealing the payoff count on the square market
at an asymmetric state is the classic observation that does not.

Run:  python3 demos/02_sudden_revelation.py
"""

import numpy as np

from cfmarkets import (IndependentBinaryCost, JitArbitrageur, NoiseTrader,
                       check_desiderata, consistency_check, exposure_witness,
                       observe_coordinate, observe_sum, plan_switch,
                       run_protocol1, square_market, util_event, verify_loss,
                       wc_loss_bound)


def section(title):
    print(f"\n=== {title} ===")


m = IndependentBinaryCost(square_market())
obs = observe_coordinate(m.space, 0)  # reveal the first security's payoff

section("Building the switched cost")
s = np.array([0.6, -0.3])
sw = plan_switch(m, obs, s)  # the switched cost, with its own verdict
for x in obs.realizations:
    print(f"cell x={x}: offset b={sw.offsets[x]:.6f}, "
          f"conditional price {np.round(sw.conditional_prices[x], 4)}")
print("switched cost at the switch state:", round(sw.cost(s), 6),
      "= original cost", round(m.cost(s), 6))
print("consistent:", sw.consistency.consistent,
      f"(decided by the {sw.consistency.path!r} path)")
p = sw.price(s)
print("post-switch spread:", np.round(p.lo, 4), "to", np.round(p.hi, 4),
      "-- the revealed coordinate opens to [0,1]")

section("The desiderata audit")
report = check_desiderata((m, s), (sw, s), obs, n_random=100)
for name, row in report.rows.items():
    tag = " (informational)" if name == "PRICE" else ""
    print(f"{name:10s} worst deviation {row.worst:.3e} "
          f"{'pass' if row.passed else 'FAIL'}{tag}")
for x in obs.realizations:
    u = util_event(sw, obs.cell(x), s).value
    print(f"post-switch Util(X={x}) = {u:.2e}  (knowing pays nothing)")

section("A full trading run with a just-in-time arbitrageur")
traders = [NoiseTrader("noise", [0.2, 0.6], 1.0),
           JitArbitrageur("jit", [1.1], obs, 1.0)]
ledger = run_protocol1(m, np.zeros(2), obs, traders, switch_time=1.0,
                       outcome=(1, 1), seed=7)
print("trader pnl:", {k: round(v, 6) for k, v in ledger.trader_pnl.items()})
print("maker loss:", round(ledger.maker_loss, 6))
ok, slack = verify_loss(ledger, wc_loss_bound(m, np.zeros(2)))
print(f"within the worst-case bound: {ok} (slack {slack:.4f})")

section("An observation that cannot be closed consistently")
count = observe_sum(m.space)  # reveal how many securities paid off
witnesses = exposure_witness(m.space, count)
print("cells without an exposure witness:",
      [x for x, w in witnesses.items() if w is None],
      "-- the middle cell is not an argmax set of any linear functional,",
      "so consistency depends on the state")
bad_state = np.array([1.0, 0.0])
verdict = consistency_check(m, count, bad_state)
print(f"at s={bad_state}: consistent={verdict.consistent}, "
      f"worst violation {verdict.worst_violation:.6f}")
print("  witness belief:", np.round(verdict.witness["mu"], 3),
      " (closed form: 2 ln cosh((s1-s2)/4) =",
      round(2 * np.log(np.cosh(0.25)), 6), ")")
sym = consistency_check(m, count, np.array([0.4, 0.4]))
print(f"at a symmetric state: consistent={sym.consistent} "
      f"(violation {sym.worst_violation:.2e})")
