"""Gradual liquidity decrease: draining a submarket's utility over time.

Instead of closing a submarket at one instant, each block g follows a
non-increasing liquidity schedule beta_g(t). Advancing time applies an affine
state update that keeps every price fixed while multiplying the block's
divergence -- and with it the utility of inside information about that block
-- by alpha_g = beta_g(t_new)/beta_g(t). The per-realization utility drop has
an exact formula, audited here, and a full protocol run stays under the
worst-case loss bound.

Run:  python3 demos/04_gradual_decrease.py
"""

import numpy as np

from cfmarkets import (BlockSchedule, NoiseTrader, Schedule, TradeRequest,
                       divergence_decomposition, medal_count_model, model_at,
                       new_state, observe_block_payoff,
                       partial_decrease_audit, run_protocol2, util_event,
                       verify_loss, wc_loss_bound)


def section(title):
    print(f"\n=== {title} ===")


m = medal_count_model(1)
sched = Schedule((BlockSchedule("exponential", rate=0.5),  # the event block
                  BlockSchedule()), t0=0.0)                # count stays put

section("Time updates preserve prices and shrink utility")
q = np.array([0.8, -0.2, 0.4])
obs = observe_block_payoff(m.space, m.blocks[0])
cell = obs.cell((1.0,))
state, t = q, 0.0
print(" t    beta    price(event)   Util(event=1)")
for t_new in (0.0, 1.0, 2.0, 4.0):
    ts = new_state(m, sched, state, t, t_new)
    state, t = ts.q, t_new
    mt = model_at(m, sched, t)
    print(f"{t:4.1f}  {sched.beta(0, t):.4f}   "
          f"{mt.price(state).center[0]:.6f}       "
          f"{util_event(mt, cell, state).value:.6f}")

section("The divergence decomposition identity")
mu = np.array([0.7, 0.3, 0.7])
lhs, rhs, per_block = divergence_decomposition(m, sched, mu, q, 0.0, 2.0)
print("lhs (divergence at the advanced state):", round(lhs, 9))
print("rhs (alpha-weighted block terms + slack):", round(rhs, 9))
print("per-block terms:", [round(v, 6) for v in per_block])

section("Auditing a single-block decrease")
audit = partial_decrease_audit(m, sched, 0, q, 0.0, 1.5)
print("alpha =", round(audit.alpha, 6), "| tightness:",
      audit.tightness.status, "| audit passed:", audit.passed)
for x, (measured, predicted) in audit.drops.items():
    print(f"  realization {x}: measured drop {measured:.6f}, "
          f"formula (1-alpha) D_t {predicted:.6f}")

section("A protocol run under decreasing liquidity")
m2 = medal_count_model(2)
sched2 = Schedule((BlockSchedule("exponential", rate=0.4),
                   BlockSchedule("linear-to-floor", rate=0.2, floor=0.25),
                   BlockSchedule()), 0.0)
requests = [TradeRequest(0.3, "n1", agent=NoiseTrader("n1", [], 0.8)),
            TradeRequest(1.0, "n2", agent=NoiseTrader("n2", [], 0.5)),
            TradeRequest(2.0, "n1", agent=NoiseTrader("n1", [], 0.8))]
ledger = run_protocol2(m2, sched2, np.zeros(m2.dim), 0.0, requests,
                       outcome=(1, 0), seed=31)
print("re-anchoring events:", len(ledger.events))
print("maker loss:", round(ledger.maker_loss, 6))
bound = wc_loss_bound(m2, np.zeros(m2.dim))
ok, slack = verify_loss(ledger, bound)
print(f"bound {bound:.6f} respected: {ok} (slack {slack:.4f})")
