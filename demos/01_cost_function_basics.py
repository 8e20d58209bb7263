"""Cost-function market making in a nutshell.

A market maker prices bundles of securities through a convex potential C:
buying the bundle r at state q costs C(q + r) - C(q). The convex conjugate R
of C is finite exactly on the price space M (the hull of the payoff vectors),
and the Bregman divergence D(mu || q) = R(mu) + C(q) - q.mu measures how much
a trader who believes mu can extract from the maker at state q.

Run:  python3 demos/01_cost_function_basics.py
"""

import numpy as np

from cfmarkets import (IndependentBinaryCost, LmsrCost, PiecewiseLinearCost,
                       conditional_price, excess_util,
                       finite_difference_price, optimizing_sequence,
                       simplex_market, single_binary_market, square_market,
                       util_belief, util_event, wc_loss_bound)


def section(title):
    print(f"\n=== {title} ===")


# -- three classic cost functions -------------------------------------------

section("Prices are gradients of the cost")
lmsr = LmsrCost(simplex_market(3))
q = np.array([0.4, -0.2, 0.1])
print("LMSR state      ", q)
print("LMSR cost       ", round(lmsr.cost(q), 6))
print("LMSR prices     ", np.round(lmsr.price(q).center, 6),
      "(softmax, sums to 1)")
print("finite-diff     ", np.round(finite_difference_price(lmsr, q).center, 6))

square = IndependentBinaryCost(square_market())
print("\nsquare prices at 0:", np.round(square.price(np.zeros(2)).center, 6),
      "(independent sigmoids)")

piecewise = PiecewiseLinearCost(single_binary_market())
p = piecewise.price(np.zeros(1))
print("piecewise-linear price interval at the kink:",
      (float(p.lo[0]), float(p.hi[0])), "-- a genuine bid-ask spread")

# -- divergence as trader utility -------------------------------------------

section("Divergence = the value of a belief")
mu = np.array([0.7, 0.2, 0.1])
print("belief          ", mu)
print("D(mu || q)      ", round(util_belief(lmsr, mu, q), 6),
      "<- the most a trader with this belief can guarantee in expectation")
print("D at own price  ", util_belief(lmsr, lmsr.price(q).center, q),
      "(the maker loses nothing to traders who agree with it)")

# -- events, conditional prices, and knowing less than everything -----------

section("Utility of an event")
event = (0, 1)  # 'the outcome is 0 or 1'
res = util_event(lmsr, event, q)
print("Util(E; q)      ", round(res.value, 6))
cp, _ = conditional_price(lmsr, event, q)
print("conditional p   ", np.round(cp, 6), "(renormalized conditioning)")
print("excess of belief beyond the event:",
      round(excess_util(lmsr, np.array([0.8, 0.2, 0.0]), event, q), 6))

section("A knowing trader trades to the conditional price")
# trade k moves to a state priced (1 - 10^-k) p_E + 10^-k c_E, with c_E the
# event's vertex mean; its guaranteed payoff is exact
seq = optimizing_sequence(lmsr, event, q)
trace = [util_event(lmsr, event, s).value for s in seq.states]
k = len(seq.payoffs) - 1
print("divergence to the event at each state:",
      [round(v, 5) for v in trace[:3]], "...")
print("guaranteed payoff of trade k climbs to Util(E; q):",
      [round(v, 5) for v in seq.payoffs[:6]], "...", round(seq.payoffs[-1], 6))
print(f"stops at trade {k}, within {trace[0] - seq.payoffs[-1]:.0e} "
      "of Util(E; q)")

# -- the maker's worst case --------------------------------------------------

section("Worst-case loss")
print("LMSR K=3 at 0:  ", round(wc_loss_bound(lmsr, np.zeros(3)), 6),
      "= ln 3")
print("square at 0:    ", round(wc_loss_bound(square, np.zeros(2)), 6),
      "= 2 ln 2")
