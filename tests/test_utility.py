import numpy as np
import pytest

from cfmarkets import (IndependentBinaryCost, LmsrCost, PiecewiseLinearCost,
                       RestrictedCost, ScaledCost, conditional_price, excess_util, medal_count_model,
                       observe_block_payoff, observe_coordinate,
                       observe_partition, observe_sum, optimizing_sequence,
                       plan_switch, simplex_market, single_binary_market,
                       square_market, util_belief, util_event)
from cfmarkets._solvers import project_onto_hull

from oracles import (grid_minimax_util, lmsr_cost_vec, piecewise_cost_vec,
                     product_lmsr_cost_vec)


def lmsr3():
    return LmsrCost(simplex_market(3))


def square():
    return IndependentBinaryCost(square_market())


def test_util_belief_is_divergence():
    m = square()
    q = np.array([0.3, -0.4])
    mu = np.array([0.6, 0.2])
    assert util_belief(m, mu, q) == m.divergence(mu, q)


def test_util_event_lmsr_closed_form():
    m = lmsr3()
    res = util_event(m, (0, 1), np.zeros(3))
    # uniform state, two of three outcomes: renormalized price (1/2, 1/2, 0)
    assert res.value == pytest.approx(np.log(1.5), abs=1e-12)
    assert np.allclose(res.minimizer, [0.5, 0.5, 0.0], atol=1e-12)
    assert res.residual == 0.0


def test_util_event_lmsr_reads_an_outcome_named_twice_once():
    # the event's hull counts the repeat once: the face over securities 0, 2
    m, q = lmsr3(), np.array([0.3, -0.4, 0.8])
    twice, once = util_event(m, (0, 2, 0), q), util_event(m, (0, 2), q)
    assert np.array_equal(twice.minimizer, once.minimizer)
    assert twice.value == once.value and twice.residual == 0.0


def projection_cases():
    """(model, event, state) over every way a restricted cost projects: the
    closed forms of each kind, and Frank-Wolfe on the square's diagonal and
    on a medal LCMM cell."""
    sq = square()
    face = (((1, 0)), ((1, 1)))
    switched = plan_switch(sq, observe_coordinate(sq.space, 0),
                           np.array([0.3, -0.4]))
    medal = medal_count_model(2)
    medal_cell = observe_block_payoff(medal.space, (0,)).cell((1.0,))
    return [
        (lmsr3(), (0, 2), np.array([0.3, -0.4, 0.8])),
        (sq, face, np.array([0.3, -0.4])),
        (ScaledCost(lmsr3(), 0.4), (1, 2), np.array([0.3, -0.4, 0.8])),
        (switched, face, np.array([0.5, -0.2])),
        (sq, ((0, 0), (1, 1)), np.array([0.5, -0.7])),  # no closed form
        (medal, medal_cell, np.array([0.4, -0.3, 0.2, -0.5, 0.1])),
    ]


@pytest.mark.parametrize("case", range(6), ids=[
    "lmsr", "product", "scaled", "switched-in-cell",
    "square-diagonal", "medal-cell"])
def test_util_event_is_the_restricted_cost_projection(case):
    m, event, q = projection_cases()[case]
    res = RestrictedCost(m, event).project(q)
    got = util_event(m, event, q)
    assert np.array_equal(got.minimizer, res.mu)
    # reference dispatch: the kind's closed form, else Frank-Wolfe with m's
    # own conjugate over the event's payoff vertices
    own = (m.restrict(event)(q).mu if case < 4 else
           project_onto_hull(m.space.vertices(event), m.conjugate,
                             m.conjugate_grad, q).mu)
    assert np.array_equal(got.minimizer, own)
    assert got.residual == res.gap and got.converged == res.converged
    assert got.value == m.divergence(res.mu, q)
    assert got.converged and (res.iterations > 0) == (case >= 4)


def test_util_event_full_space_is_zero():
    m = lmsr3()
    res = util_event(m, m.space.outcomes, np.array([0.5, -0.5, 0.0]))
    assert res.value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("build, s, q", [
    (lambda m: observe_coordinate(m.space, 0), [0.3, -0.2], [0.5, 0.1]),
    (lambda m: observe_sum(m.space), [0.3, -0.2], [0.5, 0.1]),
    (lambda m: observe_partition(m.space, [[0, 1], [2, 3]]), [0.0] * 4,
     [0.3, 0.0, 0.0, 0.0]),
], ids=["square-coordinate", "square-sum", "lmsr4-partition"])
def test_switch_refuses_an_event_that_spans_its_cells(build, s, q):
    # the whole space's exact utility is 0; projecting onto it would need
    # Frank-Wolfe over the switch's sampled roof
    m = square() if len(s) == 2 else LmsrCost(simplex_market(4))
    sw = plan_switch(m, build(m), np.array(s))
    with pytest.raises(ValueError, match="spans the switch's cells"):
        util_event(sw, sw.space.outcomes, np.array(q))


def test_conditional_price_lmsr_renormalizes():
    m = LmsrCost(simplex_market(5))
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = rng.uniform(-2, 2, 5)
        event = tuple(rng.choice(5, size=rng.integers(1, 5), replace=False))
        p, multiple = conditional_price(m, event, q)
        expected = np.zeros(5)
        idx = list(event)
        expected[idx] = np.exp(q[idx]) / np.exp(q[idx]).sum()
        assert np.allclose(p, expected, atol=1e-12)
        assert not multiple  # strictly convex conjugate


def test_conditional_price_square_product_cell():
    m = square()
    q = np.array([1.0, -0.5])
    p, _ = conditional_price(m, (((1, 0)), ((1, 1))), q)
    assert np.allclose(p, [1.0, 1 / (1 + np.exp(0.5))], atol=1e-12)


def test_util_event_generic_matches_minimax_oracle():
    m = square()
    diag = (((0, 1)), ((1, 0)))
    rng = np.random.default_rng(1)
    for _ in range(5):
        q = rng.uniform(-1.5, 1.5, 2)
        lib = util_event(m, diag, q).value
        oracle = grid_minimax_util(product_lmsr_cost_vec,
                                   m.space.vertices(diag), q)
        assert lib == pytest.approx(oracle, abs=1e-3)


def test_util_event_scaled_and_shifted_closed_forms():
    base = lmsr3()
    q = np.array([0.4, -0.2, 0.1])
    event = (0, 2)
    a = 0.5
    scaled = ScaledCost(base, a)
    assert util_event(scaled, event, a * q).value == pytest.approx(
        a * util_event(base, event, q).value, abs=1e-12)


def test_util_event_piecewise_interval_price():
    m = PiecewiseLinearCost(single_binary_market())
    # at q = 0 the price interval [0,1] covers both realizations: no utility
    assert util_event(m, (1,), np.zeros(1)).value == pytest.approx(0.0)
    # away from the kink the price pins down and knowing pays
    assert util_event(m, (1,), np.array([-0.5])).value == pytest.approx(0.5)
    oracle = grid_minimax_util(piecewise_cost_vec,
                               m.space.vertices((1,)), np.array([-0.5]))
    assert oracle == pytest.approx(0.5, abs=1e-6)


def test_util_event_validation():
    m = lmsr3()
    with pytest.raises(ValueError):
        util_event(m, (), np.zeros(3))
    with pytest.raises(ValueError):
        util_event(m, (0,), np.zeros(2))


def test_excess_util():
    m = square()
    q = np.array([0.2, -0.8])
    cell = (((1, 0)), ((1, 1)))
    mu = np.array([1.0, 0.3])
    ex = excess_util(m, mu, cell, q)
    assert ex == pytest.approx(m.divergence(mu, q)
                               - util_event(m, cell, q).value, abs=1e-12)
    assert ex >= -1e-9  # the conditional price minimizes over the cell
    with pytest.raises(ValueError):
        excess_util(m, np.array([0.5, 0.5]), cell, q)  # not in the cell hull


@pytest.mark.parametrize("mu", [[1.0, 0.3, 0.0], [1.0], [1.0, np.nan]],
                         ids=["length-3", "length-1", "nan"])
def test_excess_util_rejects_a_malformed_belief(mu):
    m = square()
    cell = (((1, 0)), ((1, 1)))
    with pytest.raises(ValueError, match="mu must"):
        excess_util(m, np.array(mu), cell, np.zeros(2))


def test_optimizing_sequence_converges():
    m = lmsr3()
    seq = optimizing_sequence(m, (0, 1), np.zeros(3))
    trace = np.array([util_event(m, (0, 1), s).value for s in seq.states])
    assert np.all(np.diff(trace) <= 1e-12)  # non-increasing divergence
    assert trace[-1] < 1e-6
    payoffs = np.array(seq.payoffs)
    assert np.all(np.diff(payoffs) >= -1e-15)
    # the guaranteed payoff approaches the utility of knowing the event
    assert payoffs[-1] <= trace[0] + 1e-9
    assert payoffs[-1] == pytest.approx(trace[0], abs=1e-3)
    assert len(seq.states) == len(payoffs)


def test_optimizing_sequence_full_event_trades_nothing():
    m = lmsr3()
    seq = optimizing_sequence(m, m.space.outcomes, np.zeros(3))
    assert np.allclose(seq.bundle, 0.0)
    assert len(seq.states) == 1 and seq.payoffs == [0.0] and seq.util is None


def test_optimizing_sequence_validation():
    m = lmsr3()
    with pytest.raises(ValueError):
        optimizing_sequence(m, (), np.zeros(3))
