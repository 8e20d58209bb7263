import numpy as np
import pytest

from cfmarkets import (BlockStructure, ExponentialFamilyCost,
                       IndependentBinaryCost, LcmmCost, LmsrCost,
                       OutcomeSpace, ScaledCost, certificate_check,
                       independent_binary_market, lcmm_divergence,
                       medal_count_model, simplex_market,
                       single_security_market, tightness_check)

from oracles import medal_eta_grid_value


def unconstrained_two_block_model():
    """Value security over {0,1,2} plus an indicator of the top outcome,
    with no coupling constraints."""
    outcomes = (0, 1, 2)
    payoff = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
    space = OutcomeSpace(outcomes, payoff)
    blocks = BlockStructure(((0,), (1,)))
    costs = [ExponentialFamilyCost(single_security_market((0.0, 1.0, 2.0))),
             IndependentBinaryCost(independent_binary_market(1))]
    return LcmmCost(space, blocks, costs, np.zeros((2, 0)), np.zeros(0))


# ---------------------------------------------------------------------------
# Construction


def test_medal_model_structure():
    for n in (1, 2, 3):
        m = medal_count_model(n)
        assert m.dim == 2 * n + 1
        assert len(m.blocks) == n + 1
        assert m.A.shape == (m.dim, 2)
        # the coupling constraints hold at every payoff vertex with equality
        assert np.allclose(m.space.payoff @ m.A, 0.0, atol=1e-12)


def test_constructor_validation():
    m = medal_count_model(1)
    with pytest.raises(ValueError):
        LcmmCost(m.space, m.blocks, m.block_costs[:1], m.A, m.b_c)
    with pytest.raises(ValueError):
        LcmmCost(m.space, m.blocks, m.block_costs, m.A[:2], m.b_c)
    with pytest.raises(ValueError):
        LcmmCost(m.space, m.blocks, m.block_costs, m.A, np.zeros(3))
    bad_A = np.zeros((3, 1))
    bad_A[0, 0] = -1.0  # fails at the vertex with first payoff 1
    with pytest.raises(ValueError):
        LcmmCost(m.space, m.blocks, m.block_costs, bad_A, np.zeros(1))


# ---------------------------------------------------------------------------
# Direct sum surface


def test_direct_sum_matches_blocks():
    m = medal_count_model(2)
    rng = np.random.default_rng(0)
    q = rng.uniform(-2, 2, m.dim)
    expected = (np.logaddexp(0, q[0]) + np.logaddexp(0, q[1])
                + np.log(np.exp(q[2:]).sum()))
    assert m.direct_sum_cost(q) == pytest.approx(expected, abs=1e-12)
    p = m.direct_sum_price(q).center
    assert np.allclose(p[:2], 1 / (1 + np.exp(-q[:2])), atol=1e-12)
    assert p[2:].sum() == pytest.approx(1.0, abs=1e-12)


def test_direct_sum_conjugate_and_divergence():
    m = medal_count_model(1)
    mu = np.array([0.4, 0.6, 0.4])
    # blockwise sum: binary entropy plus simplex entropy
    expected = (0.4 * np.log(0.4) + 0.6 * np.log(0.6)
                + 0.6 * np.log(0.6) + 0.4 * np.log(0.4))
    assert m.direct_sum_conjugate(mu) == pytest.approx(expected, abs=1e-12)
    assert m.direct_sum_conjugate(np.array([2.0, 0.5, 0.5])) == np.inf
    q = np.zeros(m.dim)
    d = m.direct_sum_divergence(mu, q)
    assert d == pytest.approx(expected + m.direct_sum_cost(q), abs=1e-12)


# ---------------------------------------------------------------------------
# Arbitrage solve


def test_solve_returns_certified_optimum():
    m = medal_count_model(1)
    q = np.array([2.0, 0.0, 0.0])
    sol = m.solve(q)
    assert sol.converged
    assert sol.certificate_gap <= 1e-9
    assert sol.value <= m.direct_sum_cost(q) + 1e-12  # arbitrage only helps
    assert sol.value == pytest.approx(medal_eta_grid_value(q, 1), abs=1e-8)
    assert certificate_check(m, q, sol.eta)


def test_certificate_rejects_perturbed_eta():
    m = medal_count_model(1)
    q = np.array([2.0, 0.0, 0.0])
    sol = m.solve(q)
    assert not certificate_check(m, q, sol.eta + np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        certificate_check(m, q, -np.ones(2))
    # eta = 0 passes the gap alone, but g = A^T mu = [-0.38, 0.38] there
    zero = np.zeros(2)
    assert abs(m.certificate_gap(q, zero)) <= m.solve_tol
    assert m._kkt(q, zero)[1] > 0.3


def test_solve_random_states_match_eta_grid_oracle():
    rng = np.random.default_rng(1)
    for n in (1, 2):
        m = medal_count_model(n)
        for _ in range(10):
            q = rng.uniform(-3, 3, m.dim)
            sol = m.solve(q)
            assert sol.certificate_gap <= 1e-7
            assert sol.value == pytest.approx(medal_eta_grid_value(q, n),
                                              abs=1e-6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cold_solves_of_scaled_medal_models_are_certified(n):
    m = medal_count_model(n)
    rng = np.random.default_rng(10 + n)
    for _ in range(300):
        scales = rng.uniform(0.1, 1.0, len(m.block_costs))
        costs = [ScaledCost(c, a) for c, a in zip(m.block_costs, scales)]
        scaled = LcmmCost(m.space, m.blocks, costs, m.A, m.b_c)
        q = rng.normal(0.0, 2.0, m.dim)
        sol = scaled.solve(q)
        gap, residual = scaled._kkt(q, sol.eta)
        assert sol.converged
        assert gap <= scaled.solve_tol and residual <= scaled.solve_tol
        assert sol.certificate_gap == gap


def medal_with_count_mass_constraint(floor):
    """medal(2) plus the constraint that the count-block prices sum to at
    least `floor`; at floor 1 it holds for every price and is redundant."""
    m = medal_count_model(2)
    mass = np.zeros((m.dim, 1))
    mass[m._slices[-1], 0] = 1.0
    return LcmmCost(m.space, m.blocks, m.block_costs,
                    np.hstack([m.A, mass]), np.append(m.b_c, floor))


def test_redundant_constraint_converges():
    m = medal_count_model(2)
    redundant = medal_with_count_mass_constraint(1.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        q = rng.normal(0.0, 1.5, m.dim)
        sol = redundant.solve(q)
        assert sol.converged
        assert sol.value == pytest.approx(m.solve(q).value, abs=1e-12)


def test_multiplier_past_the_bracket_bound_is_unconverged():
    # the constructor forgives a 1e-9 violation at the payoff vertices; this
    # 1e-10 one leaves g_2 = -1e-10 at every multiplier
    m = medal_with_count_mass_constraint(1.0 + 1e-10)
    sol = m.solve(np.zeros(m.dim))
    assert not sol.converged
    assert sol.eta[2] == 2.0 ** 40


def test_price_satisfies_constraints():
    m = medal_count_model(2)
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = rng.uniform(-2, 2, m.dim)
        p = m.price(q).center
        # each block's price is valid for that block
        assert np.all(p[:2] > 0) and np.all(p[:2] < 1)
        assert p[2:].sum() == pytest.approx(1.0, abs=1e-9)
        # coupled blocks agree on the expected count after arbitrage
        assert p[:2].sum() == pytest.approx(p[2:] @ np.arange(3), abs=1e-6)


def test_unconstrained_model_has_no_arbitrage_term():
    m = unconstrained_two_block_model()
    q = np.array([0.7, -0.4])
    sol = m.solve(q)
    assert sol.eta.size == 0
    assert sol.value == pytest.approx(m.direct_sum_cost(q), abs=1e-12)


def test_divergence_decomposition_route():
    m = medal_count_model(2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        lam = rng.dirichlet(np.ones(m.space.n_outcomes))
        mu = lam @ m.space.payoff
        q = rng.uniform(-2, 2, m.dim)
        via_parts = lcmm_divergence(m, mu, q)
        direct = m.conjugate(mu) + m.cost(q) - q @ mu
        assert via_parts == pytest.approx(direct, abs=1e-6)
        assert via_parts >= -1e-9
    outside = np.array([1.5, 0.0, 1.0, 0.0, 0.0])
    assert lcmm_divergence(m, outside, np.zeros(m.dim)) == np.inf


def test_conjugate_enforces_constraints():
    m = medal_count_model(1)
    # binary price 1 but count mass on zero: incoherent, outside the hull
    mu = np.array([1.0, 1.0, 0.0])
    assert m.conjugate(mu) == np.inf
    coherent = np.array([0.5, 0.5, 0.5])
    assert np.isfinite(m.conjugate(coherent))


def test_state_with_price_roundtrip():
    m = medal_count_model(1)
    mu = np.array([0.3, 0.7, 0.3])
    q = m.state_with_price(mu)
    assert np.allclose(m.direct_sum_price(q).center, mu, atol=1e-9)


# ---------------------------------------------------------------------------
# Tightness


def test_binary_blocks_are_tight_by_construction():
    m = medal_count_model(2)
    for g in (0, 1):
        res = tightness_check(m, g)
        assert res.status == "tight_by_binary"
        assert bool(res)
        for x, v in res.witness.items():
            # the witness separates the realization's outcomes by sign
            idx = m._slices[g][0]
            assert v[idx] == (1.0 if x[0] > 0.5 else -1.0)


def test_count_block_is_tight():
    m = medal_count_model(2)
    res = tightness_check(m, 2)
    assert res.status in ("tight", "tight_by_binary")


def test_value_block_is_not_tight():
    m = unconstrained_two_block_model()
    res = tightness_check(m, 0)
    assert res.status == "not_tight"
    assert not bool(res)
    ce = res.counterexample
    assert ce["realization"] == (1.0,)
    # the counterexample matches the block realization yet puts weight on
    # the indicator security, which the single consistent outcome cannot
    assert ce["mu"][0] == pytest.approx(1.0, abs=1e-6)
    assert ce["mu"][1] > 1e-3


def test_single_realization_block_is_trivially_tight():
    outcomes = (0, 1)
    payoff = np.array([[1.0, 0.0], [1.0, 1.0]])
    space = OutcomeSpace(outcomes, payoff)
    blocks = BlockStructure(((0,), (1,)))
    costs = [ExponentialFamilyCost(single_security_market((1.0, 2.0))),
             IndependentBinaryCost(independent_binary_market(1))]
    model = LcmmCost(space, blocks, costs, np.zeros((2, 0)), np.zeros(0))
    assert tightness_check(model, 0).status == "tight"
