import dataclasses

import numpy as np
import pytest

from cfmarkets import (BlockSchedule, IndependentBinaryCost,
                       LcmmCost, LmsrCost, OutcomeSpace, PiecewiseLinearCost,
                       ScaledCost, Schedule, certificate_check,
                       independent_binary_market, lcmm_divergence,
                       medal_count_model, model_at, partial_decrease_audit,
                       simplex_market, single_binary_market, tightness_check)

from oracles import (LogPartitionCost, fiber_escape, hull_member,
                     max_outside_weight, medal_eta_grid_value)


def unconstrained_two_block_model():
    """Value security over {0,1,2} plus an indicator of the top outcome,
    with no coupling constraints."""
    outcomes = (0, 1, 2)
    payoff = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
    space = OutcomeSpace(outcomes, payoff)
    blocks = ((0,), (1,))
    costs = [LogPartitionCost(OutcomeSpace((0.0, 1.0, 2.0),
                                           [[0.0], [1.0], [2.0]])),
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


def scaled_medal_model():
    m = medal_count_model(2)
    sched = Schedule((BlockSchedule("exponential", rate=0.7),
                      BlockSchedule(),
                      BlockSchedule("linear-to-floor", rate=0.3)))
    m_t = model_at(m, sched, 1.5)
    assert [type(c) for c in m_t.block_costs] == [ScaledCost,
                                                   IndependentBinaryCost,
                                                   ScaledCost]
    return m_t


@pytest.mark.parametrize("make", [lambda: medal_count_model(2),
                                  lambda: medal_count_model(3),
                                  scaled_medal_model],
                         ids=["medal2", "medal3", "scaled"])
def test_direct_sum_is_the_blocks_public_price_and_cost(make):
    m = make()
    rng = np.random.default_rng(11)
    for _ in range(5):
        q = rng.uniform(-3, 3, m.dim)
        price = np.empty(m.dim)
        for g, c in zip(m.blocks, m.block_costs):
            price[list(g)] = c.price(q[list(g)]).center
        cost = sum(c.cost(q[list(g)]) for g, c in zip(m.blocks,
                                                       m.block_costs))
        assert m.direct_sum_price(q).center.tolist() == price.tolist()
        assert m.direct_sum_cost(q) == cost


def test_direct_sum_conjugate_and_divergence():
    m = medal_count_model(1)
    mu = np.array([0.4, 0.6, 0.4])
    # blockwise sum: binary entropy plus simplex entropy
    expected = (0.4 * np.log(0.4) + 0.6 * np.log(0.6)
                + 0.6 * np.log(0.6) + 0.4 * np.log(0.4))
    assert m.direct_sum_conjugate(mu) == pytest.approx(expected, abs=1e-12)
    assert m.direct_sum_conjugate(np.array([2.0, 0.5, 0.5])) == np.inf
    # the direct-sum divergence from the public pieces is the sum of the
    # blocks' own divergences
    q = np.array([0.3, -1.2, 0.7])
    d = m.direct_sum_conjugate(mu) + m.direct_sum_cost(q) - float(q @ mu)
    blockwise = sum(c.divergence(mu[list(g)], q[list(g)])
                    for g, c in zip(m.blocks, m.block_costs))
    assert d == pytest.approx(blockwise, abs=1e-12)


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


def test_adopt_reports_only_a_stored_bundle():
    m = medal_count_model(2)
    q = np.array([0.3, -0.2, 0.1, 0.4, -0.5])
    sol = m.solve(q)
    bad = sol.eta + np.array([0.5, 0.0])
    gap, residual = m._kkt(q, bad)
    assert gap > 0.3 and residual > 0.4
    # q already has a solution: it is kept, whatever the offered bundle
    assert not m._adopt(q, bad)
    assert not m._adopt(q, sol.eta)
    assert m.solve(q) is sol
    # a fresh model stores a certified bundle and reports it
    fresh = medal_count_model(2)
    assert fresh._adopt(q, sol.eta)
    assert np.array_equal(fresh.solve(q).eta, sol.eta)


def test_a_kept_solution_cannot_be_changed_through_its_answer():
    m = medal_count_model(2)
    q = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
    price = m.price(q).center
    sol = m.solve(q)
    for field in (sol.eta, sol.delta):
        with pytest.raises(ValueError, match="read-only"):
            field[:] = 100.0
    assert np.array_equal(m.price(q).center, price)
    # an adopted bundle is kept by the same rule
    fresh = medal_count_model(2)
    assert fresh._adopt(q, sol.eta.copy())
    adopted = fresh.solve(q)
    assert not (adopted.eta.flags.writeable or adopted.delta.flags.writeable)


def test_a_kept_solution_cannot_be_rewritten():
    m = medal_count_model(2)
    q = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
    cost = m.cost(q)
    sol = m.solve(q)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.value -= 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.eta = np.zeros_like(sol.eta)
    assert m.solve(q) is sol and m.cost(q) == cost


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


def count_block_calls(monkeypatch, *names):
    """Counts of calls to the named methods of medal_count_model's two block
    kinds, filled in as they are called."""
    calls = dict.fromkeys(names, 0)
    for cls in (IndependentBinaryCost, LmsrCost):
        for name in names:
            def counted(self, q, _orig=getattr(cls, name), _name=name):
                calls[_name] += 1
                return _orig(self, q)
            monkeypatch.setattr(cls, name, counted)
    return calls


def test_cold_solve_calls_only_the_block_kernels(monkeypatch):
    # the solver's inner loop runs on trusted arrays: no block's public
    # (validating) price, and a pinned number of price-point kernels
    calls = count_block_calls(monkeypatch, "price", "_mu")
    m = medal_count_model(3)
    sol = m.solve(np.array([0.3, -0.2, 0.1, 0.4, -0.5, 0.2, 0.7]))
    assert sol.converged and sol.eta[1] > 0.0
    # 11 direct-sum price points over the 4 blocks
    assert calls == {"price": 0, "_mu": 44}


def test_a_certified_point_costs_each_block_once(monkeypatch):
    # the gap, the residual and the value of the solution share one
    # evaluation: one public cost per block, and no kernel cost beside the
    # one inside it
    m = medal_count_model(3)
    q = np.array([0.3, -0.2, 0.1, 0.4, -0.5, 0.2, 0.7])
    calls = count_block_calls(monkeypatch, "cost", "_cost")
    assert m.solve(q).converged
    assert calls == {"cost": 4, "_cost": 4}


def scaled_medal_model(n):
    """medal(n) at t = 0.8 under a schedule that scales every block."""
    m = medal_count_model(n)
    schedule = Schedule(tuple(BlockSchedule("exponential", rate=0.3 + 0.2 * g)
                              for g in range(len(m.blocks))))
    scaled = model_at(m, schedule, 0.8)
    assert all(c.kind == "scaled" for c in scaled.block_costs)
    return scaled


def reference_gap(m, q, eta):
    """The certificate gap block by block through each block's `_div`."""
    shifted = q + m.A @ eta
    mu = m._dmu(shifted)
    d = 0.0
    for g, c in zip(m._slices, m.block_costs):
        term = c._div(mu[g], shifted[g])
        if not np.isfinite(term):
            d = np.inf
            break
        d += term
    return d + float((m.A.T @ mu - m.b_c) @ eta)


@pytest.mark.parametrize("build", [lambda: medal_count_model(2),
                                   lambda: medal_count_model(3),
                                   lambda: scaled_medal_model(2)],
                         ids=["medal2", "medal3", "medal2-scaled"])
def test_gap_and_value_equal_the_blockwise_formulas_bit_for_bit(build):
    m = build()
    rng = np.random.default_rng(23)
    for _ in range(200):
        q = rng.normal(0.0, 2.0, m.dim)
        eta = rng.exponential(1.0, m.A.shape[1])
        assert m.certificate_gap(q, eta) == reference_gap(m, q, eta)
        sol = m.solve(q)
        assert sol.value == (m.direct_sum_cost(q + m.A @ sol.eta)
                             - float(m.b_c @ sol.eta))


def test_the_kept_evaluation_never_answers_for_another_state():
    rng = np.random.default_rng(5)
    m = medal_count_model(2)
    p1, p2, p3 = [(rng.normal(0.0, 2.0, m.dim), rng.exponential(1.0, 2))
                  for _ in range(3)]
    got = [m.certificate_gap(*p1), m.certificate_gap(*p2)]
    sol = m.solve(p3[0])
    shifted = p3[0] + np.array([0.5, 0.0, 0.0, 0.0, 0.0])
    got += [m._adopt(shifted, sol.eta), m.certificate_gap(*p1)]
    fresh = [medal_count_model(2).certificate_gap(*p1),
             medal_count_model(2).certificate_gap(*p2),
             medal_count_model(2)._adopt(shifted, sol.eta),
             medal_count_model(2).certificate_gap(*p1)]
    assert got == fresh
    assert got[0] != got[1]
    cold = medal_count_model(2).solve(p3[0])
    assert (sol.value, sol.certificate_gap) == (cold.value,
                                                cold.certificate_gap)
    assert np.array_equal(sol.eta, cold.eta)


def test_a_block_scale_that_overflows_the_state_raises():
    # q / alpha overflows in the scaled block: the solve and the certificate
    # both read the public block cost, which rejects the state
    m = medal_count_model(1)
    costs = [ScaledCost(m.block_costs[0], 1e-300), m.block_costs[1]]
    tiny = LcmmCost(m.space, m.blocks, costs, m.A, m.b_c)
    q = np.array([1e10, 0.0, 0.0])
    with np.errstate(over="ignore"):
        for call in (lambda: tiny.solve(q),
                     lambda: tiny.certificate_gap(q, np.zeros(2)),
                     lambda: certificate_check(tiny, q, np.zeros(2))):
            with pytest.raises(ValueError, match="q must be finite"):
                call()


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


def test_block_costs_must_be_differentiable():
    # with the kinked block the coordinate solve ended unconverged, gap 0.061
    # at (0.5, 0, 0) and -0.075 at (-0.3, 1, 0.2)
    space = OutcomeSpace(("a", "b"), [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    costs = [PiecewiseLinearCost(single_binary_market()),
             LmsrCost(simplex_market(2))]
    A = [[1.0, -1.0], [0.0, 0.0], [-1.0, 1.0]]
    with pytest.raises(ValueError, match="'piecewise-linear' is not "
                                         "differentiable"):
        LcmmCost(space, ((0,), (1, 2)), costs, A, np.zeros(2))
    scaled = ScaledCost(PiecewiseLinearCost(single_binary_market()), 0.5)
    with pytest.raises(ValueError, match="'scaled' is not differentiable"):
        LcmmCost(space, ((0,), (1, 2)), [scaled, costs[1]], A, np.zeros(2))


def test_blocks_are_a_partition_of_the_securities():
    space = independent_binary_market(3)
    costs = [IndependentBinaryCost(independent_binary_market(1)),
             IndependentBinaryCost(independent_binary_market(2))]

    def build(blocks):
        return LcmmCost(space, blocks, costs, np.zeros((3, 0)), np.zeros(0))

    m = build([[0], np.array([1, 2])])
    assert m.blocks == ((0,), (1, 2))
    assert all(type(i) is int for g in m.blocks for i in g)
    with pytest.raises(ValueError, match="blocks must be disjoint"):
        build(((0,), (0, 1)))
    for empty in (((0,), ()), ()):
        with pytest.raises(ValueError, match="blocks must be non-empty"):
            build(empty)
    with pytest.raises(ValueError,
                       match="blocks must cover all security indices"):
        build(((0,), (1,)))
    # an index is read whole, never truncated or cast from a bool
    for bad in (((0,), (1, 3)), ((0.7,), (1.2, 2.9)), ((0,), (1, True))):
        with pytest.raises(ValueError, match="block index .* is not an "
                                             r"integer in \[0, 3\)"):
            build(bad)


# ---------------------------------------------------------------------------
# Tightness


def test_binary_blocks_are_tight_by_construction():
    m = medal_count_model(2)
    for g in (0, 1):
        res = tightness_check(m, g)
        assert res.status == "tight"
        assert bool(res)
        assert set(res.witness) == {(0.0,), (1.0,)}
        for x, w in res.witness.items():
            # +-1 in block coordinates: the sign of the realization's payoff
            assert w.tolist() == [1.0 if x[0] > 0.5 else -1.0]


def test_a_tightness_witness_is_a_read_only_vector():
    w = tightness_check(medal_count_model(2), 2).witness[(0.0, 1.0, 0.0)]
    assert isinstance(w, np.ndarray) and w.shape == (3,)
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 5.0


def test_count_block_is_tight():
    m = medal_count_model(2)
    res = tightness_check(m, 2)
    assert res.status == "tight"
    assert all(w is not None for w in res.witness.values())


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
    # the extreme realizations are exposed; only (1.0,) has no witness
    assert [x for x, w in res.witness.items() if w is None] == [(1.0,)]


def test_single_realization_block_is_trivially_tight():
    outcomes = (0, 1)
    payoff = np.array([[1.0, 0.0], [1.0, 1.0]])
    space = OutcomeSpace(outcomes, payoff)
    blocks = ((0,), (1,))
    costs = [LogPartitionCost(OutcomeSpace((1.0, 2.0), [[1.0], [2.0]])),
             IndependentBinaryCost(independent_binary_market(1))]
    model = LcmmCost(space, blocks, costs, np.zeros((2, 0)), np.zeros(0))
    assert tightness_check(model, 0).status == "tight"


def test_non_extreme_realization_whose_beliefs_stay_in_its_cell_is_tight():
    # one block over payoffs (0, 1, 2): the realization 1 is not extreme, yet
    # every belief matching it lies in its cell
    space = OutcomeSpace((0.0, 1.0, 2.0), [[0.0], [1.0], [2.0]])
    model = LcmmCost(space, ((0,),),
                     [LogPartitionCost(space)], np.zeros((1, 0)),
                     np.zeros(0))
    res = tightness_check(model, 0)
    assert res.status == "tight"
    assert bool(res)
    assert res.counterexample is None
    assert res.witness[(1.0,)] is None
    assert res.witness[(0.0,)] is not None
    assert res.witness[(2.0,)] is not None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_medal_realization_is_exposed(n):
    # the CLI and the audit check only medal models: no support is solved
    m = medal_count_model(n)
    for g in range(len(m.blocks)):
        res = tightness_check(m, g)
        assert res.status == "tight" and all(
            w is not None for w in res.witness.values())


def random_two_block_model(seed: int) -> LcmmCost:
    """Unconstrained two-block model over 3-6 outcomes with payoffs in
    {0, 1, 2}; payoff rows may repeat, so cells may hold several outcomes."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 3, size=2)
    dim = int(sizes.sum())
    payoff = rng.integers(0, 3, size=(int(rng.integers(3, 7)), dim))
    space = OutcomeSpace(tuple(range(len(payoff))), payoff.astype(float))
    blocks = (tuple(range(sizes[0])), tuple(range(sizes[0], dim)))
    costs = []
    for g in blocks:
        rows = np.unique(payoff[:, list(g)], axis=0).astype(float)
        costs.append(LogPartitionCost(
            OutcomeSpace(tuple(range(len(rows))), rows)))
    return LcmmCost(space, blocks, costs, np.zeros((dim, 0)), np.zeros(0))


TIGHTNESS_CASES = ([(f"medal{n}", lambda n=n: medal_count_model(n))
                    for n in (1, 2, 3)]
                   + [("value-block", unconstrained_two_block_model)]
                   + [(f"random{seed}",
                       lambda seed=seed: random_two_block_model(seed))
                      for seed in (*range(30), 49, 183)])


@pytest.mark.parametrize("build", [b for _, b in TIGHTNESS_CASES],
                         ids=[name for name, _ in TIGHTNESS_CASES])
def test_witness_exactly_when_no_weight_can_leave_the_cell(build):
    m = build()
    P = m.space.payoff
    for g in range(len(m.blocks)):
        res = tightness_check(m, g)
        idx = list(m.blocks[g])
        for x, w in res.witness.items():
            extreme = max_outside_weight(m, g, x) <= 1e-9
            assert (w is not None) == extreme, (g, x)
        if res.status == "tight":
            for x, w in res.witness.items():
                if w is None:
                    assert fiber_escape(m, g, x, 200, seed=0) is None, (g, x)
        else:
            assert res.status == "not_tight"
            x, mu = res.counterexample["realization"], res.counterexample["mu"]
            assert res.witness[x] is None
            assert np.allclose(mu[idx], x, atol=1e-7)
            assert hull_member(P, mu)  # coherent
            cell = P[np.max(np.abs(P[:, idx] - x), axis=1) <= 1e-9]
            assert not hull_member(cell, mu)


@pytest.mark.parametrize("seed, g, x, mu", [
    (49, 1, (1.0,), [1.5, 1.0]),
    (183, 0, (1.0, 0.0), [1.0, 0.0, 2.0, 1.5]),
])
def test_non_exposed_realization_with_an_escaping_belief_is_not_tight(
        seed, g, x, mu):
    # e.g. seed 49: weights 1/2 on payoffs (2, 0) and (1, 2) match block
    # part 1 with (1.5, 1), outside that cell's hull
    res = tightness_check(random_two_block_model(seed), g)
    assert res.status == "not_tight" and not bool(res)
    assert res.counterexample["realization"] == x
    assert np.allclose(res.counterexample["mu"], mu, atol=1e-12)


@pytest.mark.parametrize("g", [True, -1, 3, 1.5])
def test_block_index_is_checked(g):
    m = medal_count_model(2)
    with pytest.raises(ValueError, match="block index"):
        tightness_check(m, g)
    sched = Schedule(tuple(BlockSchedule() for _ in m.blocks))
    with pytest.raises(ValueError, match="block index"):
        partial_decrease_audit(m, sched, g, np.zeros(m.dim), 0.0, 1.0)


@pytest.mark.parametrize("eta", [[np.nan, 0.0], [0.0, np.inf], [0.0],
                                 [0.0, 0.0, 0.0]])
def test_certificate_check_rejects_a_malformed_eta(eta):
    m = medal_count_model(1)
    with pytest.raises(ValueError, match="eta must"):
        certificate_check(m, np.zeros(m.dim), eta)
