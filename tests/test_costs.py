import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from cfmarkets import (ExponentialFamilyCost, IndependentBinaryCost, LmsrCost,
                       PiecewiseLinearCost, PriceSet, RestrictedCost,
                       ScaledCost, ShiftedCost, finite_difference_price,
                       geometry, medal_count_model, observe_coordinate,
                       plan_switch, simplex_market, single_binary_market,
                       single_security_market, square_market, util_event)
from cfmarkets._solvers import _line_search, project_onto_hull
from cfmarkets.costs import _logsumexp

INF = float("inf")


def lmsr():
    return LmsrCost(simplex_market(3))


def square():
    return IndependentBinaryCost(square_market())


def piecewise():
    return PiecewiseLinearCost(single_binary_market())


# ---------------------------------------------------------------------------
# PriceSet


def test_price_set_basics():
    p = PriceSet(np.array([0.0, 0.5]), np.array([1.0, 0.5]))
    assert np.allclose(p.center, [0.5, 0.5])
    assert np.allclose(p.spread, [1.0, 0.0])
    assert not p.is_point
    assert p.contains([0.3, 0.5])
    assert not p.contains([0.3, 0.6])
    assert PriceSet.point([0.5]).is_point
    with pytest.raises(ValueError):
        PriceSet(np.array([1.0]), np.array([0.0]))


# ---------------------------------------------------------------------------
# Closed forms


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(-700, 700), min_size=1, max_size=40),
       st.sampled_from([1.0, 1e-3, 1e-9]), st.data())
def test_logsumexp_is_bit_identical_to_scipy(values, scale, data):
    a = np.array(values) * scale
    ties = data.draw(st.lists(st.integers(0, a.size - 1), max_size=a.size))
    a[ties] = a.max()  # several entries at the maximum
    assert _logsumexp(a).hex() == float(logsumexp(a)).hex()


def test_lmsr_closed_forms():
    m = lmsr()
    q = np.array([0.3, -0.7, 1.1])
    assert m.cost(q) == pytest.approx(logsumexp(q), abs=1e-12)
    p = np.exp(q) / np.exp(q).sum()
    assert np.allclose(m.price(q).center, p, atol=1e-12)
    mu = np.array([0.2, 0.3, 0.5])
    assert m.conjugate(mu) == pytest.approx(np.sum(mu * np.log(mu)), abs=1e-12)
    assert m.conjugate(np.array([0.5, 0.6, -0.1])) == INF
    with pytest.raises(ValueError):
        LmsrCost(square_market())


def test_square_closed_forms():
    m = square()
    q = np.array([0.4, -1.2])
    assert m.cost(q) == pytest.approx(np.logaddexp(0, q).sum(), abs=1e-12)
    assert np.allclose(m.price(q).center, 1 / (1 + np.exp(-q)), atol=1e-12)
    mu = np.array([0.3, 0.8])
    ent = np.sum(mu * np.log(mu) + (1 - mu) * np.log(1 - mu))
    assert m.conjugate(mu) == pytest.approx(ent, abs=1e-12)
    assert m.conjugate(np.array([1.1, 0.5])) == INF
    with pytest.raises(ValueError):
        IndependentBinaryCost(simplex_market(3))


def test_piecewise_closed_forms():
    m = piecewise()
    assert m.cost([0.7]) == 0.7
    assert m.cost([-0.7]) == 0.0
    p = m.price([0.0])
    assert p.lo[0] == 0.0 and p.hi[0] == 1.0
    assert m.price([0.4]).center[0] == 1.0
    assert m.price([-0.4]).center[0] == 0.0
    assert m.conjugate([0.5]) == 0.0
    assert m.conjugate([1.5]) == INF
    with pytest.raises(ValueError):
        PiecewiseLinearCost(single_security_market((0, 2)))


def test_exp_family_matches_lmsr_on_simplex():
    m = ExponentialFamilyCost(simplex_market(3))
    ref = lmsr()
    q = np.array([0.2, -0.4, 0.9])
    assert m.cost(q) == pytest.approx(ref.cost(q), abs=1e-12)
    assert np.allclose(m.price(q).center, ref.price(q).center, atol=1e-12)
    mu = np.array([0.25, 0.25, 0.5])
    assert m.conjugate(mu) == pytest.approx(ref.conjugate(mu), abs=1e-7)
    assert m.conjugate(np.array([1.0, 1.0, -1.0])) == INF


# ---------------------------------------------------------------------------
# Shared invariants


@pytest.fixture(params=["lmsr", "square", "piecewise"])
def model(request):
    return {"lmsr": lmsr, "square": square, "piecewise": piecewise}[request.param]()


def test_fenchel_young_and_zero_at_price(model):
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = rng.uniform(-2, 2, model.dim)
        p = model.price(q).center
        # equality case of Fenchel-Young: zero divergence at the price
        assert model.divergence(p, q) == pytest.approx(0.0, abs=1e-9)
        lam = rng.dirichlet(np.ones(model.space.n_outcomes))
        mu = lam @ model.space.payoff
        assert model.divergence(mu, q) >= -1e-12


def test_divergence_inf_outside_hull(model):
    mu = model.space.payoff.max(axis=0) + 1.0
    assert model.divergence(mu, np.zeros(model.dim)) == INF


def test_non_finite_belief_is_rejected(model):
    # a NaN compares false with every bound, so it must not reach them
    for bad in (np.nan, np.inf):
        mu = np.full(model.dim, 0.5)
        mu[0] = bad
        for ask in (model.conjugate,
                    lambda m: model.divergence(m, np.zeros(model.dim))):
            with pytest.raises(ValueError, match="mu must be finite"):
                ask(mu)
    with pytest.raises(ValueError, match="mu must have length"):
        model.conjugate(np.zeros(model.dim + 1))


def test_trade_cost_telescopes(model):
    rng = np.random.default_rng(1)
    q = rng.uniform(-1, 1, model.dim)
    r1 = rng.uniform(-1, 1, model.dim)
    r2 = rng.uniform(-1, 1, model.dim)
    total = model.trade_cost(q, r1 + r2)
    split = model.trade_cost(q, r1) + model.trade_cost(q + r1, r2)
    assert total == pytest.approx(split, abs=1e-12)


def test_finite_difference_price_matches(model):
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = rng.uniform(-1.5, 1.5, model.dim)
        fd = finite_difference_price(model, q)
        assert fd.agrees_with(model.price(q), tol=1e-5)


def test_finite_difference_detects_kink():
    fd = finite_difference_price(piecewise(), np.zeros(1))
    assert fd.lo[0] == pytest.approx(0.0, abs=1e-6)
    assert fd.hi[0] == pytest.approx(1.0, abs=1e-6)


def test_state_with_price_inverts():
    for m, mu in ((lmsr(), np.array([0.2, 0.3, 0.5])),
                  (square(), np.array([0.35, 0.8]))):
        q = m.state_with_price(mu)
        assert np.allclose(m.price(q).center, mu, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2))
def test_square_divergence_nonnegative_property(qs, mus):
    m = square()
    assert m.divergence(np.array(mus), np.array(qs)) >= -1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3))
def test_lmsr_price_sums_to_one_property(qs):
    p = lmsr().price(np.array(qs)).center
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(p >= 0)


# ---------------------------------------------------------------------------
# Restricted costs


@pytest.fixture
def projections(monkeypatch):
    """Counts the Frank-Wolfe projections, all of which `RestrictedCost`
    makes; once `forbidden` is set, any further projection fails the test."""
    import cfmarkets.costs

    class Projections:
        calls = 0
        forbidden = False

    real = cfmarkets.costs.project_onto_hull

    def counted(*args, **kwargs):
        assert not Projections.forbidden, "unexpected Frank-Wolfe projection"
        Projections.calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(cfmarkets.costs, "project_onto_hull", counted)
    return Projections


def test_restricted_simplex_mode(projections):
    projections.forbidden = True
    m = lmsr()
    cell = RestrictedCost(m, (0, 1))
    q = np.array([0.5, -0.3, 2.0])
    assert cell.cost(q) == pytest.approx(np.logaddexp(q[0], q[1]), abs=1e-12)
    p = cell.price(q).center
    assert p[2] == 0.0 and p.sum() == pytest.approx(1.0)
    assert cell.solve(q)[0] == cell.cost(q)
    assert np.array_equal(cell.solve(q)[1], p)
    assert cell.conjugate(np.array([0.5, 0.5, 0.0])) == pytest.approx(
        -np.log(2), abs=1e-12)
    assert cell.conjugate(np.array([0.3, 0.3, 0.4])) == INF  # outside the cell


def test_restricted_product_mode(projections):
    projections.forbidden = True
    m = square()
    cell = RestrictedCost(m, (((1, 0)), ((1, 1))))
    assert cell.fixed_coords == {0: 1.0}
    q = np.array([0.7, -0.2])
    assert cell.cost(q) == pytest.approx(q[0] + np.logaddexp(0, q[1]),
                                         abs=1e-12)
    assert np.allclose(cell.price(q).center, [1.0, 1 / (1 + np.exp(0.2))],
                       atol=1e-12)
    s = cell.state_with_price(np.array([1.0, 0.25]))
    assert np.allclose(cell.price(s).center, [1.0, 0.25], atol=1e-9)
    # simplex cells pin no coordinates
    assert RestrictedCost(lmsr(), (0, 1)).fixed_coords == {}


def test_restricted_generic_mode_diagonal(projections):
    m = square()
    diag = RestrictedCost(m, (((0, 1)), ((1, 0))))
    assert diag.fixed_coords == {}
    q = np.array([0.5, -0.7])
    # C_E(q) = q.mu - R(mu) at the projection; must stay below the full cost
    assert diag.cost(q) <= m.cost(q) + 1e-9
    assert projections.calls == 1  # the diagonal has no closed form
    p = diag.price(q).center
    assert p.sum() == pytest.approx(1.0, abs=1e-6)  # diagonal constraint
    # supremum definition: no hull point does better
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = rng.uniform()
        mu = np.array([t, 1 - t])
        assert q @ mu - m.conjugate(mu) <= diag.cost(q) + 1e-6
    with pytest.raises(NotImplementedError):
        diag.state_with_price(p)
    # util_event falls back to the same projection
    before = projections.calls
    assert np.allclose(util_event(m, diag.event, q).minimizer, p, atol=1e-12)
    assert projections.calls == before + 1


def test_util_event_closed_forms_never_project(projections):
    sq = square()
    face = (((1, 0)), ((1, 1)))
    plan = plan_switch(sq, observe_coordinate(sq.space, 0),
                       np.array([0.3, -0.4]))
    cases = [(lmsr(), (0, 2)), (sq, face),
             (ScaledCost(lmsr(), 0.4), (1, 2)),
             (ShiftedCost(sq, np.array([0.6, -0.9])), face),
             (RestrictedCost(sq, face), (((1, 1)),)),
             (plan.switched, face), (plan.switched, (((1, 1)),))]
    projections.forbidden = True
    q = np.array([0.3, -0.4, 0.8])
    for m, event in cases:
        res = util_event(m, event, q[:m.dim])
        assert res.residual == 0.0 and res.converged
        assert geometry.hull_contains(m.space.vertices(event), res.minimizer)


def switched_square():
    sq = square()
    return plan_switch(sq, observe_coordinate(sq.space, 0),
                       np.array([0.3, -0.4])).switched


@pytest.mark.parametrize("make_base, event", [
    (lambda: ScaledCost(lmsr(), 0.37), (0, 2)),
    (lambda: ShiftedCost(square(), np.array([0.6, -0.9])),
     (((1, 0)), ((1, 1)))),
    (switched_square, (((1, 0)), ((1, 1)))),
], ids=["scaled", "shifted", "switched"])
def test_restricted_delegating_kinds_match_projection(make_base, event,
                                                      projections):
    # the base's closed form is used, and agrees with the projection
    base = make_base()
    projections.forbidden = True
    cell = RestrictedCost(base, event)
    q = np.array([0.4, -1.1, 0.7])[:base.dim]
    value, mu = cell.solve(q)
    res = project_onto_hull(cell.vertices, base.conjugate,
                            base.conjugate_grad, q)
    assert np.allclose(mu, res.mu, atol=1e-7)
    assert value == pytest.approx(-res.value, abs=1e-7)


def test_restricted_solve_evaluates_the_conjugate_once_per_projection(
        projections):
    m = square()
    diag = RestrictedCost(m, (((0, 1)), ((1, 0))))
    real, calls = m.conjugate, []

    def counted(mu):
        calls.append(mu)
        return real(mu)

    m.conjugate = counted  # the projection reads the base's binding
    value, mu = diag.solve(np.array([0.5, -0.7]))
    assert projections.calls == 1 and len(calls) == 1
    assert value == -diag.project(np.array([0.5, -0.7])).value


def test_restricted_cost_rejects_empty_event():
    m = square()
    with pytest.raises(ValueError):
        RestrictedCost(m, ())
    with pytest.raises(ValueError):
        util_event(m, (), np.zeros(2))


# ---------------------------------------------------------------------------
# Frank-Wolfe line search


@pytest.mark.parametrize("deriv, root", [
    (lambda g: g - 0.3, 0.3),
    # the shape of an entropy derivative along a Frank-Wolfe step
    (lambda g: float(np.log((0.1 + g) / (1.1 - g)) - np.log(1.0 / 3.0)), 0.2),
], ids=["linear", "logit"])
def test_line_search_finds_the_root_in_few_evaluations(deriv, root):
    calls = []

    def counted(gamma):
        calls.append(gamma)
        return deriv(gamma)

    assert abs(_line_search(counted, 1.0) - root) <= 1e-12
    assert len(calls) <= 12


def test_line_search_takes_the_full_step_when_still_descending():
    calls = []

    def deriv(gamma):
        calls.append(gamma)
        return gamma - 2.0

    assert _line_search(deriv, 0.7) == 0.7
    assert _line_search(lambda g: 0.0, 0.4) == 0.4
    assert calls == [0.7]


# ---------------------------------------------------------------------------
# Scaled and shifted costs


def test_scaled_cost_properties():
    m = lmsr()
    a = 0.37
    s = ScaledCost(m, a)
    q = np.array([0.4, -0.1, 0.8])
    assert s.cost(a * q) == pytest.approx(a * m.cost(q), abs=1e-12)
    assert np.allclose(s.price(a * q).center, m.price(q).center, atol=1e-12)
    mu = np.array([0.2, 0.5, 0.3])
    assert s.divergence(mu, a * q) == pytest.approx(a * m.divergence(mu, q),
                                                    abs=1e-12)
    with pytest.raises(ValueError):
        ScaledCost(m, 1.5)
    with pytest.raises(ValueError):
        ScaledCost(m, 0.0)


def test_shifted_cost_transports_divergence():
    m = square()
    shift = np.array([0.6, -0.9])
    s = ShiftedCost(m, shift)
    q = np.array([0.1, 0.2])
    mu = np.array([0.4, 0.7])
    assert s.cost(q) == pytest.approx(m.cost(q + shift), abs=1e-12)
    assert s.divergence(mu, q) == pytest.approx(m.divergence(mu, q + shift),
                                                abs=1e-12)
    assert np.allclose(s.price(s.state_with_price(mu)).center, mu, atol=1e-9)
    assert s.divergence(np.array([2.0, 0.0]), q) == INF


# ---------------------------------------------------------------------------
# Trusted kernels under the public surface


def _kernel_models():
    shifts = {"lmsr": np.array([0.3, -1.2, 0.5]), "square": np.array([0.6, -0.9])}
    for name, make in (("lmsr", lmsr), ("square", square)):
        base = make()
        yield name, base
        yield f"scaled-{name}", ScaledCost(base, 0.37)
        yield f"shifted-{name}", ShiftedCost(base, shifts[name])
        yield f"scaled-shifted-{name}", ScaledCost(
            ShiftedCost(base, shifts[name]), 0.61)


KERNEL_MODELS = dict(_kernel_models())


@pytest.mark.parametrize("name", list(KERNEL_MODELS))
def test_kernels_agree_with_the_public_methods_bit_for_bit(name):
    model = KERNEL_MODELS[name]
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = rng.normal(0.0, 3.0, model.dim)
        mu = rng.dirichlet(np.ones(model.space.n_outcomes)) @ model.space.payoff
        assert np.array_equal(model._mu(q), model.price(q).center)
        assert model._cost(q) == model.cost(q)
        assert model._conj(mu) == model.conjugate(mu)
        assert model._div(mu, q) == model.divergence(mu, q)
    off = model.space.payoff.max(axis=0) + 1.0
    assert model._conj(off) == INF and model.conjugate(off) == INF


def test_price_set_point_shares_one_read_only_copy():
    p = np.array([0.25, 0.75])
    ps = PriceSet.point(p)
    p[0] = 1.0  # the caller's array is not the price set's
    assert ps.lo is ps.hi and not ps.lo.flags.writeable
    assert np.array_equal(ps.center, [0.25, 0.75]) and ps.is_point


@pytest.mark.parametrize("make", [
    lambda: ScaledCost(lmsr(), 0.5), lambda: medal_count_model(2),
    lambda: RestrictedCost(square(), [(0, 0), (1, 1)])],
    ids=["scaled", "lcmm", "restricted"])
def test_public_methods_still_validate_their_input(make):
    m = make()
    methods = [m.cost, m.price] + [getattr(m, name)
                                   for name in ("solve", "project")
                                   if hasattr(m, name)]
    for ask in methods:
        nan = np.zeros(m.dim)
        nan[0] = np.nan
        with pytest.raises(ValueError, match="q must be finite"):
            ask(nan)
        with pytest.raises(ValueError, match=f"q must have length {m.dim}"):
            ask(np.zeros(m.dim + 1))
