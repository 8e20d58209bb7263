import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp, xlogy

from cfmarkets import (IndependentBinaryCost, LmsrCost, OutcomeSpace,
                       PiecewiseLinearCost, PriceSet, RestrictedCost,
                       ScaledCost, finite_difference_price, geometry,
                       independent_binary_market, medal_count_model,
                       observe_block_payoff, observe_coordinate,
                       observe_sum, plan_switch,
                       simplex_market, single_binary_market, square_market,
                       util_event)
from cfmarkets._solvers import increasing_root, project_onto_hull
from cfmarkets.costs import (_CACHE_LIMIT, _LOG_CLIP, _STATE_CLIP,
                             _as_vector, _logsumexp, _softmax)
from oracles import lmsr_conjugate, product_lmsr_conjugate

INF = float("inf")
# cells whose hulls read generic, so product-LMSR projects them by
# Frank-Wolfe: the square's main diagonal, and the 3-cube cell where
# x0 + x1 - x2 = 0
DIAGONAL = ((0, 0), (1, 1))
MIXED_SIGN_CELL = ((0, 0, 0), (0, 1, 1), (1, 0, 1))


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
    assert np.max(p.spread) > 1e-12
    for mu, inside in (([0.3, 0.5], True), ([0.3, 0.6], False)):
        assert np.all((p.lo - 1e-9 <= mu) & (mu <= p.hi + 1e-9)) == inside
    assert np.all(PriceSet.point([0.5]).spread == 0.0)
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
        PiecewiseLinearCost(OutcomeSpace((0, 2), [[0.0], [2.0]]))


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


def test_divergence_checks_the_state_also_off_the_price_space(model):
    mu = model.space.payoff.max(axis=0) + 1.0
    q = np.zeros(model.dim)
    q[0] = np.nan
    with pytest.raises(ValueError, match="q must be finite"):
        model.divergence(mu, q)


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
        fd, p = finite_difference_price(model, q), model.price(q)
        assert np.max(np.abs(fd.lo - p.lo)) <= 1e-5
        assert np.max(np.abs(fd.hi - p.hi)) <= 1e-5


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
    """Counts the Frank-Wolfe projections, all of which the default
    projector of `CostModel.restrict` makes; once `forbidden` is set, any
    further projection fails the test."""
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
    res = cell.project(q)
    assert -res.value == cell.cost(q) and np.array_equal(res.mu, p)
    assert cell.conjugate(np.array([0.5, 0.5, 0.0])) == pytest.approx(
        -np.log(2), abs=1e-12)
    assert cell.conjugate(np.array([0.3, 0.3, 0.4])) == INF  # outside the cell


def test_restricted_product_mode(projections):
    projections.forbidden = True
    m = square()
    cell = RestrictedCost(m, (((1, 0)), ((1, 1))))
    q = np.array([0.7, -0.2])
    assert cell.cost(q) == pytest.approx(q[0] + np.logaddexp(0, q[1]),
                                         abs=1e-12)
    assert np.allclose(cell.price(q).center, [1.0, 1 / (1 + np.exp(0.2))],
                       atol=1e-12)


def test_restricted_generic_mode_diagonal(projections):
    m = square()
    diag = RestrictedCost(m, DIAGONAL)
    q = np.array([0.5, -0.7])
    # C_E(q) = q.mu - R(mu) at the projection; must stay below the full cost
    assert diag.cost(q) <= m.cost(q) + 1e-9
    assert projections.calls == 1  # the diagonal has no closed form
    p = diag.price(q).center
    assert p[0] == pytest.approx(p[1], abs=1e-6)  # diagonal constraint
    # supremum definition: no hull point does better
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = rng.uniform()
        mu = np.array([t, t])
        assert q @ mu - m.conjugate(mu) <= diag.cost(q) + 1e-6
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
             (RestrictedCost(sq, face), (((1, 1)),)),
             (plan, face), (plan, (((1, 1)),))]
    projections.forbidden = True
    q = np.array([0.3, -0.4, 0.8])
    for m, event in cases:
        res = util_event(m, event, q[:m.dim])
        assert res.residual == 0.0 and res.converged
        assert geometry.hull_contains(m.space.vertices(event), res.minimizer)


def switched_square():
    sq = square()
    return plan_switch(sq, observe_coordinate(sq.space, 0),
                       np.array([0.3, -0.4]))


@pytest.mark.parametrize("make_base, event, gradient", [
    (lambda: ScaledCost(lmsr(), 0.37), (0, 2), lambda m: m.conjugate_grad),
    # inside a cell the roof is R - b_x, whose gradient is the base's
    (switched_square, (((1, 0)), ((1, 1))), lambda m: m.base.conjugate_grad),
], ids=["scaled", "switched"])
def test_restricted_delegating_kinds_match_projection(make_base, event,
                                                      gradient, projections):
    # the base's closed form is used, and agrees with the projection
    base = make_base()
    projections.forbidden = True
    cell = RestrictedCost(base, event)
    q = np.array([0.4, -1.1, 0.7])[:base.dim]
    own = cell.project(q)
    value, mu = -own.value, own.mu
    res = project_onto_hull(cell.hull.vertices, base.conjugate,
                            gradient(base), q)
    assert np.allclose(mu, res.mu, atol=1e-7)
    assert value == pytest.approx(-res.value, abs=1e-7)


def test_the_switched_roof_has_no_conjugate_gradient():
    # Frank-Wolfe never runs over a switch (`restrict` projects every
    # in-cell event and refuses a spanning one), and off the cells the
    # base's gradient is not the roof's
    with pytest.raises(NotImplementedError, match="switched"):
        switched_square().conjugate_grad(np.array([0.5, 0.5]))


def test_restricted_solve_evaluates_the_conjugate_once_per_projection(
        projections):
    m = square()
    diag = RestrictedCost(m, DIAGONAL)
    real, calls = m.conjugate, []

    def counted(mu):
        calls.append(mu)
        return real(mu)

    m.conjugate = counted  # the projection reads the base's binding
    value = diag.cost(np.array([0.5, -0.7]))
    assert projections.calls == 1 and len(calls) == 1
    assert value == -diag.project(np.array([0.5, -0.7])).value


def diagonal_cell():
    """The square's main diagonal: no closed form, so Frank-Wolfe."""
    return RestrictedCost(square(), DIAGONAL)


@pytest.fixture(params=["diagonal", "slice"])
def memo_cell(request, monkeypatch):
    """(cell, solves): a cell that keeps its answers per state, and the
    list of its solves. The square's main diagonal solves a state by one
    Frank-Wolfe run, the square/sum middle cell, a slice, by one
    root-find."""
    import cfmarkets.costs

    diagonal = request.param == "diagonal"
    name = "project_onto_hull" if diagonal else "increasing_root"
    real, solves = getattr(cfmarkets.costs, name), []
    monkeypatch.setattr(cfmarkets.costs, name,
                        lambda *a: solves.append(1) or real(*a))
    sq = square()
    event = DIAGONAL if diagonal else observe_sum(sq.space).cell(1.0)
    return RestrictedCost(sq, event), solves


def test_a_cell_projects_a_repeated_state_once(memo_cell):
    (cell, solves), q = memo_cell, np.array([0.5, -0.7])
    first = cell.project(q)
    again = [cell.cost(q), cell.price(q), cell.project(q.copy())]
    assert len(solves) == 1
    assert again[0] == -first.value
    assert np.array_equal(again[1].center, first.mu)
    assert again[2] is first


def test_restricting_a_cell_to_its_own_event_reads_its_memo(memo_cell):
    (cell, solves), q = memo_cell, np.array([0.5, -0.7])
    first = cell.project(q)
    assert cell.restrict(cell.event)(q) is first
    assert len(solves) == 1


def test_a_remembered_projection_is_a_fresh_solve_bit_for_bit():
    cell, q = diagonal_cell(), np.array([0.3, 1.1])
    cell.project(q)
    kept = cell.project(q)
    fresh = diagonal_cell().project(q)
    assert kept.mu.tobytes() == fresh.mu.tobytes()
    assert (kept.value, kept.gap, kept.converged, kept.iterations) == (
        fresh.value, fresh.gap, fresh.converged, fresh.iterations)


def test_a_remembered_projection_cannot_be_changed_through_its_answer(
        memo_cell):
    (cell, _), q = memo_cell, np.array([0.5, -0.7])
    res = cell.project(q)
    with pytest.raises(ValueError, match="read-only"):
        res.mu[:] = 100.0
    fresh = RestrictedCost(cell.base, cell.event)
    assert np.array_equal(cell.project(q).mu, fresh.project(q).mu)


def test_a_remembered_projection_cannot_be_rewritten():
    cell, q = diagonal_cell(), np.array([0.5, -0.7])
    cost = cell.cost(q)
    res = cell.project(q)
    # the value is -C_E(q): a write would move every later cost at q
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.value -= 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.mu = np.zeros(2)
    assert cell.project(q) is res and cell.cost(q) == cost


def test_the_projection_memo_stays_within_its_bound(memo_cell):
    cell, solves = memo_cell
    states = [np.array([0.01 * i, -0.5]) for i in range(300)]
    for q in states[:_CACHE_LIMIT]:
        cell.project(q)
    cell.project(states[0])  # a full memo still holds the first state
    for q in states[_CACHE_LIMIT:]:
        cell.project(q)  # the first of these clears the full memo
    assert len(solves) == 300
    cell.project(states[-1])
    assert len(solves) == 300
    cell.project(states[0])
    assert len(solves) == 301


def test_a_box_cell_keeps_a_memo_and_an_lmsr_cell_none(projections):
    # product-LMSR keeps every band's projections per state, a sub-cube
    # face's too; LMSR's softmax over a simplex face keeps none
    sq = square()
    box = RestrictedCost(sq, observe_coordinate(sq.space, 0).cell(1.0))
    q = np.array([0.5, -0.7])
    box.cost(q), box.price(q), box.project(q)
    assert projections.calls == 0
    assert box.project(q) is box.project(q)
    face, q = RestrictedCost(lmsr(), (0, 2)), np.array([0.5, -0.7, 0.2])
    assert face.project(q) is not face.project(q)


def cube_bands():
    """(model, event, levels) for one slice (lo = hi) of every shape on
    the 2- to 8-cube, and every band lo < hi of the 3- and 4-cube. The
    slices take each count f >= 2 of free coordinates, each level 1 to
    f - 1 on them, and the other n - f coordinates pinned at random places
    and 0/1 values; the bands are free, or pinned at x0 = 1, x0 = 0 or
    (x0, x1) = (1, 0)."""
    rng = np.random.default_rng(40)
    for n in range(2, 9):
        m = IndependentBinaryCost(independent_binary_market(n))
        P = m.space.payoff
        for f in range(2, n + 1):
            pinned = rng.permutation(n)[:n - f]
            values = rng.integers(0, 2, n - f)
            free = np.setdiff1d(np.arange(n), pinned)
            for j in range(1, f):
                on = ((P[:, pinned] == values).all(axis=1)
                      & (P[:, free].sum(axis=1) == j))
                event = tuple(w for w, x in zip(m.space.outcomes, on) if x)
                yield m, event, (j, j)
    for n in (3, 4):
        m = IndependentBinaryCost(independent_binary_market(n))
        for pins in ({}, {0: 1}, {0: 0}, {0: 1, 1: 0}):
            f = n - len(pins)
            for lo in range(f):
                for hi in range(lo + 1, f + 1):
                    yield m, tuple(
                        w for w in m.space.outcomes
                        if all(w[i] == x for i, x in pins.items())
                        and lo <= sum(w) - sum(pins.values()) <= hi), (lo, hi)


def test_product_lmsr_projects_every_cube_band_as_frank_wolfe(projections):
    # the reference is the away-step Frank-Wolfe projection over the
    # band's vertices, called here; the band projector makes no such call.
    # Slices are also checked at states of scale 1e18 and 1e20
    rng, shapes = np.random.default_rng(41), []
    for m, event, levels in cube_bands():
        hull = m.space.hull(event)
        assert hull.levels == levels
        shapes.append(levels[0] == levels[1])
        project = m.restrict(event)
        scales = ((1.0, 1.0, 1e18, 1e20) if levels[0] == levels[1]
                  else (1.0,) * 4)
        for scale in scales:
            q = scale * rng.uniform(-3.0, 3.0, m.dim)
            got = project(q)
            assert projections.calls == 0
            want = project_onto_hull(hull.vertices, m.conjugate,
                                     m.conjugate_grad, q)
            assert abs(got.value - want.value) <= 1e-12 * max(
                1.0, abs(want.value)), (event, q)
            assert (got.gap, got.converged, got.iterations) == (0.0, True, 0)
            assert hull.contains(got.mu)
            assert not got.mu.flags.writeable
        projections.calls = 0
    assert shapes.count(True) == 84 and shapes.count(False) == 38


def test_a_band_splits_tied_states_evenly_at_any_scale():
    # at +-1e18 and +-1e20 every free coordinate ties with others: the
    # projection gives tied coordinates one price, sums into its levels
    # (to its level, on a slice), and stays in the hull. (Frank-Wolfe is
    # no reference here: its gradient clamps at the cube's faces, and on
    # the 4-cube slice of level 2 at (-1e18, 1e18, -1e18, -1e18) it stops
    # at (0.5, 1, 0.25, 0.25), gap 0, where the projection is
    # (1/3, 1, 1/3, 1/3).)
    rng = np.random.default_rng(42)
    for m, event, (lo, hi) in cube_bands():
        hull = m.space.hull(event)
        free = hull.free
        for scale in (1e18, 1e20):
            q = scale * rng.choice([-1.0, 1.0], m.dim)
            got = m.restrict(event)(q)
            assert hull.contains(got.mu) and np.isfinite(got.value)
            total = got.mu[free].sum()
            if lo == hi:
                assert total == pytest.approx(lo, abs=1e-12)
            assert lo - 1e-12 <= total <= hi + 1e-12
            for v in np.unique(q[free]):
                assert np.ptp(got.mu[free][q[free] == v]) <= 1e-12


def test_the_slice_projection_is_the_i_projection():
    # m = expit(q + lam) on the free coordinates, with their sum the level,
    # and the pinned coordinates copied
    m = IndependentBinaryCost(independent_binary_market(4))
    event = ((1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1))  # x0 = 1, one more
    q = np.array([0.3, -1.2, 0.8, 2.0])
    mu = m.restrict(event)(q).mu
    lam = np.log(mu[1:] / (1.0 - mu[1:])) - q[1:]
    assert mu[0] == 1.0 and mu[1:].sum() == pytest.approx(1.0, abs=1e-15)
    assert np.ptp(lam) <= 1e-12


def test_restricted_cost_rejects_empty_event():
    m = square()
    with pytest.raises(ValueError):
        RestrictedCost(m, ())
    with pytest.raises(ValueError):
        util_event(m, (), np.zeros(2))


@pytest.mark.parametrize("outer, inner", [
    ((((0, 0)), ((0, 1))), (((0, 1)),)),  # a face: the base's closed form
    (DIAGONAL, DIAGONAL),  # the diagonal: Frank-Wolfe
], ids=["face", "diagonal"])
def test_a_restricted_cost_restricts_inside_its_event_as_its_base(outer,
                                                                 inner):
    sq, q = square(), np.array([0.3, -0.2])
    got = RestrictedCost(RestrictedCost(sq, outer), inner).project(q)
    want = RestrictedCost(sq, inner).project(q)
    assert np.array_equal(got.mu, want.mu) and got.value == want.value
    assert got.converged and np.isfinite(got.value)


def test_a_restricted_cost_refuses_an_event_outside_its_own():
    # Frank-Wolfe over the inner cost would read R = inf at (1, 1) and
    # report C = -inf as converged
    sq = square()
    outer = RestrictedCost(sq, (((0, 0)), ((0, 1))))
    with pytest.raises(ValueError, match="leaves"):
        RestrictedCost(outer, (((0, 1)), ((1, 1))))
    with pytest.raises(ValueError, match="leaves"):
        outer.restrict((((1, 1)),))


def medal_cell():
    """medal(2) and the cell where block 0 pays 1: no closed form."""
    medal = medal_count_model(2)
    return medal, observe_block_payoff(medal.space, (0,)).cell((1.0,))


@pytest.mark.parametrize("make", [
    lmsr, square, piecewise, lambda: medal_count_model(2),
    lambda: ScaledCost(lmsr(), 0.4),
    lambda: RestrictedCost(square(), (((1, 0)), ((1, 1)))), switched_square,
], ids=["lmsr", "product-lmsr", "piecewise-linear", "medal2", "scaled",
        "restricted", "switched"])
def test_restricting_to_the_empty_event_is_a_value_error(make):
    m = make()
    with pytest.raises(ValueError):
        m.restrict(())


def no_closed_form_cases():
    sq, pw = square(), piecewise()
    cube = IndependentBinaryCost(independent_binary_market(3))
    return [(sq, DIAGONAL),
            (cube, MIXED_SIGN_CELL),
            (pw, pw.space.outcomes),
            medal_cell()]


@pytest.mark.parametrize("case", range(4), ids=[
    "square-diagonal", "cube3-mixed-sign", "piecewise-linear", "medal-cell"])
def test_every_kind_restricts_to_a_projector(case):
    # a kind with no closed form projects by the default's Frank-Wolfe,
    # with its own conjugate over the event's payoff vertices
    m, event = no_closed_form_cases()[case]
    project = m.restrict(event)
    assert callable(project)
    for q in np.random.default_rng(case).uniform(-2.0, 2.0, (3, m.dim)):
        got = project(q)
        want = project_onto_hull(m.space.vertices(event), m.conjugate,
                                 m.conjugate_grad, q)
        assert got.mu.tobytes() == want.mu.tobytes()
        assert (got.value, got.gap, got.converged, got.iterations) == (
            want.value, want.gap, want.converged, want.iterations)


def test_a_scaled_cost_restricts_as_its_base_at_the_scaled_state():
    # a C(q / a) restricted is a C_E(q / a): the base's projector, not
    # Frank-Wolfe over a R
    medal, event = medal_cell()
    scaled = ScaledCost(medal, 0.4)
    for q in np.random.default_rng(7).uniform(-2.0, 2.0, (3, medal.dim)):
        got, base = scaled.restrict(event)(q), medal.restrict(event)(q / 0.4)
        assert got.value == pytest.approx(0.4 * base.value, abs=1e-12)
        assert np.array_equal(got.mu, base.mu) and got.converged


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

    assert abs(increasing_root(counted, 0.0, 1.0) - root) <= 1e-12
    assert len(calls) <= 12


def test_line_search_takes_the_full_step_when_still_descending():
    calls = []

    def deriv(gamma):
        calls.append(gamma)
        return gamma - 2.0

    assert increasing_root(deriv, 0.0, 0.7) == 0.7
    assert increasing_root(lambda g: 0.0, 0.0, 0.4) == 0.4
    assert calls == [0.7]


def test_line_search_takes_no_step_where_it_does_not_descend():
    # rounding can leave the derivative at 0 nonnegative where the
    # Frank-Wolfe gap is near 0: no root to bracket, so no step
    assert increasing_root(lambda g: g + 1e-17, 0.0, 1.0) == 0.0
    assert increasing_root(lambda g: g, 0.0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# Scaled costs


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


# ---------------------------------------------------------------------------
# Trusted kernels under the public surface


def _kernel_models():
    for name, make in (("lmsr", lmsr), ("square", square)):
        base = make()
        yield name, base
        yield f"scaled-{name}", ScaledCost(base, 0.37)


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


def _kernel_stack(model, rng):
    """Seeded price points of a model: random points of its price space,
    its vertices, the all-0 and all-1 rows, and copies of them moved on
    and off the domain along one coordinate: by +-1e-10 and +-1e-8, and by
    1% less and 1% more than the domain tolerance either way."""
    V = model.space.payoff
    base = np.vstack([rng.dirichlet(np.ones(len(V)), size=20) @ V, V,
                      np.zeros(model.dim), np.ones(model.dim)])
    moved = []
    tol = model.domain_tol
    for step in (1e-10, -1e-10, 1e-8, -1e-8, 0.99 * tol, -0.99 * tol,
                 1.01 * tol, -1.01 * tol):
        shifted = base.copy()
        shifted[np.arange(len(base)), rng.integers(model.dim, size=len(base))
                ] += step
        moved.append(shifted)
    return np.vstack([base] + moved)


def _closed_form_models():
    for k in (1, 2, 3, 4, 5, 6, 7, 8, 10):
        yield f"lmsr({k})", lambda k=k: LmsrCost(simplex_market(k))
    for k in (1, 2, 3, 4, 5, 6, 7, 8, 9):
        yield ("square" if k == 2 else f"cube({k})",
               lambda k=k: IndependentBinaryCost(independent_binary_market(k)))


CLOSED_FORM_MODELS = dict(_closed_form_models())
ROW_CONJUGATES = {"lmsr": lmsr_conjugate,
                  "product-lmsr": product_lmsr_conjugate}


@pytest.mark.parametrize("name", list(CLOSED_FORM_MODELS))
def test_stacked_conjugate_equals_the_row_kernel_bit_for_bit(name):
    # the row kernel is the per-row formula of tests/oracles.py, with its
    # own domain test; `_conj`, `_conjs` and `conjugate` must all match it
    model = CLOSED_FORM_MODELS[name]()
    stack = _kernel_stack(model, np.random.default_rng(5))
    row = ROW_CONJUGATES[model.kind]
    want = [row(mu, model.domain_tol) for mu in stack]
    out = model._conjs(stack)
    assert np.array_equal(out, want)
    assert np.array_equal([model._conj(mu) for mu in stack], want)
    assert np.array_equal([model.conjugate(mu) for mu in stack], want)
    # the stack reaches both sides of the domain test
    assert np.isinf(out).any() and np.isfinite(out).any()
    assert np.array_equal(model._conjs(np.asfortranarray(stack)), want)
    assert model._conjs(np.empty((0, model.dim))).shape == (0,)


def test_price_set_point_shares_one_read_only_copy():
    p = np.array([0.25, 0.75])
    ps = PriceSet.point(p)
    p[0] = 1.0  # the caller's array is not the price set's
    assert ps.lo is ps.hi and not ps.lo.flags.writeable
    assert np.array_equal(ps.center, [0.25, 0.75])
    assert np.all(ps.spread == 0.0)


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


# ---------------------------------------------------------------------------
# The kernels' ndarray methods against the numpy wrappers they replaced:
# each form runs the same ufunc loop, so results agree bit for bit


def wrapper_lmsr_conjs(model, mus):
    mus = np.ascontiguousarray(mus, dtype=float)
    off = ((mus < -model.domain_tol).any(axis=1)
           | (np.abs(mus.sum(axis=1) - 1.0) > model.domain_tol))
    m = np.clip(mus, 0.0, None)
    out = np.sum(xlogy(m, m), axis=1)
    out[off] = INF
    return out


def wrapper_product_conjs(model, mus):
    mus = np.ascontiguousarray(mus, dtype=float)
    off = ((mus < -model.domain_tol)
           | (mus > 1.0 + model.domain_tol)).any(axis=1)
    m = np.clip(mus, 0.0, 1.0)
    out = np.sum(xlogy(m, m) + xlogy(1.0 - m, 1.0 - m), axis=1)
    out[off] = INF
    return out


def wrapper_lmsr_conjugate_grad(mu):
    m = np.clip(np.asarray(mu, dtype=float), _LOG_CLIP, None)
    return np.log(m) + 1.0


def wrapper_product_conjugate_grad(mu):
    m = np.clip(np.asarray(mu, dtype=float), _LOG_CLIP, 1.0 - 1e-16)
    return np.log(m) - np.log1p(-m)


def wrapper_lmsr_state(mu):
    m = np.clip(np.asarray(mu, dtype=float), 0.0, None)
    return np.log(np.clip(m, np.exp(-_STATE_CLIP), None))


def wrapper_product_state(mu):
    m = np.clip(np.asarray(mu, dtype=float), 0.0, 1.0)
    q = (np.log(np.clip(m, _LOG_CLIP, None))
         - np.log(np.clip(1.0 - m, _LOG_CLIP, None)))
    return np.clip(q, -_STATE_CLIP, _STATE_CLIP)


def wrapper_product_cost(q):
    return float(np.sum(np.logaddexp(0.0, q)))


def wrapper_softmax(z):
    e = np.exp(z - np.max(z))
    return e / e.sum()


WRAPPER_FORMS = {
    "lmsr": (wrapper_lmsr_conjs, wrapper_lmsr_conjugate_grad,
             wrapper_lmsr_state),
    "product-lmsr": (wrapper_product_conjs, wrapper_product_conjugate_grad,
                     wrapper_product_state),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def boundary_stack(model, rng):
    """`_kernel_stack`'s rows, random rows around the price space, and rows
    whose every entry, or one entry of a point of the price space, is one
    boundary value: 0, 1, -domain_tol, 1 + domain_tol, the floats just
    outside and inside each, and 1e-300."""
    tol = model.domain_tol
    edges = [0.0, 1.0, -tol, 1.0 + tol, 1e-300]
    edges += [np.nextafter(e, d) for e in edges[:4] for d in (-INF, INF)]
    rows = [np.full(model.dim, e) for e in edges]
    # one boundary value in one coordinate of a point of the price space
    inside = rng.dirichlet(np.ones(len(model.space.payoff)), size=len(edges))
    for e, row in zip(edges, inside @ model.space.payoff):
        row[rng.integers(model.dim)] = e
        rows.append(row)
    rows.extend(rng.uniform(-0.1, 1.1, (40, model.dim)))
    return np.vstack([_kernel_stack(model, rng), rows])


@pytest.mark.parametrize("name", ["lmsr(1)", "lmsr(3)", "lmsr(8)", "square",
                                  "cube(3)", "cube(5)"])
def test_the_closed_forms_equal_their_wrapper_forms_bit_for_bit(name):
    model = CLOSED_FORM_MODELS[name]()
    conjs, grad, state = WRAPPER_FORMS[model.kind]
    stack = boundary_stack(model, np.random.default_rng(37))
    out = model._conjs(stack)
    assert same_bits(out, conjs(model, stack))
    assert np.isinf(out).any() and np.isfinite(out).any()
    for mu in stack:
        assert same_bits(model.conjugate_grad(mu), grad(mu))
        assert same_bits(model.state_with_price(mu), state(mu))
    rng = np.random.default_rng(38)
    for scale in (1e-3, 1.0, 30.0, 800.0):
        for q in rng.normal(0.0, scale, (10, model.dim)):
            if model.kind == "lmsr":
                assert same_bits(_softmax(q), wrapper_softmax(q))
                assert same_bits(model._mu(q), wrapper_softmax(q))
            else:
                assert model._cost(q).hex() == wrapper_product_cost(q).hex()


def test_a_cube_face_projection_equals_its_wrapper_form_bit_for_bit():
    m = IndependentBinaryCost(independent_binary_market(4))
    face = [w for w in m.space.outcomes if w[0] == 1 and w[2] == 0]
    project = m.restrict(face)
    for q in np.random.default_rng(39).normal(0.0, 4.0, (30, 4)):
        c = (1.0 * q[0] + 0.0 * q[2]
             + np.sum(np.logaddexp(0.0, q[[1, 3]])))
        assert project(q).value.hex() == (-float(c)).hex()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_vector_rejects_every_non_finite_entry(bad):
    for dim in (1, 3):
        v = np.zeros(dim)
        v[-1] = bad
        for x in (v, v.tolist()):
            with pytest.raises(ValueError, match="^q must be finite$"):
                _as_vector(x, dim, "q")
