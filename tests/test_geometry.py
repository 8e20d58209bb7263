import sys
from functools import partial
from itertools import combinations
from math import isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult

from cfmarkets import (IndependentBinaryCost, LmsrCost, Observation,
                       SwitchedCost, geometry, independent_binary_market,
                       medal_count_model, observe_coordinate,
                       observe_partition, observe_sum, plan_switch,
                       probe_points, simplex_market, square_market,
                       wc_loss_bound)

from oracles import hull_member, hulls_meet

SQUARE = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])


def test_best_hull_weights_center():
    assert geometry.hull_contains(SQUARE, np.array([0.5, 0.5]), tol=1e-9)


def test_best_hull_weights_outside_reports_residual():
    # (1.5, 0.5) is 0.5 from the square in L-inf, so tol decides at 0.5
    outside = np.array([1.5, 0.5])
    assert geometry.hull_contains(SQUARE, outside, tol=0.5 + 1e-8)
    assert not geometry.hull_contains(SQUARE, outside, tol=0.5 - 1e-8)


def test_hull_weights_none_outside():
    assert not geometry.hull_contains(SQUARE, np.array([-0.1, 0.5]))
    assert geometry.hull_contains(SQUARE, np.array([0.25, 0.75]))


def test_hull_contains_vertices_and_edges():
    for v in SQUARE:
        assert geometry.hull_contains(SQUARE, v)
    assert geometry.hull_contains(SQUARE, np.array([0.0, 0.3]))
    assert not geometry.hull_contains(SQUARE, np.array([1.0 + 1e-6, 0.0]))


def test_single_vertex_hull():
    V = np.array([[1.0, 0.0]])
    assert geometry.hull_contains(V, np.array([1.0, 0.0]))
    assert not geometry.hull_contains(V, np.array([0.9, 0.0]))


def outside_weight(inside, mu):
    """Largest weight off the marked vertices over convex decompositions of
    mu, from `min_weighted_value` with value -1 off them and 0 on them."""
    found = geometry.min_weighted_value(SQUARE, np.where(inside, 0.0, -1.0),
                                        mu, geometry.DEFAULT_TOL)
    return None if found is None else -found[0]


def test_outside_weight_on_face_is_zero():
    inside = np.array([False, False, True, True])  # first coordinate = 1
    out = outside_weight(inside, np.array([1.0, 0.3]))
    assert out == pytest.approx(0.0, abs=1e-8)


def test_outside_weight_interior_point():
    inside = np.array([False, False, True, True])
    out = outside_weight(inside, np.array([0.5, 0.5]))
    # weight on the first-coordinate-1 vertices must equal the coordinate
    assert out == pytest.approx(0.5, abs=1e-8)


def test_outside_weight_none_when_not_in_hull():
    inside = np.array([True, True, True, True])
    assert outside_weight(inside, np.array([2.0, 0.0])) is None


def test_min_weighted_value():
    values = SQUARE.sum(axis=1)  # 0, 1, 1, 2: affine, so constant mixtures
    out = geometry.min_weighted_value(SQUARE, values, np.array([0.5, 0.5]),
                                      geometry.DEFAULT_TOL)
    assert out is not None
    assert out[0] == pytest.approx(1.0, abs=1e-8)
    values = np.array([0.0, 1.0, 1.0, 0.0])
    out = geometry.min_weighted_value(SQUARE, values, np.array([0.5, 0.5]),
                                      geometry.DEFAULT_TOL)
    assert out[0] == pytest.approx(0.0, abs=1e-8)  # mix the two zero corners


def test_min_weighted_value_rejects_nonfinite():
    values = np.array([np.inf, 1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        geometry.min_weighted_value(SQUARE, values, np.array([0.5, 0.5]),
                                    geometry.DEFAULT_TOL)


def test_min_weighted_value_none_outside():
    values = SQUARE.sum(axis=1)
    assert geometry.min_weighted_value(SQUARE, values, np.array([1.5, 0.5]),
                                       geometry.DEFAULT_TOL) is None


def assert_stack_matches_single_points(points, values, stack):
    found, weights = geometry.min_weighted_value(points, values, stack,
                                                 geometry.DEFAULT_TOL)
    assert found.shape == (len(stack),)
    assert weights.shape == (len(stack), len(points))
    for mu, value, w in zip(stack, found, weights):
        alone = geometry.min_weighted_value(points, values, mu,
                                            geometry.DEFAULT_TOL)
        assert abs(value - alone[0]) <= 1e-12
        # each block's weights are its own convex decomposition of its row
        assert abs(w.sum() - 1.0) <= 1e-9
        assert np.max(np.abs(points.T @ w - mu)) <= 1e-7


def test_min_weighted_value_stack_matches_single_points():
    rng = np.random.default_rng(13)
    square_sum = (IndependentBinaryCost(square_market()), observe_sum)
    cube = IndependentBinaryCost(independent_binary_market(3))
    labellings = [Observation({w: int(rng.integers(3))
                               for w in cube.space.outcomes}).validate(
                                   cube.space) for _ in range(3)]
    switches = ([SwitchedCost(square_sum[0], square_sum[1](square_sum[0].space),
                              rng.uniform(-2, 2, 2)) for _ in range(50)]
                + [SwitchedCost(cube, obs, rng.uniform(-2, 2, 3))
                   for obs in labellings])
    for sw in switches:
        points, values, _ = sw._roof_samples
        # the probe set itself, as `violation` stacks it, and inner points
        inner = rng.dirichlet(np.ones(len(sw.space.payoff)), size=5)
        assert_stack_matches_single_points(
            points, values, np.vstack([points, inner @ sw.space.payoff]))


def test_large_stack_is_split_into_bounded_lps(monkeypatch):
    # independent_binary(5)/sum has 142 probe points, so `violation` stacks
    # 142 rows of 142 weights each; they go to HiGHS in LPs of a bounded
    # size, not as one dense program of 1,420 x 20,164
    m = IndependentBinaryCost(independent_binary_market(5))
    real, sizes = geometry.linprog, []

    def recording(c, **kwargs):
        # the roof's LPs; the overlap scan's membership LPs come from
        # `min_weighted_value` too, by way of `hull_contains`
        if sys._getframe(2).f_code.co_name == "_roof":
            sizes.append(kwargs["A_ub"].size)
        return real(c, **kwargs)

    monkeypatch.setattr(geometry, "linprog", recording)
    sw = SwitchedCost(m, observe_sum(m.space), np.linspace(-1.0, 1.0, 5))
    points, values, _ = sw._roof_samples
    n = len(points)
    v = sw.consistency
    worst, path = v.worst_violation, v.path
    assert n == 142 and path == "sampled"
    per_lp = isqrt(geometry._STACK_ENTRIES // (2 * 5 * n))
    assert len(sizes) == -(-n // per_lp) > 1
    assert max(sizes) <= geometry._STACK_ENTRIES
    # the split stack agrees with its rows' one-point LPs
    found, _ = geometry.min_weighted_value(points, values, points,
                                           sw.domain_tol)
    for j in range(0, n, 20):
        alone, _ = geometry.min_weighted_value(points, values, points[j],
                                               sw.domain_tol)
        assert abs(found[j] - alone) <= 1e-12
    assert worst == pytest.approx(float(np.max(values - found)), abs=1e-15)


def test_separating_direction_face():
    v = geometry.separating_direction(SQUARE[2:], SQUARE[:2], margin=1.0)
    assert v is not None
    vin = SQUARE[2:] @ v
    vout = SQUARE[:2] @ v
    assert np.ptp(vin) <= 1e-8
    assert vin.min() >= vout.max() + 1.0 - 1e-8


def test_separating_direction_infeasible_for_diagonal():
    diag = SQUARE[[0, 3]]
    off = SQUARE[[1, 2]]
    assert geometry.separating_direction(diag, off, margin=1.0) is None


def test_separating_direction_empty_outside():
    v = geometry.separating_direction(SQUARE, np.empty((0, 2)), margin=1.0)
    assert np.array_equal(v, np.zeros(2))


def test_hulls_intersect():
    diag_a = SQUARE[[0, 3]]
    diag_b = SQUARE[[1, 2]]
    assert geometry.hulls_intersect(diag_a, diag_b)  # cross at the center
    low = SQUARE[[0, 2]]  # second coordinate 0
    high = SQUARE[[1, 3]]  # second coordinate 1
    assert not geometry.hulls_intersect(low, high)


# moves far above the LPs' 1e-9 tolerance, so no answer sits on a knife edge
OFFSETS = (0.0, 1e-4, 1e-2, 1.0)


def test_hull_contains_matches_oracle():
    # random vertex sets with a convex combination (on a face when some of
    # its weights are 0), moved by an offset in a random direction
    rng = np.random.default_rng(5)
    answers = []
    for _ in range(200):
        k, n = int(rng.integers(2, 5)), int(rng.integers(1, 7))
        V = rng.normal(size=(n, k))
        w = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
        w[0] += w.sum() == 0.0
        mu = w / w.sum() @ V + rng.choice(OFFSETS) * rng.normal(size=k)
        answers.append(hull_member(V, mu))
        assert geometry.hull_contains(V, mu) == answers[-1]
    assert 0 < sum(answers) < len(answers)


def test_hulls_intersect_matches_oracle():
    # random pairs, some made to touch at a point of the first hull, then
    # the second moved by an offset in a random direction
    rng = np.random.default_rng(6)
    answers = []
    for _ in range(150):
        k = int(rng.integers(2, 5))
        A = rng.normal(size=(int(rng.integers(1, 6)), k))
        B = rng.normal(size=(int(rng.integers(1, 6)), k))
        if rng.random() < 0.3:
            B[0] = rng.dirichlet(np.ones(len(A))) @ A
        B += rng.choice(OFFSETS) * rng.normal(size=k)
        answers.append(hulls_meet(A, B))
        assert geometry.hulls_intersect(A, B) == answers[-1]
    assert 0 < sum(answers) < len(answers)


def highs_stop(status):
    return OptimizeResult(status=status, success=False, x=None,
                          message=f"status {status}")


@pytest.mark.parametrize("status", [1, 4], ids=["iteration limit",
                                                "numerical trouble"])
def test_a_highs_stop_raises(status):
    # only a proof of infeasibility reads as "outside" or "not exposed"
    with mock.patch.object(geometry, "linprog",
                           return_value=highs_stop(status)):
        with pytest.raises(RuntimeError):
            geometry.min_weighted_value(SQUARE, np.ones(4), SQUARE[0],
                                        geometry.DEFAULT_TOL)
        with pytest.raises(RuntimeError):
            geometry.hull_contains(SQUARE, np.array([0.5, 0.5]))
        with pytest.raises(RuntimeError):
            geometry.hulls_intersect(SQUARE[:2], SQUARE[2:])
        with pytest.raises(RuntimeError):
            geometry.separating_direction(SQUARE[2:], SQUARE[:2], margin=1.0)


def test_an_infeasible_lp_is_outside():
    with mock.patch.object(geometry, "linprog", return_value=highs_stop(2)):
        assert geometry.min_weighted_value(SQUARE, np.ones(4), SQUARE[0],
                                           geometry.DEFAULT_TOL) is None
        assert geometry.hull_contains(SQUARE, np.array([0.5, 0.5])) is False
        assert geometry.hulls_intersect(SQUARE[:2], SQUARE[2:]) is False
        assert geometry.separating_direction(SQUARE[2:], SQUARE[:2],
                                             margin=1.0) is None


def loop_separating_rows(P_out, k, margin):
    """The separating-direction inequality rows, one Python row at a time."""
    rows, rhs = [], []
    for p in P_out:
        rows.append(np.concatenate([p, [-1.0], np.zeros(k)]))
        rhs.append(-margin)
    for i in range(k):
        for sign in (1.0, -1.0):
            row = np.zeros(2 * k + 1)
            row[i] = sign
            row[k + 1 + i] = -1.0
            rows.append(row)
            rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def loop_roof_rows(P, values, mus, tol):
    """The stacked min-weighted-value LP, one Python row at a time: block j
    owns the weights j*n to j*n + n - 1, the rows of its point (P^T w_j at
    most mu_j + tol, then -P^T w_j at most -mu_j + tol) and one convexity
    row."""
    n, k = P.shape
    J = len(mus)
    ub, b_ub, eq = [], [], []
    for j in range(J):
        for sign in (1.0, -1.0):
            for i in range(k):
                row = np.zeros(J * n)
                row[j * n:(j + 1) * n] = sign * P[:, i]
                ub.append(row)
                b_ub.append(sign * mus[j][i] + tol)
        row = np.zeros(J * n)
        row[j * n:(j + 1) * n] = 1.0
        eq.append(row)
    return (np.array(ub), np.array(b_ub), np.array(eq),
            np.concatenate([values] * J))


@pytest.mark.parametrize("seed", range(4))
def test_lps_are_assembled_as_written_out(seed):
    # every LP these helpers send to HiGHS, against its rows written out
    rng = np.random.default_rng(seed)
    k = 2 + seed % 3
    A, B = rng.normal(size=(3, k)), rng.normal(size=(2, k))
    mu = rng.normal(size=k)
    values = rng.normal(size=3)
    stack = rng.dirichlet(np.ones(3), size=2 + seed) @ A
    real, sent = geometry.linprog, []

    def recording(*args, **kwargs):
        sent.append((args, kwargs))
        return real(*args, **kwargs)

    with mock.patch.object(geometry, "linprog", recording):
        geometry.separating_direction(A, B, margin=0.5)
        geometry.hull_contains(A, mu)
        geometry.hulls_intersect(A, B)
        geometry.min_weighted_value(A, values, stack[0], geometry.DEFAULT_TOL)
        geometry.min_weighted_value(A, values, stack, geometry.DEFAULT_TOL)
    # membership is the zero-valued one-point LP; overlap is membership of
    # 0 in the hull of the differences a_i - b_j
    diffs = np.array([a - b for a in A for b in B])
    tol = geometry.DEFAULT_TOL
    roofs = [loop_roof_rows(A, np.zeros(3), [mu], tol),
             loop_roof_rows(diffs, np.zeros(len(diffs)), [np.zeros(k)], tol),
             loop_roof_rows(A, values, stack[:1], tol),
             loop_roof_rows(A, values, stack, tol)]
    expected = [loop_separating_rows(B, k, 0.5)] + [r[:2] for r in roofs]
    assert len(sent) == 5  # no near miss at these random points
    for (_, kwargs), (a_ub, b_ub) in zip(sent, expected):
        assert np.array_equal(kwargs["A_ub"], a_ub)
        assert np.array_equal(kwargs["b_ub"], b_ub)
    # a single point is the one-block stack: one convexity row, objective
    # the values themselves
    for (args, kwargs), (_, _, a_eq, c) in zip(sent[1:], roofs):
        assert np.array_equal(args[0], c)
        assert np.array_equal(kwargs["A_eq"], a_eq)
        assert np.array_equal(kwargs["b_eq"], np.ones(len(a_eq)))


# ---------------------------------------------------------------------------
# Hull: closed-form faces against the LPs

# At HiGHS's default feasibility tolerance (1e-7) the LP may round a convex
# weight of 1e-8 to zero and so report a point 1e-8 inside a hull as 1e-8
# away from it. The reference runs the same LPs with tolerances below the
# 1e-8 offsets drawn here.
_exact_linprog = partial(geometry.linprog, options={
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10})


def lp_contains(vertices, mu):
    with mock.patch.object(geometry, "linprog", _exact_linprog):
        return geometry.hull_contains(vertices, mu)


def lp_intersect(a, b):
    with mock.patch.object(geometry, "linprog", _exact_linprog):
        return geometry.hulls_intersect(a, b)


def simplex_face(draw, n):
    space = simplex_market(n)
    event = draw(st.sets(st.sampled_from(space.outcomes), min_size=1))
    return space, tuple(sorted(event))


def cube_face(draw, n):
    """A sub-cube face: a random subset of coordinates pinned to random
    0/1 values, the rest free."""
    space = independent_binary_market(n)
    pins = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from((0, 1))))
    return space, tuple(w for w in space.outcomes
                        if all(w[i] == x for i, x in pins.items()))


@st.composite
def faces(draw):
    if draw(st.booleans()):
        return simplex_face(draw, draw(st.integers(1, 5)))
    return cube_face(draw, draw(st.integers(1, 4)))


@st.composite
def face_points(draw):
    """A face and a point at a vertex, on an edge or inside it, possibly
    moved 1e-10 or 1e-8 along one coordinate (off a facet where the point
    sits on one)."""
    space, event = draw(faces())
    V = space.vertices(event)
    where = draw(st.sampled_from(("vertex", "edge", "interior")))
    i = draw(st.integers(0, len(V) - 1))
    j = draw(st.integers(0, len(V) - 1))
    t = draw(st.floats(0.0, 1.0))
    if where == "vertex":
        mu = V[i].copy()
    elif where == "edge":
        mu = t * V[i] + (1.0 - t) * V[j]
    else:
        w = np.random.default_rng(draw(st.integers(0, 2**32 - 1))) \
            .dirichlet(np.ones(len(V)))
        mu = w @ V
    step = draw(st.sampled_from((0.0, 1e-10, -1e-10, 1e-8, -1e-8)))
    mu[draw(st.integers(0, space.dim - 1))] += step
    return space, event, mu


@settings(max_examples=300, deadline=None)
@given(face_points())
def test_hull_contains_matches_lp(case):
    space, event, mu = case
    hull = space.hull(event)
    assert hull.kind != "generic"
    assert hull.contains(mu) == lp_contains(hull.vertices, mu)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hull_intersects_matches_lp(data):
    space, a = data.draw(faces())
    draw_face = simplex_face if space.dim == space.n_outcomes else cube_face
    _, b = draw_face(data.draw, space.dim)
    ha, hb = space.hull(a), space.hull(b)
    want = lp_intersect(ha.vertices, hb.vertices)
    assert ha.intersects(hb) == hb.intersects(ha) == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hull_any_cube_event_matches_lp(data):
    # every nonempty event of a small cube, whatever its kind: singleton
    # corners against the unit-vector cells, generic cells, mixed pairs
    space = independent_binary_market(data.draw(st.integers(2, 3)))
    units = [w for w in space.outcomes if sum(w) == 1]
    events = st.one_of(st.sets(st.sampled_from(space.outcomes), min_size=1,
                               max_size=1),
                       st.sets(st.sampled_from(units), min_size=2),
                       st.sets(st.sampled_from(space.outcomes), min_size=1))
    ha = space.hull(tuple(sorted(data.draw(events))))
    hb = space.hull(tuple(sorted(data.draw(events))))
    assert ha.intersects(hb) == lp_intersect(ha.vertices, hb.vertices)
    w = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))) \
        .dirichlet(np.ones(len(hb.vertices)))
    mu = w @ hb.vertices
    mu[0] += data.draw(st.sampled_from((0.0, 1e-10, -1e-8)))
    assert ha.contains(mu) == lp_contains(ha.vertices, mu)


def test_hull_kinds():
    sq = square_market()
    assert sq.hull().kind == "box" and sq.hull().pinned == {}
    face = sq.hull(((1, 0), (1, 1)))
    assert face.kind == "box" and face.pinned == {0: 1.0}
    assert list(face.free) == [1]
    corner = sq.hull(((0, 1),))  # one unit vector outside a complete market
    assert corner.kind == "box" and corner.pinned == {0: 0.0, 1: 1.0}
    anti = sq.hull(((0, 1), (1, 0)))  # conv{e0, e1}
    assert anti.kind == "simplex" and anti.pinned == {}
    assert sq.hull(((0, 0), (1, 1))).kind == "generic"
    lm = simplex_market(3)
    one = lm.hull((2,))  # every event of a complete market is a simplex face
    assert one.kind == "simplex" and one.pinned == {0: 0.0, 1: 0.0}
    assert lm.hull((0, 2)).pinned == {1: 0.0}
    assert sq.hull(((1, 0), (1, 1))) is face  # built once per event
    counts = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    assert geometry.Hull(counts).kind == "generic"


@pytest.fixture
def lps(monkeypatch):
    """Counts the HiGHS calls made through the geometry module."""
    calls = []
    real = geometry.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "linprog", counted)
    return calls


@pytest.mark.parametrize("make", [
    lambda: (IndependentBinaryCost(square_market()),
             lambda sp: observe_coordinate(sp, 0)),
    lambda: (IndependentBinaryCost(square_market()), observe_sum),
    lambda: (LmsrCost(simplex_market(4)),
             lambda sp: observe_partition(sp, [[0, 1], [2, 3]])),
], ids=["square/coordinate", "square/sum", "lmsr(4)/partition"])
def test_face_cells_make_no_lp(make, lps):
    m, observe = make()
    plan = plan_switch(m, observe(m.space), np.array([0.3, -0.2, 0.1,
                                                      0.0])[:m.dim])
    lps.clear()
    # the membership and overlap questions of the switched cost and the
    # consistency check
    for mu in probe_points(m.space):
        plan._held(mu[None, :])
        for cell in plan.cell_models.values():
            cell.conjugate(mu)
    for a, b in combinations(plan.cell_models.values(), 2):
        a.hull.intersects(b.hull)
    corner = plan.state_with_price(m.space.payoff[0])
    assert np.all(np.isfinite(corner))
    assert lps == []


TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.2], [0.3, 1.0]])  # a generic hull


def test_a_vertex_query_on_a_generic_hull_makes_no_lp(lps):
    # a vertex within tol of mu is a feasible point of the membership LP
    for v in TRIANGLE:
        for step in (0.0, 1e-10, -1e-10):
            assert geometry.hull_contains(TRIANGLE, v + step)
    assert geometry.Hull(TRIANGLE).contains(TRIANGLE[1])
    assert lps == []
    # a point off every vertex still asks the LP, inside or outside
    assert geometry.hull_contains(TRIANGLE, TRIANGLE.mean(axis=0))
    assert not geometry.hull_contains(TRIANGLE, TRIANGLE[0] - 1e-8)
    assert len(lps) == 2
    # one vertex decides alone, either way
    assert not geometry.hull_contains(TRIANGLE[:1], TRIANGLE[0] - 1e-8)
    assert len(lps) == 2


def test_hulls_that_share_a_vertex_intersect_without_an_lp(lps):
    other = np.array([[1.0, 0.2], [2.0, 2.0], [3.0, 0.5]])
    assert geometry.hulls_intersect(TRIANGLE, other)
    assert geometry.hulls_intersect(other, TRIANGLE)
    assert geometry.Hull(TRIANGLE).intersects(geometry.Hull(other))
    assert lps == []


def test_worst_case_loss_of_a_medal_market_makes_no_lp(lps):
    # each payoff vertex is a vertex of its own space's hull
    m = medal_count_model(2)
    assert m.space.hull().kind == "generic"
    assert wc_loss_bound(m, np.zeros(m.dim)) > 0
    assert lps == []


def _stack_hulls():
    """Every box and simplex event of the square and of lmsr(4), a 3-cube
    face, and one generic hull (each of its rows is an LP)."""
    square, lm = square_market(), simplex_market(4)
    cube = independent_binary_market(3)
    for space in (square, lm):
        for k in range(1, space.n_outcomes + 1):
            for event in combinations(space.outcomes, k):
                if space.hull(event).kind != "generic":
                    yield space.hull(event)
    yield cube.hull(tuple(w for w in cube.outcomes if w[1] == 1))
    yield geometry.Hull(TRIANGLE)


@pytest.mark.parametrize("tol", [geometry.DEFAULT_TOL, 1e-6])
def test_stacked_membership_equals_the_point_form(tol):
    rng = np.random.default_rng(3)
    seen = {}
    for hull in _stack_hulls():
        V = hull.vertices
        base = np.vstack([V, rng.dirichlet(np.ones(len(V)), size=4) @ V,
                          rng.uniform(-0.2, 1.2, size=(4, V.shape[1]))])
        moved = [base]
        # steps around each multiple of tol that a k-coordinate face's
        # bounds allow (k <= 4 here)
        for step in tol * np.array([0.5, -0.5, 1.5, -1.5, 3.0, -3.0, 6.0,
                                    -6.0, 1e3, -1e3]):
            shifted = base.copy()
            shifted[np.arange(len(base)),
                    rng.integers(V.shape[1], size=len(base))] += step
            moved.append(shifted)
        stack = np.vstack(moved)
        got = hull.contains_rows(stack, tol)
        assert got.dtype == bool
        assert got.tolist() == [hull.contains(mu, tol) for mu in stack]
        seen.setdefault(hull.kind, set()).update(got.tolist())
    assert seen == dict.fromkeys(("box", "simplex", "generic"), {True, False})


def test_generic_cell_still_uses_lp(lps):
    m = IndependentBinaryCost(square_market())
    diagonals = observe_partition(
        m.space, [[(0, 0), (1, 1)], [(0, 1), (1, 0)]])
    plan = plan_switch(m, diagonals, np.zeros(2))
    assert plan.cell_models[0].hull.kind == "generic"
    lps.clear()
    plan.cell_models[0].conjugate(np.array([0.5, 0.5]))
    assert len(lps) == 1
    assert plan.cell_models[0].hull.intersects(plan.cell_models[1].hull)
    assert len(lps) == 2
