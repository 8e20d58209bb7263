import sys

import numpy as np
import pytest

from cfmarkets import (BlockSchedule, IndependentBinaryCost, LmsrCost,
                       NoiseTrader, OutcomeSpace, RestrictedCost, ScaledCost, Schedule,
                       SwitchedCost,
                       bundled_scenarios, check_desiderata, consistency_check,
                       excess_util, exposure_witness, geometry,
                       independent_binary_market,
                       load_scenario, medal_count_model, model_at, new_state,
                       observe_block_payoff, observe_coordinate,
                       observe_identity, observe_partition, observe_sum,
                       partial_decrease_audit, plan_switch, run_protocol1,
                       simplex_market, square_market, util_event)
from cfmarkets.costs import CONSISTENCY_TOL
from cfmarkets.switching import _cell_samples

from oracles import (product_lmsr_conjugate, square_count_violation,
                     switched_best_response)


def square():
    return IndependentBinaryCost(square_market())


def coord0(m):
    return observe_coordinate(m.space, 0)


# ---------------------------------------------------------------------------
# Switch construction


def test_plan_switch_offsets_at_origin():
    m = square()
    plan = plan_switch(m, coord0(m), np.zeros(2))
    # both cells forgo one binary market's worth of utility at the center
    assert plan.offsets[0.0] == pytest.approx(np.log(2), abs=1e-12)
    assert plan.offsets[1.0] == pytest.approx(np.log(2), abs=1e-12)
    assert plan.consistency.consistent


def test_offsets_equal_divergence_to_conditional_price():
    m = square()
    rng = np.random.default_rng(0)
    for _ in range(5):
        s = rng.uniform(-2, 2, 2)
        plan = plan_switch(m, coord0(m), s)
        # two routes to the same offset: cost gap and divergence to the
        # cell's conditional price
        assert plan.offsets[1.0] == pytest.approx(np.log1p(np.exp(-s[0])),
                                                  abs=1e-9)
        assert plan.offsets[0.0] == pytest.approx(np.log1p(np.exp(s[0])),
                                                  abs=1e-9)
        for x in (0.0, 1.0):
            d = m.divergence(plan.conditional_prices[x], s)
            assert plan.offsets[x] == pytest.approx(d, abs=1e-9)


def test_switched_cost_formula_and_anchoring():
    m = square()
    rng = np.random.default_rng(1)
    for _ in range(3):
        s = rng.uniform(-1.5, 1.5, 2)
        plan = plan_switch(m, coord0(m), s)
        sw = plan
        # the switched cost agrees with the original exactly at the switch state
        assert sw.cost(s) == pytest.approx(m.cost(s), abs=1e-12)
        for _ in range(5):
            q = rng.uniform(-3, 3, 2)
            expected = (max(0.0, q[0] - s[0]) + np.log1p(np.exp(s[0]))
                        + np.log1p(np.exp(q[1])))
            assert sw.cost(q) == pytest.approx(expected, abs=1e-9)
        # everywhere dominated from below by no cell's offset cost
        assert sw.cost(s) >= max(plan.offsets[x] + plan.cell_models[x].cost(s)
                                 for x in (0.0, 1.0)) - 1e-12


def test_switched_spread_at_switch_state():
    m = square()
    s = np.array([0.4, -1.1])
    plan = plan_switch(m, coord0(m), s)
    p = plan.price(s)
    assert p.lo[0] == pytest.approx(0.0, abs=1e-9)
    assert p.hi[0] == pytest.approx(1.0, abs=1e-9)
    sigma = 1 / (1 + np.exp(s[1]))
    assert p.lo[1] == pytest.approx(1 - sigma, abs=1e-9)
    assert p.hi[1] == pytest.approx(1 - sigma, abs=1e-9)
    # the spread covers every cell's conditional price
    for x, cp in plan.conditional_prices.items():
        assert np.all((p.lo - 1e-8 <= cp) & (cp <= p.hi + 1e-8))


def test_switched_conjugate_consistent_case():
    m = square()
    s = np.array([0.3, 0.9])
    plan = plan_switch(m, coord0(m), s)
    sw = plan
    rng = np.random.default_rng(2)
    for x in (0.0, 1.0):
        V = plan.cell_models[x].hull.vertices
        for _ in range(10):
            lam = rng.dirichlet(np.ones(V.shape[0]))
            mu = lam @ V
            # consistent switch: the roof agrees with the in-cell offset value
            assert sw.conjugate(mu) == pytest.approx(
                m.conjugate(mu) - plan.offsets[x], abs=1e-6)
    assert sw.conjugate(np.array([0.5, 0.5])) < np.inf  # between the cells
    assert sw.conjugate(np.array([1.2, 0.5])) == np.inf


def test_switched_preserves_excess_utility():
    m = square()
    s = np.array([0.2, -0.6])
    plan = plan_switch(m, coord0(m), s)
    cell = plan.cell_models[1.0].event
    rng = np.random.default_rng(3)
    for _ in range(5):
        t = rng.uniform(0.05, 0.95)
        mu = np.array([1.0, t])
        before = excess_util(m, mu, cell, s)
        after = excess_util(plan, mu, cell, s)
        assert after == pytest.approx(before, abs=1e-6)


def test_switched_zero_util_per_cell():
    m = square()
    s = np.array([1.3, -0.2])
    plan = plan_switch(m, coord0(m), s)
    for x in (0.0, 1.0):
        u = util_event(plan, plan.cell_models[x].event, s).value
        assert u == pytest.approx(0.0, abs=1e-8)


CONSISTENT_PLANS = {
    "square/coordinate": lambda: (square(), coord0, [0.3, -0.2]),
    "lmsr(4)/partition": lambda: (
        LmsrCost(simplex_market(4)),
        lambda m: observe_partition(m.space, [[0, 1], [2, 3]]),
        [0.3, -0.2, 0.1, 0.0]),
    "lmsr(3)/identity": lambda: (LmsrCost(simplex_market(3)),
                                 lambda m: observe_identity(m.space),
                                 [0.5, -0.4, 0.2]),
    "square/sum@diagonal": lambda: (square(), lambda m: observe_sum(m.space),
                                    [0.8, 0.8]),
}


def roof_lp(sw, mu):
    """The sampled convex-roof LP the switched cost keeps off the cells, in
    conjugate units: its samples are the divergences D(p || s) - b_x, which
    exceed R(p) - b_x by C(s) - s.p, so the shift is added back."""
    low = geometry.min_weighted_value(*sw._roof_samples[:2], mu,
                                      sw.domain_tol)[0]
    s = sw.switch_state
    return low + float(s @ mu) - sw.base.cost(s)


@pytest.mark.parametrize("name", sorted(CONSISTENT_PLANS))
def test_consistent_in_cell_conjugate_is_exact_and_below_roof_lp(name):
    m, observe, s = CONSISTENT_PLANS[name]()
    plan = plan_switch(m, observe(m), np.array(s))
    sw = plan
    assert plan.consistency.consistent
    rng = np.random.default_rng(11)
    for x, cell in plan.cell_models.items():
        V = cell.hull.vertices
        lam = rng.dirichlet(np.ones(V.shape[0]), size=50)
        for mu in lam @ V:
            value = sw.conjugate(mu)
            # the closed form is the in-cell offset conjugate to roundoff,
            # and the LP over exact samples never lies below it
            assert value == pytest.approx(m.conjugate(mu) - plan.offsets[x],
                                          abs=1e-12)
            assert value <= roof_lp(sw, mu) + 1e-8


@pytest.fixture
def roof_lps(monkeypatch):
    """Counts the HiGHS calls made from inside `min_weighted_value`."""
    calls = []
    real = geometry.linprog

    def counted(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "linprog", counted)
    return lambda: calls.count("min_weighted_value")


@pytest.mark.parametrize("name", sorted(CONSISTENT_PLANS))
def test_desiderata_audit_of_consistent_plan_runs_no_roof_lp(name, roof_lps):
    m, observe, s = CONSISTENT_PLANS[name]()
    obs = observe(m)
    plan = plan_switch(m, obs, np.array(s))
    exposed = all(w is not None
                  for w in exposure_witness(m.space, obs).values())
    if exposed:
        assert roof_lps() == 0  # exposure decides the check
    else:
        assert roof_lps() > 0  # the consistency check itself samples
    before = roof_lps()
    report = check_desiderata((m, plan.switch_state),
                              (plan, plan.switch_state), obs)
    assert all(report[name].passed
               for name in ("CONDPRICE", "ZEROUTIL", "DECUTIL", "EXUTIL"))
    assert roof_lps() == before
    if exposed:
        assert "_roof_samples" not in vars(plan)  # never built


def test_exposed_switch_is_consistent_at_large_states(roof_lps):
    m = square()
    v = consistency_check(m, coord0(m), np.array([120.0, 0.0]))
    assert v.consistent and v.worst_violation == 0.0
    m = LmsrCost(simplex_market(4))
    obs = observe_partition(m.space, [[0, 1], [2, 3]])
    v = consistency_check(m, obs, np.array([120.0, -120.0, 0.0, 120.0]))
    assert v.consistent and v.worst_violation == 0.0
    assert roof_lps() == 0


def test_plan_switch_solves_each_cell_once(monkeypatch):
    m = square()
    solved = []
    real = RestrictedCost._project

    def counted(self, q):
        solved.append(self.event)
        return real(self, q)

    monkeypatch.setattr(RestrictedCost, "_project", counted)
    plan = plan_switch(m, coord0(m), np.array([0.3, -0.2]))
    assert sorted(solved) == sorted(c.event
                                    for c in plan.cell_models.values())
    assert plan.consistency.switched is plan


def test_the_plan_is_the_switch_that_prices_every_later_trade():
    m = square()
    obs = coord0(m)
    plan = plan_switch(m, obs, np.array([0.3, -0.2]))
    assert isinstance(plan, SwitchedCost) and plan.consistency.switched is plan
    traders = [NoiseTrader("noise", [0.5, 1.0, 1.5, 2.5], 1.0)]
    ledger = run_protocol1(m, np.zeros(2), obs, traders, switch_time=1.0,
                           outcome=(1, 1), seed=3)
    later = [r for r in ledger.records if r.time >= 1.0]
    assert isinstance(ledger.plan, SwitchedCost) and len(later) == 3
    assert all(r.model is ledger.plan for r in later)
    assert all(r.model is m for r in ledger.records if r.time < 1.0)


def sampled_roof_violation(sw):
    """Worst undercut of a probe value by the sampled roof LP."""
    points, values, _ = sw._roof_samples
    s = sw.switch_state
    return max(v + float(s @ p) - sw.base.cost(s) - roof_lp(sw, p)
               for p, v in zip(points, values))


def test_exposure_verdict_agrees_with_sampled_roof_lp():
    checked = set()
    rng = np.random.default_rng(7)
    for path in bundled_scenarios().values():
        sc = load_scenario(path)
        obs = sc.observation
        if obs is None or not all(
                w is not None
                for w in exposure_witness(sc.model.space, obs).values()):
            continue
        for _ in range(20):
            s = rng.uniform(-3, 3, sc.model.dim)
            v = consistency_check(sc.model, obs, s)
            assert v.consistent and v.worst_violation == 0.0
            assert sampled_roof_violation(v.switched) <= 1e-7, (sc.name, s)
        checked.add(sc.name)
    assert len(checked) >= 4


def test_roof_lp_prices_off_cell_and_inconsistent_plans():
    m = square()
    # off the cells of a consistent plan the roof LP decides the value
    sw = plan_switch(m, coord0(m), np.array([0.3, 0.9]))
    mid = np.array([0.5, 0.5])
    assert not sw._held(mid[None, :]).any()
    assert sw.conjugate(mid) == roof_lp(sw, mid)
    # inside a cell of an inconsistent plan the roof undercuts the cell value
    plan = plan_switch(m, observe_sum(m.space), np.array([1.0, 0.0]))
    w = plan.consistency.witness
    assert not plan.consistency.consistent
    in_cell = m.conjugate(w["mu"]) - plan.offsets[w["realization"]]
    value = plan.conjugate(w["mu"])
    assert value == roof_lp(plan, w["mu"])
    assert value < in_cell - 0.05


def test_state_with_price_refuses_a_price_off_the_cells():
    m = square()
    sw = plan_switch(m, coord0(m), np.array([0.3, 0.9]))
    # between the faces x0 = 0 and x0 = 1: no cell holds it
    with pytest.raises(ValueError, match="not in any revelation cell"):
        sw.state_with_price(np.array([0.5, 0.5]))


@pytest.mark.parametrize("first", [0, 1])
def test_state_with_price_inverts_in_the_first_cell_that_holds_mu(
        first, monkeypatch):
    m = square()
    diagonals = [[(0, 0), (1, 1)], [(0, 1), (1, 0)]]
    groups = diagonals[first:] + diagonals[:first]
    sw = SwitchedCost(m, observe_partition(m.space, groups), np.zeros(2))
    asked = []
    monkeypatch.setattr(RestrictedCost, "state_with_price",
                        lambda self, mu: asked.append(self.event)
                        or np.zeros(2))
    # both diagonals pass through the centre
    sw.state_with_price(np.array([0.5, 0.5]))
    assert asked == [tuple(groups[0])]


@pytest.mark.parametrize("s, mu, profit", [
    ([0.0, 0.0], [0.2, 0.8], 0.385489514),
    ([1.0, 0.0], [0.2, 0.8], 0.747349121),
    ([1.0, 0.0], [0.7, 0.3], 0.026425364),
], ids=["consistent", "inconsistent-a", "inconsistent-b"])
def test_exact_best_response_earns_the_switched_divergence(s, mu, profit):
    m = square()
    s, mu = np.array(s), np.array(mu)
    sw = plan_switch(m, observe_sum(m.space), s)
    got, _ = switched_best_response(sw, mu, s)
    assert got == pytest.approx(sw.divergence(mu, s), abs=1e-8)
    assert got == pytest.approx(profit, abs=1e-9)


@pytest.mark.parametrize("s", [[0.0, 0.0], [1.0, 0.0]],
                         ids=["consistent", "inconsistent"])
def test_sampled_roof_is_never_below_the_exact_conjugate(s):
    m = square()
    s = np.array(s)
    sw = plan_switch(m, observe_sum(m.space), s)
    rng = np.random.default_rng(17)
    # beside random beliefs, two where the sampled roof is known to sit
    # strictly above the exact conjugate: in the sum cell and just off it
    mus = np.vstack([rng.uniform(0.05, 0.95, size=(8, 2)),
                     [[0.4, 0.6], [0.204, 0.79]]])
    for mu in mus:
        exact, _ = switched_best_response(sw, mu, s)  # D_sw from the cells
        assert sw.divergence(mu, s) >= exact - 1e-9, mu


def test_util_event_on_a_generic_cell_projects_with_the_base(monkeypatch):
    import cfmarkets.costs

    m = square()
    sw = SwitchedCost(m, observe_sum(m.space), np.array([1.0, 0.0]))
    assert not sw.consistency.consistent
    owners = []  # the model whose conjugate each Frank-Wolfe run reads
    real = cfmarkets.costs.project_onto_hull

    def recorded(vertices, conj, conj_grad, q):
        owners.append(conj.__self__)
        return real(vertices, conj, conj_grad, q)

    monkeypatch.setattr(cfmarkets.costs, "project_onto_hull", recorded)
    x, q = 1, np.array([0.4, -0.3])
    cell = sw.observation.cell(x)
    got = util_event(sw, cell, q)
    assert owners and not any(isinstance(o, SwitchedCost) for o in owners)
    base_cell = RestrictedCost(m, cell)
    assert np.array_equal(got.minimizer, base_cell.project(q).mu)
    assert RestrictedCost(sw, cell).cost(q) == (sw.offsets[x]
                                                + base_cell.cost(q))


@pytest.fixture
def roof_calls(monkeypatch):
    """Records the switched cost behind each `SwitchedCost._roof` call."""
    calls = []
    real = SwitchedCost._roof

    def counted(self, mu):
        calls.append(self)
        return real(self, mu)

    monkeypatch.setattr(SwitchedCost, "_roof", counted)
    return calls


def test_consistency_check_and_roof_conjugate_share_one_roof(roof_lps,
                                                             roof_calls):
    m = square()
    v = consistency_check(m, observe_sum(m.space), np.array([1.0, 0.0]))
    assert not v.consistent
    # every roof LP of the check is one `_roof` call
    assert len(roof_calls) == roof_lps() > 0
    sw = plan_switch(m, coord0(m), np.array([0.3, 0.9]))
    before = len(roof_calls)
    sw.conjugate(np.array([0.5, 0.5]))  # off the cells: the LP path
    assert roof_calls[before:] == [sw]
    assert len(roof_calls) == roof_lps()


@pytest.mark.parametrize("observe, s", [
    (coord0, [0.3, 0.9]), (lambda m: observe_sum(m.space), [1.0, 0.0])],
    ids=["consistent", "inconsistent"])
def test_stacked_conjugate_filters_rows_off_the_price_space(observe, s,
                                                            roof_lps):
    m = square()
    sw = SwitchedCost(m, observe(m), np.array(s))
    sw.consistency  # the check's own LPs, before counting
    stack = np.array([[0.5, 0.5], [1.5, 0.5], [0.0, 0.3], [0.2, 0.8],
                      [-0.1, 0.0], [1.0, 1.0]])
    before = roof_lps()
    out = sw._conjs(stack)
    # the two rows off the square read inf and do not sink the others,
    # which share one roof LP
    assert roof_lps() - before == 1
    off = np.isinf(out)
    assert off.tolist() == [False, True, False, False, True, False]
    assert np.array_equal(out, [sw.conjugate(mu) for mu in stack])


def loop_conjs(sw, mus):
    """The switched conjugate of a stack written out one row at a time:
    the cells that hold a row, R(mu) less their largest offset where the
    switch is consistent or they are all exposed, and otherwise the least
    in-cell value and the sampled roof, from one `_roof` call over every
    such row (so the roof LP is the one the stack sends)."""
    exposed = exposure_witness(sw.space, sw.observation)
    out, sampled = np.full(len(mus), np.inf), []
    for j, mu in enumerate(mus):
        cells = [x for x in sw.realizations
                 if sw.cell_models[x].hull.contains(mu, sw.domain_tol)]
        values = [sw.base._conj(mu) - sw.offsets[x] for x in cells]
        if cells and (sw.consistency.consistent
                      or all(exposed[x] is not None for x in cells)):
            out[j] = sw.base._conj(mu) - max(sw.offsets[x] for x in cells)
        elif cells or sw.space.hull().contains(mu, sw.domain_tol):
            sampled.append((j, values))
    if sampled:
        low = sw._roof(mus[[j for j, _ in sampled]])[0]
        for i, (j, values) in enumerate(sampled):
            roof = low[i] + float(sw.switch_state @ mus[j]) - sw._cost_at_switch
            out[j] = min(values + [roof])
    return out


@pytest.mark.parametrize("make, s", [
    (lambda: (square(), coord0), [0.3, 0.9]),
    (lambda: (square(), lambda m: observe_sum(m.space)), [1.0, 0.0]),
    (lambda: (LmsrCost(simplex_market(4)),
              lambda m: observe_partition(m.space, [[0, 1], [2, 3]])),
     [0.3, -0.2, 0.1, 0.0]),
    # cells that cross at the centre, where a row is held by both
    (lambda: (square(), lambda m: observe_partition(
        m.space, [[(0, 0), (1, 1)], [(0, 1), (1, 0)]])), [0.9, -0.4])],
    ids=["square/coordinate(0)", "square/sum", "lmsr(4)/partition",
         "square/diagonals"])
def test_stacked_conjugate_equals_the_row_conjugate(make, s):
    m, observe = make()
    sw = SwitchedCost(m, observe(m), np.array(s))
    rng = np.random.default_rng(4)
    # the audit's samples of every cell, points between the cells and at
    # the centre of the payoffs, points moved on and off the cells, and two
    # points off the price space
    samples = np.vstack([_cell_samples(m.space, sw.cell_models[x].event, 32,
                                       rng) for x in sw.realizations])
    between = np.vstack([
        rng.dirichlet(np.ones(m.space.n_outcomes), 10) @ m.space.payoff,
        m.space.payoff.mean(axis=0)])
    moved = samples[::3] + rng.choice([-1e-8, -1e-10, 1e-10, 1e-8],
                                      size=samples[::3].shape)
    off = m.space.payoff.max(axis=0) + [[1.0], [-2.0]]
    stack = np.vstack([samples, between, moved, off])
    out = sw._conjs(stack)
    assert np.array_equal(out, loop_conjs(sw, stack))
    # one price at a time equals the reference on that one row; a one-row
    # roof LP may differ from the stacked one in the last bit
    rows = np.array([sw.conjugate(mu) for mu in stack])
    assert np.array_equal(rows, [loop_conjs(sw, mu[None, :])[0]
                                 for mu in stack])
    assert np.array_equal(np.isinf(out), np.isinf(rows))
    assert np.allclose(out, rows, rtol=0.0, atol=1e-12)
    assert np.isinf(out).any() and np.isfinite(out).any()


def test_one_price_asks_each_cell_once(monkeypatch):
    m = square()
    sw = SwitchedCost(m, observe_partition(
        m.space, [[(0, 0), (1, 1)], [(0, 1), (1, 0)]]), np.array([0.9, -0.4]))
    sw.consistency  # the overlap verdict's own questions, before counting
    asked = []
    real = geometry.hull_contains
    monkeypatch.setattr(geometry, "hull_contains",
                        lambda *a, **k: asked.append(1) or real(*a, **k))
    mu = np.array([0.3, 0.3])  # on the generic diagonal cell, sampled
    value = sw.conjugate(mu)
    assert len(asked) == 1  # the anti-diagonal is a simplex: no LP
    assert value == loop_conjs(sw, mu[None, :])[0]


def test_stacked_conjugate_raises_when_the_roof_fails(monkeypatch):
    m = square()
    sw = SwitchedCost(m, observe_sum(m.space), np.array([1.0, 0.0]))
    monkeypatch.setattr(SwitchedCost, "_roof", lambda self, mus: None)
    # an off-space row alone needs no roof
    assert sw._conjs(np.array([[1.5, 0.5]]))[0] == np.inf
    with pytest.raises(RuntimeError, match="roof LP failed"):
        sw._conjs(np.array([[1.5, 0.5], [0.2, 0.8]]))
    with pytest.raises(RuntimeError, match="roof LP failed"):
        sw.conjugate(np.array([0.5, 0.5]))


def test_exposed_corners_of_an_inconsistent_switch_need_no_roof_lp(roof_lps):
    m = square()
    sw = SwitchedCost(m, observe_sum(m.space), np.array([1.0, 0.0]))
    assert not sw.consistency.consistent
    before = roof_lps()
    # the cells {(0, 0)} and {(1, 1)} are exposed: their roof is R - b_x
    for corner, x in (([0.0, 0.0], 0), ([1.0, 1.0], 2)):
        mu = np.array(corner)
        assert sw.conjugate(mu) == m.conjugate(mu) - sw.offsets[x]
    assert roof_lps() == before


def test_a_switch_decides_its_verdict_and_exact_cells_when_built(
        roof_lps, monkeypatch):
    m = square()
    sw = SwitchedCost(m, observe_sum(m.space), np.array([1.0, 0.0]))
    assert roof_lps() == 1  # the verdict's one roof LP
    assert sw._exact.tolist() == [True, False, True]
    assert not sw.consistency.consistent
    corners = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert sw._conjs(corners).tolist() == [
        m.conjugate(mu) - sw.offsets[x] for mu, x in zip(corners, (0, 2))]
    sw.conjugate(corners[1])
    assert roof_lps() == 1
    # every cell of a coordinate switch is exposed: no LP, no probe set
    lps, real = [], geometry.linprog
    monkeypatch.setattr(geometry, "linprog",
                        lambda *a, **kw: lps.append(a) or real(*a, **kw))
    sw = SwitchedCost(m, coord0(m), np.array([0.3, 0.9]))
    assert sw.consistency.path == "exposed" and sw._exact.all()
    assert lps == [] and "_roof_samples" not in vars(sw)


def test_sampled_roof_on_an_exposed_face_is_not_below_its_closed_form():
    space = independent_binary_market(3)
    m = IndependentBinaryCost(space)
    face = [w for w in space.outcomes if w[0] == 1]
    rest = [w for w in space.outcomes if w[0] == 0]
    # the face x0 = 1 is exposed; the sum labels of x0 = 0 are not all
    obs = observe_partition(space, [face] + [
        [w for w in rest if w[1] + w[2] == k] for k in range(3)])
    sw = SwitchedCost(m, obs, np.array([0.0, 1.0, 0.0]))
    assert sw.consistency.path == "sampled" and not sw.consistency
    x = obs.of(face[0])
    rng = np.random.default_rng(5)
    mus = np.column_stack([np.ones(100), rng.uniform(size=(100, 2))])
    low, _ = sw._roof(mus)
    roof = low + mus @ sw.switch_state - sw._cost_at_switch
    closed = np.array([m.conjugate(mu) for mu in mus]) - sw.offsets[x]
    assert np.min(roof - closed) >= -CONSISTENCY_TOL
    assert np.array_equal(sw._conjs(mus), closed)


def test_sampled_violation_is_one_roof_lp(roof_lps, roof_calls):
    m = square()
    sw = SwitchedCost(m, observe_sum(m.space), np.array([1.0, 0.0]))
    v = sw.consistency
    worst, witness, path = v.worst_violation, v.witness, v.path
    # every probe point of every cell in one stacked LP
    assert roof_lps() == 1 and roof_calls == [sw]
    assert path == "sampled" and not v.consistent
    assert worst == pytest.approx(sampled_roof_violation(sw), abs=1e-12)
    assert witness["value"] - witness["roof_value"] == worst


def test_impossible_count_audit_makes_one_roof_lp_per_cell(roof_lps,
                                                           monkeypatch):
    sc = load_scenario(bundled_scenarios()["square_count_impossible.scn"])
    plan = plan_switch(sc.model, sc.observation, sc.initial_state)
    assert plan.consistency.path == "sampled"
    assert not plan.consistency.consistent
    per_cell = []  # roof LPs of each stack the audit itself prices
    real = SwitchedCost._conjs

    def counted(self, mus):
        before = roof_lps()
        out = real(self, mus)
        if sys._getframe(1).f_code.co_name == "check_desiderata":
            per_cell.append(roof_lps() - before)
        return out

    monkeypatch.setattr(SwitchedCost, "_conjs", counted)
    check_desiderata((sc.model, plan.switch_state),
                     (plan, plan.switch_state), sc.observation,
                     tol=sc.tol, seed=sc.seed)
    assert len(per_cell) == len(sc.observation.realizations)
    assert max(per_cell) == 1


DIAGONALS = [[(0, 0), (1, 1)], [(0, 1), (1, 0)]]


@pytest.mark.parametrize("observe, path, verdicts", [
    (coord0, "exposed", (True, True)),
    (lambda m: observe_sum(m.space), "sampled", (True, False)),
    (lambda m: observe_partition(m.space, DIAGONALS), "overlap",
     (False, False)),
], ids=["square/coordinate(0)", "square/sum", "square/diagonals"])
def test_verdict_records_the_deciding_path(observe, path, verdicts):
    m = square()
    for s, consistent in zip(([0.0, 0.0], [1.0, 0.0]), verdicts):
        v = consistency_check(m, observe(m), np.array(s))
        assert (v.path, v.consistent) == (path, consistent)
        assert v.switched.consistency.path == path


def test_switched_price_solves_each_cell_once(monkeypatch):
    m = square()
    sw = plan_switch(m, coord0(m), np.array([0.4, -1.1]))
    solved = []
    real = RestrictedCost._project  # the cells' solve on a checked q

    def counted(self, q):
        solved.append(self.event)
        return real(self, q)

    monkeypatch.setattr(RestrictedCost, "_project", counted)
    cells = sorted(c.event for c in sw.cell_models.values())
    # a tie at the switch state, then a single winning cell on each side
    for q in (sw.switch_state, [2.0, 0.3], [-1.0, 0.5]):
        solved.clear()
        sw.price(q)
        assert sorted(solved) == cells


def test_negative_switch_offset_is_a_value_error(monkeypatch):
    m = square()
    obs = coord0(m)
    s = np.array([0.3, -0.2])
    real = RestrictedCost._project

    def inflated(self, q):
        # one cell's cost above C(s) gives that cell a negative offset
        res = real(self, q)
        if self.event == obs.cell(1.0):
            res.value -= 1.0  # the value is -C_x(q)
        return res

    monkeypatch.setattr(RestrictedCost, "_project", inflated)
    with pytest.raises(ValueError, match="negative switch offset for 1.0"):
        SwitchedCost(m, obs, s)
    with pytest.raises(ValueError, match="negative switch offset for 1.0"):
        plan_switch(m, obs, s)


def test_desiderata_switched_cost_calls_do_not_grow_with_samples(
        monkeypatch):
    m = square()
    obs = coord0(m)
    s = np.array([0.5, 0.4])
    sw = plan_switch(m, obs, s)
    calls = []
    real = SwitchedCost.cost

    def counted(self, q):
        calls.append(1)
        return real(self, q)

    monkeypatch.setattr(SwitchedCost, "cost", counted)
    counts = []
    for n_random in (8, 64):
        calls.clear()
        check_desiderata((m, s), (sw, s), obs, n_random=n_random)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def divergence_exutil(old, new, obs, n_random=32, seed=0):
    """Reference EXUTIL: the spread of D_old(mu||s_old) - D_new(mu||s_new)
    over the audit's own samples of each cell."""
    (m_old, s_old), (m_new, s_new) = old, new
    rng = np.random.default_rng(seed)
    worst = 0.0
    for x in obs.realizations:
        diffs = [m_old.divergence(mu, s_old) - m_new.divergence(mu, s_new)
                 for mu in _cell_samples(m_old.space, obs.cell(x), n_random,
                                         rng)]
        diffs = [d for d in diffs if np.isfinite(d)]
        if diffs:
            worst = max(worst, max(diffs) - min(diffs))
    return worst


def test_exutil_matches_divergence_reference_on_bundled_plans():
    checked = 0
    for path in bundled_scenarios().values():
        sc = load_scenario(path)
        if sc.protocol != "sudden":
            continue
        ledger = run_protocol1(sc.model, sc.initial_state, sc.observation,
                               sc.traders, sc.switch_time, sc.settlement,
                               seed=sc.seed, allow_inconsistent=True)
        old = (sc.model, ledger.plan.switch_state)
        new = (ledger.plan, ledger.plan.switch_state)
        report = check_desiderata(old, new, sc.observation, tol=sc.tol,
                                  seed=sc.seed)
        assert report["EXUTIL"].worst == pytest.approx(
            divergence_exutil(old, new, sc.observation, seed=sc.seed),
            abs=1e-12), sc.name
        checked += 1
    assert checked >= 6


def test_exutil_matches_divergence_reference_on_partial_decrease():
    m = medal_count_model(2)
    per_block = [BlockSchedule() for _ in m.blocks]
    per_block[1] = BlockSchedule("exponential", rate=0.4)
    sched = Schedule(tuple(per_block), 0.0)
    q = np.array([0.2, -0.5, 0.1, 0.4, -0.2])
    audit = partial_decrease_audit(m, sched, 1, q, 0.5, 1.5)
    ts = new_state(m, sched, q, 0.5, 1.5)
    obs = observe_block_payoff(m.space, m.blocks[1])
    expected = divergence_exutil((model_at(m, sched, 0.5), q),
                                 (model_at(m, sched, 1.5), ts.q), obs)
    assert audit.report["EXUTIL"].worst == pytest.approx(expected,
                                                             abs=1e-12)


# ---------------------------------------------------------------------------
# Consistency


def test_consistency_check_coordinate_always_consistent():
    m = square()
    rng = np.random.default_rng(4)
    for _ in range(5):
        s = rng.uniform(-2, 2, 2)
        v = consistency_check(m, coord0(m), s)
        assert v.consistent
        assert v.worst_violation <= 1e-7


def test_consistency_check_count_observation_fails_off_diagonal():
    m = square()
    v = consistency_check(m, observe_sum(m.space), np.array([1.0, 0.0]))
    assert not v.consistent
    assert v.worst_violation == pytest.approx(
        square_count_violation(np.array([1.0, 0.0])), abs=1e-6)
    assert v.witness is not None
    assert np.allclose(v.witness["mu"], [0.5, 0.5], atol=1e-9)


def test_consistency_check_count_observation_passes_on_diagonal():
    m = square()
    for c in (0.0, 0.8, -1.3):
        v = consistency_check(m, observe_sum(m.space), np.array([c, c]))
        assert v.consistent, v.worst_violation


def test_count_violation_matches_the_oracle_to_roundoff():
    m = square()
    v = consistency_check(m, observe_sum(m.space), np.array([1.0, 0.0]))
    assert abs(v.worst_violation - square_count_violation([1.0, 0.0])) <= 1e-10


@pytest.mark.parametrize("c", [0.8, 10.0, 100.0, 1000.0])
def test_count_switch_on_the_diagonal_is_consistent_at_any_scale(c):
    # the roof LP's slack does not grow with the state
    m = square()
    v = consistency_check(m, observe_sum(m.space), np.array([c, c]))
    assert v.consistent and v.worst_violation <= 1e-8


def test_consistency_check_overlapping_cells():
    m = square()
    obs = observe_partition(m.space, [[(0, 0), (1, 1)], [(0, 1), (1, 0)]])
    v = consistency_check(m, obs, np.zeros(2))
    assert not v.consistent
    assert "overlap" in v.witness


# a 5-cube sum switch whose sampled roof hides a real undercut: no probe of
# cell 3 lies at (0, .75, .75, .75, .75)
CUBE5_STATE = [1.6691908191636107, -1.8416284933431886, 0.11435705304008659,
               -0.1626564684583851, -1.7506016834004976]


def cube5_sum_switch():
    m = IndependentBinaryCost(independent_binary_market(5))
    return SwitchedCost(m, observe_sum(m.space), CUBE5_STATE)


def test_a_two_cell_mixture_undercuts_the_5_cube_sum_switch():
    sw = cube5_sum_switch()
    b = sw.offsets
    mu = np.array([0.0, 0.5, 0.5, 0.5, 0.5])
    low, high = np.zeros(5), np.array([0.0, 0.75, 0.75, 0.75, 0.75])
    assert np.array_equal(low / 3 + 2 * high / 3, mu)
    # R(mu) - b_2 against the mixture of R - b_0 at `low` and R - b_3 at
    # `high`, with weights 1/3 and 2/3: the roof lies at or below the mixture
    in_cell = product_lmsr_conjugate(mu, 0.0) - b[2.0]
    mixture = ((product_lmsr_conjugate(low, 0.0) - b[0.0]) / 3
               + 2 * (product_lmsr_conjugate(high, 0.0) - b[3.0]) / 3)
    assert in_cell - mixture >= 0.18


@pytest.mark.xfail(strict=True, reason="the sampled roof misses the 0.18 "
                   "undercut of the two-cell mixture (ROADMAP item 1)")
def test_the_5_cube_sum_switch_is_inconsistent():
    assert not cube5_sum_switch().consistency.consistent


# ---------------------------------------------------------------------------
# Exposure: the state-independent sufficient condition


def test_feasibility_coordinate_guaranteed():
    m = square()
    witnesses = exposure_witness(m.space, coord0(m))
    assert all(w is not None for w in witnesses.values())


def test_feasibility_count_unknown():
    m = square()
    witnesses = exposure_witness(m.space, observe_sum(m.space))
    assert witnesses[1.0] is None


def test_feasibility_simplex_partition_guaranteed():
    sp = simplex_market(4)
    witnesses = exposure_witness(sp, observe_partition(sp, [[0, 1], [2, 3]]))
    assert all(w is not None for w in witnesses.values())


# ---------------------------------------------------------------------------
# Desiderata audit


def test_desiderata_identity_update_preserves_prices():
    m = square()
    s = np.array([0.3, -0.7])
    report = check_desiderata((m, s), (m, s), coord0(m))
    assert report["EXUTIL"].worst == pytest.approx(0.0, abs=1e-12)
    assert report["PRICE"].passed
    assert report["CONDPRICE"].passed
    # utility is unchanged, so the strict-decrease requirement fails where
    # the cells still carry positive utility
    assert not report["DECUTIL"].passed
    assert not report["ZEROUTIL"].passed


def test_desiderata_switch_passes_with_informational_price():
    m = square()
    s = np.array([0.5, 0.4])
    plan = plan_switch(m, coord0(m), s)
    report = check_desiderata((m, s), (plan, s), coord0(m))
    assert all(report[name].passed
               for name in ("CONDPRICE", "ZEROUTIL", "DECUTIL", "EXUTIL"))
    # the switch opens a spread on the revealed coordinate, so the raw
    # price-set comparison fails, and callers do not gate on it
    assert not report["PRICE"].passed
    assert report["ZEROUTIL"].worst <= 1e-8
    assert report["CONDPRICE"].worst <= 1e-7
    assert report["EXUTIL"].worst <= 1e-6


def test_desiderata_liquidity_scale_on_identity_observation():
    m = LmsrCost(simplex_market(3))
    q = np.array([0.8, -0.3, 0.1])
    a = 0.6
    scaled = ScaledCost(m, a)
    obs = observe_identity(m.space)
    report = check_desiderata((m, q), (scaled, a * q), obs)
    assert report["PRICE"].passed
    assert report["CONDPRICE"].passed
    assert report["DECUTIL"].passed  # utilities shrink by the multiplier
    assert report["EXUTIL"].passed  # single-outcome cells: no spread
    assert not report["ZEROUTIL"].passed  # scaling does not zero utility
    for x in obs.realizations:
        d = report["DECUTIL"].details[x]
        assert d["util_new"] == pytest.approx(a * d["util_old"], abs=1e-9)


def test_desiderata_rejects_mismatched_spaces():
    m = square()
    other = LmsrCost(simplex_market(3))
    with pytest.raises(ValueError):
        check_desiderata((m, np.zeros(2)), (other, np.zeros(3)),
                         coord0(m))


def test_desiderata_rejects_a_mirrored_price_space():
    # same outcomes, payoffs 1 - payoff: a different price space
    m = square()
    mirror = OutcomeSpace(m.space.outcomes, 1.0 - m.space.payoff)
    other = IndependentBinaryCost(mirror)
    with pytest.raises(ValueError, match="models must share an outcome space"):
        check_desiderata((m, np.zeros(2)), (other, np.zeros(2)), coord0(m))
    equal = IndependentBinaryCost(OutcomeSpace(m.space.outcomes,
                                               m.space.payoff))
    report = check_desiderata((m, np.zeros(2)), (equal, np.zeros(2)),
                              coord0(m))
    # an equal space built anew is the same space: the same prices
    assert report["PRICE"].passed and report["CONDPRICE"].passed
