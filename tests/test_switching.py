import dataclasses
import re
import sys

import numpy as np
import pytest

from cfmarkets import (BeliefTrader, BlockSchedule, IndependentBinaryCost,
                       LmsrCost,
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
                     sum_switch_violation, switched_best_response)


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
    """Counts the HiGHS calls made from inside `min_weighted_value`; given a
    name, only those whose `min_weighted_value` that function called."""
    calls = []
    real = geometry.linprog

    def counted(*args, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name,
                      sys._getframe(2).f_code.co_name))
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "linprog", counted)
    return lambda caller=None: sum(
        1 for lp, by in calls
        if lp == "min_weighted_value" and caller in (None, by))


@pytest.mark.parametrize("name", sorted(CONSISTENT_PLANS))
def test_desiderata_audit_of_consistent_plan_runs_no_roof_lp(name, roof_lps):
    m, observe, s = CONSISTENT_PLANS[name]()
    obs = observe(m)
    plan = plan_switch(m, obs, np.array(s))
    # exposure decides the check, or on square/sum the closed-form sum test
    assert roof_lps() == 0
    report = check_desiderata((m, plan.switch_state),
                              (plan, plan.switch_state), obs)
    assert all(report[name].passed
               for name in ("CONDPRICE", "ZEROUTIL", "DECUTIL", "EXUTIL"))
    assert roof_lps() == 0
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


def face_and_sum_levels():
    """independent_binary(3) split into the face x0 = 1 and the sum levels
    of x0 = 0: no linear statistic has these cells as its level sets, so
    the verdict takes the sampled path."""
    space = independent_binary_market(3)
    face = [w for w in space.outcomes if w[0] == 1]
    rest = [w for w in space.outcomes if w[0] == 0]
    return IndependentBinaryCost(space), observe_partition(space, [face] + [
        [w for w in rest if w[1] + w[2] == k] for k in range(3)])


FACE_AND_SUM_INCONSISTENT = [0.0, 1.0, 0.0]


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
def test_state_with_price_inverts_in_the_first_cell_that_holds_mu(first):
    m = square()
    diagonals = [[(0, 0), (1, 1)], [(0, 1), (1, 0)]]
    groups = diagonals[first:] + diagonals[:first]
    sw = SwitchedCost(m, observe_partition(m.space, groups), np.zeros(2))
    # both diagonals pass through the centre; neither is exposed nor a
    # level set, so the rule stops at the first, and names it
    with pytest.raises(NotImplementedError, match=re.escape(
            f"mu = [0.5, 0.5] in cell {tuple(groups[0])!r}: the cell is "
            "neither exposed nor a level set")):
        sw.state_with_price(np.array([0.5, 0.5]))


@pytest.mark.parametrize("s, mu, profit", [
    ([0.0, 0.0], [0.2, 0.8], 0.385489514),
    ([1.0, 0.0], [0.2, 0.8], 0.747349121),
    ([1.0, 0.0], [0.7, 0.3], 0.026425364),
    ([1.0, 0.0], [1.0, 0.0], 0.948153968),
], ids=["consistent", "inconsistent-a", "inconsistent-b", "inconsistent-c"])
def test_exact_best_response_earns_the_switched_divergence(s, mu, profit):
    m = square()
    s, mu = np.array(s), np.array(mu)
    sw = plan_switch(m, observe_sum(m.space), s)
    got, _ = switched_best_response(sw, mu, s)
    assert got == pytest.approx(sw.divergence(mu, s), abs=1e-8)
    assert got == pytest.approx(profit, abs=1e-9)
    # the belief trader's one trade takes the same
    r = BeliefTrader("b", [1.5], mu).bundle(sw, s, 1.5,
                                            np.random.default_rng(0))
    assert float(mu @ r) - sw.trade_cost(s, r) == pytest.approx(got,
                                                                abs=1e-8)


def named_state_earns_the_divergence(sw, mu, s):
    """Assert that the state `sw.state_with_price(mu)` names is priced at
    mu and that the trade to it from s earns D_sw(mu || s) within 1e-9."""
    q = sw.state_with_price(mu)
    p = sw.price(q)
    assert np.all(p.lo - 1e-9 <= mu) and np.all(mu <= p.hi + 1e-9), (s, mu)
    profit = float(mu @ (q - s)) - sw.trade_cost(s, q - s)
    assert profit == pytest.approx(sw.divergence(mu, s), abs=1e-9), (s, mu)


def test_a_middle_cell_belief_of_a_consistent_square_sum_switch_has_a_state():
    # the square/sum switch is consistent on the diagonal s1 = s2
    m = square()
    obs = observe_sum(m.space)
    rng = np.random.default_rng(41)
    for _ in range(100):
        s = np.full(2, rng.uniform(-3.0, 3.0))
        sw = plan_switch(m, obs, s)
        assert sw.consistency.consistent
        u = rng.uniform()
        named_state_earns_the_divergence(sw, np.array([u, 1.0 - u]), s)


def test_every_state_named_on_a_consistent_3_cube_sum_switch_earns_d_sw():
    # states on the diagonal s = c 1, where a sum switch is consistent; 200
    # normal states off it at this seed read inconsistent
    m = IndependentBinaryCost(independent_binary_market(3))
    obs = observe_sum(m.space)
    rng = np.random.default_rng(43)
    for _ in range(100):
        s = np.full(3, rng.normal(0.0, 1.5))
        sw = plan_switch(m, obs, s)
        assert sw.consistency.consistent
        x = sw.realizations[rng.integers(len(sw.realizations))]
        mu = rng.dirichlet(np.ones(len(obs.cell(x)))) @ m.space.vertices(
            obs.cell(x))
        named_state_earns_the_divergence(sw, mu, s)


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

    # the level sets of x0 - x1: the main diagonal has no closed form
    m = square()
    obs = observe_partition(m.space, [[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]])
    sw = SwitchedCost(m, obs, np.array([0.0, -1.0]))
    assert not sw.consistency.consistent
    owners = []  # the model whose conjugate each Frank-Wolfe run reads
    real = cfmarkets.costs.project_onto_hull

    def recorded(vertices, conj, conj_grad, q):
        owners.append(conj.__self__)
        return real(vertices, conj, conj_grad, q)

    monkeypatch.setattr(cfmarkets.costs, "project_onto_hull", recorded)
    x, q = 0, np.array([0.4, -0.3])
    cell = sw.observation.cell(x)
    got = util_event(sw, cell, q)
    assert owners and not any(isinstance(o, SwitchedCost) for o in owners)
    base_cell = RestrictedCost(m, cell)
    assert np.array_equal(got.minimizer, base_cell.project(q).mu)
    assert RestrictedCost(sw, cell).cost(q) == (sw.offsets[x]
                                                + base_cell.cost(q))


def test_a_cell_unconverged_at_the_switch_state_raises(monkeypatch):
    import cfmarkets.costs

    # the main diagonal projects by Frank-Wolfe, here made to stop short
    real = cfmarkets.costs.project_onto_hull
    monkeypatch.setattr(
        cfmarkets.costs, "project_onto_hull",
        lambda *args: dataclasses.replace(real(*args), converged=False))
    m = square()
    obs = observe_partition(m.space, [[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]])
    with pytest.raises(RuntimeError, match="cell of 0 did not converge"):
        SwitchedCost(m, obs, np.array([0.0, -1.0]))
    # cells in closed form never reach it
    SwitchedCost(m, observe_sum(m.space), np.array([0.0, -1.0]))


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
    m, obs = face_and_sum_levels()
    v = consistency_check(m, obs, np.array(FACE_AND_SUM_INCONSISTENT))
    assert not v.consistent and v.path == "sampled"
    # every roof LP of the check is one `_roof` call; the others are the
    # overlap scan's membership LPs
    assert len(roof_calls) == roof_lps("_roof") == 1
    assert roof_lps() == roof_lps("_roof") + roof_lps("hull_contains")
    m = square()
    sw = plan_switch(m, coord0(m), np.array([0.3, 0.9]))
    before, lps, roofs = len(roof_calls), roof_lps(), roof_lps("_roof")
    sw.conjugate(np.array([0.5, 0.5]))  # off the cells: the LP path
    assert roof_calls[before:] == [sw]
    assert roof_lps() - lps == roof_lps("_roof") - roofs == 1


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


def closed_forms(sw, mus):
    """R(mu) less the largest offset of the cells that hold each row of a
    stack, inf where none does, and whether that value stands without a
    roof LP: the switch is consistent or those cells are all exposed
    ("exact"), or else the switch's certificate, asked of that row alone,
    holds ("certified"); None otherwise."""
    exposed = exposure_witness(sw.space, sw.observation)
    out = []
    for mu in mus:
        cells = [x for x in sw.realizations
                 if sw.cell_models[x].hull.contains(mu, sw.domain_tol)]
        if not cells:
            out.append((np.inf, None))
            continue
        closed = sw.base._conj(mu) - max(sw.offsets[x] for x in cells)
        if (sw.consistency.consistent
                or all(exposed[x] is not None for x in cells)):
            out.append((closed, "exact"))
        elif sw._certified(mu, np.array([x in cells for x in
                                         sw.realizations]), closed):
            out.append((closed, "certified"))
        else:
            out.append((closed, None))
    return out


def loop_conjs(sw, mus, certify=True):
    """The switched conjugate of a stack written out one row at a time:
    the closed form where it is exact, or where `certify` and it is
    certified (`closed_forms`); otherwise the least in-cell value and the
    sampled roof, from one `_roof` call over every such row (so the roof
    LP is the one the stack sends)."""
    out, sampled = np.full(len(mus), np.inf), []
    for j, (mu, (closed, why)) in enumerate(zip(mus, closed_forms(sw, mus))):
        if why == "exact" or (certify and why == "certified"):
            out[j] = closed
        elif np.isfinite(closed) or sw.space.hull().contains(mu,
                                                             sw.domain_tol):
            sampled.append((j, closed))
    if sampled:
        low = sw._roof(mus[[j for j, _ in sampled]])[0]
        for i, (j, closed) in enumerate(sampled):
            roof = low[i] + float(sw.switch_state @ mus[j]) - sw._cost_at_switch
            out[j] = min(closed, roof)
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
    # a certified row reads R(mu) - max b, which the roof LP over exact
    # samples can only undershoot, by HiGHS's tolerance; every other row is
    # the reference that certifies nothing, bit for bit
    closed, why = zip(*closed_forms(sw, stack))
    certified = np.array(why) == "certified"
    uncertified = loop_conjs(sw, stack, certify=False)
    assert np.array_equal(out[certified], np.array(closed)[certified])
    up = out[certified] - uncertified[certified]
    assert (up >= 0.0).all() and up.max(initial=0.0) <= 4e-9
    assert np.array_equal(out[~certified], uncertified[~certified])
    # only the inconsistent sum switch has rows to certify, and it keeps
    # in-cell rows for the roof too: those about the undercut at (1/2, 1/2)
    if sw.consistency.path == "sum":
        left = np.isfinite(closed) & ~np.isin(why, ("exact", "certified"))
        assert certified.any() and left.any()
    else:
        assert not certified.any()
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
    # an off-space row needs no roof, nor does a row the certificate
    # settles; (0.4, 0.6), near the undercut at (1/2, 1/2), does
    assert sw._conjs(np.array([[1.5, 0.5]]))[0] == np.inf
    assert np.isfinite(sw._conjs(np.array([[1.5, 0.5], [0.2, 0.8]]))[1])
    with pytest.raises(RuntimeError, match="roof LP failed"):
        sw._conjs(np.array([[1.5, 0.5], [0.4, 0.6]]))
    with pytest.raises(RuntimeError, match="roof LP failed"):
        sw.conjugate(np.array([0.5, 0.5]))


def weighted_levels(space, weights):
    """The level sets of weights.x on the cube, as an observation."""
    levels = {}
    for w in space.outcomes:
        levels.setdefault(float(np.dot(weights, w)), []).append(w)
    return observe_partition(space, [levels[v] for v in sorted(levels)])


CERTIFIED_SWITCHES = {
    "square/sum": lambda: (square(), observe_sum, [1.0, 0.0]),
    "3-cube/sum": lambda: (
        IndependentBinaryCost(independent_binary_market(3)), observe_sum,
        [1.0, -1.0, 0.0]),
    "3-cube/x0+x1+2x2": lambda: (
        IndependentBinaryCost(independent_binary_market(3)),
        lambda space: weighted_levels(space, (1, 1, 2)), [1.0, 0.0, -1.0]),
}


def certify(sw, mu):
    """(whether the switch certifies mu's closed form, that form)."""
    holds = sw._held(mu[None, :])[:, 0]
    closed = sw.base._conj(mu) - sw._b[holds].max()
    return sw._certified(mu, holds, closed), closed


@pytest.mark.parametrize("name", sorted(CERTIFIED_SWITCHES))
def test_a_certified_row_is_the_exact_roof(name):
    m, observe, s = CERTIFIED_SWITCHES[name]()
    s = np.array(s)
    sw = SwitchedCost(m, observe(m.space), s)
    assert not sw.consistency
    inexact = [x for x, e in zip(sw.realizations, sw._exact) if not e]
    rng = np.random.default_rng(5)
    certified = 0
    for i in range(50):
        V = sw.cell_models[inexact[i % len(inexact)]].hull.vertices
        mu = rng.dirichlet(np.ones(len(V))) @ V
        ok, closed = certify(sw, mu)
        if ok:
            certified += 1
            # the SLSQP best response earns D_sw(mu || s), which is
            # R_sw(mu) + C_sw(s) - mu.s
            profit, _ = switched_best_response(sw, mu, s)
            assert profit - sw.cost(s) + float(mu @ s) == pytest.approx(
                closed, abs=1e-8)
            assert sw.conjugate(mu) == closed
    assert certified >= 10


@pytest.mark.parametrize("name, mu", [
    ("square/sum", [0.5, 0.5]), ("3-cube/sum", [1 / 3, 1 / 3, 1 / 3])])
def test_the_certificate_refuses_an_undercut_point(name, mu):
    m, observe, s = CERTIFIED_SWITCHES[name]()
    sw = SwitchedCost(m, observe(m.space), np.array(s))
    mu = np.array(mu)
    ok, closed = certify(sw, mu)
    assert not ok
    assert sw.conjugate(mu) < closed - CONSISTENCY_TOL  # the roof LP's


def test_in_cell_points_away_from_the_undercut_make_no_roof_lp(roof_lps):
    m = square()
    sw = SwitchedCost(m, observe_sum(m.space), np.array([1.0, 0.0]))
    mus = np.array([[1.0, 0.0], [0.9, 0.1], [0.7, 0.3], [0.2, 0.8],
                    [0.1, 0.9], [0.0, 1.0]])
    closed = [m.conjugate(mu) - sw.offsets[1.0] for mu in mus]
    assert [sw.conjugate(mu) for mu in mus] == closed
    assert sw._conjs(mus).tolist() == closed
    assert sw.divergence(mus[1], np.zeros(2)) > 0.0
    assert roof_lps() == 0


def test_the_conjugate_at_a_corner_of_an_undercut_cell_is_exact():
    # the roof LP read -0.0582549016 here, 1.9e-9 below the exact value
    m = square()
    sw = SwitchedCost(m, observe_sum(m.space), np.array([1.0, 0.0]))
    value = sw.conjugate(np.array([1.0, 0.0]))
    assert value == m.conjugate(np.array([1.0, 0.0])) - sw.offsets[1.0]
    assert value == pytest.approx(-0.0582548997, abs=1e-10)


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
    assert roof_lps() == 0  # the sum verdict makes no LP
    assert sw._exact.tolist() == [True, False, True]
    assert not sw.consistency.consistent
    corners = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert sw._conjs(corners).tolist() == [
        m.conjugate(mu) - sw.offsets[x] for mu, x in zip(corners, (0, 2))]
    sw.conjugate(corners[1])
    assert roof_lps() == 0
    # a sampled verdict is one roof LP, and decides the exact cells too
    cube, obs = face_and_sum_levels()
    sw = SwitchedCost(cube, obs, np.array(FACE_AND_SUM_INCONSISTENT))
    assert roof_lps("_roof") == 1
    assert sw._exact.tolist() == [True, True, False, True]
    assert sw.consistency.path == "sampled" and not sw.consistency
    # every cell of a coordinate switch is exposed: no LP, no probe set
    lps, real = [], geometry.linprog
    monkeypatch.setattr(geometry, "linprog",
                        lambda *a, **kw: lps.append(a) or real(*a, **kw))
    sw = SwitchedCost(m, coord0(m), np.array([0.3, 0.9]))
    assert sw.consistency.path == "exposed" and sw._exact.all()
    assert lps == [] and "_roof_samples" not in vars(sw)


def test_sampled_roof_on_an_exposed_face_is_not_below_its_closed_form():
    # the face x0 = 1 is exposed; the sum labels of x0 = 0 are not all
    m, obs = face_and_sum_levels()
    sw = SwitchedCost(m, obs, np.array(FACE_AND_SUM_INCONSISTENT))
    assert sw.consistency.path == "sampled" and not sw.consistency
    x = obs.of((1, 0, 0))
    rng = np.random.default_rng(5)
    mus = np.column_stack([np.ones(100), rng.uniform(size=(100, 2))])
    low, _ = sw._roof(mus)
    roof = low + mus @ sw.switch_state - sw._cost_at_switch
    closed = np.array([m.conjugate(mu) for mu in mus]) - sw.offsets[x]
    assert np.min(roof - closed) >= -CONSISTENCY_TOL
    assert np.array_equal(sw._conjs(mus), closed)


def test_sampled_violation_is_one_roof_lp(roof_lps, roof_calls):
    m, obs = face_and_sum_levels()
    sw = SwitchedCost(m, obs, np.array(FACE_AND_SUM_INCONSISTENT))
    v = sw.consistency
    worst, witness, path = v.worst_violation, v.witness, v.path
    # every probe point of every cell in one stacked LP
    assert roof_lps("_roof") == 1 and roof_calls == [sw]
    assert path == "sampled" and not v.consistent
    assert worst == pytest.approx(sampled_roof_violation(sw), abs=1e-12)
    assert witness["value"] - witness["roof_value"] == worst


def test_impossible_count_audit_makes_one_roof_lp_per_cell(roof_lps,
                                                           monkeypatch):
    sc = load_scenario(bundled_scenarios()["square_count_impossible.scn"])
    plan = plan_switch(sc.model, sc.observation, sc.initial_state)
    assert plan.consistency.path == "sum"
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


@pytest.mark.parametrize("make, path, verdicts", [
    (lambda: (square(), coord0(square())), "exposed", (True, True)),
    (lambda: (square(), observe_sum(square_market())), "sum",
     (True, False)),
    (lambda: (square(), observe_partition(square_market(), DIAGONALS)),
     "overlap", (False, False)),
    (face_and_sum_levels, "sampled", (True, False)),
], ids=["square/coordinate(0)", "square/sum", "square/diagonals",
        "cube3/face-and-sum-levels"])
def test_verdict_records_the_deciding_path(make, path, verdicts):
    m, obs = make()
    states = ([0.0] * m.dim, ([1.0, 0.0] if m.dim == 2
                              else FACE_AND_SUM_INCONSISTENT))
    for s, consistent in zip(states, verdicts):
        v = consistency_check(m, obs, np.array(s))
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
            # the value is -C_x(q)
            return dataclasses.replace(res, value=res.value - 1.0)
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
# cell 3 lies at (0, .75, .75, .75, .75); the closed form finds a worse one
# at the centroid of cell 2
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


def test_the_5_cube_sum_switch_is_inconsistent(roof_lps):
    v = cube5_sum_switch().consistency
    assert not v.consistent and v.path == "sum"
    # level sets lie in disjoint hyperplanes: no overlap scan, no roof LP
    assert roof_lps() == 0
    # the worst point is the centroid of the cell of sum 2, which the
    # mixture of the cells of sums 0 and 5 meets; no probe is, and the
    # probes' worst (0, .5, .5, .5, .5) read 0.184756 only
    assert v.witness["mu"] == pytest.approx(np.full(5, 0.4), abs=1e-15)
    assert v.witness["realization"] == 2.0
    assert v.witness["mixture"] == pytest.approx({0.0: 0.6, 5.0: 0.4},
                                                 abs=1e-15)
    assert v.worst_violation == pytest.approx(0.932172247, abs=1e-9)
    oracle = sum_switch_violation(sum_offsets(v.switched, slice(None)), 5)
    assert v.worst_violation == pytest.approx(oracle, abs=1e-12)


def test_a_weighted_statistic_falls_back_to_the_sampled_roof():
    # the level sets of x0 + x1 + 2 x2: the closed form covers equal
    # weights only, and the roof LP decides instead
    m = IndependentBinaryCost(independent_binary_market(3))
    levels = {}
    for w in m.space.outcomes:
        levels.setdefault(w[0] + w[1] + 2 * w[2], []).append(w)
    obs = observe_partition(m.space, [levels[v] for v in sorted(levels)])
    sw = SwitchedCost(m, obs, np.array([1.0, 0.0, 0.0]))
    v = sw.consistency
    assert v.path == "sampled" and not v.consistent
    assert v.worst_violation == pytest.approx(sampled_roof_violation(sw),
                                              abs=1e-12)
    v = consistency_check(m, obs, np.array([2.0, -1.0, 0.5]))
    assert v.path == "sampled" and not v.consistent
    assert v.worst_violation == pytest.approx(0.0104046, abs=1e-7)


# the probes of a cube/sum cell are its vertices and pairwise midpoints; a
# dense sweep of the 3-cube's cells finds the worst point elsewhere, at the
# cell's centroid, which no probe is and the mixture of the two corners
# meets, and the closed-form verdict reads that point's undercut
CUBE3_STATES = [[1.0, -1.0, 0.0], [0.5, -1.5, 1.0]]


def cube3_sum_switch(s):
    m = IndependentBinaryCost(independent_binary_market(3))
    return SwitchedCost(m, observe_sum(m.space), s)


@pytest.mark.parametrize("s, g, h", [(CUBE3_STATES[0], 12, 12),
                                     (CUBE3_STATES[1], 30, 15)],
                         ids=["s0", "s1"])
def test_a_dense_sweep_puts_the_worst_3_cube_sum_point_at_a_centroid(
        s, g, h):
    # the roof mixes the points of a grid of step 1/g on each triangle, and
    # is asked at those of step 1/h (centroids and corners included, h a
    # multiple of 3), to keep the LPs few
    sw = cube3_sum_switch(s)
    grid = np.array([(i, j, g - i - j) for i in range(g + 1)
                     for j in range(g + 1 - i)]) / g
    cells = {}
    for x in sw.realizations:
        V = sw.cell_models[x].hull.vertices
        cells[x] = np.unique(grid @ V, axis=0) if len(V) == 3 else V
    own = {x: np.array([product_lmsr_conjugate(mu, 0.0) - sw.offsets[x]
                        for mu in cells[x]]) for x in cells}
    points = np.vstack(list(cells.values()))
    values = np.concatenate(list(own.values()))
    found = []
    for x in (1.0, 2.0):
        rows = np.all(np.abs(cells[x] * h - np.round(cells[x] * h)) <= 1e-9,
                      axis=1)
        # the roof over the grid lies on or above the exact roof, so each
        # undercut it finds is real
        roof, _ = geometry.min_weighted_value(points, values, cells[x][rows],
                                              1e-12)
        under = own[x][rows] - roof
        worst = int(np.argmax(under))
        assert np.allclose(cells[x][rows][worst], x / 3, rtol=0, atol=1e-15)
        found.append(under[worst])
    # no grid point is undercut by more than the verdict, and the worst
    # centroid is undercut by exactly that
    assert max(found) == pytest.approx(sw.consistency.worst_violation,
                                       abs=1e-9)

def test_a_two_cell_mixture_undercuts_the_3_cube_sum_switch_at_a_centroid():
    sw = cube3_sum_switch(CUBE3_STATES[0])
    b = sw.offsets
    mu, corner = np.full(3, 1 / 3), np.ones(3)
    # R(mu) - b_1 against 2/3 of R - b_0 at the origin and 1/3 of R - b_3
    # at (1, 1, 1)
    in_cell = product_lmsr_conjugate(mu, 0.0) - b[1.0]
    mixture = (2 * (0.0 - b[0.0]) / 3
               + (product_lmsr_conjugate(corner, 0.0) - b[3.0]) / 3)
    assert in_cell - mixture >= 0.21


def test_the_3_cube_sum_switch_off_the_diagonal_is_inconsistent():
    v = cube3_sum_switch(CUBE3_STATES[0]).consistency
    assert not v.consistent
    assert v.worst_violation == pytest.approx(0.212672132, abs=1e-9)


@pytest.mark.parametrize("mu", [1 / 3, 2 / 3])
def test_no_state_prices_a_3_cube_sum_centroid_that_the_roof_undercuts(mu):
    # the roof undercuts the two middle cells at their centroids: the
    # verdict reads inconsistent, and no state is named
    sw = cube3_sum_switch(CUBE3_STATES[0])
    assert not sw.consistency.consistent
    with pytest.raises(NotImplementedError, match=r"mu = \[0\.\d+, .* the "
                       "roof undercuts the cell there"):
        sw.state_with_price(np.full(3, mu))


def test_the_square_sum_verdict_makes_no_lp_and_no_projection(monkeypatch):
    import cfmarkets.costs

    m = square()
    obs = observe_sum(m.space)
    exposure_witness(m.space, obs)  # its own LPs, kept, before counting
    lps, projections = [], []
    real_lp, real_fw = geometry.linprog, cfmarkets.costs.project_onto_hull
    monkeypatch.setattr(geometry, "linprog",
                        lambda *a, **kw: lps.append(1) or real_lp(*a, **kw))
    monkeypatch.setattr(cfmarkets.costs, "project_onto_hull",
                        lambda *a: projections.append(1) or real_fw(*a))
    for s in ([1.0, 0.0], [0.5, 0.5], [-2.0, 1.5], [1e20, -1e20]):
        sw = SwitchedCost(m, obs, np.array(s))
        # every cell's offset at s is a closed form, the middle cell's
        # the slice projection
        assert (len(lps), len(projections)) == (0, 0)
        worst, _, path = sw._judge()
        assert (worst, path) == (sw._violation[0], "sum")
        assert (len(lps), len(projections)) == (0, 0)
        assert "_roof_samples" not in vars(sw)
        projections.clear()


def sum_mixture_undercut(sw, verdict):
    """The undercut of the witness point's offset conjugate by the two-cell
    mixture its witness names, built here: on the point's smallest face the
    point of the cell of sum v holds the pinned coordinates and spreads the
    rest of v evenly over the free ones; each cell's weight comes from the
    sums alone. Raises unless the two points mix to the witness point."""
    p, k = verdict.witness["mu"], verdict.witness["realization"]
    j, h = sorted(verdict.witness["mixture"])
    free = (p > 0.0) & (p < 1.0)
    pinned = float(p[~free].sum())

    def point(v):
        mu = p.copy()
        mu[free] = (v - pinned) / free.sum()
        assert np.all((0.0 <= mu) & (mu <= 1.0))
        assert abs(mu.sum() - v) <= 1e-12
        return mu

    lj, lh = (h - k) / (h - j), (k - j) / (h - j)
    assert verdict.witness["mixture"] == pytest.approx({j: lj, h: lh},
                                                       abs=1e-15)
    assert np.allclose(lj * point(j) + lh * point(h), p, rtol=0, atol=1e-15)
    b = sw.offsets
    return (product_lmsr_conjugate(p, 0.0) - b[k]
            - lj * (product_lmsr_conjugate(point(j), 0.0) - b[j])
            - lh * (product_lmsr_conjugate(point(h), 0.0) - b[h]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_inconsistent_sum_verdict_is_a_two_cell_mixture(n):
    m = IndependentBinaryCost(independent_binary_market(n))
    obs = observe_sum(m.space)
    rng = np.random.default_rng(100 + n)
    found = 0
    for _ in range(50):
        s = rng.uniform(-2.0, 2.0, n)
        sw = SwitchedCost(m, obs, s)
        v = sw.consistency
        assert v.path == "sum"
        if n == 2:  # one middle cell, undercut at its centroid (1/2, 1/2)
            assert abs(v.worst_violation
                       - max(0.0, square_count_violation(s))) <= 1e-10
        if not v.consistent:
            found += 1
            # the reported value is the mixture's undercut: a real one
            undercut = sum_mixture_undercut(sw, v)
            assert undercut == pytest.approx(v.worst_violation, abs=1e-12)
    assert found > 0


def sum_offsets(sw, support):
    """The offsets of a sum switch's cells, in the order of their sums over
    `support`."""
    P = sw.space.payoff
    level = {x: P[sw.space.index(sw.cell_models[x].event[0]), support].sum()
             for x in sw.realizations}
    return [sw.offsets[x] for x in sorted(level, key=level.get)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_sum_verdict_matches_the_two_centroid_oracle(n):
    m = IndependentBinaryCost(independent_binary_market(n))
    obs = observe_sum(m.space)
    rng = np.random.default_rng(200 + n)
    for _ in range(50):
        s = rng.uniform(-3.0, 3.0, n)
        sw = SwitchedCost(m, obs, s)
        oracle = sum_switch_violation(sum_offsets(sw, slice(None)), n)
        assert abs(sw.consistency.worst_violation - oracle) <= 1e-12
        if n == 2:  # the oracle generalises the square's own
            assert abs(oracle - max(0.0, square_count_violation(s))) <= 1e-10


def test_a_sum_over_part_of_the_coordinates_is_decided_in_closed_form():
    # the level sets of x0 + x1 + x2 on the 4-cube: x3 is off the support,
    # and the worst point holds it at 1/2
    m = IndependentBinaryCost(independent_binary_market(4))
    levels = {}
    for w in m.space.outcomes:
        levels.setdefault(sum(w[:3]), []).append(w)
    obs = observe_partition(m.space, [levels[v] for v in sorted(levels)])
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(20):
        sw = SwitchedCost(m, obs, rng.uniform(-3.0, 3.0, 4))
        v = sw.consistency
        assert v.path == "sum"
        oracle = sum_switch_violation(sum_offsets(sw, slice(0, 3)), 3)
        assert abs(v.worst_violation - oracle) <= 1e-12
        if not v.consistent:
            found += 1
            assert v.witness["mu"][3] == 0.5
    assert found > 0


def signed_partition(space, weights):
    """The level sets of weights.x, in increasing order."""
    levels = {}
    for w in space.outcomes:
        levels.setdefault(float(np.dot(weights, w)), []).append(w)
    return observe_partition(space, [levels[v] for v in sorted(levels)])


@pytest.mark.parametrize("weights", [(1, 1, -1), (1, -1)],
                         ids=["x0+x1-x2", "x0-x1"])
def test_a_mixed_sign_sum_is_decided_in_flipped_coordinates(weights):
    # flipping the coordinates of negative weight maps the cells onto the
    # level sets of the sum, and the state s onto (s0, s1, -s2): the
    # verdict is the sum switch's there
    n, flip = len(weights), np.array(weights, dtype=float)
    m = IndependentBinaryCost(independent_binary_market(n))
    obs = signed_partition(m.space, weights)
    rng = np.random.default_rng(0)
    found = 0
    for _ in range(20):
        s = rng.uniform(-3.0, 3.0, n)
        v = SwitchedCost(m, obs, s).consistency
        assert v.path == "sum"
        flipped = SwitchedCost(m, observe_sum(m.space), s * flip)
        oracle = sum_switch_violation(sum_offsets(flipped, slice(None)), n)
        assert abs(v.worst_violation - oracle) <= 1e-12
        if n == 2:
            assert abs(oracle - max(0.0, square_count_violation(s * flip))
                       ) <= 1e-10
        if not v.consistent:
            found += 1
            # the witness is a flipped centroid: its level is the cell's
            mu = v.witness["mu"]
            cell = v.switched.cell_models[v.witness["realization"]]
            level = np.dot(weights, cell.event[0])
            assert np.dot(weights, mu) == pytest.approx(level, abs=1e-12)
    assert found > 0


def test_the_3_cube_mixed_sign_switch_off_the_diagonal_is_inconsistent():
    # x0 + x1 - x2 at s = (1, -1, 0), the flip of the 3-cube sum switch
    # there: the same violation, at the centroids of the level-0 and
    # level-1 cells alike (the state is symmetric), and the witness is the
    # first of the two, the level-0 cell's, as the sum switch's is its
    # level-1 cell's, the first of its two
    m = IndependentBinaryCost(independent_binary_market(3))
    v = consistency_check(m, signed_partition(m.space, (1, 1, -1)),
                          np.array(CUBE3_STATES[0]))
    assert (v.consistent, v.path) == (False, "sum")
    assert v.worst_violation == pytest.approx(0.212672132, abs=1e-9)
    assert np.allclose(v.witness["mu"], [1 / 3, 1 / 3, 2 / 3], rtol=0,
                       atol=1e-15)
    cell = v.switched.cell_models[v.witness["realization"]]
    assert sorted(cell.event) == [(0, 0, 0), (0, 1, 1), (1, 0, 1)]


def test_a_one_sign_statistic_flips_nothing_whichever_its_sign():
    # the SVD may return the statistic's all-negative direction; the flip
    # is read against the first weight's sign, so the verdict is the same
    sw = cube3_sum_switch(CUBE3_STATES[0])
    a = sw._statistic
    assert sw._sum(a)[0] == sw._sum(-a)[0] == sw.consistency.worst_violation
    for stat in (a, -a):
        witness = sw._sum(stat)[1]
        assert np.array_equal(witness["mu"], np.full(3, 1 / 3))
        assert witness["realization"] == 1.0


# ---------------------------------------------------------------------------
# Exposure: the state-independent sufficient condition


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
