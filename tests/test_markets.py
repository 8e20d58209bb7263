import numpy as np
import pytest

from cfmarkets import (Observation, OutcomeSpace,
                       exposure_witness, independent_binary_market,
                       medal_count_model, observe_block_payoff,
                       observe_coordinate, observe_identity, observe_partition,
                       observe_sum, probe_points, simplex_market,
                       single_binary_market, square_market,
                       trivial_observation)
from cfmarkets.markets import EXPOSURE_MARGIN

from oracles import face_check


# ---------------------------------------------------------------------------
# OutcomeSpace


def test_space_basic_accessors():
    sp = square_market()
    assert sp.dim == 2
    assert sp.n_outcomes == 4
    assert sp.index((1, 0)) == sp.outcomes.index((1, 0))
    assert np.allclose(sp.payoff_of((1, 0)), [1.0, 0.0])
    assert sp.vertices(((0, 0), (1, 1))).shape == (2, 2)


def test_space_validation_errors():
    with pytest.raises(ValueError):
        OutcomeSpace((), np.zeros((0, 1)))
    with pytest.raises(ValueError):
        OutcomeSpace(("a", "a"), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        OutcomeSpace(("a", "b"), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        OutcomeSpace(("a",), np.array([[np.inf]]))
    with pytest.raises(KeyError):
        square_market().index((2, 2))


def test_builders():
    assert np.allclose(simplex_market(3).payoff, np.eye(3))
    assert independent_binary_market(3).n_outcomes == 8
    assert single_binary_market().payoff[:, 0].tolist() == [0.0, 1.0]


# ---------------------------------------------------------------------------
# Observations


def test_observation_cells_and_labels():
    sp = square_market()
    obs = observe_coordinate(sp, 0)
    assert obs.realizations == (0.0, 1.0)
    assert set(obs.cell(1.0)) == {(1, 0), (1, 1)}
    assert obs.of((0, 1)) == 0.0
    obs.validate(sp)
    with pytest.raises(KeyError):
        obs.cell(2.0)


def test_observation_validate_requires_cover():
    sp = square_market()
    partial = Observation({(0, 0): 0, (1, 1): 1})
    with pytest.raises(ValueError):
        partial.validate(sp)


def test_observe_sum_and_identity_and_partition():
    sp = square_market()
    assert observe_sum(sp).realizations == (0.0, 1.0, 2.0)
    assert observe_identity(sp).cell((1, 1)) == ((1, 1),)
    obs = observe_partition(sp, [[(0, 0), (0, 1)], [(1, 0), (1, 1)]])
    assert obs.realizations == (0, 1)
    with pytest.raises(ValueError, match=r"outcome \(0, 1\) is in two"):
        observe_partition(sp, [[(0, 0), (0, 1)], [(0, 1), (1, 0), (1, 1)]])
    assert trivial_observation(sp).realizations == (0,)


def test_observe_block_payoff_labels_are_tuples():
    sp = independent_binary_market(2)
    obs = observe_block_payoff(sp, (0,))
    assert obs.realizations == ((0.0,), (1.0,))
    assert set(obs.cell((1.0,))) == {(1, 0), (1, 1)}


# ---------------------------------------------------------------------------
# Hull membership and probes


def test_event_hull_membership():
    sp = square_market()
    assert sp.hull().contains(np.array([0.5, 0.5]))
    assert not sp.hull().contains(np.array([1.2, 0.5]))
    cell = ((1, 0), (1, 1))
    assert sp.hull(cell).contains(np.array([1.0, 0.25]))
    assert not sp.hull(cell).contains(np.array([0.5, 0.5]))


def test_a_repeated_outcome_counts_once_in_an_event_hull():
    sp = simplex_market(3)
    hull = sp.hull((0, 2, 0))
    assert hull.kind == "simplex" and hull.free.tolist() == [0, 2]
    assert hull.pinned == {1: 0.0}
    assert np.array_equal(hull.vertices, sp.vertices((0, 2)))
    assert sp.hull((0, 2)) is hull
    # first-occurrence order
    assert np.array_equal(sp.hull((2, 0, 2)).vertices, sp.vertices((2, 0)))


def test_a_slice_is_exposed_only_by_an_lp():
    # the cube's sum levels 1 and 2 are slices with no constructive witness;
    # the LP finds neither exposed, and the corners keep theirs
    cube = independent_binary_market(3)
    obs = observe_sum(cube)
    assert [cube.hull(obs.cell(x)).kind for x in obs.realizations] == [
        "box", "simplex", "slice", "box"]
    out = exposure_witness(cube, obs)
    assert out[1.0] is None and out[2.0] is None
    assert out[0.0] is not None and out[3.0] is not None


def test_empty_event_hull_is_rejected():
    sp = square_market()
    for event in ((), []):
        with pytest.raises(ValueError, match="event must be nonempty"):
            sp.hull(event)


def test_probe_points_count():
    sp = square_market()
    pts = probe_points(sp)
    assert pts.shape == (4 + 6, 2)  # vertices plus pairwise midpoints
    pts = probe_points(sp, ((1, 0), (1, 1)))
    assert pts.shape == (3, 2)


# ---------------------------------------------------------------------------
# Faces and exposure


def test_face_check_coordinate_cells():
    sp = square_market()
    obs = observe_coordinate(sp, 0)
    assert face_check(sp, obs, 0.0)
    assert face_check(sp, obs, 1.0)


def test_face_check_rejects_interior_diagonal():
    sp = square_market()
    obs = observe_sum(sp)
    assert not face_check(sp, obs, 1.0)  # middle cell crosses the interior
    assert face_check(sp, obs, 0.0)
    assert face_check(sp, obs, 2.0)


def agreement_cases():
    """(space, observation) pairs: sum, identity, trivial, each coordinate
    and six seeded random labellings of five spaces."""
    spaces = [square_market(), independent_binary_market(3),
              simplex_market(4), medal_count_model(2).space,
              OutcomeSpace((0, 1, 2), [[0.0], [1.0], [2.0]])]
    for seed, sp in enumerate(spaces):
        rng = np.random.default_rng(seed)
        yield sp, observe_sum(sp)
        yield sp, observe_identity(sp)
        yield sp, trivial_observation(sp)
        for i in range(sp.dim):
            yield sp, observe_coordinate(sp, i)
        for _ in range(6):
            labels = rng.integers(0, 3, sp.n_outcomes).tolist()
            yield sp, Observation(dict(zip(sp.outcomes, labels)))


def test_exposure_witness_agrees_with_the_sampled_face_check():
    # every face of a polytope is exposed, so the exact witness and the
    # sampled face check answer the same question
    cells = 0
    for sp, obs in agreement_cases():
        witnesses = exposure_witness(sp, obs)
        for x in obs.realizations:
            assert (witnesses[x] is not None) == face_check(sp, obs, x), \
                (obs.label, x)
            cells += 1
    assert cells >= 140


def test_exposure_witness_coordinate_cells():
    sp = square_market()
    out = exposure_witness(sp, observe_coordinate(sp, 0))
    for x, w in out.items():
        assert w is not None
        vin = sp.vertices(tuple(o for o in sp.outcomes if o[0] == x)) @ w
        vout = sp.vertices(tuple(o for o in sp.outcomes if o[0] != x)) @ w
        assert np.ptp(vin) <= 1e-9
        assert vin.min() >= vout.max() + EXPOSURE_MARGIN - 1e-9


def test_exposure_witness_is_a_read_only_vector():
    sp = square_market()
    w = exposure_witness(sp, observe_coordinate(sp, 0))[1.0]
    assert isinstance(w, np.ndarray) and w.shape == (sp.dim,)
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 5.0
    # the kept answer is unchanged
    assert exposure_witness(sp, observe_coordinate(sp, 0))[1.0][0] != 5.0


def test_exposure_witness_sum_middle_cell_not_exposed():
    sp = square_market()
    out = exposure_witness(sp, observe_sum(sp))
    assert out[0.0] is not None
    assert out[2.0] is not None
    assert out[1.0] is None  # the diagonal is not an argmax set


def test_exposure_witness_is_decided_once_per_space(monkeypatch):
    from cfmarkets import geometry
    calls = []
    real = geometry.separating_direction

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "separating_direction", counted)
    sp = square_market()
    obs = observe_sum(sp)
    first = exposure_witness(sp, obs)
    assert len(calls) == 1  # the diagonal cell needs the LP
    first[1.0] = "changed by the caller"
    again = exposure_witness(sp, obs)
    assert len(calls) == 1 and again is not first and again[1.0] is None
    assert again[0.0] is first[0.0]
    exposure_witness(square_market(), obs)  # an equal but new space
    assert len(calls) == 2


def test_exposure_witness_simplex_partition():
    sp = simplex_market(4)
    obs = observe_partition(sp, [[0, 1], [2, 3]])
    out = exposure_witness(sp, obs)
    assert all(w is not None for w in out.values())


def test_exposure_witness_trivial_observation():
    sp = square_market()
    out = exposure_witness(sp, trivial_observation(sp))
    assert out[0] is not None  # no competing cell; trivially exposed
