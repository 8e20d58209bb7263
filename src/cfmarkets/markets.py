"""Finite outcome spaces, payoff geometry, observations, and exposure.

A market is specified by a finite outcome set and a payoff matrix: row omega
gives the payoff of each of the K securities if omega occurs. The price space M
is the convex hull of those rows; M(E) restricts the hull to an event E,
a band or generic (`geometry.Hull`), whose exposure `exposure_witness` reads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import geometry


@dataclass(frozen=True)
class OutcomeSpace:
    """Finite outcome set with a payoff vector per outcome."""

    outcomes: tuple
    payoff: np.ndarray  # (n_outcomes, K)

    def __post_init__(self):
        payoff = np.atleast_2d(np.asarray(self.payoff, dtype=float))
        if len(self.outcomes) == 0:
            raise ValueError("need at least one outcome")
        if payoff.shape[0] != len(self.outcomes):
            raise ValueError("payoff rows must match outcomes")
        if payoff.shape[1] < 1:
            raise ValueError("need at least one security")
        if not np.isfinite(payoff).all():
            raise ValueError("payoff entries must be finite")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("duplicate outcome identifiers")
        payoff = payoff.copy()
        payoff.setflags(write=False)
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "payoff", payoff)
        object.__setattr__(self, "_index",
                           {w: i for i, w in enumerate(self.outcomes)})
        units = payoff.argmax(axis=1)  # complete: distinct unit vectors
        complete = (len(set(units.tolist())) == len(units) and np.allclose(
            payoff, np.eye(payoff.shape[1])[units], rtol=0.0, atol=1e-12))
        object.__setattr__(self, "_complete", complete)
        object.__setattr__(self, "_hulls",
                           {None: geometry.Hull(payoff, complete)})

    @property
    def dim(self) -> int:
        return self.payoff.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def index(self, outcome) -> int:
        try:
            return self._index[outcome]
        except KeyError:
            raise KeyError(f"unknown outcome {outcome!r}") from None

    def payoff_of(self, outcome) -> np.ndarray:
        return self.payoff[self.index(outcome)]

    def vertices(self, outcomes=None) -> np.ndarray:
        """Payoff rows for the given event (default: all outcomes)."""
        if outcomes is None:
            return self.payoff
        idx = [self.index(w) for w in outcomes]
        return self.payoff[idx]

    def hull(self, outcomes=None) -> geometry.Hull:
        """Hull of the event's payoff vertices (default: all outcomes),
        built once per event. A repeated outcome counts once, at its first
        occurrence, so the vertices are distinct."""
        key = None if outcomes is None else tuple(outcomes)
        if key not in self._hulls:
            if key == ():
                raise ValueError("event must be nonempty")
            once = tuple(dict.fromkeys(key))
            if once not in self._hulls:
                self._hulls[once] = geometry.Hull(self.vertices(once),
                                                  self._complete)
            self._hulls[key] = self._hulls[once]
        return self._hulls[key]


@dataclass(frozen=True)
class Observation:
    """Labeling of outcomes into an exhaustive, disjoint family of cells."""

    label: dict  # outcome -> realization
    # id(space) -> (space, witnesses) built by `exposure_witness`; private
    _exposure: dict = field(default_factory=dict, init=False, compare=False,
                            repr=False)

    def __post_init__(self):
        object.__setattr__(self, "label", dict(self.label))
        cells: dict = {}
        for outcome, x in self.label.items():
            cells.setdefault(x, []).append(outcome)
        object.__setattr__(self, "_cells",
                           {x: tuple(ws) for x, ws in cells.items()})
        object.__setattr__(self, "realizations",
                           tuple(sorted(cells, key=repr)))

    def cell(self, x) -> tuple:
        try:
            return self._cells[x]
        except KeyError:
            raise KeyError(f"unknown realization {x!r}") from None

    def of(self, outcome):
        return self.label[outcome]

    def validate(self, space: OutcomeSpace):
        if set(self.label) != set(space.outcomes):
            raise ValueError("observation must label every outcome exactly")
        return self


def probe_points(space: OutcomeSpace, outcomes=None) -> np.ndarray:
    """Vertices of an event hull plus all pairwise midpoints."""
    V = space.vertices(outcomes)
    points = [V]
    n = V.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            points.append(((V[i] + V[j]) / 2.0)[None, :])
    return np.vstack(points)


def _face_witness(hull: geometry.Hull) -> np.ndarray | None:
    """Constructive witness for a face: +-1 on the coordinates a sub-cube
    face pins, or the indicator of the free coordinates of the band (1, 1)
    with every pin 0 (a simplex face). Any other band or a generic hull has
    none: `_inner_band` settles a cube's inner bands, and an LP decides the
    exposure of the rest."""
    v = np.zeros(hull.vertices.shape[1])
    if hull.is_box:
        for i, x in hull.pinned.items():
            v[i] = 1.0 if x > 0.5 else -1.0
    elif hull.levels == (1, 1) and not any(hull.pinned.values()):
        v[hull.free] = 1.0
    else:
        return None
    return v


def _inner_band(hull: geometry.Hull, whole: geometry.Hull) -> bool:
    """Whether `hull` is an inner band of a cube, which no direction
    exposes: a band (lo, hi) on n free coordinates, in a space whose hull
    is a box, that is no sub-cube face: 0 < hi, lo < n, (lo, hi) != (0, n).

    Proof. Let v expose the cell: v.p = c on the cell, <= c - margin off
    it. If lo < hi, a vertex of count lo < n with a 0 at any free
    coordinate flips there to a vertex of count lo + 1 <= hi, so v is 0 on
    the free coordinates. If lo = hi = j, 0 < j < n, and the swap of a 1
    and a 0 between any two free coordinates of a vertex is a vertex, so v
    is one value lam there. The space is a full box, so one flip down from
    a vertex of count lo > 0, or up from one of count hi < n, is an outcome
    off the cell, and one of them exists. There v reads c if lo < hi, and
    c - lam and c + lam, both, if lo = hi: lam >= margin and -lam >=
    margin. Either is impossible."""
    return (whole.is_box and hull.levels is not None and not hull.is_box
            and 0 < hull.levels[1] and hull.levels[0] < hull.free.size)


EXPOSURE_MARGIN = 1.0  # gap of every witness between its cell and the rest


def exposure_witness(space: OutcomeSpace, obs: Observation) -> dict:
    """Read-only separating direction per cell, or None where not exposed.

    A cell is exposed when it is exactly the argmax set of some linear
    function of payoffs (with a gap of `EXPOSURE_MARGIN` to the rest).
    Simplex and sub-cube faces (`OutcomeSpace.hull`) have constructive
    witnesses, a cube's inner bands have none (`_inner_band`, with its
    proof), and a linear feasibility problem decides every other cell.
    Exposure does not depend on the state, so the observation keeps the
    answer per space and every later call returns a copy of it.
    """
    hit = obs._exposure.get(id(space))
    if hit is not None:
        return dict(hit[1])
    obs.validate(space)
    out: dict = {}
    whole = space.hull()
    for x in obs.realizations:
        cell = obs.cell(x)
        hull = space.hull(cell)
        if _inner_band(hull, whole):
            out[x] = None
            continue
        cell_set = set(cell)
        others = [w for w in space.outcomes if w not in cell_set]
        candidate = _face_witness(hull)
        if candidate is not None and others:
            vin = space.vertices(cell) @ candidate
            vout = space.vertices(others) @ candidate
            if not (np.ptp(vin) < 1e-12
                    and vin.min() >= vout.max() + EXPOSURE_MARGIN):
                candidate = None
        if candidate is None:
            candidate = geometry.separating_direction(
                space.vertices(cell),
                space.vertices(others) if others else np.empty((0, space.dim)),
                EXPOSURE_MARGIN)
        if candidate is not None:
            candidate.setflags(write=False)
        out[x] = candidate
    obs._exposure[id(space)] = (space, out)  # holding space keeps its id
    return dict(out)


# ---------------------------------------------------------------------------
# Builders


def simplex_market(n: int) -> OutcomeSpace:
    """Complete market over n mutually exclusive outcomes (one security
    paying 1 per outcome)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return OutcomeSpace(tuple(range(n)), np.eye(n))


def independent_binary_market(n: int) -> OutcomeSpace:
    """n binary securities over the outcome space {0,1}^n."""
    outcomes = tuple(product((0, 1), repeat=n))
    payoff = np.array(outcomes, dtype=float)
    return OutcomeSpace(outcomes, payoff)


def square_market() -> OutcomeSpace:
    """Two independent binary securities; price space is the unit square."""
    return independent_binary_market(2)


def single_binary_market() -> OutcomeSpace:
    """One binary security paying 0 or 1."""
    return OutcomeSpace((0, 1), np.array([[0.0], [1.0]]))


def _checked_index(i, n: int, what: str) -> int:
    """i as an index into n items. A bool, a non-integral number or an index
    outside [0, n) is a ValueError, never silently cast or wrapped."""
    # the range first: float(i) overflows on a huge integer
    if (isinstance(i, (bool, np.bool_)) or not isinstance(i, numbers.Real)
            or not 0 <= i < n or not float(i).is_integer()):
        raise ValueError(f"{what} {i!r} is not an integer in [0, {n})")
    return int(i)


def observe_coordinate(space: OutcomeSpace, i: int) -> Observation:
    """Observation revealing security i's payoff."""
    i = _checked_index(i, space.dim, "coordinate index")
    return Observation({w: float(space.payoff_of(w)[i])
                        for w in space.outcomes})


def observe_sum(space: OutcomeSpace) -> Observation:
    """Observation revealing the sum of all payoffs."""
    return Observation({w: float(space.payoff_of(w).sum())
                        for w in space.outcomes})


def observe_identity(space: OutcomeSpace) -> Observation:
    """Observation revealing the outcome itself."""
    return Observation({w: w for w in space.outcomes})


def observe_partition(space: OutcomeSpace, groups) -> Observation:
    """Observation from an explicit list of outcome groups; an outcome in
    two groups raises ValueError."""
    label = {}
    for x, group in enumerate(groups):
        for w in group:
            if label.setdefault(w, x) != x:
                raise ValueError(f"outcome {w!r} is in two partition groups")
    return Observation(label).validate(space)


def trivial_observation(space: OutcomeSpace) -> Observation:
    """Single-cell observation (nothing is revealed)."""
    return Observation({w: 0 for w in space.outcomes})


def observe_block_payoff(space: OutcomeSpace, block) -> Observation:
    """Observation revealing the payoffs of the securities in `block`."""
    block = tuple(_checked_index(i, space.dim, "block index") for i in block)
    return Observation(
        {w: tuple(float(v) for v in space.payoff_of(w)[list(block)])
         for w in space.outcomes})
