"""Scenario files: human-readable YAML descriptions of protocol runs.

A scenario names a market builder, an observation, a protocol (sudden or
gradual), trader scripts, a settlement outcome, and a mandatory seed, e.g.:

    name: square sudden revelation
    seed: 7
    market: square
    protocol: sudden
    observation: {kind: coordinate, index: 0}
    initial_state: [0.0, 0.0]
    switch_time: 1.0
    settlement: [1, 1]
    traders:
      - {kind: noise, name: n1, times: [0.2, 0.6], scale: 1.0}
      - {kind: jit, name: a1, times: [1.1]}

Numbers are decimal; matrices are row lists.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import yaml

from .costs import (CostModel, IndependentBinaryCost, LmsrCost,
                    PiecewiseLinearCost)
from .gradual import BlockSchedule, Schedule
from .lcmm import LcmmCost, medal_count_model
from .markets import (Observation, OutcomeSpace, independent_binary_market,
                      observe_block_payoff, observe_coordinate,
                      observe_identity, observe_partition, observe_sum,
                      simplex_market, single_binary_market,
                      square_market, trivial_observation)
from .simulate import (BeliefTrader, JitArbitrageur, NoiseTrader,
                       TradeRequest, check_sudden_inputs)


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario content."""


@dataclass
class Scenario:
    name: str
    seed: int
    tol: float
    protocol: str
    model: CostModel
    observation: Observation | None
    initial_state: np.ndarray
    settlement: object
    switch_time: float | None = None
    switch_boundary: str = "after"
    traders: list = field(default_factory=list)
    schedule: Schedule | None = None
    t0: float = 0.0
    requests: list = field(default_factory=list)
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        # the file's seed and tolerance and every override made with
        # `dataclasses.replace` pass these same checks
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) \
                or self.seed < 0:
            raise ScenarioError("seed must be a non-negative integer")
        if not 0 < self.tol < float("inf"):
            raise ScenarioError("tolerance must be a positive finite number")
        if np.any(np.spacing(np.abs(self.initial_state)) > self.tol):
            raise ScenarioError("initial_state is too large for the "
                                "tolerance")


def _hashable(v):
    if isinstance(v, list):
        return tuple(_hashable(x) for x in v)
    return v


def build_market(spec) -> CostModel:
    """Build a cost model from a builder name or an explicit description."""
    if isinstance(spec, dict):
        space = OutcomeSpace(tuple(_hashable(w) for w in spec["outcomes"]),
                             np.array(spec["payoff"], dtype=float))
        kind = spec.get("cost", "lmsr")
        builders = {"lmsr": LmsrCost, "product-lmsr": IndependentBinaryCost,
                    "piecewise-linear": PiecewiseLinearCost}
        try:
            return builders[kind](space)
        except KeyError:
            raise ScenarioError(f"unknown cost kind {kind!r}") from None
    if not isinstance(spec, str):
        raise ScenarioError("market must be a name or a mapping")
    m = re.fullmatch(r"(\w+)(?:\((\d+)\))?", spec.strip())
    if not m:
        raise ScenarioError(f"bad market name {spec!r}")
    name, arg = m.group(1), m.group(2)
    n = int(arg) if arg else None
    if name == "square":
        return IndependentBinaryCost(square_market())
    if name == "binary":
        return PiecewiseLinearCost(single_binary_market())
    if name == "lmsr":
        if n is None:
            raise ScenarioError("lmsr needs an outcome count, e.g. lmsr(4)")
        return LmsrCost(simplex_market(n))
    if name == "independent_binary":
        if n is None:
            raise ScenarioError("independent_binary needs a security count")
        return IndependentBinaryCost(independent_binary_market(n))
    if name == "medal_counts":
        if n is None:
            raise ScenarioError("medal_counts needs a size, e.g. medal_counts(2)")
        return medal_count_model(n)
    raise ScenarioError(f"unknown market builder {name!r}")


def build_observation(spec, space: OutcomeSpace) -> Observation:
    if spec is None:
        return trivial_observation(space)
    if isinstance(spec, str):
        spec = {"kind": spec}
    kind = spec.get("kind")
    if kind == "coordinate":
        return observe_coordinate(space, int(spec.get("index", 0)))
    if kind == "sum":
        return observe_sum(space)
    if kind == "identity":
        return observe_identity(space)
    if kind == "trivial":
        return trivial_observation(space)
    if kind == "partition":
        groups = [[_hashable(w) for w in grp] for grp in spec["groups"]]
        return observe_partition(space, groups)
    if kind == "block":
        return observe_block_payoff(space, spec["indices"])
    raise ScenarioError(f"unknown observation kind {kind!r}")


def _build_trader(spec, obs, settlement, model):
    kind = spec.get("kind")
    name = spec.get("name", kind)
    times = spec.get("times", [])
    budget = spec.get("budget")
    if budget is not None and (isinstance(budget, bool)
                               or not isinstance(budget, (int, float))
                               or not budget >= 0):
        raise ScenarioError(f"trader {name!r}: budget must be a number >= 0")
    if kind == "noise":
        return NoiseTrader(name, times, scale=float(spec.get("scale", 1.0)),
                           budget=budget)
    if kind == "belief":
        mu = np.array(spec["belief"], dtype=float)
        if mu.shape != (model.dim,):
            raise ScenarioError(f"trader {name!r}: belief has the wrong length")
        if not np.all(np.isfinite(mu)):
            raise ScenarioError(f"trader {name!r}: belief must be finite")
        if not model.space.hull().contains(mu, model.domain_tol):
            raise ScenarioError(f"trader {name!r}: belief is outside the "
                                "price space")
        return BeliefTrader(name, times, mu, budget=budget)
    if kind == "jit":
        if obs is None:
            raise ScenarioError("jit trader needs an observation")
        x = spec.get("realization", obs.of(settlement))
        return JitArbitrageur(name, times, obs, _hashable(x), budget=budget)
    raise ScenarioError(f"unknown trader kind {kind!r}")


def _build_schedule(spec, model: LcmmCost, t0: float) -> Schedule:
    per_block = [BlockSchedule() for _ in model.blocks]
    for entry in spec or []:
        g = int(entry["block"])
        if not 0 <= g < len(per_block):
            raise ScenarioError(f"schedule names unknown block {g}")
        per_block[g] = BlockSchedule(entry.get("kind", "constant"),
                                     rate=float(entry.get("rate", 0.0)),
                                     floor=float(entry.get("floor", 1e-3)))
    return Schedule(tuple(per_block), t0)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario: {e}") from e
    except yaml.YAMLError as e:
        raise ScenarioError(f"scenario is not valid YAML: {e}") from e
    return parse_scenario(raw)


def parse_scenario(raw) -> Scenario:
    """Build a Scenario from a parsed document. Any field that is missing,
    malformed or rejected by a library builder raises ScenarioError."""
    try:
        return _parse_scenario(raw)
    except ScenarioError:
        raise
    except KeyError as e:
        raise ScenarioError(f"missing field {e.args[0]!r}") from None
    except (TypeError, ValueError) as e:
        raise ScenarioError(str(e)) from None


def _parse_scenario(raw) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a key/value document")
    try:
        seed = raw["seed"]
        protocol = raw["protocol"]
        market_spec = raw["market"]
    except KeyError as e:
        raise ScenarioError(f"missing required field {e.args[0]!r}") from None
    if protocol not in ("sudden", "gradual"):
        raise ScenarioError(f"unknown protocol {protocol!r}")
    model = build_market(market_spec)
    space = model.space
    obs = (build_observation(raw.get("observation"), space)
           if (raw.get("observation") is not None or protocol == "sudden")
           else None)
    settlement = _hashable(raw.get("settlement"))
    if settlement not in space.outcomes:
        raise ScenarioError(f"settlement {settlement!r} is not an outcome")
    try:
        s0 = np.array(raw.get("initial_state", np.zeros(space.dim)),
                      dtype=float)
    except (TypeError, ValueError):
        raise ScenarioError("initial_state must be a list of numbers") from None
    if s0.shape != (space.dim,):
        raise ScenarioError("initial_state has the wrong length")
    if not np.all(np.isfinite(s0)):
        raise ScenarioError("initial_state must be finite")
    tol = float(raw.get("tolerance", 1e-6))
    sc = Scenario(name=str(raw.get("name", "scenario")), seed=seed, tol=tol,
                  protocol=protocol, model=model, observation=obs,
                  initial_state=s0, settlement=settlement, raw=raw)
    if protocol == "sudden":
        if "switch_time" not in raw:
            raise ScenarioError("sudden protocol needs switch_time")
        sc.switch_time = float(raw["switch_time"])
        sc.switch_boundary = raw.get("switch_boundary", "after")
        sc.traders = [_build_trader(t, obs, settlement, model)
                      for t in raw.get("traders", [])]
        check_sudden_inputs(obs, sc.traders, sc.switch_time, settlement,
                            sc.switch_boundary)
    else:
        if not isinstance(model, LcmmCost):
            raise ScenarioError("gradual protocol needs an LCMM market")
        sc.t0 = float(raw.get("t0", 0.0))
        if not np.isfinite(sc.t0):
            raise ScenarioError("t0 must be finite")
        sc.schedule = _build_schedule(raw.get("schedules"), model, sc.t0)
        sc.requests = []
        last = sc.t0
        for entry in raw.get("requests", []):
            time = float(entry["time"])
            if not last <= time < float("inf"):
                raise ScenarioError("request times must be finite, "
                                    "non-decreasing and not before t0")
            last = time
            trader = str(entry.get("trader", "t"))
            if "bundle" in entry:
                bundle = np.array(entry["bundle"], dtype=float)
                if bundle.shape != (space.dim,):
                    raise ScenarioError("request bundle has the wrong length")
                sc.requests.append(TradeRequest(time, trader, bundle=bundle))
            else:
                agent = _build_trader(entry, obs, settlement, model)
                sc.requests.append(TradeRequest(time, trader, agent=agent))
    return sc


def bundled_scenarios() -> dict:
    """Name -> path for the scenarios shipped with the package."""
    base = resources.files("cfmarkets") / "scenarios"
    return {p.name: p for p in sorted(base.iterdir(), key=lambda p: p.name)
            if p.name.endswith(".scn")}
