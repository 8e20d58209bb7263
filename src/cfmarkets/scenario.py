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

The top-level fields are `name`, `seed`, `tolerance`, `market`, `protocol`,
`observation`, `initial_state` and `settlement`; a sudden scenario adds
`switch_time` and `traders`, a gradual one `t0`, `schedules` and
`requests`. Every mapping (the top level, a market, an observation, a
trader, a schedule, a request) takes exactly the keys its reader asks for;
any other key is a ScenarioError. Numbers are decimal; matrices are row lists.
"""

from __future__ import annotations

import math
import re
from contextlib import suppress
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import yaml

from .costs import (CostModel, IndependentBinaryCost, LmsrCost,
                    PiecewiseLinearCost)
from .gradual import BlockSchedule, Schedule
from .lcmm import LcmmCost, medal_count_model
from .markets import (Observation, OutcomeSpace, _checked_index,
                      independent_binary_market, observe_block_payoff,
                      observe_coordinate, observe_identity, observe_partition,
                      observe_sum, simplex_market, single_binary_market,
                      square_market, trivial_observation)
from .simulate import (BeliefTrader, JitArbitrageur, NoiseTrader,
                       TradeRequest, check_gradual_inputs,
                       check_sudden_inputs)

try:  # libyaml's parser, where PyYAML was built with it
    from yaml import CSafeLoader as SafeLoader
except ImportError:  # the same documents, parsed in pure Python
    from yaml import SafeLoader


MAX_OUTCOMES = 256  # largest outcome count a named market builder makes


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


def _number(v, what: str) -> float:
    """v as a finite float. A bool, a string, anything else that is not an
    int or a float, and a value that is not finite or does not fit in a
    float are a ScenarioError naming the field; a number with an exponent
    that YAML left as text gets a note on why."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        note = ""
        if isinstance(v, str) and "e" in v.lower():
            with suppress(ValueError):
                float(v)
                note = (f", not the text {v!r}: YAML reads an exponent as a "
                        "number only with a decimal point and a signed "
                        "exponent, such as 1.0e-6")
        raise ScenarioError(f"{what} must be a number{note}")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ScenarioError(f"{what} must be a finite number")
    return x


def _numbers(v, what: str) -> np.ndarray:
    """A list of numbers, each read by `_number`, as a float array."""
    if not isinstance(v, (list, tuple)):
        raise ScenarioError(f"{what} must be a list of numbers")
    return np.array([_number(x, what) for x in v], dtype=float)


def _hashable(v):
    if isinstance(v, list):
        return tuple(_hashable(x) for x in v)
    return v


class _Fields(dict):
    """A scenario mapping named `what` (empty at the top level), read in a
    `with` block that records each key it asks for by `[...]`, `get` or
    `in`. A `spec` that is not a mapping is a ScenarioError, and so is any
    key the block did not ask for once it ends without an error: `unknown
    <what> field` and the keys in repr order (YAML keys need not be str)."""

    def __init__(self, spec, what: str):
        if not isinstance(spec, dict):
            raise ScenarioError(f"{what} {spec!r} is not a mapping")
        super().__init__(spec)
        self.field, self.read = f"{what} field".lstrip(), set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, *default):
        self.read.add(key)
        return super().get(key, *default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def __enter__(self):
        return self

    def __exit__(self, error, *_):
        unknown = sorted(self.keys() - self.read, key=repr)
        if error is None and unknown:
            raise ScenarioError(f"unknown {self.field} "
                                f"{', '.join(map(repr, unknown))}")


_COLLECTIONS = (list, dict, set)  # the YAML values that are not scalars


def _outcome(w):
    """An explicit market outcome, a scalar or a list of scalars, as a
    hashable value."""
    if not isinstance(w, _COLLECTIONS):
        return w
    if isinstance(w, list) and not any(isinstance(x, _COLLECTIONS)
                                       for x in w):
        return tuple(w)
    raise ScenarioError("market outcomes must be names or lists of names")


def build_market(spec) -> CostModel:
    """Build a cost model from a builder name or an explicit description."""
    if isinstance(spec, dict):
        with _Fields(spec, "market") as spec:
            outcomes = spec["outcomes"]
            if not isinstance(outcomes, list):
                raise ScenarioError("market outcomes must be a list")
            payoff = spec["payoff"]
            if not isinstance(payoff, (list, tuple)):
                raise ScenarioError("market payoff must be a list of rows")
            rows = [_numbers(row, "market payoff") for row in payoff]
            if len({len(row) for row in rows}) > 1:
                raise ScenarioError("market payoff rows must have the same length")
            space = OutcomeSpace(tuple(_outcome(w) for w in outcomes),
                                 np.array(rows))
            kind = spec.get("cost", "lmsr")
            if not isinstance(kind, str):
                raise ScenarioError("market cost must be a name")
            builders = {"lmsr": LmsrCost, "product-lmsr": IndependentBinaryCost,
                        "piecewise-linear": PiecewiseLinearCost}
            try:
                return builders[kind](space)
            except KeyError:
                raise ScenarioError(f"unknown market cost {kind!r}") from None
    if not isinstance(spec, str):
        raise ScenarioError("market must be a name or a mapping")
    m = re.fullmatch(r"(\w+)(?:\((\d+)\))?", spec.strip())
    if not m:
        raise ScenarioError(f"bad market name {spec!r}")
    name, arg = m.group(1), m.group(2)
    n = int(arg) if arg else None
    if n is not None and name in ("square", "binary"):
        raise ScenarioError(f"market {name!r} takes no argument")
    if n is not None and name in ("lmsr", "independent_binary",
                                  "medal_counts"):
        # lmsr(n) has n outcomes and the others 2^n, checked before anything
        # is built; the capped exponent keeps a huge n cheap
        if (n if name == "lmsr" else 2 ** min(n, 64)) > MAX_OUTCOMES:
            raise ScenarioError(f"market {spec.strip()!r} has more than "
                                f"{MAX_OUTCOMES} outcomes")
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
    if not isinstance(spec, dict):
        raise ScenarioError("observation must be a name or a mapping")
    with _Fields(spec, "observation") as spec:
        kind = spec.get("kind")
        if kind == "coordinate":
            return observe_coordinate(space, spec.get("index", 0))
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


def _name(spec: _Fields, key: str, default):
    """A trader's name: `spec[key]`, which must be a string, or `default`
    when the key is absent."""
    name = spec.get(key, default)
    if key in spec and not isinstance(name, str):
        raise ScenarioError(f"trader name {name!r} is not a string")
    return name


def _build_trader(spec: _Fields, name: str, obs, settlement):
    kind = spec.get("kind")
    times = _numbers(spec.get("times", []), f"trader {name!r}: times")
    budget = spec.get("budget")
    if budget is not None:
        budget = _number(budget, f"trader {name!r}: budget")
    if kind == "noise":
        scale = _number(spec.get("scale", 1.0), f"trader {name!r}: scale")
        return NoiseTrader(name, times, scale=scale, budget=budget)
    if kind == "belief":
        mu = _numbers(spec["belief"], f"trader {name!r}: belief")
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
        with _Fields(entry, "schedule") as entry:
            g = _checked_index(entry["block"], len(per_block),
                               "schedule block")
            per_block[g] = BlockSchedule(
                entry.get("kind", "constant"),
                rate=_number(entry.get("rate", 0.0), "schedule rate"),
                floor=_number(entry.get("floor", 1e-3), "schedule floor"))
    return Schedule(tuple(per_block), t0)


# libyaml composes nested nodes by C recursion, and a file nested some
# 20,000 levels deep overflows the C stack and kills the process. A file
# nests at most one level per character, so a longer one goes to the
# pure-Python parser, which raises RecursionError instead.
_LIBYAML_MAX_CHARS = 8192


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if len(text) > _LIBYAML_MAX_CHARS:
            raw = yaml.load(text, Loader=yaml.SafeLoader)
        else:
            raw = yaml.load(text, Loader=SafeLoader)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario: {e}") from e
    except (yaml.YAMLError, UnicodeDecodeError) as e:
        raise ScenarioError(f"scenario is not valid YAML: {e}") from e
    except RecursionError:
        raise ScenarioError("scenario is nested too deeply") from None
    except ValueError as e:
        # a scalar PyYAML resolves but cannot build: an integer past
        # Python's digit limit, or a date such as 2020-13-01
        raise ScenarioError(
            f"scenario has a value YAML cannot read: {e}") from None
    return parse_scenario(raw)


def parse_scenario(raw) -> Scenario:
    """Build a Scenario from a parsed document. Any field that is missing,
    malformed or rejected by a library builder raises ScenarioError."""
    try:
        if not isinstance(raw, dict):
            raise ScenarioError("scenario must be a key/value document")
        with _Fields(raw, "") as doc:
            return _parse_scenario(doc)
    except ScenarioError:
        raise
    except KeyError as e:
        raise ScenarioError(f"missing field {e.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as e:
        # OverflowError: an explicit market's payoff too large for a float
        raise ScenarioError(str(e)) from None
    except RecursionError:
        # libyaml composes a short file nested a few thousand levels deep,
        # and the fields' reprs and _hashable recurse through it
        raise ScenarioError("scenario is nested too deeply") from None


def _parse_scenario(raw: _Fields) -> Scenario:
    seed = raw["seed"]
    protocol = raw["protocol"]
    market_spec = raw["market"]
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
    s0 = _numbers(raw.get("initial_state", [0.0] * space.dim),
                  "initial_state")
    if s0.shape != (space.dim,):
        raise ScenarioError("initial_state has the wrong length")
    tol = _number(raw.get("tolerance", 1e-6), "tolerance")
    sc = Scenario(name=str(raw.get("name", "scenario")), seed=seed, tol=tol,
                  protocol=protocol, model=model, observation=obs,
                  initial_state=s0, settlement=settlement, raw=dict(raw))
    if protocol == "sudden":
        sc.switch_time = _number(raw["switch_time"], "switch_time")
        for spec in raw.get("traders", []):
            with _Fields(spec, "trader") as spec:
                name = _name(spec, "name", spec.get("kind"))
                sc.traders.append(_build_trader(spec, name, obs, settlement))
        check_sudden_inputs(model, obs, sc.traders, sc.switch_time,
                            settlement)
    else:
        if not isinstance(model, LcmmCost):
            raise ScenarioError("gradual protocol needs an LCMM market")
        sc.t0 = _number(raw.get("t0", 0.0), "t0")
        sc.schedule = _build_schedule(raw.get("schedules"), model, sc.t0)
        for entry in raw.get("requests", []):
            with _Fields(entry, "request") as entry:
                time = _number(entry["time"], "request time")
                trader = _name(entry, "trader", "t")
                bundle = agent = None
                if "bundle" in entry:
                    bundle = _numbers(entry["bundle"], "request bundle")
                else:
                    agent = _build_trader(entry, trader, obs, settlement)
                sc.requests.append(TradeRequest(time, trader, bundle, agent))
        check_gradual_inputs(model, sc.schedule, sc.t0, sc.requests,
                             settlement)
    return sc


def bundled_scenarios() -> dict:
    """Name -> path for the scenarios shipped with the package."""
    base = resources.files("cfmarkets") / "scenarios"
    return {p.name: p for p in sorted(base.iterdir(), key=lambda p: p.name)
            if p.name.endswith(".scn")}
