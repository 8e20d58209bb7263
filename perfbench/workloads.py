"""The benchmark's three workloads.

Each workload is built from a workload seed and exposes `op(i)`, the i-th
operation of a closed loop with one client. Operation i draws its inputs
from `numpy.random.default_rng([seed, i])`, so the same seed and index give
the same inputs however many operations a run gets through. `op` checks
the operation's outputs, raises `CheckFailed` when a check fails, and
returns `(label, digest)`: the input case and a deterministic summary of
the outputs that traced and untraced runs must reproduce exactly.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

import cfmarkets as cf
from cfmarkets import cli

TOL = 1e-6  # tolerance of the output checks; the bundled scenarios use it too


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


class SuddenMc:
    """Seeded sudden-revelation runs (`run_protocol1`), bounded by
    `wc_loss_bound` and settled through `verify_loss`, cycling through three
    cases that take different paths through the cost layer:

    - square/coordinate(0): product closed form, exposed cells;
    - lmsr(4)/partition: simplex closed form;
    - square/sum under allow_inconsistent: a generic `RestrictedCost` solved
      by Frank-Wolfe, and the inconsistent-witness path.
    """

    name = "sudden_mc"
    cycle = 3

    def __init__(self, seed: int):
        self.seed = seed
        sq = cf.IndependentBinaryCost(cf.square_market())
        m4 = cf.LmsrCost(cf.simplex_market(4))
        # (label, model, observation, exposed cells, allow_inconsistent,
        #  with a belief trader)
        self.cases = (
            ("square/coordinate(0)", sq, cf.observe_coordinate(sq.space, 0),
             True, False, True),
            ("lmsr(4)/partition", m4,
             cf.observe_partition(m4.space, [[0, 1], [2, 3]]), True, False,
             False),
            ("square/sum", sq, cf.observe_sum(sq.space), False, True, False),
        )

    def op(self, i: int):
        label, model, obs, exposed, allow, belief = self.cases[i % self.cycle]
        rng = np.random.default_rng([self.seed, i])
        outcome = _pick(rng, model.space.outcomes)
        x = obs.of(outcome)
        s_ini = rng.uniform(-1.0, 1.0, model.dim)
        noise_times = [*rng.uniform(0.05, 0.95, 2), rng.uniform(1.2, 1.9)]
        traders = [cf.NoiseTrader("n1", noise_times, rng.uniform(0.5, 1.5)),
                   cf.JitArbitrageur("a1", [rng.uniform(1.0, 1.15)], obs, x)]
        if belief:
            traders.append(cf.BeliefTrader(
                "b1", [rng.uniform(1.2, 1.9)], [x, rng.uniform(0.05, 0.95)]))
        ledger = cf.run_protocol1(model, s_ini, obs, traders, 1.0, outcome,
                                  seed=int(rng.integers(2 ** 31)),
                                  allow_inconsistent=allow)
        bound = cf.wc_loss_bound(model, s_ini)
        ok, slack = cf.verify_loss(ledger, bound, tol=TOL)
        if not ok:
            raise CheckFailed(f"{label}: maker loss over the bound by {-slack}")
        consistent = ledger.plan.consistency.consistent
        if exposed and not consistent:
            raise CheckFailed(f"{label}: exposed cells gave an inconsistent "
                              f"switch")
        if consistent and ledger.trader_pnl["a1"] > TOL:
            # ZEROUTIL: knowing the realization is worth nothing after a
            # consistent switch
            raise CheckFailed(f"{label}: arbitrageur profit "
                              f"{ledger.trader_pnl['a1']} after the switch")
        digest = (ledger.maker_loss, tuple(ledger.final_state), consistent,
                  tuple(sorted(ledger.trader_pnl.items())))
        return label, digest


class GradualMc:
    """Seeded gradual-decrease runs (`run_protocol2`) on the medal-count
    LCMMs for n = 2 and n = 3, with seeded per-block liquidity schedules and
    4 to 6 noise requests each, settled through `verify_loss`."""

    name = "gradual_mc"
    cycle = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.models = []
        for n in (2, 3):
            m = cf.medal_count_model(n)
            # every schedule starts at liquidity 1, so the time-t0 model
            # prices like m and the bound from the zero state is fixed
            bound = cf.wc_loss_bound(m, np.zeros(m.dim))
            self.models.append((f"medal({n})", m, bound))

    def op(self, i: int):
        label, model, bound = self.models[i % self.cycle]
        rng = np.random.default_rng([self.seed, i])
        per_block = []
        for _ in model.blocks:
            kind = _pick(rng, ("constant", "exponential", "linear-to-floor"))
            per_block.append(cf.BlockSchedule(
                kind, rate=rng.uniform(0.1, 0.6),
                floor=rng.uniform(0.2, 0.6)))
        times = np.cumsum(rng.uniform(0.2, 0.8, int(rng.integers(4, 7))))
        requests = [cf.TradeRequest(float(t), f"n{k % 2}", agent=cf.NoiseTrader(
            f"n{k % 2}", [], rng.uniform(0.5, 1.0)))
            for k, t in enumerate(times)]
        outcome = _pick(rng, model.space.outcomes)
        ledger = cf.run_protocol2(model, cf.Schedule(tuple(per_block), 0.0),
                                  np.zeros(model.dim), 0.0, requests, outcome,
                                  seed=int(rng.integers(2 ** 31)))
        ok, slack = cf.verify_loss(ledger, bound, tol=TOL)
        if not ok:
            raise CheckFailed(f"{label}: maker loss over the bound by {-slack}")
        digest = (ledger.maker_loss, tuple(ledger.final_state),
                  tuple(sorted(ledger.trader_pnl.items())))
        return label, digest


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


class ScenarioCli:
    """`cfmarkets run` (`cmd_run`) on each bundled scenario in turn, with the
    scenario seed drawn from the workload seed. Only the impossible count
    scenario runs with --allow-inconsistent, as the acceptance suite does."""

    name = "scenario_cli"
    # revealing these observation kinds closes exposed cells, so the switch
    # must be consistent
    EXPOSED = ("coordinate", "partition", "identity")

    def __init__(self, seed: int):
        self.seed = seed
        self.scenarios = []
        for name, path in sorted(cf.bundled_scenarios().items()):
            obs = cf.load_scenario(path).raw.get("observation") or {}
            kind = obs.get("kind") if isinstance(obs, dict) else obs
            self.scenarios.append((name, str(path), kind in self.EXPOSED))
        self.cycle = len(self.scenarios)

    def op(self, i: int):
        name, path, exposed = self.scenarios[i % self.cycle]
        rng = np.random.default_rng([self.seed, i])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cmd_run(path, seed=int(rng.integers(2 ** 31)),
                               allow_inconsistent=name.startswith(
                                   "square_count_impossible"))
        if code != 0:
            raise CheckFailed(f"{name}: exit code {code}: {err.getvalue()}")
        text = out.getvalue()
        for line in text.splitlines():
            rec = json.loads(line, parse_constant=_reject_constant)
            if not isinstance(rec, dict) or \
                    set(rec) != set(cli.RECORD_FIELDS):
                raise CheckFailed(f"{name}: record fields {sorted(rec)}")
            if exposed and rec["check"] == "consistency" and not rec["pass"]:
                raise CheckFailed(f"{name}: exposed cells gave an "
                                  f"inconsistent switch")
        return name, text


WORKLOADS = {w.name: w for w in (SuddenMc, GradualMc, ScenarioCli)}
