"""Command-line surface: run scenario protocols and static checks.

Exit codes: 0 all enabled checks pass, 1 a check failed, the reader
closed stdout early, the output could not be written (a `--out` path
that cannot be opened, a full device), an LP stopped without an answer,
a switch cell's projection did not converge at the switch state, a jit
trader found no trade that collects its cell's utility, or a belief
trader found no state the switch prices at its belief, each of the last
five with one `error: ...` line on stderr, 2 the scenario could not be
parsed; in `check` a "not_tight" block fails.
Output records are line-delimited with the fixed field set {ts, kind,
state, price_center, spread, cost_delta, trader, check, value, pass} in
strict JSON, with non-finite numbers written as null; identical scenario
and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .gradual import model_at
from .lcmm import tightness_check
from .markets import exposure_witness
from .scenario import Scenario, ScenarioError, load_scenario
from .simulate import (InconsistentPlanError, run_protocol1, run_protocol2,
                       verify_loss, wc_loss_bound)
from .switching import check_desiderata, consistency_check

RECORD_FIELDS = ("ts", "kind", "state", "price_center", "spread",
                 "cost_delta", "trader", "check", "value", "pass")


def _num(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (np.floating, float)):
        return float(v) if math.isfinite(v) else None
    if isinstance(v, (np.integer, int)):
        return int(v)
    return v


def _record(**kw) -> dict:
    rec = {k: None for k in RECORD_FIELDS}
    for k, v in kw.items():
        rec[k] = ([_num(float(x)) for x in v] if isinstance(v, np.ndarray)
                  else _num(v))
    return rec


def _write_records(records, out, fmt: str):
    if fmt == "jsonl":
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True, allow_nan=False) + "\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RECORD_FIELDS)
    for rec in records:
        row = []
        for k in RECORD_FIELDS:
            v = rec[k]
            row.append(json.dumps(v, allow_nan=False)
                       if isinstance(v, list) else v)
        writer.writerow(row)


def _trade_records(ledger):
    for rec in ledger.records:
        p = rec.model.price(rec.state_after)
        yield _record(ts=rec.time, kind="trade", state=rec.state_after,
                      price_center=p.center, spread=p.spread,
                      cost_delta=rec.cost, trader=rec.trader)


def _settle(sc: Scenario, ledger, model, records, failures):
    """The loss-bound check against `model` at the initial state, its
    failure message, and the settlement record."""
    bound = wc_loss_bound(model, sc.initial_state)
    ok, slack = verify_loss(ledger, bound, tol=sc.tol)
    records.append(_record(ts=None, kind="check", check="loss_bound",
                           value=slack, **{"pass": ok}))
    if not ok:
        failures.append(f"maker loss exceeded the worst-case bound by {-slack:.3g}")
    records.append(_record(ts=None, kind="settlement",
                           state=ledger.final_state, value=ledger.maker_loss,
                           **{"pass": ok}))


def _run_sudden(sc: Scenario, allow_inconsistent: bool):
    records = []
    failures = []
    try:
        ledger = run_protocol1(sc.model, sc.initial_state, sc.observation,
                               sc.traders, sc.switch_time, sc.settlement,
                               seed=sc.seed,
                               allow_inconsistent=allow_inconsistent)
    except InconsistentPlanError as e:
        v = e.plan.consistency
        records.append(_record(ts=sc.switch_time, kind="switch",
                               check="consistency",
                               value=v.worst_violation, **{"pass": False}))
        if "overlap" in v.witness:
            x, y = v.witness["overlap"]
            why = f"the cells of realizations {x!r} and {y!r} overlap"
        else:
            mu = [round(float(c), 6) for c in v.witness["mu"]]
            why = f"worst violation {v.worst_violation:.6g} at mu={mu}"
        return records, ["inconsistent switch plan (use --allow-inconsistent "
                         f"to trade through it); {why}"]

    records.extend(_trade_records(ledger))
    plan = ledger.plan
    verdict = plan.consistency
    consistent = verdict.consistent
    records.append(_record(ts=sc.switch_time, kind="switch",
                           state=plan.switch_state, check="consistency",
                           value=verdict.worst_violation,
                           **{"pass": consistent}))
    report = check_desiderata((sc.model, plan.switch_state),
                              (plan, plan.switch_state),
                              sc.observation, tol=sc.tol, seed=sc.seed)
    for name, row in report.items():
        # PRICE is not gated: the switch opens a spread on the revealed
        # coordinates; an inconsistent switch is held to ZEROUTIL alone
        enabled = name != "PRICE" and (consistent or name == "ZEROUTIL")
        records.append(_record(ts=sc.switch_time, kind="check",
                               check=name, value=row.worst,
                               **{"pass": row.passed}))
        if enabled and not row.passed:
            failures.append(f"desideratum {name} failed "
                            f"(worst deviation {row.worst:.3g})")
    _settle(sc, ledger, sc.model, records, failures)
    return records, failures


def _run_gradual(sc: Scenario):
    ledger = run_protocol2(sc.model, sc.schedule, sc.initial_state, sc.t0,
                           sc.requests, sc.settlement, seed=sc.seed)
    records, failures = list(_trade_records(ledger)), []
    _settle(sc, ledger, model_at(sc.model, sc.schedule, sc.t0), records,
            failures)
    return records, failures


def cmd_run(path, out=None, seed=None, tol=None,
            allow_inconsistent: bool = False, fmt: str = "jsonl") -> int:
    try:
        sc = load_scenario(path)
        # `replace` re-runs the checks the file's seed and tolerance passed
        if seed is not None:
            sc = replace(sc, seed=int(seed))
        if tol is not None:
            sc = replace(sc, tol=float(tol))
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if sc.protocol == "sudden":
        records, failures = _run_sudden(sc, allow_inconsistent)
    else:
        records, failures = _run_gradual(sc)
    if out is None:
        _write_records(records, sys.stdout, fmt)
    else:
        buf = io.StringIO()
        _write_records(records, buf, fmt)
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


def cmd_check(path, allow_inconsistent: bool = False) -> int:
    try:
        sc = load_scenario(path)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    ok = True
    print(f"scenario: {sc.name}")
    if sc.protocol == "sudden":
        # every cell exposed: consistent at every state (arXiv 1407.8161)
        witnesses = exposure_witness(sc.model.space, sc.observation)
        exposed = all(w is not None for w in witnesses.values())
        print(f"feasibility: {'guaranteed' if exposed else 'unknown'}")
        for x in sc.observation.realizations:
            w = witnesses[x]
            tag = ("exposed, witness "
                   f"{[round(float(v), 3) for v in w]}"
                   if w is not None else "no exposure witness")
            print(f"  cell {x!r}: {tag}")
        verdict = consistency_check(sc.model, sc.observation,
                                    sc.initial_state)
        print(f"consistency at initial state: "
              f"{'consistent' if verdict.consistent else 'INCONSISTENT'} "
              f"({verdict.path}; worst violation "
              f"{verdict.worst_violation:.6g})")
        if not verdict.consistent:
            if "mu" in verdict.witness:
                mu = [round(float(v), 6) for v in verdict.witness["mu"]]
                print(f"  witness: mu={mu} for realization "
                      f"{verdict.witness['realization']!r}")
            else:
                x, y = verdict.witness["overlap"]
                print(f"  witness: the cells of realizations {x!r} and "
                      f"{y!r} overlap")
            ok = allow_inconsistent
        bound = wc_loss_bound(sc.model, sc.initial_state)
    else:
        for g in range(len(sc.model.blocks)):
            res = tightness_check(sc.model, g)
            print(f"block {g} {sc.model.blocks[g]}: {res.status}")
            ok = ok and bool(res)
        bound = wc_loss_bound(model_at(sc.model, sc.schedule, sc.t0),
                              sc.initial_state)
    print(f"worst-case loss bound: {bound:.9f}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cfmarkets",
        description="cost-function market maker scenarios")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario protocol")
    run_p.add_argument("scenario")
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--tol", type=float, default=None)
    run_p.add_argument("--allow-inconsistent", action="store_true")
    run_p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    check_p = sub.add_parser("check", help="static feasibility/loss report")
    check_p.add_argument("scenario")
    check_p.add_argument("--allow-inconsistent", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            code = cmd_run(args.scenario, out=args.out, seed=args.seed,
                           tol=args.tol,
                           allow_inconsistent=args.allow_inconsistent,
                           fmt=args.format)
        else:
            code = cmd_check(args.scenario,
                             allow_inconsistent=args.allow_inconsistent)
        sys.stdout.flush()
    except OSError as e:
        # the output could not be written: exit 1, with stdout on the null
        # device so that the interpreter's own last flush cannot fail
        # again; a reader that closed stdout asked for no more, so a broken
        # pipe goes unreported
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(e, BrokenPipeError):
            print(f"error: cannot write output: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:  # a solver stopped, or a trader found no trade
        print(f"error: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
