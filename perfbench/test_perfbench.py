"""Checks of the benchmark itself: tracing sees every layer and changes no
output, counts repeat exactly, and the command keeps its output contract.

Run from the repository root with `python3 -m pytest perfbench -q`. The
files are outside the repository's `testpaths`, so the library's own test
suite does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# layers the benchmark must reach on each workload (nonzero) and layers it
# must not reach there (zero)
REACHED = {
    "sudden_mc": ["geometry.lp.calls", "switching.plan_switch.calls",
                  "switching.consistency_check.calls",
                  "costs.lmsr.cost.calls", "costs.product-lmsr.cost.calls",
                  "costs.restricted.cost.calls", "costs.switched.cost.calls",
                  "solvers.project_onto_hull.calls",
                  "utility.util_event.calls", "simulate.run_protocol1.ms",
                  "simulate.bundle.jit.ms", "simulate.wc_loss_bound.ms"],
    "gradual_mc": ["lcmm.solve.calls", "lcmm.certificate_gap.calls",
                   "gradual.model_at.calls", "gradual.new_state.ms",
                   "costs.lmsr.cost.calls", "costs.scaled.cost.calls",
                   "simulate.run_protocol2.ms", "simulate.bundle.noise.ms"],
    "scenario_cli": ["geometry.lp.calls", "geometry.hull_contains.calls",
                     "geometry.min_weighted_value.calls",
                     "switching.check_desiderata.calls",
                     "costs.switched.conjugate.calls",
                     "solvers.project_onto_hull.calls",
                     "lcmm.solve.calls", "scenario.load_scenario.calls",
                     "cli.cmd_run.calls"],
}
UNREACHED = {
    "sudden_mc": ["switching.check_desiderata.calls", "lcmm.solve.calls",
                  "gradual.model_at.calls", "scenario.load_scenario.calls",
                  "cli.cmd_run.calls"],
    "gradual_mc": ["switching.check_desiderata.calls",
                   "switching.plan_switch.calls",
                   "switching.consistency_check.calls",
                   "costs.switched.cost.calls",
                   "scenario.load_scenario.calls", "cli.cmd_run.calls"],
    "scenario_cli": [],
}


def run_bench(workload, seed, trace, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


_cache: dict = {}


def traced(workload, seed):
    """Result line of a traced run, run once per (workload, seed)."""
    if (workload, seed) not in _cache:
        proc = run_bench(workload, seed, 1)
        assert proc.returncode == 0, proc.stderr
        _cache[workload, seed] = json.loads(proc.stdout.splitlines()[-1])
    return _cache[workload, seed]


def values(result):
    return {k: m["value"] for k, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_complete_and_changes_no_output(workload):
    result = traced(workload, 1)
    # the run compares every traced output with its untraced twin and
    # fails the operation on any difference
    assert result["correct"] and result["failed"] == 0
    got = values(result)
    assert list(got) == [m["name"] for m in SPEC["per_layer"]]
    for name in REACHED[workload]:
        assert got[name] > 0, name
    for name in UNREACHED[workload]:
        assert got[name] == 0, name
    for name, v in got.items():
        if name.endswith((".errors", ".unconverged")):
            assert v == 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first = values(traced(workload, 1))
    again = run_bench(workload, 1, 1)
    assert again.returncode == 0, again.stderr
    second = values(json.loads(again.stdout.splitlines()[-1]))
    counts = [k for k in first if k.endswith(".calls")] + [
        "solvers.project_onto_hull.iterations", "lcmm.solve.computed"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    held_out = traced(workload, 2)
    assert held_out["correct"] and held_out["failed"] == 0
    assert set(held_out["metrics"]) == set(first)


def test_tracer_wraps_by_name_imports_and_restores_them():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import importlib

    import cfmarkets
    import tracer

    names = ["utility.project_onto_hull", "costs.project_onto_hull",
             "cli.check_desiderata", "gradual.check_desiderata",
             "simulate.plan_switch", "cli.model_at", "simulate.model_at",
             "simulate.util_event", "simulate.optimizing_sequence",
             "geometry.linprog"]
    bindings = [(importlib.import_module(f"cfmarkets.{n.split('.')[0]}"),
                 n.split(".")[1]) for n in names]
    before = [getattr(mod, attr) for mod, attr in bindings]
    cost_before = cfmarkets.SwitchedCost.conjugate
    with tracer.install(tracer.Tracer()) as inst:
        wrapped = {(id(owner), attr) for owner, attr, _ in inst.bindings}
        for (mod, attr), original in zip(bindings, before):
            assert (id(mod), attr) in wrapped, (mod.__name__, attr)
            assert getattr(mod, attr) is not original
        assert cfmarkets.SwitchedCost.conjugate is not cost_before
    for (mod, attr), original in zip(bindings, before):
        assert getattr(mod, attr) is original
    assert cfmarkets.SwitchedCost.conjugate is cost_before


def test_traced_run_reports_output_that_tracing_changed():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import cfmarkets.geometry as geometry
    import run

    class SeesTracer:
        cycle = 1

        def op(self, i):
            return "case", hasattr(geometry.hull_contains, "__wrapped__")

    failures = []
    run.traced_run(SeesTracer(), "gradual_mc", ("case", False), failures)
    assert len(failures) == run.TRACE_OPS["gradual_mc"]
    assert all("traced output differs" in f for f in failures)


def test_end_to_end_result_line():
    proc = run_bench("sudden_mc", 3, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("sudden_mc", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
