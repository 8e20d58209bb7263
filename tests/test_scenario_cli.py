import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cfmarkets
from cfmarkets import (IndependentBinaryCost, LcmmCost, LmsrCost,
                       PiecewiseLinearCost, ScenarioError, bundled_scenarios,
                       load_scenario)
from cfmarkets.cli import RECORD_FIELDS, cmd_check, cmd_run, main
from cfmarkets.scenario import (build_market, build_observation,
                                parse_scenario)


def scn(name):
    return str(bundled_scenarios()[name])


# ---------------------------------------------------------------------------
# Parsing


def test_bundled_scenarios_present():
    names = set(bundled_scenarios())
    assert {"square_sudden.scn", "square_count_impossible.scn",
            "square_count_symmetric.scn", "lmsr_partition_sudden.scn",
            "simplex_identity_check.scn", "square_random_trades.scn",
            "medal1_gradual.scn", "medal2_random_trades.scn"} <= names


def test_load_bundled_scenario():
    sc = load_scenario(scn("square_sudden.scn"))
    assert sc.protocol == "sudden"
    assert sc.seed == 7
    assert sc.settlement == (1, 1)
    assert len(sc.traders) == 3
    assert sc.switch_time == 1.0


def test_build_market_names():
    assert isinstance(build_market("square"), IndependentBinaryCost)
    assert isinstance(build_market("binary"), PiecewiseLinearCost)
    assert isinstance(build_market("lmsr(4)"), LmsrCost)
    assert isinstance(build_market("medal_counts(2)"), LcmmCost)
    assert build_market("independent_binary(3)").dim == 3
    explicit = build_market({"outcomes": ["a", "b"],
                             "payoff": [[1, 0], [0, 1]], "cost": "lmsr"})
    assert isinstance(explicit, LmsrCost)
    for bad in ("lmsr", "medal_counts", "unknown_market", "lmsr(x)"):
        with pytest.raises(ScenarioError):
            build_market(bad)
    with pytest.raises(ScenarioError):
        build_market(42)
    with pytest.raises(ScenarioError):
        build_market({"outcomes": ["a", "b"], "payoff": [[1, 0], [0, 1]],
                      "cost": "mystery"})


def test_build_observation_kinds():
    space = build_market("square").space
    assert build_observation(None, space).realizations == (0,)
    assert build_observation("sum", space).realizations == (0.0, 1.0, 2.0)
    assert build_observation({"kind": "coordinate", "index": 1},
                             space).realizations == (0.0, 1.0)
    assert len(build_observation({"kind": "identity"}, space).realizations) == 4
    part = build_observation(
        {"kind": "partition", "groups": [[[0, 0], [0, 1]], [[1, 0], [1, 1]]]},
        space)
    assert part.realizations == (0, 1)
    blk = build_observation({"kind": "block", "indices": [0]}, space)
    assert blk.realizations == ((0.0,), (1.0,))
    with pytest.raises(ScenarioError):
        build_observation({"kind": "mystery"}, space)


def test_parse_scenario_errors():
    base = {"seed": 1, "protocol": "sudden", "market": "square",
            "settlement": [1, 1], "switch_time": 1.0}
    with pytest.raises(ScenarioError):
        parse_scenario("not a mapping")
    for missing in ("seed", "protocol", "market"):
        bad = dict(base)
        del bad[missing]
        with pytest.raises(ScenarioError):
            parse_scenario(bad)
    with pytest.raises(ScenarioError):
        parse_scenario({**base, "seed": "seven"})
    with pytest.raises(ScenarioError):
        parse_scenario({**base, "seed": True})  # bool passes isinstance(int)
    with pytest.raises(ScenarioError, match="non-negative"):
        parse_scenario({**base, "seed": -3})
    for bad_state in ([float("nan"), 0.0], [0.0, float("inf")], ["a", 0.0],
                      [1.0e308, 0.0], [1.0e10, 0.0]):
        with pytest.raises(ScenarioError):
            parse_scenario({**base, "initial_state": bad_state})
    # a trade of size `tolerance` still moves an entry of 1e3
    assert parse_scenario({**base, "initial_state": [1.0e3, 0.0]}
                          ).initial_state[0] == 1.0e3
    for budget in (-1.0, float("nan"), "lots", True):
        with pytest.raises(ScenarioError):
            parse_scenario({**base, "traders": [
                {"kind": "noise", "times": [0.5], "budget": budget}]})
    # wrong length, not finite, outside the price space before and after
    # the switch
    for belief, time in (([0.5, 0.5, 0.5], 1.4), ([float("nan"), 0.5], 1.4),
                         ([2.0, 0.5], 1.4), ([2.0, 0.5], 0.5)):
        with pytest.raises(ScenarioError, match="belief"):
            parse_scenario({**base, "traders": [
                {"kind": "belief", "times": [time], "belief": belief}]})
    with pytest.raises(ScenarioError):
        parse_scenario({**base, "protocol": "telepathy"})
    with pytest.raises(ScenarioError):
        parse_scenario({**base, "settlement": [2, 2]})
    with pytest.raises(ScenarioError):
        parse_scenario({**base, "initial_state": [0.0]})
    no_switch = dict(base)
    del no_switch["switch_time"]
    with pytest.raises(ScenarioError):
        parse_scenario(no_switch)
    with pytest.raises(ScenarioError):
        parse_scenario({"seed": 1, "protocol": "gradual", "market": "square",
                        "settlement": [1, 1]})  # gradual needs an LCMM
    with pytest.raises(ScenarioError):
        parse_scenario({"seed": 1, "protocol": "gradual",
                        "market": "medal_counts(1)", "settlement": [1],
                        "requests": [{"time": 0.5, "bundle": [1.0]}]})
    with pytest.raises(ScenarioError):
        parse_scenario({**base, "market": "lmsr(0)"})
    with pytest.raises(ScenarioError):
        parse_scenario({**base, "switch_time": "soon"})
    with pytest.raises(ScenarioError):
        parse_scenario({**base, "market": {"outcomes": [[0], [1]]}})
    with pytest.raises(ScenarioError):
        parse_scenario({**base, "traders": [{"kind": "noise",
                                             "times": ["soon"]}]})
    with pytest.raises(ScenarioError):
        parse_scenario({**base, "observation": {"kind": "coordinate",
                                                "index": 5}})
    for switch_time in (float("nan"), float("inf")):
        with pytest.raises(ScenarioError):
            parse_scenario({**base, "switch_time": switch_time})
    with pytest.raises(ScenarioError):
        parse_scenario({**base, "switch_boundary": "during"})
    for jit in ({"kind": "jit", "times": [1.5], "realization": 0.0},
                {"kind": "jit", "times": [0.5]}):
        with pytest.raises(ScenarioError):  # contradicts settlement / early
            parse_scenario({**base, "observation": "coordinate",
                            "traders": [jit]})
    gradual = {"seed": 1, "protocol": "gradual", "market": "medal_counts(1)",
               "settlement": [1]}
    bundle = [0.5, 0.0, 0.0]
    with pytest.raises(ScenarioError):  # request times go backwards
        parse_scenario({**gradual, "requests": [
            {"time": 1.0, "bundle": bundle}, {"time": 0.5, "bundle": bundle}]})
    with pytest.raises(ScenarioError):
        parse_scenario({**gradual, "requests": [
            {"time": "soon", "bundle": bundle}]})
    for sched in ({"kind": "exponential", "rate": -1.0},
                  {"kind": "exponential", "rate": float("nan")},
                  {"kind": "quadratic"},
                  {"kind": "linear-to-floor", "rate": 0.1, "floor": 0.0},
                  {"kind": "linear-to-floor", "rate": 0.1, "floor": 1.5}):
        with pytest.raises(ScenarioError):
            parse_scenario({**gradual, "schedules": [{"block": 0, **sched}]})


def test_load_scenario_io_errors(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "missing.scn")
    bad = tmp_path / "bad.scn"
    bad.write_text("seed: [unclosed\n")
    with pytest.raises(ScenarioError):
        load_scenario(bad)


# ---------------------------------------------------------------------------
# cmd_run / cmd_check exit codes


def test_cmd_run_success_and_jsonl_shape(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert cmd_run(scn("square_sudden.scn"), out=str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines
    kinds = []
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == set(RECORD_FIELDS)
        assert rec["pass"] in (None, True, False)
        kinds.append(rec["kind"])
    assert "trade" in kinds and "switch" in kinds and "settlement" in kinds


def test_cmd_run_inconsistent_scenario_fails(capsys):
    assert cmd_run(scn("square_count_impossible.scn")) == 1
    err = capsys.readouterr().err
    assert "allow-inconsistent" in err
    assert "0.0618" in err  # the inconsistency witness value


def test_cmd_run_allow_inconsistent_reports_and_passes(tmp_path):
    out = tmp_path / "run.jsonl"
    assert cmd_run(scn("square_count_impossible.scn"), out=str(out),
                   allow_inconsistent=True) == 0
    recs = [json.loads(l) for l in out.read_text().splitlines()]
    exutil = [r for r in recs if r["check"] == "EXUTIL"]
    assert exutil and exutil[0]["pass"] is False  # reported, not enforced


OVERLAPPING_DIAGONALS = """\
seed: 3
market: square
protocol: sudden
observation: {kind: partition, groups: [[[0, 0], [1, 1]], [[0, 1], [1, 0]]]}
switch_time: 1.0
settlement: [1, 1]
traders: [{kind: noise, name: n1, times: [0.5, 1.5]}]
"""


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_cmd_run_overlapping_cells(tmp_path, capsys):
    path = tmp_path / "diagonals.scn"
    path.write_text(OVERLAPPING_DIAGONALS)
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "FAIL: inconsistent switch plan" in err
    assert "realizations 0 and 1 overlap" in err
    # traded through, the infinite violation is written as strict JSON null
    assert main(["run", str(path), "--allow-inconsistent"]) == 0
    recs = [json.loads(line, parse_constant=_reject_constant)
            for line in capsys.readouterr().out.splitlines()]
    switch = [r for r in recs if r["kind"] == "switch"]
    assert switch and switch[0]["value"] is None
    assert switch[0]["pass"] is False
    assert main(["check", str(path)]) == 1
    assert "realizations 0 and 1 overlap" in capsys.readouterr().out


def test_cmd_run_exposed_switch_at_clipped_state(tmp_path, capsys):
    # a boundary belief drives the state to the logit clip, [120, 0], before
    # a coordinate revelation: exposed cells are consistent at any state
    text = Path(scn("square_count_impossible.scn")).read_text()
    for old, new in (("{kind: sum}", "{kind: coordinate, index: 0}"),
                     ("belief: [1.0, 0.0]", "belief: [1.0, 0.5]"),
                     ("times: [1.4]", "times: [0.5]")):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "clipped.scn"
    path.write_text(text)
    assert main(["run", str(path)]) == 0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    switch = [r for r in recs if r["check"] == "consistency"]
    assert len(switch) == 1
    assert switch[0]["pass"] is True and switch[0]["value"] == 0.0
    assert switch[0]["state"][0] == pytest.approx(120.0)


@pytest.mark.parametrize("tolerance",
                         [0.0, -1.0, float("nan"), float("inf")])
def test_parse_scenario_rejects_nonpositive_tolerance(tolerance):
    raw = {"seed": 1, "protocol": "sudden", "market": "square",
           "settlement": [1, 1], "switch_time": 1.0, "tolerance": tolerance}
    with pytest.raises(ScenarioError, match="tolerance must be"):
        parse_scenario(raw)


def test_cmd_run_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("market: square\n")  # missing required fields
    assert cmd_run(str(bad)) == 2
    assert "error:" in capsys.readouterr().err


SUDDEN_FIELDS = {"seed": "seed: 1", "protocol": "protocol: sudden",
                 "market": "market: square",
                 "observation": "observation: {kind: coordinate, index: 0}",
                 "switch_time": "switch_time: 1.0",
                 "settlement": "settlement: [1, 1]",
                 "initial_state": "initial_state: [0.0, 0.0]",
                 "traders": "traders: []"}
# a line naming `schedules` or `requests` goes into a gradual scenario
GRADUAL_FIELDS = {"seed": "seed: 1", "protocol": "protocol: gradual",
                  "market": "market: medal_counts(1)",
                  "settlement": "settlement: [1]",
                  "schedules": "schedules: []",
                  "requests": "requests: [{time: 0.5, bundle: [0.5, 0, 0]}]"}


@pytest.mark.parametrize("line", [
    "seed: true",
    "seed: -3",
    "initial_state: [.nan, 0.0]",
    "initial_state: [.inf, 0.0]",
    "traders: [{kind: noise, times: [0.5], budget: -1.0}]",
    "market: lmsr(0)",
    "switch_time: soon",
    "observation: {kind: coordinate, index: 5}",
    "requests: [{time: 1.0, bundle: [0.5, 0, 0]}, "
    "{time: 0.5, bundle: [0.5, 0, 0]}]",
    "requests: [{time: soon, bundle: [0.5, 0, 0]}]",
    "schedules: [{block: 0, kind: exponential, rate: -1.0}]",
    "schedules: [{block: 0, kind: exponential, rate: .nan}]",
    "schedules: [{block: 0, kind: quadratic}]",
    "schedules: [{block: 0, kind: linear-to-floor, rate: 0.1, floor: 1.5}]",
    "switch_time: .nan",
    "switch_time: .inf",
    "switch_boundary: during",
    "traders: [{kind: jit, times: [1.5], realization: 0.0}]",
    "traders: [{kind: jit, times: [0.5]}]",
    "traders: [{kind: belief, times: [1.4], belief: [2.0, 0.5]}]",
    "traders: [{kind: belief, times: [0.5], belief: [2.0, 0.5]}]",
    "traders: [{kind: belief, times: [1.4], belief: [0.5, 0.5, 0.5]}]",
    "traders: [{kind: belief, times: [1.4], belief: [.nan, 0.5]}]",
    "initial_state: [1.0e308, 0.0]",
    "initial_state: [1.0e10, 0.0]",
])
def test_cmd_run_rejects_bad_field_with_exit_2(tmp_path, capsys, line):
    key = line.split(":")[0]
    fields = dict(GRADUAL_FIELDS if key in ("schedules", "requests")
                  else SUDDEN_FIELDS)
    fields[key] = line
    bad = tmp_path / "bad.scn"
    bad.write_text("\n".join(fields.values()) + "\n")
    assert main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name, flags", [
    ("square_sudden.scn", ["--seed", "-1"]),
    ("medal1_gradual.scn", ["--seed", "-1"]),
    ("square_sudden.scn", ["--tol", "-1"]),
    ("square_sudden.scn", ["--tol", "nan"]),
    ("medal1_gradual.scn", ["--tol", "0"]),
    ("square_sudden.scn", ["--tol", "inf"]),
])
def test_cmd_run_rejects_bad_override_with_exit_2(capsys, name, flags):
    # an override passes the checks the file's own seed and tolerance pass
    assert main(["run", scn(name)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_check_has_no_tolerance_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check", scn("square_sudden.scn"), "--tol", "1e-3"])
    assert e.value.code == 2


def test_count_switch_at_a_large_symmetric_state_passes_run_and_check(
        tmp_path, capsys):
    text = open(scn("square_count_symmetric.scn")).read().replace(
        "initial_state: [0.5, 0.5]", "initial_state: [100.0, 100.0]")
    path = tmp_path / "large.scn"
    path.write_text(text)
    assert cmd_run(str(path)) == 0
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    switch = [r for r in records if r["check"] == "consistency"]
    assert switch[0]["pass"] and switch[0]["value"] <= 1e-8
    assert cmd_check(str(path)) == 0
    assert "consistency at initial state: consistent" in \
        capsys.readouterr().out


def test_cmd_check_decides_exposure_once(monkeypatch, capsys):
    from cfmarkets import geometry
    calls = []
    real = geometry.separating_direction

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "separating_direction", counted)
    assert cmd_check(scn("square_count_impossible.scn")) == 1
    assert len(calls) == 1  # the precheck's answer serves the switch


def test_python_dash_m_runs_the_cli(capsys):
    path = scn("medal2_random_trades.scn")
    assert cmd_run(path) == 0
    expected = capsys.readouterr().out
    src = Path(cfmarkets.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "cfmarkets", "run", path],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected.encode()


def test_cmd_run_csv_format(tmp_path):
    out = tmp_path / "run.csv"
    assert cmd_run(scn("medal1_gradual.scn"), out=str(out), fmt="csv") == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert tuple(rows[0]) == RECORD_FIELDS
    state_col = RECORD_FIELDS.index("state")
    parsed = json.loads(rows[1][state_col])
    assert isinstance(parsed, list)  # vectors are JSON-encoded in csv cells


def test_cmd_run_seed_override_changes_output(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cmd_run(scn("square_random_trades.scn"), out=str(a)) == 0
    assert cmd_run(scn("square_random_trades.scn"), out=str(b), seed=99) == 0
    assert a.read_text() != b.read_text()


def test_cmd_check_sudden(capsys):
    assert cmd_check(scn("square_sudden.scn")) == 0
    report = capsys.readouterr().out
    assert "feasibility: guaranteed" in report
    assert "consistent" in report
    assert "worst-case loss bound" in report


def test_cmd_check_inconsistent(capsys):
    assert cmd_check(scn("square_count_impossible.scn")) == 1
    report = capsys.readouterr().out
    assert "INCONSISTENT" in report
    assert cmd_check(scn("square_count_impossible.scn"),
                     allow_inconsistent=True) == 0


def test_cmd_check_gradual(capsys):
    assert cmd_check(scn("medal2_random_trades.scn")) == 0
    report = capsys.readouterr().out
    assert "tight" in report
    assert "worst-case loss bound" in report


def test_main_dispatch(tmp_path, capsys):
    assert main(["check", scn("simplex_identity_check.scn")]) == 0
    capsys.readouterr()
    out = tmp_path / "out.jsonl"
    assert main(["run", scn("square_sudden.scn"), "--out", str(out),
                 "--seed", "7", "--format", "jsonl"]) == 0
    assert out.exists()
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_stdout_output(capsys):
    assert cmd_run(scn("simplex_identity_check.scn")) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == len(out.splitlines())
    json.loads(out.splitlines()[0])
