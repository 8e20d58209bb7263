import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import cfmarkets
from cfmarkets import (IndependentBinaryCost, LcmmCost, LmsrCost,
                       PiecewiseLinearCost, ScenarioError, bundled_scenarios,
                       load_scenario)
from cfmarkets.cli import RECORD_FIELDS, cmd_check, cmd_run, main
from cfmarkets import scenario
from cfmarkets.scenario import (MAX_OUTCOMES, build_market, build_observation,
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
    for bad in ("lmsr", "medal_counts", "unknown_market", "lmsr(x)",
                "square(7)", "binary(3)"):
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
    for budget in (-1.0, float("nan"), float("inf"), "lots", True):
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
    bad.write_bytes(b"\xff\xfeseed: 1\n")  # not UTF-8
    with pytest.raises(ScenarioError):
        load_scenario(bad)
    bad.write_text("seed: " + "[" * 2000 + "]" * 2000 + "\n")
    with pytest.raises(ScenarioError):  # deeper than PyYAML can compose
        load_scenario(bad)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
@pytest.mark.parametrize("name", sorted(bundled_scenarios()))
def test_libyaml_and_pure_python_parse_the_same_document(name):
    text = Path(scn(name)).read_text(encoding="utf-8")
    assert (yaml.load(text, Loader=yaml.CSafeLoader)
            == yaml.load(text, Loader=yaml.SafeLoader))


def test_loader_follows_what_is_installed_and_the_file_length(
        tmp_path, monkeypatch):
    used = []
    real = yaml.load

    def load(stream, Loader):
        used.append(Loader)
        return real(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", load)
    load_scenario(scn("square_sudden.scn"))
    long = tmp_path / "long.scn"
    long.write_text(Path(scn("square_sudden.scn")).read_text()
                    + "#" * scenario._LIBYAML_MAX_CHARS + "\n")
    assert load_scenario(long).seed == 7
    fast = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert used == [fast, yaml.SafeLoader]


def test_a_file_nested_past_the_c_stack_exits_2(tmp_path):
    # libyaml would compose this by C recursion until the process dies
    deep = tmp_path / "deep.scn"
    deep.write_text("seed: " + "[" * 30000 + "]" * 30000 + "\n")
    src = Path(cfmarkets.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "cfmarkets", "check",
                           str(deep)], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


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


def test_a_failed_desideratum_exits_1_with_strict_records(capsys):
    # at a tolerance of 1e-300 the audit's roundoff fails a desideratum;
    # the run still writes every record and settles
    assert main(["run", scn("square_sudden.scn"), "--tol", "1e-300"]) == 1
    out, err = capsys.readouterr()
    assert any(line.startswith("FAIL: desideratum ")
               for line in err.splitlines())
    assert "Traceback" not in err
    recs = [json.loads(line, parse_constant=_reject_constant)
            for line in out.splitlines()]
    assert recs[-1]["kind"] == "settlement"


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


BIG = "1" + "0" * 400  # a 401-digit integer, past the float maximum
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
    "traders: [{kind: noise, times: [0.5], budget: .inf}]",
    "market: lmsr(0)",
    "market: lmsr(100000)",
    "market: independent_binary(40)",
    "switch_time: soon",
    "observation: {kind: coordinate, index: 5}",
    "observation: {kind: coordinate, index: 1.7}",
    "observation: {kind: coordinate, index: true}",
    "observation: {kind: block, indices: [0.5]}",
    "observation: {kind: block, indices: [true]}",
    "observation: {kind: block, indices: [5]}",
    "requests: [{time: 1.0, bundle: [0.5, 0, 0]}, "
    "{time: 0.5, bundle: [0.5, 0, 0]}]",
    "requests: [{time: soon, bundle: [0.5, 0, 0]}]",
    "schedules: [{block: 0, kind: exponential, rate: -1.0}]",
    "schedules: [{block: 0.9, kind: exponential, rate: 0.1}]",
    "schedules: [{block: true, kind: exponential, rate: 0.1}]",
    "schedules: [{block: 5, kind: exponential, rate: 0.1}]",
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
    "traders: [{kind: belief, times: [1.5], belief: [0.5, 0.5]}]",
    "traders: [5]",
    "observation: {kind: partition, groups: [[[0, 0], [0, 1]], "
    "[[0, 1], [1, 0], [1, 1]]]}",
    "traders: [noise]",
    "observation: 5",
    "observation: [coordinate]",
    "traders: [{kind: noise, name: [1], times: [0.5]}]",
    "traders: [{kind: noise, times: [0.5], scale: .nan}]",
    "traders: [{kind: noise, times: [0.5], scale: .inf}]",
    "traders: [{kind: noise, times: [0.5], scale: 1.0e308}]",
    "requests: [{time: 0.5, kind: noise, scale: .nan}]",
    "requests: [{time: 0.5, kind: noise, scale: .inf}]",
    "requests: [{time: 0.5, kind: noise, scale: 1.0e308}]",
    # a number field takes an int or a float that is finite as a float:
    # never a bool, a string or an integer too large for a float
    "tolerance: yes",
    f"tolerance: {BIG}",
    'switch_time: "1.0"',
    f"switch_time: {BIG}",
    'initial_state: ["0.5", "0"]',
    f"initial_state: [{BIG}, 0]",
    "initial_state: 0.5",
    f"traders: [{{kind: noise, times: [0.5], scale: {BIG}}}]",
    "traders: [{kind: noise, times: [0.5], scale: '1'}]",
    f"traders: [{{kind: noise, times: [{BIG}]}}]",
    "traders: [{kind: noise, times: ['0.5']}]",
    "traders: [{kind: noise, times: [0.2, .nan]}]",
    "traders: [{kind: noise, times: [0.2, .inf]}]",
    "traders: [{kind: noise, times: [0.2, -.inf]}]",
    "traders: [{kind: belief, times: [0.5], belief: ['0.5', '0.5']}]",
    f"observation: {{kind: coordinate, index: {BIG}}}",
    f"market: {{outcomes: [a, b], payoff: [[{BIG}, 0], [0, 1]]}}",
    "market: square(7)",
    "market: binary(3)",
    't0: "0"',
    "t0: .inf",
    "requests: [{time: 0.5, bundle: [.nan, 0, 0]}]",
    "requests: [{time: 0.5, bundle: [true, 0, 0]}]",
    "requests: [{time: '0.5', bundle: [0.5, 0, 0]}]",
    "schedules: [{block: 0, kind: exponential, rate: '0.1'}]",
    "schedules: [{block: 0, kind: exponential, rate: yes}]",
], ids=lambda line: line.replace(BIG, "BIG"))
def test_cmd_run_rejects_bad_field_with_exit_2(tmp_path, capsys, line):
    key = line.split(":")[0]
    fields = dict(GRADUAL_FIELDS if key in ("schedules", "requests", "t0")
                  else SUDDEN_FIELDS)
    fields[key] = line
    bad = tmp_path / "bad.scn"
    bad.write_text("\n".join(fields.values()) + "\n")
    for command in ("run", "check"):
        assert main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("payoff, problem", [
    ("[['1', '0'], ['0', '1']]", "must be a number"),
    (f"[[{BIG}, 0], [0, 1]]", "must be a finite number"),
    ("5", "must be a list of rows"),
    ("[[1, 0], [0]]", "rows must have the same length"),
], ids=["strings", "BIG", "scalar", "ragged"])
def test_an_explicit_payoff_is_read_by_the_number_reader(tmp_path, capsys,
                                                         payoff, problem):
    # settles on outcome a, so only the payoff can fail the file; the
    # last run checks that the same file with number rows passes
    fields = dict(SUDDEN_FIELDS, settlement="settlement: a",
                  market=f"market: {{outcomes: [a, b], payoff: {payoff}}}")
    bad = tmp_path / "payoff.scn"
    bad.write_text("\n".join(fields.values()) + "\n")
    for command in ("run", "check"):
        assert main([command, str(bad)]) == 2
        assert (capsys.readouterr().err
                == f"error: market payoff {problem}\n")
    fields["market"] = "market: {outcomes: [a, b], payoff: [[1, 0], [0, 1]]}"
    bad.write_text("\n".join(fields.values()) + "\n")
    assert main(["check", str(bad)]) == 0


@pytest.mark.parametrize("market, error", [
    ("{outcomes: 5, payoff: [[1, 0], [0, 1]]}",
     "market outcomes must be a list"),
    ("{outcomes: [a, b], payoff: [[1, 0], [0, 1]], cost: [x]}",
     "market cost must be a name"),
    ("{outcomes: [a, b], payoff: [[1, 0], [0, 1]], cost: 5}",
     "market cost must be a name"),
    ("{outcomes: [a, b], payoff: [[1, 0], [0, 1]], cost: quadratic}",
     "unknown market cost 'quadratic'"),
    ("{outcomes: [{a: 1}, b, c], payoff: [[1,0,0],[0,1,0],[0,0,1]], "
     "cost: lmsr}", "market outcomes must be names or lists of names"),
    ("{outcomes: [a, [b, [c]]], payoff: [[1, 0], [0, 1]]}",
     "market outcomes must be names or lists of names"),
], ids=["outcomes-int", "cost-list", "cost-int", "cost-unknown",
        "outcome-mapping", "outcome-nested-list"])
def test_an_explicit_market_names_the_field_that_fails(tmp_path, capsys,
                                                       market, error):
    fields = dict(SUDDEN_FIELDS, settlement="settlement: a",
                  market=f"market: {market}")
    bad = tmp_path / "market.scn"
    bad.write_text("\n".join(fields.values()) + "\n")
    for command in ("run", "check"):
        assert main([command, str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("lines, error", [
    (["switch_boundary: before"], "unknown field 'switch_boundary'"),
    (["tolerence: 1.0e-3"], "unknown field 'tolerence'"),
    (["5: x"], "unknown field 5"),
    # keys of mixed types are listed in the order of their reprs
    (["zz: 1", "3: 2", "null: 1"], "unknown field 'zz', 3, None"),
], ids=["switch_boundary", "typo", "int-key", "mixed-keys"])
def test_an_unknown_top_level_field_exits_2(tmp_path, capsys, lines, error):
    bad = tmp_path / "unknown.scn"
    bad.write_text("\n".join([*SUDDEN_FIELDS.values(), *lines]) + "\n")
    with pytest.raises(ScenarioError, match="unknown field"):
        load_scenario(bad)
    for command in ("run", "check"):
        assert main([command, str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
    # the same file without the extra lines runs
    bad.write_text("\n".join(SUDDEN_FIELDS.values()) + "\n")
    assert main(["run", str(bad)]) == 0


@pytest.mark.parametrize("line, error", [
    ("traders: [{kind: jit, name: a1, time: [1.1]}]",
     "unknown trader field 'time'"),
    ("traders: [{kind: noise, name: n, times: [0.5], sclae: 2, 7: x}]",
     "unknown trader field 'sclae', 7"),
    ("schedules: [{block: 0, kind: exponential, rates: 0.5}]",
     "unknown schedule field 'rates'"),
], ids=["trader-time", "trader-two-keys", "schedule-rates"])
def test_an_unknown_trader_or_schedule_field_exits_2(tmp_path, capsys, line,
                                                     error):
    key = line.split(":")[0]
    fields = dict(GRADUAL_FIELDS if key == "schedules" else SUDDEN_FIELDS)
    fields[key] = line
    bad = tmp_path / "unknown.scn"
    bad.write_text("\n".join(fields.values()) + "\n")
    for command in ("run", "check"):
        assert main([command, str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


EXPLICIT = "market: {outcomes: [a, b], payoff: [[1, 0], [0, 1]]"


@pytest.mark.parametrize("protocol, lines, error", [
    ("sudden", ["t0: 0.0"], "unknown field 't0'"),
    ("gradual", ["switch_time: 1.0"], "unknown field 'switch_time'"),
    ("gradual", ["traders: []"], "unknown field 'traders'"),
    ("sudden", ["settlement: a", EXPLICIT + ", costs: lmsr}"],
     "unknown market field 'costs'"),
    ("sudden", ["settlement: a", EXPLICIT + ", cost: lmsr, name: m}"],
     "unknown market field 'name'"),
    ("sudden", ["observation: {kind: coordinate, index: 0, indx: 1}"],
     "unknown observation field 'indx'"),
    ("sudden", ["observation: {kind: sum, index: 0}"],
     "unknown observation field 'index'"),
    ("sudden", ["traders: [{kind: noise, times: [0.5], belief: [1, 0]}]"],
     "unknown trader field 'belief'"),
    ("sudden", ["traders: [{kind: belief, times: [0.5], belief: [0.5, 0.5], "
                "scale: 2}]"], "unknown trader field 'scale'"),
    ("gradual", ["schedules: [{block: 0, kind: constant, time: 1.0}]"],
     "unknown schedule field 'time'"),
    ("gradual", ["requests: [{time: 0.5, bundle: [0.5, 0, 0], kind: noise}]"],
     "unknown request field 'kind'"),
    ("gradual", ["requests: [{time: 0.5, kind: noise, scale: 0.5, "
                 "belief: [0.5, 0.5, 1.0]}]"],
     "unknown request field 'belief'"),
    # an agent on a request is named by the request's `trader`
    ("gradual", ["requests: [{time: 0.5, trader: n1, kind: noise, "
                 "scale: 0.5, name: x}]"], "unknown request field 'name'"),
], ids=["top-level-t0-in-sudden", "switch_time-in-gradual",
        "traders-in-gradual", "market", "market-name", "observation",
        "index-on-sum", "belief-on-noise", "scale-on-belief", "schedule",
        "request-bundle", "request-agent", "request-agent-name"])
def test_a_key_its_reader_does_not_ask_for_exits_2(tmp_path, capsys,
                                                    protocol, lines, error):
    fields = dict(SUDDEN_FIELDS if protocol == "sudden" else GRADUAL_FIELDS)
    for line in lines:
        fields[line.split(":")[0]] = line
    bad = tmp_path / "unknown.scn"
    bad.write_text("\n".join(fields.values()) + "\n")
    for command in ("run", "check"):
        assert main([command, str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("protocol, line, error", [
    ("gradual", "requests: [5]", "request 5 is not a mapping"),
    ("gradual", "requests: [{bundle: [0.5, 0, 0]}]", "missing field 'time'"),
    ("gradual", "schedules: [[0, constant]]",
     "schedule [0, 'constant'] is not a mapping"),
    ("gradual", "schedules: [{kind: constant}]", "missing field 'block'"),
    ("sudden", "traders: [noise]", "trader 'noise' is not a mapping"),
    ("gradual", "requests: [{time: 0.5, trader: [1, 2], bundle: [0.5, 0, 0]}]",
     "trader name [1, 2] is not a string"),
], ids=["request-scalar", "request-time", "schedule-list", "schedule-block",
        "trader-name", "request-trader"])
def test_an_entry_that_is_not_a_mapping_or_misses_a_field_exits_2(
        tmp_path, capsys, protocol, line, error):
    fields = dict(SUDDEN_FIELDS if protocol == "sudden" else GRADUAL_FIELDS)
    fields[line.split(":")[0]] = line
    bad = tmp_path / "entry.scn"
    bad.write_text("\n".join(fields.values()) + "\n")
    for command in ("run", "check"):
        assert main([command, str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("key", ["seed", "protocol", "market",
                                 "switch_time"])
def test_a_missing_top_level_field_is_named_like_any_other(tmp_path, capsys,
                                                           key):
    fields = dict(SUDDEN_FIELDS)
    del fields[key]
    bad = tmp_path / "missing.scn"
    bad.write_text("\n".join(fields.values()) + "\n")
    for command in ("run", "check"):
        assert main([command, str(bad)]) == 2
        assert capsys.readouterr().err == f"error: missing field {key!r}\n"


def test_a_malformed_value_is_reported_before_an_unknown_key(tmp_path,
                                                             capsys):
    # the keys are checked when their mapping has been read in full
    fields = dict(SUDDEN_FIELDS, seed="seed: -3")
    bad = tmp_path / "both.scn"
    bad.write_text("\n".join([*fields.values(), "tolerence: 1.0e-3"]) + "\n")
    assert main(["run", str(bad)]) == 2
    assert (capsys.readouterr().err
            == "error: seed must be a non-negative integer\n")


def test_a_yaml_value_python_cannot_build_exits_2(tmp_path, capsys):
    # PyYAML resolves both scalars, then int() and date() refuse them
    digits = "7" * 5000
    with pytest.raises(ValueError) as limit:
        int(digits)
    for line, cause in ((f"seed: {digits}", str(limit.value)),
                        ("seed: 2020-13-01", "month must be in 1..12")):
        bad = tmp_path / "value.scn"
        bad.write_text("\n".join({**SUDDEN_FIELDS, "seed": line}.values())
                       + "\n")
        for command in ("run", "check"):
            assert main([command, str(bad)]) == 2
            err = capsys.readouterr().err
            assert err == ("error: scenario has a value YAML cannot read: "
                           f"{cause}\n")
            assert "Traceback" not in err


@pytest.mark.parametrize("key", ["protocol", "settlement", "name"])
def test_a_short_file_with_a_deeply_nested_field_exits_2(tmp_path, capsys,
                                                         key):
    # libyaml composes it, and the field's repr or _hashable recurses
    fields = dict(SUDDEN_FIELDS)
    fields[key] = f"{key}: " + "[" * 1500 + "]" * 1500
    bad = tmp_path / "deep.scn"
    bad.write_text("\n".join(fields.values()) + "\n")
    assert len(bad.read_text()) <= scenario._LIBYAML_MAX_CHARS
    with pytest.raises(ScenarioError, match="nested too deeply"):
        load_scenario(bad)
    for command in ("run", "check"):
        assert main([command, str(bad)]) == 2
        assert (capsys.readouterr().err
                == "error: scenario is nested too deeply\n")


@pytest.mark.parametrize("market", ["lmsr(100000)", "independent_binary(40)",
                                    "medal_counts(9)", "lmsr(257)"])
def test_oversized_market_exits_2_before_it_is_built(tmp_path, capsys,
                                                     market):
    fields = dict(SUDDEN_FIELDS, market=f"market: {market}")
    bad = tmp_path / "big.scn"
    bad.write_text("\n".join(fields.values()) + "\n")
    for command in ("run", "check"):
        assert main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"more than {MAX_OUTCOMES} outcomes" in err
    assert build_market("independent_binary(8)").space.n_outcomes == 256


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


def test_off_cell_belief_after_the_switch_exits_2(tmp_path, capsys):
    # (0.5, 0.5) is in the price space but in neither coordinate cell, so
    # the switched cost has no state for it
    text = Path(scn("square_sudden.scn")).read_text()
    text += "  - {kind: belief, name: b2, times: [1.5], belief: [0.5, 0.5]}\n"
    path = tmp_path / "off_cell.scn"
    path.write_text(text)
    for argv in (["run", str(path)], ["check", str(path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "'b2'" in err and "no revelation cell" in err
    # before the switch the same belief trades under the original cost
    path.write_text(text.replace("times: [1.5], belief: [0.5",
                                 "times: [0.5], belief: [0.5"))
    assert main(["run", str(path)]) == 0


def test_a_gradual_jit_that_contradicts_the_settlement_exits_2(tmp_path,
                                                              capsys):
    text = ("name: gradual jit\nseed: 1\nmarket: medal_counts(1)\n"
            "protocol: gradual\nobservation: {kind: block, indices: [0]}\n"
            "settlement: [1]\nrequests:\n"
            "  - {time: 0.5, trader: a, kind: jit, realization: [0.0]}\n")
    path = tmp_path / "gradual_jit.scn"
    path.write_text(text)
    for argv in (["run", str(path)], ["check", str(path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == ("error: arbitrageur realization contradicts "
                       "settlement\n")
    # the realization the settlement reveals trades as before
    path.write_text(text.replace("realization: [0.0]", "realization: [1.0]"))
    assert main(["run", str(path)]) == 0


MIDDLE_CELL_JIT = """\
name: jit in the square/sum middle cell
seed: 1
market: square
protocol: sudden
observation: {kind: sum}
initial_state: [1.0, 0.0]
switch_time: 1.0
settlement: [0, 1]
traders:
  - {kind: noise, name: n1, times: [1.2], scale: 1.0}
  - {kind: jit, name: a1, times: [1.5]}
"""


def test_a_jit_with_no_trade_worth_its_cell_exits_1(tmp_path, capsys):
    # the switch at (1, 0) is inconsistent: the roof undercuts the middle
    # cell, so no trade there is known to collect Util(E; q)
    path = tmp_path / "middle_cell_jit.scn"
    path.write_text(MIDDLE_CELL_JIT)
    assert main(["run", "--allow-inconsistent", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: jit trader 'a1' finds no trade")
    assert err.count("\n") == 1 and "Traceback" not in err
    # check makes no trade
    assert main(["check", "--allow-inconsistent", str(path)]) == 0


def test_a_belief_with_no_state_exits_1(tmp_path, capsys):
    # (0.5, 0.5) is the inconsistency witness of the switch at (1, 0): the
    # roof undercuts the middle cell there, so no state prices the belief
    path = tmp_path / "middle_cell_belief.scn"
    path.write_text(MIDDLE_CELL_JIT.replace(
        "{kind: jit, name: a1, times: [1.5]}",
        "{kind: belief, name: b1, times: [1.5], belief: [0.5, 0.5]}"))
    assert main(["run", "--allow-inconsistent", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: belief trader 'b1': no state prices mu = "
                          "[0.5, 0.5] in cell ((0, 1), (1, 0))")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_belief_of_the_wrong_length_names_its_trader(tmp_path, capsys):
    text = Path(scn("square_sudden.scn")).read_text()
    text += "  - {kind: belief, name: b1, times: [0.5], belief: [0.5]}\n"
    path = tmp_path / "short_belief.scn"
    path.write_text(text)
    for argv in (["run", str(path)], ["check", str(path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: trader 'b1': belief must have length 2\n"


def test_line_searches_of_the_bundled_scenarios_are_cheap(monkeypatch,
                                                          capsys):
    # one exact line search is a brentq root-find: 73 derivative
    # evaluations for these 3 line searches; a cell projects each state
    # once, so a state it has projected makes no line search
    import cfmarkets._solvers as solvers
    real, counts = solvers._line_search, {"searches": 0, "evaluations": 0}

    def counted(deriv, gamma_max):
        counts["searches"] += 1

        def evaluated(gamma):
            counts["evaluations"] += 1
            return deriv(gamma)

        return real(evaluated, gamma_max)

    monkeypatch.setattr(solvers, "_line_search", counted)
    for name, path in bundled_scenarios().items():
        cmd_run(str(path),
                allow_inconsistent=name == "square_count_impossible.scn")
    capsys.readouterr()
    assert counts["searches"] == 3
    assert counts["evaluations"] <= 80


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


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered",
                                                       "unbuffered"])
@pytest.mark.parametrize("command", ["run", "check"])
def test_a_reader_that_closes_stdout_gets_exit_1_and_no_traceback(
        command, unbuffered):
    # buffered, the write fails at the last flush; unbuffered, at the first
    env = dict(os.environ, PYTHONPATH=str(
        Path(cfmarkets.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    with subprocess.Popen(
            [sys.executable, "-m", "cfmarkets", command,
             scn("square_sudden.scn")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) as proc:
        proc.stdout.close()  # the reader is gone before the first line
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert code == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("command, out", [
    ("run", "missing/x.jsonl"), ("run", "."), ("run", None),
    ("check", None)], ids=["missing-dir", "directory", "full-run",
                           "full-check"])
def test_output_that_cannot_be_written_exits_1_and_no_traceback(
        command, out, tmp_path):
    # `--out` in a missing directory or at a directory; else stdout on a
    # device that is always full
    args, stdout = [command, scn("square_sudden.scn")], os.devnull
    if out is None:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full device")
        stdout = "/dev/full"
    else:
        args += ["--out", str(tmp_path / out)]
    env = dict(os.environ, PYTHONPATH=str(
        Path(cfmarkets.__file__).resolve().parents[1]))
    with open(stdout, "w") as fh:
        proc = subprocess.run([sys.executable, "-m", "cfmarkets", *args],
                              env=env, stdout=fh, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: cannot write output: ")
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


# HiGHS stops without an answer on the sampled roof LP at this state (status
# 15): the face x0 = 1 and the sum levels of x0 = 0 are not the level sets of
# one linear statistic, so the closed-form sum test does not decide this
# switch
SOLVER_STOP = """\
name: solver_stop
seed: 1
market: independent_binary(3)
protocol: sudden
observation:
  kind: partition
  groups:
    - [[1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]]
    - [[0, 0, 0]]
    - [[0, 0, 1], [0, 1, 0]]
    - [[0, 1, 1]]
initial_state: [1.0e+20, -1.0e+20, 0.0]
tolerance: 1.0e+5
switch_time: 1.0
settlement: [0, 1, 1]
"""


@pytest.mark.parametrize("command", ["run", "check"])
def test_a_solver_stop_exits_1_with_an_error_line_and_no_traceback(
        command, tmp_path):
    path = tmp_path / "stop.scn"
    path.write_text(SOLVER_STOP)
    env = dict(os.environ, PYTHONPATH=str(
        Path(cfmarkets.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "cfmarkets", command,
                           str(path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: HiGHS stopped without an answer")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


LARGE_SUM_STATE = """\
name: square sum at a large state
seed: 1
market: square
protocol: sudden
observation: {{kind: sum}}
initial_state: [{}, {}]
tolerance: 1.0e+5
switch_time: 1.0
settlement: [0, 1]
"""


@pytest.mark.parametrize("state", [("1.0e+18", "-1.0e+18"),
                                   ("-1.0e+18", "1.0e+18"),
                                   ("1.0e+20", "-1.0e+20"),
                                   ("-1.0e+20", "1.0e+20")],
                         ids=["+1e18", "-1e18", "+1e20", "-1e20"])
def test_a_sum_switch_at_a_large_state_is_decided_in_closed_form(
        state, tmp_path, capsys):
    # the exact value is about |s_0 - s_1| / 2, past anything an LP solves
    path = tmp_path / "large.scn"
    path.write_text(LARGE_SUM_STATE.format(*state))
    worst = float(state[0].lstrip("-"))
    assert main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (f"consistency at initial state: INCONSISTENT (sum; worst "
            f"violation {worst:.6g})") in out.splitlines()
    assert "  witness: mu=[0.5, 0.5] for realization 1.0" in out.splitlines()
    assert err == ""
    assert main(["run", str(path)]) == 1
    out, err = capsys.readouterr()
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert record["check"] == "consistency" and record["pass"] is False
    assert record["value"] == pytest.approx(worst, rel=1e-12)
    assert err.startswith("FAIL: inconsistent switch plan")
    assert "error:" not in err and "Traceback" not in err


CUBE3_SUM_BELIEF = """\
name: 3-cube sum revelation with a belief at a centroid
seed: 1
market: independent_binary(3)
protocol: sudden
observation: {kind: sum}
initial_state: [1.0, -1.0, 0.0]
switch_time: 1.0
settlement: [0, 1, 1]
traders:
  - kind: belief
    name: b1
    times: [1.5]
    belief: [0.3333333333333333, 0.3333333333333333, 0.3333333333333333]
"""


def test_a_3_cube_sum_switch_undercut_at_a_centroid_fails_both_commands(
        tmp_path, capsys):
    # the roof undercuts the cell of sum 1 at its centroid, where the belief
    # sits: `check` names that point, and `run` stops at the verdict, before
    # the belief trader looks for a state
    path = tmp_path / "cube3_sum.scn"
    path.write_text(CUBE3_SUM_BELIEF)
    assert main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert ("consistency at initial state: INCONSISTENT (sum; worst "
            "violation 0.212672)") in out.splitlines()
    assert ("  witness: mu=[0.333333, 0.333333, 0.333333] for realization "
            "1.0") in out.splitlines()
    assert err == ""
    assert main(["run", str(path)]) == 1
    out, err = capsys.readouterr()
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert record["check"] == "consistency" and record["pass"] is False
    assert err.startswith("FAIL: inconsistent switch plan")
    assert "error:" not in err and "Traceback" not in err

@pytest.mark.parametrize("text", ["1e-6", "1E5", "1.0e6", "1e+300"])
def test_a_yaml_exponent_read_as_text_is_explained(tmp_path, capsys, text):
    # YAML 1.1 reads these as strings; "1.0e-6" is a number
    fields = dict(SUDDEN_FIELDS, tolerance=f"tolerance: {text}")
    path = tmp_path / "exponent.scn"
    path.write_text("\n".join(fields.values()) + "\n")
    for command in ("run", "check"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: tolerance must be a number, not the text "
                       f"'{text}': YAML reads an exponent as a number only "
                       "with a decimal point and a signed exponent, such as "
                       "1.0e-6\n")
    fields["tolerance"] = "tolerance: 1.0e-6"
    path.write_text("\n".join(fields.values()) + "\n")
    assert main(["check", str(path)]) == 0
    # text that is no number, or has no exponent, gets no hint
    for line in ('t0: "0"', "t0: e5"):
        fields = dict(GRADUAL_FIELDS, t0=line)
        path.write_text("\n".join(fields.values()) + "\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "error: t0 must be a number\n"


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
