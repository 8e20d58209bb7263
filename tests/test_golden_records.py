"""Golden records: `cfmarkets run` and `check` on every bundled scenario.

Each `<case>.jsonl` in tests/golden/ holds the record stream of one `run`
case at the scenario's own seed; the impossible count scenario runs both
with and without --allow-inconsistent. Exit codes must match exactly,
non-numeric fields exactly and numbers within 1e-9. Beside it,
`<case>.stderr` holds the `FAIL:` lines `run` writes and `<case>.check` the
report of `cfmarkets check`, both byte for byte. A difference is a behaviour
change to explain, not a fixture to refresh. After an intended change, this
rewrites the lines that no longer match and leaves every other line and
file as it is:

    PYTHONPATH=src python tests/test_golden_records.py
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from cfmarkets import bundled_scenarios
from cfmarkets.cli import cmd_check, cmd_run

GOLDEN = Path(__file__).parent / "golden"
NUM_TOL = 1e-9

# case name -> expected exit code
EXIT_CODES = {
    "lmsr_partition_sudden": 0,
    "medal1_gradual": 0,
    "medal2_random_trades": 0,
    "simplex_identity_check": 0,
    "square_count_impossible": 1,
    "square_count_impossible.allow": 0,
    "square_count_symmetric": 0,
    "square_random_trades": 0,
    "square_sudden": 0,
}

# case name -> expected exit code of `cfmarkets check`
CHECK_EXIT_CODES = dict.fromkeys(EXIT_CODES, 0) | {
    "square_count_impossible": 1}


def _call(cmd, case: str):
    """(exit code, stdout, stderr) of `cmd` on the case's scenario."""
    scenario, _, flag = case.partition(".")
    paths = {Path(p).stem: p for p in bundled_scenarios().values()}
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cmd(str(paths[scenario]), allow_inconsistent=flag == "allow")
    return code, out.getvalue(), err.getvalue()


def _assert_close(got, want, where):
    if isinstance(want, bool) or want is None or isinstance(want, str):
        assert got == want, where
    elif isinstance(want, (int, float)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), \
            where
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=NUM_TOL), \
            (where, got, want)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    else:
        assert isinstance(got, dict) and set(got) == set(want), where
        for k in want:
            _assert_close(got[k], want[k], f"{where}.{k}")


def test_every_bundled_scenario_has_a_golden_case():
    stems = {Path(p).stem for p in bundled_scenarios().values()}
    assert stems == {c.partition(".")[0] for c in EXIT_CODES}


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_records_match_golden(case):
    code, text, _ = _call(cmd_run, case)
    assert code == EXIT_CODES[case]
    want = (GOLDEN / f"{case}.jsonl").read_text().splitlines()
    got = text.splitlines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        _assert_close(json.loads(g), json.loads(w), f"{case}:{i + 1}")


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_run_fail_lines_match_golden(case):
    _, _, err = _call(cmd_run, case)
    assert err == (GOLDEN / f"{case}.stderr").read_text()


@pytest.mark.parametrize("case", sorted(CHECK_EXIT_CODES))
def test_check_report_matches_golden(case):
    code, out, err = _call(cmd_check, case)
    assert (code, err) == (CHECK_EXIT_CODES[case], "")
    assert out == (GOLDEN / f"{case}.check").read_text()


def _matches(got_line, want_line):
    try:
        _assert_close(json.loads(got_line), json.loads(want_line), "")
    except AssertionError:
        return False
    return True


if __name__ == "__main__":
    # a golden line that still matches is kept, so drift below NUM_TOL never
    # reaches the fixtures and only the cases that changed are rewritten
    for case in sorted(EXIT_CODES):
        code, text, err = _call(cmd_run, case)
        _, report, _ = _call(cmd_check, case)
        for path, want in ((GOLDEN / f"{case}.stderr", err),
                           (GOLDEN / f"{case}.check", report)):
            if not path.exists() or path.read_text() != want:
                path.write_text(want)
                print(path.name, "rewritten")
        path = GOLDEN / f"{case}.jsonl"
        want = path.read_text().splitlines() if path.exists() else []
        got = text.splitlines()
        if len(got) == len(want):
            got = [w if _matches(g, w) else g for g, w in zip(got, want)]
        if got != want:
            path.write_text("".join(line + "\n" for line in got))
            print(case, code, "rewritten")
