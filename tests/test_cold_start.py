"""A cold start loads scipy.optimize only for a run that makes an LP.

Importing cfmarkets leaves scipy.optimize unloaded; the first LP loads it.
Root-finds are the library's own `_solvers.brentq`, and a cube's inner
slices need no exposure LP, so of the bundled runs only the inconsistent
count switch run anyway, whose audit makes a roof LP, loads it. Each check
runs in a fresh interpreter, because the test process has long since
imported scipy.optimize.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import cfmarkets

SRC = Path(cfmarkets.__file__).resolve().parents[1]
BUNDLED = sorted(cfmarkets.bundled_scenarios())
EXIT = {"square_count_impossible.scn": 1}  # the gate refuses its switch

# prints whether scipy.optimize is loaded after `import cfmarkets` and after
# the exit code of `cmd_run` on each scenario named on the command line; a
# name ending in "+allow" runs with `allow_inconsistent`
PROBE = """
import contextlib, io, json, sys
import cfmarkets
from cfmarkets.cli import cmd_run
seen = ["scipy.optimize" in sys.modules]
for arg in sys.argv[1:]:
    name, _, allow = arg.partition("+")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cmd_run(str(cfmarkets.bundled_scenarios()[name]),
                       allow_inconsistent=bool(allow))
    seen += [code, "scipy.optimize" in sys.modules]
print(json.dumps(seen))
"""


def fresh_python(code, *args) -> str:
    """Standard output of `code` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def probe(*names):
    return json.loads(fresh_python(PROBE, *names))


def test_no_bundled_run_loads_scipy_optimize():
    # the gradual runs' LCMM roots and the count switches' slice roots are
    # `_solvers.brentq`'s, and the count cells' exposure needs no LP
    expected = [False]
    for name in BUNDLED:
        expected += [EXIT.get(name, 0), False]
    assert len(BUNDLED) == 8 and probe(*BUNDLED) == expected


def test_the_inconsistent_count_switch_run_anyway_loads_it():
    # its desiderata audit makes a roof LP
    assert probe("square_count_impossible.scn+allow") == [False, 0, True]


def test_geometry_binds_scipys_own_linprog_on_first_use():
    script = ("import sys\nimport cfmarkets.geometry as g\n"
              "assert 'linprog' not in vars(g)\n"
              "assert 'scipy.optimize' not in sys.modules\n"
              "lp = g.linprog\n"
              "import scipy.optimize\n"
              "assert lp is scipy.optimize.linprog\n"
              "assert vars(g)['linprog'] is lp\n"
              "try:\n    g.simplex\nexcept AttributeError:\n    pass\n"
              "else:\n    raise AssertionError('no other name resolves')\n")
    fresh_python(script)
