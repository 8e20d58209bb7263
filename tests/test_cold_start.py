"""A cold start loads scipy.optimize only for a run that solves something.

Importing cfmarkets leaves scipy.optimize unloaded; the first LP, root-find
or minimization loads it. Each check runs in a fresh interpreter, because
the test process has long since imported scipy.optimize.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfmarkets

SRC = Path(cfmarkets.__file__).resolve().parents[1]
# bundled runs that make no LP, root-find or minimization
NO_SOLVER = ["lmsr_partition_sudden.scn", "simplex_identity_check.scn",
             "square_random_trades.scn", "square_sudden.scn"]

# prints whether scipy.optimize is loaded after `import cfmarkets` and after
# the exit code of `cmd_run` on each scenario named on the command line
PROBE = """
import contextlib, io, json, sys
import cfmarkets
from cfmarkets.cli import cmd_run
seen = ["scipy.optimize" in sys.modules]
for name in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cmd_run(str(cfmarkets.bundled_scenarios()[name]))
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


def test_runs_that_solve_nothing_never_load_scipy_optimize():
    assert probe(*NO_SOLVER) == [False] + [0, False] * len(NO_SOLVER)


@pytest.mark.parametrize("name", ["square_count_symmetric.scn",
                                  "medal1_gradual.scn"])
def test_a_run_that_solves_loads_it(name):
    # the count switch needs an LP, the gradual run a brentq root-find
    assert probe(name) == [False, 0, True]


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
