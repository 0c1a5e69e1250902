"""No CLI command imports scipy unless it calls it.

Importing scipy costs a reservelab process about a second before it does
any work. Each case runs one command in a fresh interpreter and lists the
scipy modules loaded when it returns, so a top-level scipy import anywhere
the CLI reaches fails here. No command loads numpy.ma either, which np.unique
imports on its first call (11-17 ms per process).
"""

import json
import os
import subprocess
import sys

import pytest

import reservelab
from reservelab.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(reservelab.__file__)))
IID_PARAMS = '{"dist": "uniform", "n": 3, "lo": 0.0, "hi": 10.0}'
# run argv (a JSON list, or nothing for a bare import), then print
# [exit code, scipy modules, whether numpy.ma is loaded]
SCRIPT = """
import json, sys
from reservelab.cli import main
code = main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("scipy")),
                  "numpy.ma" in sys.modules]))
"""


def loaded_modules(argv, script=SCRIPT):
    """Exit code, the scipy modules loaded and whether numpy.ma is loaded, after running
    argv (or another script that prints the same) in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    args = [sys.executable, "-c", script] + ([] if argv is None else [json.dumps(argv)])
    proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("footprint")
    assert main(["gen", "--generator", "iid", "--params", IID_PARAMS, "--count", "8",
                 "--seed", "1", "--out", str(tmp / "gen")]) == 0
    log = str(tmp / "gen" / "log.csv")
    assert main(["optimize", "--task", "lazy", "--input", log, "--out", str(tmp / "opt")]) == 0
    return {"<log>": log, "<reserves>": str(tmp / "opt" / "reserves.csv"),
            "out": str(tmp / "out")}


GEN = ["gen", "--generator", "iid", "--params", IID_PARAMS, "--count", "20", "--seed", "3"]
THEORETICAL = ["sweep", "--mode", "theoretical", "--n", "3", "--trials", "1000",
               "--mechanism", "both"]

CASES = {
    "import": None,
    "gen-csv": GEN,
    "gen-jsonl": GEN + ["--format", "jsonl"],
    "optimize-lazy": ["optimize", "--task", "lazy", "--input", "<log>"],
    "optimize-eager-local": ["optimize", "--task", "eager-local", "--input", "<log>"],
    "optimize-eager-exact": ["optimize", "--task", "eager-exact", "--input", "<log>"],
    "lift-tables": ["lift-tables", "--input", "<log>"],
    "sweep-empirical": ["sweep", "--mode", "empirical", "--input", "<log>",
                        "--reserves", "<reserves>", "--mechanism", "both"],
    "sweep-theoretical-uniform": THEORETICAL + ["--dist", "uniform"],
}


def command(name, inputs):
    argv = CASES[name]
    if argv is None:
        return None
    return [inputs.get(a, a) for a in argv] + ["--out", inputs["out"] + "-" + name]


@pytest.mark.parametrize("name", list(CASES))
def test_command_loads_no_scipy(inputs, name):
    code, modules, _ = loaded_modules(command(name, inputs))
    assert code == 0
    assert modules == []


@pytest.mark.parametrize("name", list(CASES))
def test_command_loads_no_numpy_ma(inputs, name):
    code, _, numpy_ma = loaded_modules(command(name, inputs))
    assert code == 0
    assert not numpy_ma


def test_exponential_theoretical_sweep_loads_scipy_integrate(inputs):
    """The guard can fail: a quadrature reference does import scipy."""
    argv = THEORETICAL + ["--dist", "exponential", "--out", inputs["out"] + "-exponential"]
    code, modules, _ = loaded_modules(argv)
    assert code == 0
    assert "scipy.integrate" in modules


def test_high_low_exact_loads_no_scipy():
    """The high-low oracle sums its Binomial pmf by a ratio recurrence, not scipy.stats."""
    script = """
import json, sys
from reservelab.generators import high_low_exact
assert high_low_exact(50).ratio > 1.9
print(json.dumps([0, sorted(m for m in sys.modules if m.startswith("scipy")), None]))
"""
    code, modules, _ = loaded_modules(None, script)
    assert code == 0
    assert modules == []
