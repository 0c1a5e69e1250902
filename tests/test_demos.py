"""Every demo script runs to completion in a fresh interpreter, silently on stderr."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(tmp_path, demo):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": os.path.join(ROOT, "src") + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert list(tmp_path.iterdir()) == []  # a demo writes no files
