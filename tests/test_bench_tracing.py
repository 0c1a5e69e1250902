"""The benchmark's per-layer tracing still finds every name it wraps."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_tracing_installs():
    # install_tracing raises when a traced reservelab name is deleted or moved
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import layers, spans; "
            "layers.install_tracing(spans.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "perfbench"),
                           os.path.join(ROOT, "src")], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
