"""The benchmark's per-layer tracing still finds every name it wraps."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Installs the tracer (which raises when a traced reservelab name is deleted or moved),
# then calls the functions whose span names read a call argument, and a lazy theoretical
# sweep, whose nested payments run the traced lazy kernel; and prints the spans.
TRACED_CALLS = """
import sys
sys.path[:0] = sys.argv[1:]
import layers, spans
from reservelab import (BidLog, BidProfile, FiniteDist, Mechanism, ProductDist, ReserveVector,
                        abtest, optimize, product, uniform_dist)

tracer = spans.Tracer()
layers.install_tracing(tracer)
tracer.enabled = True
log = BidLog([BidProfile("a1", {"b1": 3.0, "b2": 1.0}), BidProfile("a2", {"b1": 2.0, "b2": 4.0})])
abtest.empirical_treatment_sweep(log, ReserveVector({"b1": 2.5}), [0.0, 1.0], Mechanism.LAZY,
                                 2, 0)
two_atoms = FiniteDist(((1.0, 0.5), (2.0, 0.5)))
product.optimal_reserves_product(ProductDist({"b1": two_atoms, "b2": two_atoms}),
                                 Mechanism.EAGER)
optimize.eager_coordinate_ascent(log, max_rounds=1)
abtest.sweep_theoretical(uniform_dist(0.0, 1.0), 2, [Mechanism.LAZY], 1000, 0)
print("\\n".join(sorted({s.name for s in tracer.spans})))
"""


def test_benchmark_tracing_installs():
    proc = subprocess.run([sys.executable, "-c", TRACED_CALLS, os.path.join(ROOT, "perfbench"),
                           os.path.join(ROOT, "src")], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = set(proc.stdout.split())
    assert {"abtest.empirical_treatment_sweep.lazy", "product.optimal_reserves_product.eager",
            "optimize.eager_local.T2", "vectorized.lazy"} <= names, sorted(names)
