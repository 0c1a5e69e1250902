"""The double-exponential rule against scipy.integrate.quad, the rule it replaced.

scipy is a test dependency only (the `dev` extra). The sweep references are computed
again with quad, at the settings the package gave it, in place of the rule; the
correlated pair's revenues are computed again with scalar payments under quad. Both
must give the same numbers to 1e-13 relative.
"""

import math

import numpy as np
import pytest

from reservelab import abtest, generators
from reservelab.abtest import expected_second_highest, rev_e_k_quadrature
from reservelab.distributions import _integrate, exponential_dist, uniform_dist

integrate = pytest.importorskip("scipy.integrate")

RATES = (3e-307, 1e-305, 1e-300, 1e-160, 1e-6, 0.37, 1.0, 3.0, 1e6, 1e12, 1e300)
BOUNDS = ((0.0, 1.0), (3.0, 10.0), (0.0, 10.0), (0.5, 1.0), (0.0, 1e308))
LAWS = ([exponential_dist(rate) for rate in RATES]
        + [uniform_dist(lo, hi) for lo, hi in BOUNDS])


def quad(f, a, b):
    """Int_a^b f(x) dx by quad, with the tolerances and limit the package gave it."""
    val, _ = integrate.quad(lambda x: float(f(np.array([x]))[0]), a, b,
                            epsabs=1e-10, epsrel=1e-10, limit=200)
    return val


def close(ours, theirs):
    return abs(ours - theirs) <= 1e-13 * abs(theirs)


def test_rule_on_known_integrals():
    assert _integrate(np.exp, -1.0, 2.0) == pytest.approx(math.e ** 2 - 1 / math.e, rel=1e-15)
    assert _integrate(lambda x: np.exp(-x), 0.0, math.inf) == pytest.approx(1.0, rel=1e-15)
    assert _integrate(np.sqrt, 0.0, 1.0) == pytest.approx(2 / 3, rel=1e-15)  # kink at an end
    assert _integrate(lambda x: 1 / x ** 2, 1.0, 1e4) == pytest.approx(1 - 1e-4, rel=1e-15)
    assert _integrate(np.exp, 5.0, 5.0) == 0.0


def references(dist):
    """E[second highest] and eager at k = 0..n, whose two ends are lazy's, at n 1-10."""
    return ([(n, None, expected_second_highest(dist, n)) for n in range(1, 11)]
            + [(n, k, rev_e_k_quadrature(dist, n, k)) for n in range(1, 11) for k in range(n + 1)])


@pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.name)
def test_sweep_references_equal_quad(monkeypatch, dist):
    ours = references(dist)
    monkeypatch.setattr(abtest, "_integrate", quad)
    theirs = references(dist)
    bad = [(n, k, a, b) for (n, k, a), (_, _, b) in zip(ours, theirs) if not close(a, b)]
    assert bad == []


def quad_pair_expectations(M, eps):
    """The correlated pair's revenue functions with scalar payments and quad over [1, M] split
    at the payments' kinks and jumps: the route the analysis took before the rule."""
    p_zero, atom = math.log(M) / M, 1.0 / M

    def branch_b(pay, breakpoints):
        pts = sorted({b for b in breakpoints if 1.0 < b < M})
        val, _ = integrate.quad(lambda b: pay(b) / b ** 2, 1.0, M, points=pts or None, limit=200)
        return val + atom * pay(M)

    def lazy_rev(r1, r2):
        def pay(b):
            return max(r1, (1.0 - eps) * b) if b >= r1 else 0.0
        return p_zero * (r2 if r2 <= M else 0.0) + (1.0 - p_zero) * branch_b(
            pay, [r1, r1 / (1.0 - eps)])

    def eager_rev(r1, r2):
        def pay(b):
            s1, s2 = b >= r1, (1.0 - eps) * b >= r2
            return (max(r1, (1.0 - eps) * b) if s1 and s2 else r1 if s1 else r2 if s2 else 0.0)
        return p_zero * (r2 if r2 <= M else 0.0) + (1.0 - p_zero) * branch_b(
            pay, [r1, r2 / (1.0 - eps), r1 / (1.0 - eps)])

    return lazy_rev, eager_rev


def test_correlated_pair_revenues_equal_quad_on_the_analysis_grid():
    """Criterion 09's lazy and eager revenues at every (r1, r2) its analysis searches."""
    M, eps = 1e4, 1e-6
    r2_grid = np.concatenate([[0.0], np.logspace(0.0, math.log10(M), 160), [(1.0 - eps) * M, M]])
    r1_grid = np.concatenate([[0.0], np.logspace(0.0, math.log10(M), 25)])

    def revenues(lazy_rev, eager_rev):
        return [lazy_rev(0.0, M)] + [f(float(r1), float(r2)) for r1 in r1_grid
                                     for r2 in r2_grid for f in (lazy_rev, eager_rev)]

    ours = revenues(*generators._equal_revenue_pair_expectations(M, eps))
    theirs = revenues(*quad_pair_expectations(M, eps))
    assert len(ours) == 1 + 2 * 26 * 163
    assert [(i, a, b) for i, (a, b) in enumerate(zip(ours, theirs)) if not close(a, b)] == []
