"""Value distributions, virtual values, and the monopoly (Myerson) reserve."""

import math

import numpy as np
import pytest

from reservelab import distributions
from reservelab.distributions import (equal_revenue_dist, exponential_dist, is_regular,
                                      myerson_reserve, uniform_dist, virtual_value)
from reservelab.errors import DomainError

from oracles import piecewise_density_dist


def test_constructor_validation():
    with pytest.raises(ValueError):
        uniform_dist(1.0, 1.0)
    with pytest.raises(ValueError):
        exponential_dist(0.0)
    with pytest.raises(ValueError):
        equal_revenue_dist(1.0)


@pytest.mark.parametrize("make", [lambda x: uniform_dist(x, 2.0), lambda x: uniform_dist(0.0, x),
                                  exponential_dist, equal_revenue_dist],
                         ids=["lo", "hi", "rate", "M"])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "1e400-int"])
def test_constructors_refuse_non_finite_parameters(make, x):
    # json reads NaN and Infinity: each is refused here, not later in the name or a sweep
    with pytest.raises(ValueError, match="finite"):
        make(x)


def test_uniform_virtual_value():
    # phi(v) = 2v - hi on uniform(lo, hi)
    u = uniform_dist()
    assert virtual_value(u, 0.75) == 0.5
    assert virtual_value(u, 0.25) == -0.5
    wide = uniform_dist(2.0, 6.0)
    assert virtual_value(wide, 5.0) == 4.0


def test_exponential_virtual_value():
    # phi(v) = v - 1/rate
    e = exponential_dist(1.0)
    assert abs(virtual_value(e, 3.0) - 2.0) < 1e-12
    e2 = exponential_dist(2.0)
    assert abs(virtual_value(e2, 3.0) - 2.5) < 1e-12


def test_virtual_value_outside_support():
    u = uniform_dist()
    for v in (-0.5, 0.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            virtual_value(u, v)
    er = equal_revenue_dist(10.0)
    with pytest.raises(DomainError):
        virtual_value(er, 10.0)


def test_virtual_value_where_the_density_is_zero():
    # a gap in the density inside the open support: phi divides by f
    gap = distributions.ContinuousDist(
        name="gap", lo=0.0, hi=2.0, cdf=lambda v: min(1.0, max(0.0, v if v < 1 else v - 1)),
        pdf=lambda v: 0.0 if 0.5 <= v < 1.5 else 0.5, ppf=lambda u: u)
    assert virtual_value(gap, 0.25) == 0.25 - 0.75 / 0.5
    with pytest.raises(DomainError, match=r"^gap: density is 0 at 1\.0$"):
        virtual_value(gap, 1.0)


def test_myerson_uniform():
    assert abs(myerson_reserve(uniform_dist()) - 0.5) <= 1e-9
    assert abs(myerson_reserve(uniform_dist(0.0, 4.0)) - 2.0) <= 1e-9


def test_myerson_exponential():
    assert abs(myerson_reserve(exponential_dist(1.0)) - 1.0) <= 1e-9
    assert abs(myerson_reserve(exponential_dist(4.0)) - 0.25) <= 1e-9


def test_myerson_rejects_equal_revenue():
    # phi == 0 on the continuous part; rounding leaves +-1 ulp at lo and up to
    # M^2 * 1e-16 near M, which must not read as a sign change or a positive phi
    for M in np.geomspace(1.5, 1e9, 400):
        with pytest.raises(DomainError, match="no sign change"):
            myerson_reserve(equal_revenue_dist(float(M)))


def test_myerson_positive_virtual_value_gives_the_low_end():
    # uniform(lo, hi) with lo > hi / 2: phi(v) = 2v - hi > 0 on the whole support
    assert myerson_reserve(uniform_dist(6.0, 10.0)) == 6.0
    assert myerson_reserve(uniform_dist(1e9, 1e9 + 1.0)) == 1e9
    assert abs(myerson_reserve(uniform_dist(4.0, 10.0)) - 5.0) <= 1e-9


_BISECTED = ([uniform_dist(lo, hi) for lo in (0.0, -1.0, -1e6, 1e-3, 0.25, 3.0, 1e9)
              for hi in (1e-9, 1e-3, 1.0, 10.0, 1e6, 1e9 + 1.0, 1e15, 1e100, 1e300)
              # uniform(-1e6, 1e-9) brackets below 0: its bracket steps 1e-6 in from each end
              if hi / 2 > lo and (lo, hi) != (-1e6, 1e-9)]
             + [uniform_dist(0.0, 1e-13), uniform_dist(0.0, 1e-200), uniform_dist(0.0, 1e-300),
                uniform_dist(1e-300, 3e-300)]
             + [exponential_dist(rate) for rate in
                (1e-12, 1e-6, 1e-3, 0.37, 1.0, 4.0, 1e3, 1e6, 1e9, 1e12, 1e200, 1e300)])


def test_myerson_bisection_equals_scipy_bisect(monkeypatch):
    """The private bisection returns scipy.optimize.bisect's float on the same bracket.

    Every exponential bracket comes from the doubling search past lo + 1/rate. A
    law of scale >= 1 keeps the bracket inset 1e-12 * scale and xtol 1e-10.
    """
    scipy_optimize = pytest.importorskip("scipy.optimize")
    calls = []

    def scipy_bisect(f, a, b, fa, xtol):
        calls.append(dist.name)
        if dist.scale >= 1.0:
            assert (a, xtol) == (dist.lo + 1e-12 * dist.scale, 1e-10)
        return float(scipy_optimize.bisect(f, a, b, xtol=xtol))

    for dist in _BISECTED:
        got = myerson_reserve(dist)
        with monkeypatch.context() as m:
            m.setattr(distributions, "_bisect", scipy_bisect)
            want = myerson_reserve(dist)
        assert calls == [dist.name]  # the law bisects: it does not return lo
        assert got == want, dist.name
        calls.clear()


def test_myerson_small_scale_laws_match_closed_forms():
    # the bracket inset and xtol scale with the law below scale 1
    # at 1e-200 and below the product of two virtual values underflows to +-0.0, so the
    # bisection must compare their signs
    for rate in (1e3, 1e9, 1e12, 1e15, 1e200, 1e300):
        got = myerson_reserve(exponential_dist(rate))
        assert abs(got - 1.0 / rate) <= 1e-9 / rate
    for hi in (1e-3, 1e-9, 1e-13, 1e-16, 1e-200, 1e-300):
        assert abs(myerson_reserve(uniform_dist(0.0, hi)) - hi / 2) <= 1e-9 * hi / 2


def test_bisection_that_does_not_converge_is_a_domain_error():
    # 100 halvings of a 2e30-wide bracket leave a step of about 1.6, far above 1e-10
    with pytest.raises(DomainError, match="did not converge"):
        distributions._bisect(lambda v: v - 1e-5, -1e30, 1e30, -1e30, xtol=1e-10)


def test_equal_revenue_price_invariance():
    """Every posted price r in [1, M] earns r * P(b >= r) = 1; at r = M, P is the atom."""
    er = equal_revenue_dist(50.0)
    for r in np.linspace(1.0, 50.0, 41):
        p = er.atom_at_hi if r == er.hi else 1.0 - er.cdf(float(r))
        assert abs(float(r) * p - 1.0) <= 1e-12


def test_ppf_cdf_roundtrip():
    grid = np.linspace(0.01, 0.95, 30)
    for dist in (uniform_dist(), uniform_dist(2.0, 9.0), exponential_dist(0.7)):
        for u in grid:
            v = float(dist.ppf(np.array(u)))
            assert abs(dist.cdf(v) - u) <= 1e-12
    er = equal_revenue_dist(20.0)
    for u in grid:
        # right at the atom boundary 1 - 1/M the rounding can fall either way
        if u < 0.949:
            assert abs(er.cdf(float(er.ppf(np.array(u)))) - u) <= 1e-12
        elif u > 0.951:
            assert float(er.ppf(np.array(u))) == 20.0


def test_sampling_uniform():
    rng = np.random.default_rng(5)
    x = uniform_dist().sample(rng, 200_000)
    assert ((x >= 0.0) & (x < 1.0)).all()
    se = 1.0 / math.sqrt(12 * x.size)
    assert abs(x.mean() - 0.5) < 4 * se


def test_sampling_exponential():
    rng = np.random.default_rng(6)
    x = exponential_dist(2.0).sample(rng, 200_000)
    assert (x >= 0.0).all()
    se = 0.5 / math.sqrt(x.size)
    assert abs(x.mean() - 0.5) < 4 * se


def test_sampling_refuses_what_no_bid_can_hold():
    """A law reaching below 0 is refused before any draw; a draw that is not finite after.
    The law itself is fine: myerson_reserve reads uniform(-1, 1)."""
    below = uniform_dist(-1.0, 1.0)
    assert myerson_reserve(below) == pytest.approx(0.5)
    rng = np.random.default_rng(8)
    with pytest.raises(DomainError, match=r"^uniform\(-1,1\): support reaches below 0; "
                                          r"values must be >= 0$"):
        below.sample(rng, 10)
    assert rng.random() == np.random.default_rng(8).random()  # nothing drawn
    for bad in (math.nan, math.inf):
        holed = distributions.ContinuousDist(
            name="holed", lo=0.0, hi=1.0, cdf=lambda v: v, pdf=lambda v: 1.0,
            ppf=lambda u, bad=bad: np.where(u > 0.5, bad, u))
        with pytest.raises(DomainError, match="^holed: a draw is not a finite number$"):
            holed.sample(rng, 100)


def test_sampling_equal_revenue():
    rng = np.random.default_rng(7)
    M = 10.0
    x = equal_revenue_dist(M).sample(rng, 200_000)
    assert ((x >= 1.0) & (x <= M)).all()
    p_atom = 1.0 / M
    freq = (x == M).mean()
    assert abs(freq - p_atom) < 4 * math.sqrt(p_atom * (1 - p_atom) / x.size)
    # continuous part: P(b <= 2) = 1 - 1/2
    frac = (x <= 2.0).mean()
    assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / x.size)


def test_monotone_grid_check():
    assert is_regular(uniform_dist())
    assert is_regular(exponential_dist(1.0))


def test_non_regular_dist_detected():
    d = piecewise_density_dist()
    assert abs(virtual_value(d, 0.4) - (0.4 - 0.28 / 1.8)) < 1e-12
    assert abs(virtual_value(d, 0.6) - 0.2) < 1e-12
    assert virtual_value(d, 0.6) < virtual_value(d, 0.4)
    assert not is_regular(d)
