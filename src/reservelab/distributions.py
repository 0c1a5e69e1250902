"""Continuous value distributions, virtual values, and the Myerson reserve.

Three families cover everything the rest of the package needs:

  uniform(lo, hi)                phi(v) = 2v - hi, reserve hi/2
  exponential(rate)              phi(v) = v - 1/rate, reserve 1/rate
  truncated equal-revenue(M)     F(b) = 1 - 1/b on [1, M), an atom of mass
                                 1/M at M; phi == 0 on the continuous part,
                                 so no Myerson reserve exists

Sampling is inverse-transform from a seeded numpy Generator, which keeps
every downstream artifact reproducible from (distribution, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError

_FLOAT_MAX = float(np.finfo(float).max)  # a Python float: an int past it compares exactly


@dataclass(frozen=True)
class ContinuousDist:
    """A scalar value distribution with density on (lo, hi) and an optional atom at hi."""

    name: str
    lo: float
    hi: float  # may be inf
    cdf: Callable[[float], float]
    pdf: Callable[[float], float]
    ppf: Callable[[np.ndarray], np.ndarray]  # inverse cdf on [0, 1)
    atom_at_hi: float = 0.0
    # characteristic width, used to scale finite-difference steps and brackets
    scale: float = field(default=1.0)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return self.ppf(rng.random(size))


def _exact(x: float) -> str:
    """x in %g style with the fewest digits (6 at least) that read back as float(x)."""
    return next(s for p in range(6, 18) if float(s := f"{x:.{p}g}") == float(x))


def uniform_dist(lo: float = 0.0, hi: float = 1.0) -> ContinuousDist:
    if not -_FLOAT_MAX <= lo < hi <= _FLOAT_MAX:
        raise ValueError(f"lo and hi must be finite with lo < hi, got {lo!r} and {hi!r}")
    width = hi - lo
    return ContinuousDist(
        name=f"uniform({_exact(lo)},{_exact(hi)})",
        lo=lo, hi=hi,
        cdf=lambda v: min(1.0, max(0.0, (v - lo) / width)),
        pdf=lambda v: 1.0 / width if lo <= v <= hi else 0.0,
        ppf=lambda u: lo + u * width,
        scale=width,
    )


def exponential_dist(rate: float = 1.0) -> ContinuousDist:
    # the largest draw is -log1p(-u) / rate at u = 1 - 2**-53: 53 ln 2 / rate, which
    # overflows below a rate of about 2.04e-307
    if not (0 < rate <= _FLOAT_MAX and 53 * math.log(2) / rate <= _FLOAT_MAX):
        raise ValueError(f"rate must be finite and > 0 with a finite largest draw "
                         f"(53 ln 2 / rate), got {rate!r}")
    return ContinuousDist(
        name=f"exponential({_exact(rate)})",
        lo=0.0, hi=math.inf,
        cdf=lambda v: 1.0 - math.exp(-rate * v) if v > 0 else 0.0,
        pdf=lambda v: rate * math.exp(-rate * v) if v >= 0 else 0.0,
        ppf=lambda u: -np.log1p(-u) / rate,
        scale=1.0 / rate,
    )


def equal_revenue_dist(M: float) -> ContinuousDist:
    """Equal-revenue distribution truncated at M: F(b) = 1 - 1/b on [1, M), atom 1/M at M.

    Every posted price r in [1, M] earns r * P(b >= r) = 1, and the virtual
    value vanishes identically on the continuous part.
    """
    if not 1 < M <= _FLOAT_MAX:
        raise ValueError(f"M must be finite and > 1, got {M!r}")

    def ppf(u):
        u = np.asarray(u)
        out = 1.0 / (1.0 - u)
        return np.where(out >= M, M, out)

    return ContinuousDist(
        name=f"equal_revenue({_exact(M)})",
        lo=1.0, hi=M,
        cdf=lambda v: 0.0 if v < 1 else (1.0 - 1.0 / v if v < M else 1.0),
        pdf=lambda v: 1.0 / v ** 2 if 1 <= v < M else 0.0,
        ppf=ppf,
        atom_at_hi=1.0 / M,
        scale=M - 1.0,
    )


def _phi_unchecked(dist: ContinuousDist, v: float) -> float:
    f = dist.pdf(v)
    if f <= 0:
        raise DomainError(f"{dist.name}: density is 0 at {v}")
    return v - (1.0 - dist.cdf(v)) / f


def virtual_value(dist: ContinuousDist, v: float) -> float:
    """phi(v) = v - (1 - F(v)) / f(v), defined on the open support with positive density."""
    if not (dist.lo < v < dist.hi):
        raise DomainError(f"{dist.name}: {v} is outside the open support ({dist.lo}, {dist.hi})")
    return _phi_unchecked(dist, v)


def is_regular(dist: ContinuousDist) -> bool:
    """Whether phi is non-decreasing, to 1e-12, on a 10^4-point grid of the support."""
    hi = dist.hi
    if hi == math.inf:
        hi = float(dist.ppf(np.array(0.9999)))
    lo = dist.lo
    eps = (hi - lo) * 1e-9
    # at least one ulp inside, where eps rounds away against a large offset
    grid = np.linspace(max(lo + eps, np.nextafter(lo, math.inf)),
                       min(hi - eps, np.nextafter(hi, -math.inf)), 10_000)
    vals = [virtual_value(dist, float(v)) for v in grid]
    return all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def myerson_reserve(dist: ContinuousDist) -> float:
    """The zero of the virtual value, found by bisection to within 1e-10 * min(scale, 1).

    When phi > 0 on the whole support the reserve is its low end: for a
    regular law, revenue only falls as the reserve rises above lo. Otherwise
    raises DomainError when phi has no sign change on the support (for
    example the equal-revenue family, where phi == 0 up to rounding).
    """
    # relative to the scale below 1, so a law of scale 1e-13 still has a bracket
    eps = 1e-12 * max(dist.scale, 1.0) * min(dist.scale, 1.0)
    a = dist.lo + eps
    if dist.hi == math.inf:
        b = dist.lo + dist.scale
        phi_b = _phi_unchecked(dist, b)
        for _ in range(200):
            if phi_b > 0:
                break
            b = dist.lo + 2 * (b - dist.lo)
            phi_b = _phi_unchecked(dist, b)
    else:
        b = dist.hi - eps
    phi_a, phi_b = _phi_unchecked(dist, a), _phi_unchecked(dist, b)
    # phi(a) = a - (1 - F)/f is rounded by a few ulps of a and of 1/f; within that it is 0
    tol = 8.0 * np.finfo(float).eps * (abs(a) + 1.0 / dist.pdf(a))
    if phi_a > tol and phi_b > 0.0:
        return dist.lo
    if not (phi_a < -tol and phi_b > 0.0):
        raise DomainError(f"{dist.name}: virtual value has no sign change on the support")
    return _bisect(lambda v: _phi_unchecked(dist, v), a, b, phi_a,
                   xtol=1e-10 * min(dist.scale, 1.0))


def _bisect(f: Callable[[float], float], a: float, b: float, fa: float, xtol: float) -> float:
    """The root of f in [a, b] given f(a) < 0 < f(b), by scipy.optimize.bisect's loop.

    Same halving, same stopping rule (|dm| < xtol + 4 eps |xm|, at most 100
    steps), so it returns the float scipy returns without importing scipy.
    """
    rtol = 4.0 * np.finfo(float).eps
    dm = b - a
    for _ in range(100):
        dm *= 0.5
        xm = a + dm
        fm = f(xm)
        if fm * fa >= 0.0:
            a = xm
        if fm == 0.0 or abs(dm) < xtol + rtol * abs(xm):
            return float(xm)
    raise DomainError(f"bisection on [{a}, {b}] did not converge in 100 steps")
