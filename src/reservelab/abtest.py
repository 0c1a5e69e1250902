"""A/B-test simulation for reserve prices: treat k of n bidders, or a fraction of auctions.

The headline phenomenon: with iid regular bidders and the Myerson reserve,
eager revenue DROPS as the treated group grows from 0 to n-1 bidders and only
recovers above the control at full deployment, while lazy revenue moves
linearly in k. Closed forms for the uniform case, order-statistic quadrature
for any regular family, and seeded Monte Carlo with common random numbers
across k make the effect measurable at stated standard errors.

A bidder split (sweep_theoretical, paired_treatment_deltas) treats the bidders in
columns < k: its laws are iid with one reserve, so the draws are exchangeable and those
columns are a uniformly random k-subset. The treated sets are nested, so every k takes
its payments from one vectorized.nested_payments pass per block of draws and mechanism,
and a sweep of both rules draws and scores each block once. Only the auctions where a
reserve can bind (vectorized.reserve_can_bind) are scored; every other auction pays its
second bid at every k, under both rules.
An auction split, simulate_treatment(dist, n, fraction, mechanism, trials, seed),
treats each auction with probability `fraction`: all its bidders at the Myerson reserve.
Each refuses a law that is_regular rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import _FLOAT_MAX, ContinuousDist, _integrate, is_regular, myerson_reserve
from .errors import DomainError
from .logs import BidLog
from .mechanics import Mechanism, ReserveVector
from .vectorized import lazy_order, lazy_select, nested_payments, payments, reserve_can_bind

_CHUNK = 100_000  # Monte-Carlo auctions drawn and evaluated per block
# auctions per all-k payment pass within a block; on a 2-core Xeon (2 MB L2 per core)
# eager passes over 20k-row slices ran at half the speed of 10k-row ones
_SLICE = 10_000


@dataclass(frozen=True)
class SweepRow:
    x: float  # k for bidder splits, fraction for auction/log splits
    mechanism: Mechanism
    mean: float
    stderr: float
    trials: int
    reference: Optional[float] = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    seed: int
    descriptor: str

    def to_tsv(self) -> str:
        lines = [f"# seed={self.seed}", f"# source={self.descriptor}",
                 "x\tmechanism\tmean\tstderr\ttrials\treference"]
        for r in self.rows:
            ref = "" if r.reference is None else f"{r.reference:.10g}"
            lines.append(f"{r.x:.10g}\t{r.mechanism.value}\t{r.mean:.10g}\t"
                         f"{r.stderr:.10g}\t{r.trials}\t{ref}")
        return "\n".join(lines) + "\n"


def _merge_moments(stats: tuple, block: np.ndarray) -> tuple:
    """Fold the samples of `block` (axis 0) into running per-column (count, mean, M2).

    M2 is the sum of squared deviations from the mean. Blocks merge with the
    Chan-Golub-LeVeque update, so the variance never comes from subtracting two
    large sums of squares and stays exact when the mean is large against the spread.
    """
    count, mean, m2 = stats
    c = block.shape[0]
    b_mean = block.mean(axis=0)
    total = count + c
    delta = b_mean - mean
    return (total, mean + delta * (c / total),
            m2 + ((block - b_mean) ** 2).sum(axis=0) + delta * delta * (count * c / total))


def _mean_stderr(count: int, mean: float, m2: float, scale: float) -> tuple[float, float]:
    """Mean and stderr in x of moments merged in the law's unit: both times scale after the
    sqrt, since scale ** 2 on M2 over- or underflows at a scale of 1e300 or 1e-300."""
    se = math.sqrt(float(m2) / (count - 1) / count) if count >= 2 else 0.0
    return float(mean) * scale, se * scale


def _myerson_row(dist: ContinuousDist, n: int) -> np.ndarray:
    if not is_regular(dist):
        raise DomainError(f"{dist.name}: not regular, refusing a Myerson reserve source")
    return np.full(n, myerson_reserve(dist))


def _moments(dist: ContinuousDist, n: int, trials: int, seed: int, arms) -> tuple:
    """Running (count, mean, M2) of the payments `arms` returns on `trials` seeded auctions,
    merged in the law's unit (payment / dist.scale), so no square over- or underflows.

    Each block of up to _CHUNK auctions draws its (c, n) values first; then arms(rng,
    values) draws any treatment from the same rng and returns the block's payments, one
    row per auction (common random numbers). A law with values below 0 is a DomainError:
    the payment kernels never sell to a negative bid, but the references integrate over it.
    So is a draw that is not a finite number, which the kernels would read as a bid that
    clears no reserve.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if dist.lo < 0:
        raise DomainError(f"{dist.name}: support reaches below 0; values must be >= 0")
    rng = np.random.default_rng(seed)
    stats = (0, 0.0, 0.0)
    for first in range(0, trials, _CHUNK):
        values = dist.sample(rng, (min(_CHUNK, trials - first), n))
        if not np.isfinite(values).all():
            raise DomainError(f"{dist.name}: a draw is not a finite number")
        block = arms(rng, values)
        block /= dist.scale  # in place: a second block would add to peak memory
        with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as inf/nan moments
            stats = _merge_moments(stats, block)
    return stats


def _bidder_arms(mechanisms, r_full: np.ndarray):
    """Arms treating the bidders in columns < k, treated sets nested: (c, len(mechanisms) *
    (n + 1)) payments, column j * (n + 1) + k for mechanisms[j] with k bidders treated.

    Every column starts at the auction's second bid (one lazy_order pass), which is the
    payment wherever no reserve can bind. Only the auctions reserve_can_bind selects go
    to nested_payments, which evaluates every k in one pass per mechanism and slice of
    _SLICE of them, the mechanisms taking turns on a slice while it is in cache (slicing
    bounds the pass's memory only). The arms draw nothing from the rng.
    """
    def arms(rng, values):
        c, n = values.shape
        second = lazy_order(values)[2]
        out = np.empty((c, len(mechanisms), n + 1))
        out[...] = second[:, None, None]
        rows = reserve_can_bind(second, r_full)
        binding = values[rows]
        for s in range(0, len(rows), _SLICE):
            for j, mechanism in enumerate(mechanisms):
                out[rows[s:s + _SLICE], j] = nested_payments(binding[s:s + _SLICE], r_full,
                                                             mechanism)
        return out.reshape(c, -1)
    return arms


def simulate_treatment(dist: ContinuousDist, n: int, fraction: float, mechanism: Mechanism,
                       trials: int, seed: int) -> SweepRow:
    """Monte-Carlo revenue of an auction split, as one sweep row at x = fraction.

    Each of `trials` seeded auctions is treated with probability `fraction`, which holds
    all n bidders at the Myerson reserve (none otherwise); a non-regular law is a DomainError.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} out of range [0, 1]")
    r_full = _myerson_row(dist, n)

    def arm(rng, values):
        treated = rng.random(len(values)) < fraction
        return payments(values, np.where(treated[:, None], r_full, 0.0), mechanism)

    mean, se = _mean_stderr(*_moments(dist, n, trials, seed, arm), dist.scale)
    return SweepRow(fraction, mechanism, mean, se, trials)


def rev_e_k_closed_uniform(n: int, k: int) -> float:
    """Closed-form eager revenue, n iid uniform(0,1) bidders, k treated at reserve 1/2:

        (n + 2^-n - 1)/(n + 1) - 1{k < n} * 2^-n / (n - k + 1)
    """
    if not 0 <= k <= n:
        raise ValueError(f"k {k} out of range [0, {n}]")
    base = (n + 2.0 ** (-n) - 1.0) / (n + 1.0)
    if k < n:
        base -= 2.0 ** (-n) / (n - k + 1.0)
    return base


def rev_l_k_closed(n: int, k: int, rev0: float, revn: float) -> float:
    """Lazy revenue is linear in the treated count: (k/n)*revn + (1 - k/n)*rev0."""
    if not 0 <= k <= n:
        raise ValueError(f"k {k} out of range [0, {n}]")
    return (k / n) * revn + (1.0 - k / n) * rev0


def rev_e_k_quadrature(dist: ContinuousDist, n: int, k: int) -> float:
    """Eager revenue with k of n treated at the Myerson reserve r, by quadrature:

        Int_r^hi n F^(n-1) g dx  +  1{k<n} (n-k) F(r)^k Int_lo^r F^(n-k-1) g dx

    with g(x) = x f(x) - (1 - F(x)) = phi(x) f(x). The second term is the
    integration by parts of -F(r)^k Int_lo^r F^(n-k) phi'(x) dx (phi(r) = 0,
    F(lo) = 0); neither term divides by the density, so tails where f
    underflows are fine. n = 1, k = 0 is exactly 0, a lone untreated bidder
    paying the absent second bid: there the formula leaves rounding noise, or
    reads Int_r^hi g when r = lo has phi(lo) > 0.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k {k} out of range [0, {n}]")
    r = myerson_reserve(dist)
    if n == 1 and k == 0:
        return 0.0

    def g(x):
        return x * dist.pdf(x) - (1.0 - dist.cdf(x))

    def upper_integrand(x):
        return n * dist.cdf(x) ** (n - 1) * g(x)

    term1 = _quad(dist, upper_integrand, r, dist.hi)
    if k == n:
        return term1

    def lower_integrand(x):
        return dist.cdf(x) ** (n - k - 1) * g(x)

    term2 = _quad(dist, lower_integrand, dist.lo, r)
    return term1 + (n - k) * dist.cdf(r) ** k * term2


def _quad(dist: ContinuousDist, integrand, lo: float, hi: float) -> float:
    """Int_lo^hi integrand(x) dx by distributions._integrate in the law's unit: x = scale * u.

    On [a, inf) the rule's nodes are densest within a few units of a, so it reads the
    integrand in u, where a revenue's integrand decays over a unit at any scale.
    """
    s = dist.scale
    # past the float range x = scale * u is inf and the integrand reads inf * 0: clamp it
    return s * _integrate(lambda us: np.array([integrand(min(s * u, _FLOAT_MAX))
                                               for u in us.tolist()]), lo / s, hi / s)


def expected_second_highest(dist: ContinuousDist, n: int) -> float:
    """E[second-highest of n iid draws]: n(n-1) Int x F^(n-2) (1-F) f dx. Zero for n = 1."""
    if dist.atom_at_hi:
        raise DomainError(f"{dist.name}: order-statistic quadrature needs an atomless law")
    if n < 2:
        return 0.0

    def integrand(x):
        F = dist.cdf(x)
        return x * F ** (n - 2) * (1.0 - F) * dist.pdf(x)

    return n * (n - 1) * _quad(dist, integrand, dist.lo, dist.hi)


def _references(dist: ContinuousDist, n: int, mechanism: Mechanism) -> list[float]:
    """The references of one rule at k = 0..n: closed forms for uniform(0,1), quadrature
    otherwise. Lazy is linear in k from no bidder treated to all n, where it equals eager."""
    unit = dist.name.startswith("uniform(") and (dist.lo, dist.hi) == (0.0, 1.0)
    ks = range(n + 1) if mechanism is Mechanism.EAGER else [n]
    eager = [rev_e_k_closed_uniform(n, k) if unit else rev_e_k_quadrature(dist, n, k)
             for k in ks]
    if mechanism is Mechanism.EAGER:
        return eager
    rev0 = (n - 1.0) / (n + 1.0) if unit else expected_second_highest(dist, n)
    return [rev_l_k_closed(n, k, rev0, eager[0]) for k in range(n + 1)]


def sweep_theoretical(dist: ContinuousDist, n: int, mechanisms, trials: int,
                      seed: int) -> SweepResult:
    """Monte-Carlo sweep over k = 0..n with common random numbers, plus reference values.

    One row per k for each of `mechanisms`, mechanism-major in the order
    given. One Monte-Carlo pass scores every mechanism, so all rows, across
    k and across mechanisms, share their draws; k treats the columns < k.
    References: closed forms for uniform(0,1), quadrature for other
    families; lazy interpolates linearly between its k = 0 and k = n
    endpoints. A non-finite mean, stderr or reference, or a negative reference,
    raises DomainError naming the first such row.
    """
    mechanisms = list(mechanisms)
    arms = _bidder_arms(mechanisms, _myerson_row(dist, n))
    count, means, m2s = _moments(dist, n, trials, seed, arms)
    means, m2s = means.reshape(-1, n + 1), m2s.reshape(-1, n + 1)  # [mechanism, k]
    rows = []
    for j, mechanism in enumerate(mechanisms):
        for k, ref in enumerate(_references(dist, n, mechanism)):
            mean, se = _mean_stderr(count, means[j, k], m2s[j, k], dist.scale)
            if not (math.isfinite(mean) and math.isfinite(se) and 0.0 <= ref < math.inf):
                raise DomainError(f"{dist.name}, n={n}, {mechanism.value} k={k}: mean {mean}, "
                                  f"stderr {se}, reference {ref}; want finite, reference >= 0")
            rows.append(SweepRow(float(k), mechanism, mean, se, trials, ref))
    return SweepResult(tuple(rows), seed, f"theoretical({dist.name},n={n})")


@dataclass(frozen=True)
class PairedDelta:
    k_from: int
    k_to: int
    mean: float
    stderr: float


def paired_treatment_deltas(dist: ContinuousDist, n: int, mechanism: Mechanism,
                            trials: int, seed: int) -> tuple[PairedDelta, ...]:
    """Revenue differences between adjacent k, estimated on paired draws.

    Pairing (same values, nested treated subsets) shrinks the standard error
    of each difference by orders of magnitude versus differencing independent
    estimates, which is what makes the small monotone-decrease gaps testable.
    """
    arms = _bidder_arms([mechanism], _myerson_row(dist, n))
    count, means, m2s = _moments(dist, n, trials, seed,
                                 lambda rng, v: np.diff(arms(rng, v), axis=1))
    out = []
    for k in range(n):
        mean, se = _mean_stderr(count, means[k], m2s[k], dist.scale)
        out.append(PairedDelta(k, k + 1, mean, se))
    return tuple(out)


def empirical_treatment_sweep(log: BidLog, reserves: ReserveVector, fractions,
                              mechanism: Mechanism, assignments_per_point: int,
                              seed: int) -> SweepResult:
    """Sweep treated-bidder fractions on a real log.

    For each fraction, round(f * n) bidders are drawn uniformly without
    replacement, keep their reserves from `reserves` (others get 0), and the
    whole log is re-run; means and standard errors are over
    `assignments_per_point` independent subsets. Each distinct subset's log
    revenue is computed once per call and reused by every draw of it; a point
    whose draws are all one subset reports that revenue with stderr 0. The log is
    ordered once (lazy_order), and each subset's lazy payments are a selection on
    that order. Eager takes the same selection and re-runs payments only on the
    auctions where one of the subset's reserves can bind (reserve_can_bind).
    """
    if len(log) == 0:
        raise ValueError("empty log")
    fractions = list(fractions)
    if not fractions:
        raise ValueError("empty fraction grid")
    if assignments_per_point < 1:
        raise ValueError("assignments_per_point must be >= 1")
    bids = log.to_matrix()
    n = len(log.bidder_ids)
    r_full = reserves.row(log.bidder_ids)
    order = lazy_order(bids)
    rng = np.random.default_rng(seed)
    revenue: dict[tuple[int, ...], float] = {}  # sorted treated subset -> mean log revenue
    rows = []
    for f in fractions:
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"fraction {f} out of range [0, 1]")
        size = round(f * n)
        subsets = [tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
                   for _ in range(assignments_per_point)]
        for subset in subsets:
            if subset not in revenue:
                treated = list(subset)
                row = np.zeros(n)
                row[treated] = r_full[treated]
                pay = lazy_select(order, row)
                if mechanism is Mechanism.EAGER:
                    bind = reserve_can_bind(order[2], row)
                    pay[bind] = payments(bids[bind], row, mechanism)
                revenue[subset] = float(np.mean(pay))
        if len(set(subsets)) == 1:
            mean, se = revenue[subsets[0]], 0.0
        else:
            revs = np.array([revenue[s] for s in subsets])
            mean = float(np.mean(revs))
            se = float(np.std(revs, ddof=1) / math.sqrt(assignments_per_point))
        rows.append(SweepRow(float(f), mechanism, mean, se, assignments_per_point))
    return SweepResult(tuple(rows), seed, f"empirical(n={n},auctions={len(log)})")
