"""A/B-test simulation for reserve prices: treat k of n bidders, or a fraction of auctions.

The headline phenomenon: with iid regular bidders and the Myerson reserve,
eager revenue DROPS as the treated group grows from 0 to n-1 bidders and only
recovers above the control at full deployment, while lazy revenue moves
linearly in k. Closed forms for the uniform case, order-statistic quadrature
for any regular family, and seeded Monte Carlo with common random numbers
across k make the effect measurable at stated standard errors.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from scipy import integrate

from .distributions import ContinuousDist, VirtualValueFn, myerson_reserve
from .errors import DomainError
from .generators import numbered_ids
from .logs import BidLog
from .mechanics import Mechanism, ReserveVector
from .vectorized import payments

_CHUNK = 100_000  # Monte-Carlo auctions drawn and evaluated per block


class SplitMode(enum.Enum):
    BIDDER_SPLIT = "bidder_split"
    AUCTION_SPLIT = "auction_split"


class AssignmentMode(enum.Enum):
    FIXED_SUBSET = "fixed_subset"
    RANDOM_PER_AUCTION = "random_per_auction"


@dataclass(frozen=True)
class TreatmentPlan:
    """What gets treated: k of n bidders, or a fraction of auctions.

    reserves = None means "apply the distribution's Myerson reserve to the
    treated side"; a ReserveVector applies per-bidder values instead.
    """

    mode: SplitMode = SplitMode.BIDDER_SPLIT
    treated_count: int = 0
    treated_fraction: float = 0.0
    assignment: AssignmentMode = AssignmentMode.RANDOM_PER_AUCTION
    reserves: Optional[ReserveVector] = None


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


def _mean_stderr(count: int, mean: float, m2: float) -> tuple[float, float]:
    if count < 2:
        return float(mean), 0.0
    return float(mean), math.sqrt(float(m2) / (count - 1) / count)


def _treated_reserve_row(dist: ContinuousDist, n: int, plan: TreatmentPlan) -> np.ndarray:
    if plan.reserves is not None:
        return np.array([plan.reserves.get(b) for b in numbered_ids(n)])
    if not VirtualValueFn(dist).is_monotone_on_grid():
        raise DomainError(f"{dist.name}: not regular, refusing a Myerson reserve source")
    return np.full(n, myerson_reserve(dist))


def _bidder_split_chunks(dist: ContinuousDist, n: int, mechanism: Mechanism,
                         trials: int, seed: int, ks: Iterable[int],
                         assignment: AssignmentMode, r_full: np.ndarray):
    """Yield (c, len(ks)) payment matrices; same draws serve every k (common random numbers)."""
    ks = list(ks)
    rng = np.random.default_rng(seed)
    cols = np.arange(n)
    remaining = trials
    while remaining > 0:
        c = min(_CHUNK, remaining)
        remaining -= c
        values = dist.sample(rng, (c, n))
        if assignment is AssignmentMode.RANDOM_PER_AUCTION:
            # rank of each column in a random per-row permutation; treated = rank < k, nested over k
            order = np.argsort(rng.random((c, n)), axis=1)
            ranks = np.argsort(order, axis=1)
        else:
            ranks = np.broadcast_to(cols, (c, n))
        out = np.empty((c, len(ks)))
        for j, k in enumerate(ks):
            reserves = np.where(ranks < k, r_full[None, :], 0.0)
            out[:, j] = payments(values, reserves, mechanism)
        yield out


def simulate_treatment(dist: ContinuousDist, n: int, plan: TreatmentPlan,
                       mechanism: Mechanism, trials: int, seed: int) -> SweepRow:
    """Monte-Carlo revenue of one treatment point. Returns a single sweep row."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    r_full = _treated_reserve_row(dist, n, plan)
    if plan.mode is SplitMode.BIDDER_SPLIT:
        k = plan.treated_count
        if not 0 <= k <= n:
            raise ValueError(f"treated_count {k} out of range [0, {n}]")
        stats = (0, 0.0, 0.0)
        for block in _bidder_split_chunks(dist, n, mechanism, trials, seed, [k],
                                          plan.assignment, r_full):
            stats = _merge_moments(stats, block[:, 0])
        mean, se = _mean_stderr(*stats)
        return SweepRow(float(k), mechanism, mean, se, trials)

    p = plan.treated_fraction
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"treated_fraction {p} out of range [0, 1]")
    rng = np.random.default_rng(seed)
    stats = (0, 0.0, 0.0)
    done = 0
    n_treated_target = round(p * trials)
    while done < trials:
        c = min(_CHUNK, trials - done)
        values = dist.sample(rng, (c, n))
        if plan.assignment is AssignmentMode.RANDOM_PER_AUCTION:
            treated = rng.random(c) < p
        else:
            # fixed split: the first round(p * trials) auctions are treated
            idx = np.arange(done, done + c)
            treated = idx < n_treated_target
        reserves = np.where(treated[:, None], r_full[None, :], 0.0)
        stats = _merge_moments(stats, payments(values, reserves, mechanism))
        done += c
    mean, se = _mean_stderr(*stats)
    return SweepRow(p, mechanism, mean, se, trials)


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
    underflows are fine.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k {k} out of range [0, {n}]")
    r = myerson_reserve(dist)

    def g(x):
        return x * dist.pdf(x) - (1.0 - dist.cdf(x))

    def upper_integrand(x):
        return n * dist.cdf(x) ** (n - 1) * g(x)

    term1, _ = integrate.quad(upper_integrand, r, dist.hi, epsabs=1e-10, epsrel=1e-10, limit=200)
    if k == n:
        return term1

    def lower_integrand(x):
        return dist.cdf(x) ** (n - k - 1) * g(x)

    term2, _ = integrate.quad(lower_integrand, dist.lo, r, epsabs=1e-10, epsrel=1e-10, limit=200)
    return term1 + (n - k) * dist.cdf(r) ** k * term2


def expected_second_highest(dist: ContinuousDist, n: int) -> float:
    """E[second-highest of n iid draws]: n(n-1) Int x F^(n-2) (1-F) f dx. Zero for n = 1."""
    if dist.atom_at_hi:
        raise DomainError(f"{dist.name}: order-statistic quadrature needs an atomless law")
    if n < 2:
        return 0.0

    def integrand(x):
        F = dist.cdf(x)
        return x * F ** (n - 2) * (1.0 - F) * dist.pdf(x)

    val, _ = integrate.quad(integrand, dist.lo, dist.hi, epsabs=1e-10, epsrel=1e-10, limit=200)
    return n * (n - 1) * val


def _reference(dist: ContinuousDist, n: int, k: int, mechanism: Mechanism,
               lazy_endpoints: Optional[tuple[float, float]]) -> float:
    if mechanism is Mechanism.EAGER:
        if dist.name.startswith("uniform(") and (dist.lo, dist.hi) == (0.0, 1.0):
            return rev_e_k_closed_uniform(n, k)
        return rev_e_k_quadrature(dist, n, k)
    rev0, revn = lazy_endpoints
    return rev_l_k_closed(n, k, rev0, revn)


def sweep_theoretical(dist: ContinuousDist, n: int, mechanism: Mechanism,
                      trials: int, seed: int,
                      assignment: AssignmentMode = AssignmentMode.RANDOM_PER_AUCTION) -> SweepResult:
    """Monte-Carlo sweep over k = 0..n with common random numbers, plus reference values.

    References: closed form for uniform(0,1) eager, quadrature for other
    eager families, and the linear interpolation between quadrature endpoints
    for lazy. A non-finite mean, stderr or reference, or a negative reference,
    raises DomainError naming the first such row.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    r_full = _treated_reserve_row(dist, n, TreatmentPlan())
    ks = list(range(n + 1))
    stats = (0, 0.0, 0.0)
    for block in _bidder_split_chunks(dist, n, mechanism, trials, seed, ks, assignment, r_full):
        stats = _merge_moments(stats, block)
    count, means, m2s = stats
    lazy_endpoints = None
    if mechanism is Mechanism.LAZY:
        lazy_endpoints = (expected_second_highest(dist, n), rev_e_k_quadrature(dist, n, n))
    rows = []
    for k in ks:
        mean, se = _mean_stderr(count, means[k], m2s[k])
        ref = _reference(dist, n, k, mechanism, lazy_endpoints)
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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    r_full = _treated_reserve_row(dist, n, TreatmentPlan())
    ks = list(range(n + 1))
    stats = (0, 0.0, 0.0)
    for block in _bidder_split_chunks(dist, n, mechanism, trials, seed, ks,
                                      AssignmentMode.RANDOM_PER_AUCTION, r_full):
        stats = _merge_moments(stats, np.diff(block, axis=1))
    count, means, m2s = stats
    out = []
    for k in range(n):
        mean, se = _mean_stderr(count, means[k], m2s[k])
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
    whose draws are all one subset reports that revenue with stderr 0.
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
    r_full = np.array([reserves.get(b) for b in log.bidder_ids])
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
                revenue[subset] = float(np.mean(payments(bids, row, mechanism)))
        if len(set(subsets)) == 1:
            mean, se = revenue[subsets[0]], 0.0
        else:
            revs = np.array([revenue[s] for s in subsets])
            mean = float(np.mean(revs))
            se = float(np.std(revs, ddof=1) / math.sqrt(assignments_per_point))
        rows.append(SweepRow(float(f), mechanism, mean, se, assignments_per_point))
    return SweepResult(tuple(rows), seed, f"empirical(n={n},auctions={len(log)})")
