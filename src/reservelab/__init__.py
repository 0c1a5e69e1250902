"""Second-price auctions with personalized reserves: mechanics, optimization, experiments.

The package covers the full loop: run lazy/eager reserve mechanics exactly,
fit optimal reserve vectors to bid logs, build the adversarial distributions
that separate the two mechanisms, simulate reserve A/B tests, and drive it
all from a command line over CSV/JSONL logs.
"""

from .abtest import (PairedDelta, SweepResult, SweepRow, empirical_treatment_sweep,
                     expected_second_highest, paired_treatment_deltas, rev_e_k_closed_uniform,
                     rev_e_k_quadrature, rev_l_k_closed, simulate_treatment, sweep_theoretical)
from .distributions import (ContinuousDist, VirtualValueFn, equal_revenue_dist,
                            exponential_dist, myerson_reserve, uniform_dist, virtual_value)
from .errors import ConfigError, DomainError, LogParseError, SearchSpaceTooLarge
from .generators import (EqualRevenuePairAnalysis, GeometricPairAnalysis, HighLowAnalysis,
                         JointGenerator, equal_revenue_pair_analysis, gen_correlated_equal_revenue,
                         gen_geometric_pair, gen_hardness_instance, gen_high_low, gen_iid,
                         gen_symmetric_one_high, geometric_pair_analysis, geometric_pair_atoms,
                         high_low_exact, independent_set_number, sample_log)
from .logio import (LiftReport, compute_lift_report, format_micro, lift_revenue_tsv,
                    lift_welfare_tsv, parse_log, quantize_log, read_reserves,
                    write_log, write_reserves)
from .logs import BidLog
from .mechanics import (AuctionOutcome, BidProfile, Mechanism, ReserveVector,
                        critical_bid, run_auction, run_eager, run_lazy)
from .optimize import (OptimizationResult, eager_coordinate_ascent, empirical_revenue,
                       monopoly_reserves, optimal_eager_exact, optimal_lazy,
                       optimal_lazy_bruteforce)
from .product import (FiniteDist, ProductDist, expected_revenue_product,
                      optimal_reserves_product, trim_lift)
from .vectorized import ABSENT, eager_payments, lazy_payments, payments

__version__ = "0.1.0"

__all__ = [
    "ABSENT", "AuctionOutcome", "BidLog", "BidProfile",
    "ConfigError", "ContinuousDist",
    "DomainError", "EqualRevenuePairAnalysis", "FiniteDist", "GeometricPairAnalysis",
    "HighLowAnalysis", "JointGenerator", "LiftReport", "LogParseError", "Mechanism",
    "OptimizationResult", "PairedDelta", "ProductDist", "ReserveVector",
    "SearchSpaceTooLarge", "SweepResult", "SweepRow",
    "VirtualValueFn", "compute_lift_report", "critical_bid", "eager_coordinate_ascent",
    "eager_payments", "empirical_revenue", "empirical_treatment_sweep",
    "equal_revenue_dist", "equal_revenue_pair_analysis", "expected_revenue_product",
    "expected_second_highest", "exponential_dist", "format_micro",
    "gen_correlated_equal_revenue", "gen_geometric_pair", "gen_hardness_instance",
    "gen_high_low", "gen_iid", "gen_symmetric_one_high", "geometric_pair_analysis",
    "geometric_pair_atoms", "high_low_exact", "independent_set_number",
    "lazy_payments", "lift_revenue_tsv", "lift_welfare_tsv", "monopoly_reserves",
    "myerson_reserve", "optimal_eager_exact", "optimal_lazy", "optimal_lazy_bruteforce",
    "optimal_reserves_product", "paired_treatment_deltas", "parse_log", "payments",
    "quantize_log", "read_reserves", "rev_e_k_closed_uniform",
    "rev_e_k_quadrature", "rev_l_k_closed", "run_auction", "run_eager", "run_lazy",
    "sample_log", "simulate_treatment", "sweep_theoretical", "trim_lift",
    "uniform_dist", "virtual_value", "write_log", "write_reserves",
]
