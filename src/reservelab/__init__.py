"""Second-price auctions with personalized reserves: mechanics, optimization, experiments.

The package covers the full loop: run lazy/eager reserve mechanics exactly,
fit optimal reserve vectors to bid logs, build the adversarial distributions
that separate the two mechanisms, simulate reserve A/B tests, and drive it
all from a command line over CSV/JSONL logs.
"""

import types as _types

from .abtest import (PairedDelta, SweepResult, SweepRow, empirical_treatment_sweep,
                     expected_second_highest, paired_treatment_deltas, rev_e_k_closed_uniform,
                     rev_e_k_quadrature, rev_l_k_closed, simulate_treatment, sweep_theoretical)
from .distributions import (ContinuousDist, equal_revenue_dist, exponential_dist, is_regular,
                            myerson_reserve, uniform_dist, virtual_value)
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

# Every public name the imports above bind, so `from reservelab import *` exports exactly those.
__all__ = sorted(name for name, value in dict(globals()).items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
