"""Exact verification: LP, big-M MILP, ReLU branch-and-bound, splitting."""

from repro.exact.lp import (
    LP_INFEASIBLE,
    LP_OPTIMAL,
    LP_UNBOUNDED,
    LPResult,
    solve_lp,
    solve_system,
)
from repro.exact.encoding import (
    LinearSystem,
    NetworkEncoding,
    PhaseMap,
    clear_encoding_cache,
    count_encoding_reuse,
    encoding_cache_stats,
)
from repro.exact.milp import MILPResult, solve_milp
from repro.exact.bab import (
    BaBResult,
    BaBSolver,
    maximize_output,
    minimize_output,
)
from repro.exact.parallel_bab import FRONTIER_WIDTH, maximize_frontier
from repro.exact.splitting import SplitResult, check_containment_split
from repro.exact.tighten import TightenStats, tighten_preactivation_bounds
from repro.exact.verify import (
    ContainmentResult,
    check_containment,
    output_range_exact,
)

__all__ = [
    "BaBResult",
    "FRONTIER_WIDTH",
    "maximize_frontier",
    "TightenStats",
    "tighten_preactivation_bounds",
    "BaBSolver",
    "ContainmentResult",
    "LP_INFEASIBLE",
    "LP_OPTIMAL",
    "LP_UNBOUNDED",
    "LPResult",
    "LinearSystem",
    "MILPResult",
    "NetworkEncoding",
    "PhaseMap",
    "SplitResult",
    "check_containment",
    "check_containment_split",
    "clear_encoding_cache",
    "count_encoding_reuse",
    "encoding_cache_stats",
    "maximize_output",
    "minimize_output",
    "output_range_exact",
    "solve_lp",
    "solve_milp",
    "solve_system",
]
