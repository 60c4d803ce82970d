"""autratio: exact automorphism-to-order ratios of finite abelian groups.

Three capabilities built on one exact core:

* evaluate f(G) = |Aut(G)|/|G| and f'(G) = |Aut(G)|/phi(|G|) exactly;
* given any target a >= 0 and tolerance eps > 0, construct an explicit
  abelian group whose ratio provably lies within eps of a (certified);
* exhaustively search bounded families of abelian groups for exact
  rational hits f(G) = a.
"""

from .errors import (
    AutratioError,
    GroupParseError,
    InputLimitExceeded,
    OracleCapExceeded,
    PrecisionRefusal,
    SieveCapacityError,
)
from .groups import (
    TRIVIAL,
    AbelianGroup,
    SymbolicGroup,
    cyclic,
    direct_product,
    format_group,
    invariant_factors,
    order,
    parse_group,
)
from .primes import PrimeStream, nth_prime, shared_stream
from .autorder import (
    LogValue,
    Ratio,
    aut_order,
    aut_order_local,
    f_exact,
    f_log,
    f_prime_exact,
    two_rank_ratio,
)
from .oracle import OracleCaps, aut_order_bruteforce, aut_order_bruteforce_naive
from .subsum import (
    BUDGET_EXHAUSTED,
    CAPACITY_EXHAUSTED,
    CONVERGED,
    LogTarget,
    PrimeRatioSource,
    Selection,
    TermSource,
    greedy_select,
    prime_ratio_terms,
)
from .approximate import (
    ApproxConfig,
    ApproxResult,
    approx_in_unit,
    approx_ray,
    choose_two_rank,
    verify_certificate,
)
from .search import (
    SearchBounds,
    Witness,
    build_f_table,
    enumerate_groups,
    find_exact,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "SymbolicGroup",
    "TRIVIAL",
    "cyclic",
    "order",
    "direct_product",
    "invariant_factors",
    "parse_group",
    "format_group",
    "PrimeStream",
    "shared_stream",
    "nth_prime",
    "Ratio",
    "LogValue",
    "aut_order",
    "aut_order_local",
    "f_exact",
    "f_prime_exact",
    "f_log",
    "two_rank_ratio",
    "OracleCaps",
    "aut_order_bruteforce",
    "aut_order_bruteforce_naive",
    "TermSource",
    "PrimeRatioSource",
    "prime_ratio_terms",
    "LogTarget",
    "Selection",
    "greedy_select",
    "CONVERGED",
    "BUDGET_EXHAUSTED",
    "CAPACITY_EXHAUSTED",
    "ApproxConfig",
    "ApproxResult",
    "approx_in_unit",
    "approx_ray",
    "choose_two_rank",
    "verify_certificate",
    "SearchBounds",
    "Witness",
    "enumerate_groups",
    "find_exact",
    "build_f_table",
    "AutratioError",
    "GroupParseError",
    "SieveCapacityError",
    "OracleCapExceeded",
    "PrecisionRefusal",
    "InputLimitExceeded",
]
