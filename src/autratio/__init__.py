"""autratio: exact automorphism-to-order ratios of finite abelian groups.

Three capabilities built on one exact core:

* evaluate f(G) = |Aut(G)|/|G| and f'(G) = |Aut(G)|/phi(|G|) exactly;
* given any target a >= 0 and tolerance eps > 0, construct an explicit
  abelian group whose ratio provably lies within eps of a (certified);
* exhaustively search bounded families of abelian groups for exact
  rational hits f(G) = a.

Every public name is imported from its module on first use (PEP 562), so
``import autratio`` loads nothing else.  The package needs only the
standard library.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it, in ``__all__`` order.
_EXPORTS = {
    name: module
    for module, names in (
        ("groups", (
            "AbelianGroup", "SymbolicGroup", "TRIVIAL", "cyclic", "order",
            "direct_product", "invariant_factors", "parse_group", "format_group",
        )),
        ("primes", ("PrimeStream", "shared_stream")),
        ("autorder", (
            "LogValue", "aut_order", "aut_order_local", "f_exact",
            "f_prime_exact", "f_log", "two_rank_ratio",
        )),
        ("oracle", ("OracleCaps", "aut_order_bruteforce", "aut_order_bruteforce_naive")),
        ("subsum", (
            "TermSource", "PrimeRatioSource", "LogTarget", "Selection",
            "greedy_select", "CONVERGED", "CAPACITY_EXHAUSTED",
        )),
        ("approximate", ("ApproxResult", "approx_ray", "verify_certificate")),
        ("search", ("SearchBounds", "Witness", "enumerate_groups", "find_exact", "build_f_table")),
        ("errors", (
            "AutratioError", "GroupParseError", "SieveCapacityError",
            "OracleCapExceeded", "PrecisionRefusal", "InputLimitExceeded",
        )),
    )
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
