"""Constructive approximation: build a group whose ratio lands within eps.

For a target in (0, 1] the recipe works entirely below 1: pick distinct
primes greedily so that the product P = prod (p-1)/p decreases onto the
target from above.  The greedy runs in log space with target t = ln(1/a)
and log tolerance ln(1 + eps/a), which converts the absolute product
tolerance exactly (no first-order approximation), giving P in [a, a + eps).

For a > 1, first take an elementary abelian 2-group C2^n whose ratio b
exceeds a (minimal such n), then steer the remainder a/b < 1 with odd
primes only, at inner tolerance eps/b; multiplicativity over coprime
orders makes the errors compose as b * (eps/b) = eps.

Target 0 is in the closure but not the image, so a <= eps returns a
below-eps witness: a certified f(G) < eps, never a pretended exact hit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import fixedlog
from .autorder import LogValue, _f_log_bounds, product_tree, two_rank_ratio
from .errors import PrecisionRefusal, SieveCapacityError
from .groups import SymbolicGroup, _short
from .primes import PrimeStream, shared_stream
from .subsum import (
    CONVERGED,
    DEFAULT_BUDGET,
    DEFAULT_EXACT_CAP,
    LogTarget,
    Selection,
    greedy_select,
    prime_ratio_terms,
)

__all__ = [
    "ApproxConfig",
    "ApproxTrace",
    "ApproxResult",
    "choose_two_rank",
    "approx_in_unit",
    "approx_ray",
    "verify_certificate",
]

_PREC = fixedlog.PREC


@dataclass(frozen=True)
class ApproxConfig:
    """Resource knobs; correctness never depends on them.

    ``budget`` caps the greedy's highest term index.  ``exact_cap`` is the
    number of included primes up to which a decision that the greedy's
    60-bit enclosures cannot settle is taken exactly on the product, and
    an exact ratio is returned; past it such a decision is conservative
    and the result is certified by its enclosure.
    """

    budget: int | None = DEFAULT_BUDGET
    exact_cap: int = DEFAULT_EXACT_CAP


@dataclass(frozen=True, slots=True)
class ApproxTrace:
    """Everything needed to replay and audit one approximation run.

    A returned result's ``selection`` has ``exact_product`` None: the
    result's ``exact_ratio`` (1/exact_product, times b for a ray result)
    already carries that number, which for a run of thousands of primes is
    worth keeping only once.
    """

    two_rank: int
    b: Fraction | None  # f(C2^two_rank) when the ray split was used
    eps_inner: Fraction | None  # eps/b passed to the odd-prime stage
    odd_only: bool
    selection: Selection | None
    max_prime_scanned: int
    below_eps_witness: bool = False


@dataclass(frozen=True, slots=True)
class ApproxResult:
    """A synthesized group with a certified ratio enclosure.

    ``achieved`` encloses ln f(G); ``exact_ratio`` is set whenever the run
    stayed fully exact, and then f(G) equals it with zero error.
    """

    group: SymbolicGroup
    achieved: LogValue
    exact_ratio: Fraction | None
    target: Fraction
    eps: Fraction
    trace: ApproxTrace

    def materialize(self, stream: PrimeStream | None = None, cap: int = 10_000):
        return self.group.materialize(stream or shared_stream(), cap)


def choose_two_rank(a) -> tuple[int, Fraction]:
    """Minimal n with f(C2^n) > a (strictly), with the exact value b.

    f(C2^n) grows without bound, so this terminates; minimality keeps b/a
    small, which shrinks the odd-prime workload downstream.
    """
    a = Fraction(a)
    if a <= 1:
        raise ValueError("choose_two_rank needs a > 1")
    n = 1
    while two_rank_ratio(n) <= a:
        n += 1
    return n, two_rank_ratio(n)


def _greedy_unit(
    a: Fraction,
    eps: Fraction,
    q: Fraction,
    eps_log: Fraction,
    odd_only: bool,
    stream: PrimeStream,
    config: ApproxConfig,
    record_trail: bool,
    below_eps: bool,
) -> ApproxResult:
    """Greedy onto t = ln q with log tolerance ``eps_log``; the result
    encloses ln P = -(selected sum) and is flagged as a below-eps witness
    when ``below_eps``."""
    source = prime_ratio_terms(odd_only, stream)
    sel = greedy_select(
        source,
        LogTarget(q),
        eps_log,
        budget=config.budget,
        record_trail=record_trail,
        exact_cap=config.exact_cap,
    )
    max_p = source.prime(sel.scanned) if sel.scanned else 0
    if sel.status != CONVERGED:
        if below_eps:
            msg = (
                f"cannot certify a ratio below {_short(eps)} under the sieve "
                f"ceiling ({sel.status} after {sel.scanned} terms)"
            )
        else:
            msg = (
                f"could not approach {_short(a)} within {_short(eps)}: "
                f"{sel.status} after scanning {sel.scanned} terms"
            )
        partial = ApproxTrace(0, None, None, odd_only, sel, max_p)
        raise SieveCapacityError(msg, partial=partial)
    group = _group_from_selection(sel, odd_only)
    exact = (1 / sel.exact_product) if sel.exact_product is not None else None
    lo, hi = sel.achieved
    return ApproxResult(
        group=group,
        achieved=LogValue.from_bounds(-hi, -lo, _PREC),
        exact_ratio=exact,
        target=a,
        eps=eps,
        trace=ApproxTrace(
            group.two_rank, None, None, odd_only,
            replace(sel, exact_product=None), max_p, below_eps,
        ),
    )


def _group_from_selection(sel: Selection, odd_only: bool) -> SymbolicGroup:
    """Map source-index runs to prime-index runs; a selected p = 2 becomes
    the C2 factor (two_rank 1)."""
    if odd_only:
        ranges = tuple((lo + 1, hi + 1) for lo, hi in sel.ranges)
        return SymbolicGroup(0, ranges)
    two_rank = 0
    ranges = list(sel.ranges)
    if ranges and ranges[0][0] == 1:
        two_rank = 1
        lo, hi = ranges[0]
        if hi == 1:
            ranges.pop(0)
        else:
            ranges[0] = (2, hi)
    return SymbolicGroup(two_rank, tuple(ranges))


def approx_in_unit(
    a,
    eps,
    odd_only: bool = False,
    *,
    stream: PrimeStream | None = None,
    config: ApproxConfig = ApproxConfig(),
    record_trail: bool = False,
) -> ApproxResult:
    """Group with ratio in [a, a + eps) for a in [0, 1] (certified).

    a = 1 returns the trivial group exactly.  a <= eps cannot be hit from
    within the image, so the result is a below-eps witness: certified
    f(G) < eps, flagged in the trace.  Raises SieveCapacityError (with the
    partial trace attached) when the sieve ceiling stops convergence.
    """
    a = Fraction(a)
    eps = Fraction(eps)
    if not 0 <= a <= 1:
        raise ValueError("approx_in_unit needs 0 <= a <= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    stream = stream or shared_stream()
    if a == 1:
        group = SymbolicGroup(0, ())
        return ApproxResult(
            group=group,
            achieved=LogValue(0.0, 0.0),
            exact_ratio=Fraction(1),
            target=a,
            eps=eps,
            trace=ApproxTrace(0, None, None, odd_only, None, 0),
        )
    if a <= eps:
        # target ln(3/eps) = ln(1/eps) + ln 3 with log tolerance 1:
        # convergence leaves U = prod p/(p-1) > 3/(e*eps) > 1/eps, so
        # f = 1/U < eps
        return _greedy_unit(
            a, eps, 3 / eps, Fraction(1), odd_only, stream, config,
            record_trail, below_eps=True,
        )
    # rational lower bound of ln(1 + eps/a): stopping strictly earlier than
    # the true log tolerance keeps P < a + eps certified
    lo_eps = fixedlog.ln_fraction_bounds((a + eps) / a, _PREC)[0]
    eps_log = Fraction(lo_eps, 1 << _PREC)
    if eps_log <= 0:
        raise PrecisionRefusal(
            f"eps ({_short(eps)}) is below the arithmetic resolution 2^-{_PREC} "
            f"of the log tolerance ln(1 + eps/a)"
        )
    return _greedy_unit(
        a, eps, 1 / a, eps_log, odd_only, stream, config, record_trail,
        below_eps=False,
    )


def approx_ray(
    a,
    eps,
    *,
    stream: PrimeStream | None = None,
    config: ApproxConfig = ApproxConfig(),
    record_trail: bool = False,
) -> ApproxResult:
    """Group with certified |f(G) - a| <= eps for any a >= 0.

    a <= 1 delegates to approx_in_unit over all primes.  For a > 1 the
    2-part is chosen first; when a equals some f(C2^n) exactly the odd
    stage is skipped entirely (the inner target would be 1).
    """
    a = Fraction(a)
    eps = Fraction(eps)
    if a < 0:
        raise ValueError("target must be >= 0")
    if eps <= 0:
        raise ValueError("eps must be positive")
    stream = stream or shared_stream()
    if a <= 1:
        return approx_in_unit(
            a, eps, odd_only=False, stream=stream, config=config,
            record_trail=record_trail,
        )
    n, b = choose_two_rank(a)
    # exact representability by an elementary 2-group alone
    if two_rank_ratio(n - 1) == a:
        return ApproxResult(
            group=SymbolicGroup(n - 1, ()),
            achieved=LogValue.from_bounds(
                *fixedlog.ln_fraction_bounds(a, _PREC), _PREC
            ),
            exact_ratio=a,
            target=a,
            eps=eps,
            trace=ApproxTrace(n - 1, a, None, True, None, 0),
        )
    eps1 = eps / b
    inner = approx_in_unit(
        a / b, eps1, odd_only=True, stream=stream, config=config,
        record_trail=record_trail,
    )
    group = SymbolicGroup(n, inner.group.odd_prime_ranges)
    b_lo, b_hi = fixedlog.ln_fraction_bounds(b, _PREC)
    # composing inner's integer pair instead would narrow the enclosure,
    # a deliberate change of every certified ray result's abs_error
    lo_in, hi_in = inner.achieved.interval()
    lo = Fraction(b_lo, 1 << _PREC) + lo_in
    hi = Fraction(b_hi, 1 << _PREC) + hi_in
    exact = b * inner.exact_ratio if inner.exact_ratio is not None else None
    return ApproxResult(
        group=group,
        achieved=LogValue.from_interval(lo, hi),
        exact_ratio=exact,
        target=a,
        eps=eps,
        trace=replace(inner.trace, two_rank=n, b=b, eps_inner=eps1),
    )


def verify_certificate(
    result: ApproxResult,
    *,
    stream: PrimeStream | None = None,
    prec: int | None = None,
) -> bool:
    """Independent second pass over the returned group.

    Rebuilds f(G) from the group alone, never from the run's bookkeeping.
    An exact result must have f(G) equal to its ``exact_ratio`` and
    |f - a| <= eps (0 < f < eps for a below-eps witness), checked by
    integer cross-multiplication.  For a certified result, ln f(G) is
    enclosed and must lie inside (ln(a - eps), ln(a + eps)); so is an
    exact claim over more than DEFAULT_EXACT_CAP primes, which no default
    run makes and whose product would cost more than its enclosure.

    Both enclosures come from ``autorder._f_log_bounds`` and are judged by
    ``_decide``.  With ``prec`` None the first is the int64 atanh-series
    kernel (``fixedlog.term_block_atanh60``), which shares no series with
    the first pass.  It answers only when it lies certainly inside or
    certainly outside the interval; otherwise the scalar path decides at
    2 * PREC, so the verdict always equals the scalar one.  An explicit
    ``prec`` runs the scalar path at that precision: one enclosure per
    prime, ``log_ratio_term_bounds`` at ``prec`` bits.
    """
    stream = stream or shared_stream()
    exact = result.exact_ratio is not None
    if exact and result.group.index_count <= DEFAULT_EXACT_CAP:
        return _verify_exact(result, stream)
    if prec is None:
        lo, hi = _f_log_bounds(result.group, stream, None)
        verdict = _decide(lo, hi, _PREC, result)
        if verdict is not None:
            return verdict
        prec = 2 * _PREC
    lo, hi = _f_log_bounds(result.group, stream, prec)
    return _decide(lo, hi, prec, result) is True


def _decide(lo: int, hi: int, prec: int, result: ApproxResult) -> bool | None:
    """Compare the enclosure [lo, hi] * 2**-prec of ln f(G) with
    (ln(a - eps), ln(a + eps)): True when it lies certainly inside, False
    when certainly outside, None when it straddles an end."""
    a, eps = result.target, result.eps
    up_lo, up_hi = fixedlog.ln_fraction_bounds(a + eps, prec)
    if lo >= up_hi:
        return False  # f >= a + eps
    below_upper = hi < up_lo
    if a - eps <= 0:
        return True if below_upper else None
    low_lo, low_hi = fixedlog.ln_fraction_bounds(a - eps, prec)
    if hi <= low_lo:
        return False  # f <= a - eps
    return True if below_upper and lo > low_hi else None


def _verify_exact(result: ApproxResult, stream: PrimeStream) -> bool:
    g = result.group
    primes: list[int] = []
    for lo, hi in g.odd_prime_ranges:
        primes += stream.primes_slice(lo, hi).tolist()
    b = two_rank_ratio(g.two_rank)
    num = b.numerator * product_tree([p - 1 for p in primes])
    den = b.denominator * product_tree(primes)
    r, a, eps = result.exact_ratio, result.target, result.eps
    if num * r.denominator != den * r.numerator:
        return False  # the claimed ratio is not f of the returned group
    if result.trace.below_eps_witness:
        return num * eps.denominator < eps.numerator * den
    # |num/den - a| <= eps, with every denominator cleared
    gap = abs(num * a.denominator - a.numerator * den)
    return gap * eps.denominator <= eps.numerator * den * a.denominator
