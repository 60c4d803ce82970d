"""Constructive approximation: build a group whose ratio lands within eps.

f is multiplicative over coprime orders and f(C_p) = (p-1)/p, so every
result is a 2-part C2^n times a product of distinct odd primes.  The
2-part is chosen first: b = f(C2^n) is the smallest of
1/2 < 1 < 3/2 < 21 < 1260 < ... that is at least the target a (C1, b = 1,
under ``odd_only``).  Then one greedy over the odd primes steers the
product U = prod p/(p-1) onto b/a from below, in log space with log
tolerance ln(1 + eps/a), which converts the absolute tolerance exactly (no
first-order approximation): f = b/U lands in [a, a + eps).  When a = b
the greedy selects nothing and the hit is exact.

Target 0 is in the closure but not the image, so a <= eps (unless a is
itself some b) returns a below-eps witness: a certified f(G) < eps, never
a pretended exact hit.

From the parsed target to the returned result, rationals such as
(a + eps)/a, b/a and a +- eps are integer pairs reduced by gcd, and
logarithms are ``fixedlog`` integer enclosures at 2**-192; Fractions are
built only for the result's own fields and the greedy's inputs.  The one
float conversion is ``LogValue.from_bounds`` of the final enclosure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count
from math import gcd

from . import fixedlog, subsum
from ._record import record, replace
from .autorder import LogValue, _f_log_bounds, product_tree, two_rank_ratio
from .errors import PrecisionRefusal, SieveCapacityError
from .groups import SymbolicGroup, _short
from .primes import PrimeStream, shared_stream
from .subsum import CONVERGED, LogTarget, PrimeRatioSource, Selection, greedy_select

__all__ = [
    "ApproxTrace",
    "ApproxResult",
    "approx_ray",
    "verify_certificate",
]

_PREC = fixedlog.PREC


@record
class ApproxTrace:
    """Everything needed to replay and audit one approximation run.

    The group is C2^two_rank times the odd primes of ``selection``, whose
    source index j is the odd prime p_(j+1); its 2-part, with b =
    f(C2^two_rank), is read from the group.  A returned result's
    ``selection`` has ``exact_product`` None: the result's ``exact_ratio``
    (b/exact_product) already carries that number, which for a run of
    thousands of primes is worth keeping only once.
    """

    selection: Selection
    max_prime_scanned: int
    below_eps_witness: bool = False


@record
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


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms, for den > 0: the pair Fraction would hold."""
    g = gcd(num, den)
    return num // g, den // g


def _two_part(a: Fraction | int, odd_only: bool) -> tuple[int, Fraction]:
    """(n, b) for the C2^n with b = f(C2^n) the smallest of
    1/2 < 1 < 3/2 < 21 < 1260 < ... (n = 1, 0, 2, 3, 4, ...) that is >= a;
    (0, 1) under ``odd_only``.  f(C2^n) grows without bound, so this
    terminates."""
    if odd_only:
        return 0, two_rank_ratio(0)
    an, ad = a.numerator, a.denominator
    for n in chain((1, 0), count(2)):
        b = two_rank_ratio(n)
        if b.numerator * ad >= an * b.denominator:
            return n, b


def approx_ray(
    a,
    eps,
    *,
    odd_only: bool = False,
    stream: PrimeStream | None = None,
) -> ApproxResult:
    """Group with certified |f(G) - a| <= eps for any a >= 0; see the
    module docstring.

    With ``odd_only`` the group has odd order and a must lie in [0, 1].  A
    target a <= eps that is not itself some b = f(C2^n) cannot be hit from
    within the image, so the result is a below-eps witness: certified
    f(G) < eps, flagged in the trace.  Raises SieveCapacityError (with the
    partial trace attached) when the sieve ceiling, the greedy's one
    limit, stops convergence.  A run of at most ``subsum.EXACT_CAP``
    odd primes returns an exact ratio, a longer one its certified enclosure.
    """
    a = Fraction(a)
    eps = Fraction(eps)
    # rationals as integer pairs in lowest terms from here on
    an, ad, en, ed = a.numerator, a.denominator, eps.numerator, eps.denominator
    if an < 0:
        raise ValueError("target must be >= 0")
    if en <= 0:
        raise ValueError("eps must be positive")
    if odd_only and an > ad:
        raise ValueError("an odd-order construction needs a target in [0, 1]")
    stream = stream or shared_stream()
    n, b = _two_part(a, odd_only)
    hit = (an, ad) == (b.numerator, b.denominator)  # a = b, an exact hit
    below_eps = an * ed <= en * ad and not hit
    if below_eps:
        # target ln Q with Q >= 3b/eps and log tolerance 1: convergence
        # leaves U > Q/e > b/eps (or U = 1 and b < eps/3), so f = b/U < eps
        n, b = _two_part(0, odd_only)
        qn, qd = _reduced(3 * b.numerator * ed, b.denominator * en)
        qn, qd = (qn, qd) if qn > qd else (1, 1)
        eps_log = 1
    else:
        # rational lower bound of ln(1 + eps/a): stopping strictly earlier
        # than the true log tolerance keeps f < a + eps certified
        lo_eps = fixedlog.ln_quotient_end(*_reduced(an * ed + en * ad, an * ed), _PREC)
        if lo_eps <= 0 and not hit:
            raise PrecisionRefusal(
                f"eps ({_short(eps)}) is below the arithmetic resolution "
                f"2^-{_PREC} of the log tolerance ln(1 + eps/a)"
            )
        # an exact hit (Q = 1) converges on the empty selection at any
        # positive tolerance
        qn, qd = _reduced(b.numerator * ad, b.denominator * an)
        eps_log = Fraction(max(lo_eps, 1), 1 << _PREC)
    source = PrimeRatioSource(stream)
    sel = greedy_select(source, LogTarget(Fraction(qn, qd)), eps_log)
    max_p = source.prime(sel.scanned) if sel.scanned else 0
    trace = ApproxTrace(replace(sel, exact_product=None), max_p, below_eps)
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
        raise SieveCapacityError(msg, partial=trace)
    if sel.exact_product is not None:
        exact = b / sel.exact_product
        lo, hi = fixedlog.ln_quotient_bounds(exact.numerator, exact.denominator, _PREC)
    else:
        # ln f = ln b - (selected sum), both integer pairs at 2**-PREC
        exact = None
        b_lo, b_hi = fixedlog.ln_quotient_bounds(b.numerator, b.denominator, _PREC)
        s_lo, s_hi = sel.achieved
        lo, hi = b_lo - s_hi, b_hi - s_lo
    return ApproxResult(
        group=SymbolicGroup(n, tuple((i + 1, j + 1) for i, j in sel.ranges)),
        achieved=LogValue.from_bounds(lo, hi, _PREC),
        exact_ratio=exact,
        target=a,
        eps=eps,
        trace=trace,
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
    exact claim over more than ``subsum.EXACT_CAP`` primes, which no run
    makes and whose product would cost more than its enclosure.

    Both enclosures come from ``autorder._f_log_bounds`` and are judged by
    ``_decide``.  With ``prec`` None the first is the 60-bit atanh-series
    kernel (``fixedlog.term_block_atanh60``, read through the stream's
    checkpoints), which shares no series with the first pass.  It answers
    only when it lies certainly inside or certainly outside the interval;
    otherwise the scalar path decides at 2 * PREC, so the verdict always
    equals the scalar one.  An explicit
    ``prec`` runs the scalar path at that precision: one enclosure per
    prime, ``log_ratio_term_bounds`` at ``prec`` bits.
    """
    stream = stream or shared_stream()
    exact = result.exact_ratio is not None
    if exact and result.group.index_count <= subsum.EXACT_CAP:
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
    # a + eps and a - eps over the denominator ad * ed, reduced as Fraction
    # would reduce them
    num, den = a.numerator * eps.denominator, a.denominator * eps.denominator
    gap = eps.numerator * a.denominator
    up_lo, up_hi = fixedlog.ln_quotient_bounds(*_reduced(num + gap, den), prec)
    if lo >= up_hi:
        return False  # f >= a + eps
    below_upper = hi < up_lo
    if num <= gap:  # a - eps <= 0
        return True if below_upper else None
    low_lo, low_hi = fixedlog.ln_quotient_bounds(*_reduced(num - gap, den), prec)
    if hi <= low_lo:
        return False  # f <= a - eps
    return True if below_upper and lo > low_hi else None


def _verify_exact(result: ApproxResult, stream: PrimeStream) -> bool:
    g = result.group
    primes = g.odd_primes(stream)
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
