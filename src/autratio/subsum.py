"""Greedy selection of a finite subsequence whose sum approaches a target.

The paper's premises: positive terms x_1, x_2, ... tend to zero and their
sum diverges.  Then the finite subset sums are dense in [0, oo), and
``greedy_select`` realizes that constructively with the simplest possible
rule: scan i = 1, 2, ... and take x_i whenever it still fits under the
target.  The running sum then never exceeds the target, and every skip
certifies that the remaining deficit was smaller than the skipped term,
which is what drives convergence once terms fall below the tolerance.  The
terms must also be nonincreasing (a precondition, not checked), so one
bisection skips a whole run of too-large terms.

Two kinds of term source are supported:

* ``TermSource`` with exact rational terms (e.g. the harmonic sequence);
  every decision is exact Fraction arithmetic with zero error.
* ``PrimeRatioSource`` with terms x_j = ln(p/(p - 1)) over the odd primes
  p = p_(j+1) (the 2-part of a group is chosen apart).  The terms are
  irrational but each is the log of a rational, so against a ``LogTarget``
  (a target of the form ln(Q), Q rational) every greedy decision reduces
  to an exact comparison on the running product  U = prod p/(p-1).  The
  greedy is one scan over a table of floor terms at scale 2**-60
  (``fixedlog.term_block_fp60``, each under its true value by less than
  ``fixedlog.TERM_ERR60`` units).  It keeps the included runs and an
  integer enclosure of ln U built from their terms, and nothing else.  One
  bisection over the table's running sums proves a whole run of
  inclusions, and one over its terms skips to the next included term.  U is
  built, one product tree per side, only for a comparison the enclosures
  cannot settle, which is then decided exactly while fewer than
  ``EXACT_CAP`` terms are included and conservatively after; and for the
  exact product of a run of at most ``EXACT_CAP`` terms.  Convergence is
  declared only when the certified deficit is below the tolerance, and
  is tested after every inclusion, so the selection does not depend on
  how far the sieve has been extended: a new stream, which holds only 2,
  selects what a stream sieved far ahead selects.

The table is one ``array('q')`` per stream: entry j is the sum of the
floor terms of source indices 1..j, so a term is the difference of two
entries and so is a run's sum.  It grows in place to the entries read, a
bounded number of terms at a time, by the same standard-library code in
every sieve window.  A skip's probes compute a term past the table alone,
and U is multiplied from Python-int lists of primes.

Each source has one limit on the scan: a ``TermSource``'s ``capacity``
and a ``PrimeRatioSource``'s sieve ceiling.  A run that reaches it before
converging ends with status ``capacity_exhausted``.

A log-ratio run returns its enclosure of the selected sum as one integer
pair (lo, hi) at scale 2**-``fixedlog.PREC``, the form ``fixedlog``
returns, and its certified convergence tests compare integers by
cross-multiplication.  A caller that wants a tighter enclosure of an
exact run logs its ``exact_product`` itself.
"""

from __future__ import annotations

import math
import threading
from array import array
from fractions import Fraction
from itertools import accumulate, islice
from typing import Callable

from . import fixedlog
from ._record import record
from .autorder import product_tree
from .errors import PrecisionRefusal, SieveCapacityError
from .groups import _add_run
from .primes import PrimeStream, shared_stream

__all__ = [
    "CONVERGED",
    "CAPACITY_EXHAUSTED",
    "LogTarget",
    "TermSource",
    "PrimeRatioSource",
    "Selection",
    "greedy_select",
    "DEFAULT_CAPACITY",
    "EXACT_CAP",
]

CONVERGED = "converged"
CAPACITY_EXHAUSTED = "capacity_exhausted"

DEFAULT_CAPACITY = 10_000_000
EXACT_CAP = 10_000  # the most included terms decided exactly on U

_PREC = fixedlog.PREC
_SB = fixedlog.SCALE_BITS
_C = fixedlog.TERM_ERR60


@record
class LogTarget:
    """Target sum ln(ratio) for a rational ratio >= 1."""

    ratio: Fraction

    def __post_init__(self):
        object.__setattr__(self, "ratio", Fraction(self.ratio))
        if self.ratio < 1:
            raise ValueError("LogTarget ratio must be >= 1 (target sum >= 0)")


class TermSource:
    """Indexed positive terms i -> x_i (i >= 1).

    ``term(i)`` must be deterministic and return an exact Fraction.  The
    caller promises, unchecked, that the terms are nonincreasing (a skip
    bisects on it), tend to zero and sum to infinity.  The last two are the
    paper's premises, so the source carries a ``capacity``, the highest
    index a run may read: a series that does not diverge still stops.
    """

    def __init__(self, term: Callable[[int], Fraction], *, capacity: int = DEFAULT_CAPACITY):
        self._term = term
        self.capacity = capacity

    def term(self, i: int) -> Fraction:
        if i < 1:
            raise ValueError("term index must be >= 1")
        x = Fraction(self._term(i))
        if x <= 0:
            raise ValueError(f"term {i} is not positive: {x}")
        return x


class PrimeRatioSource:
    """Terms x_j = ln(p/(p-1)) over the odd primes: source index j is the
    prime p_(j+1), so the first term is ln(3/2).

    The premises hold: the terms decrease to zero since p grows, and the
    series diverges because the terms are asymptotically 1/p and sum 1/p
    diverges.  The stream's sieve ceiling is the source's one limit.
    """

    def __init__(self, stream: PrimeStream | None = None):
        self.stream = stream or shared_stream()

    def prime(self, j: int) -> int:
        """The prime of source index j >= 1."""
        if j < 1:
            raise ValueError("term index must be >= 1")
        return self.stream.nth_prime(j + 1)

    def sum60(self, j: int) -> int:
        """Sum of the floor terms of source indices 1..j (0 for j = 0), read
        from the stream's table of running sums, which grows to hold it."""
        return _term60_sums(self.stream, j)[j]

    def term60(self, j: int) -> int:
        """Floor term of source index j: the difference of two running sums
        when the table holds j, else computed for that prime alone, leaving
        the table as it is."""
        sums = getattr(self.stream, "_term60_sums", None)
        if sums is not None and j < len(sums):
            return sums[j] - sums[j - 1]
        return fixedlog.term_block_fp60([self.prime(j)])[0]


_term60_lock = threading.Lock()
_GROW = 1 << 16  # the most terms the table computes at once


def _term60_sums(stream: PrimeStream, j: int) -> array:
    """The stream's running sums of floor terms, grown to hold entry j:
    entry j is the sum of the terms of source indices 1..j, the odd primes
    p_2..p_(j+1), and entry 0 is 0.

    The table is one array('q') grown in place to the entries read, at most
    _GROW terms at a time, so the kernel's list stays at that size.  An
    entry never changes once written, so reads take no lock."""
    sums = getattr(stream, "_term60_sums", None)
    if sums is not None and j < len(sums):
        return sums
    stream.nth_prime(j + 1)
    with _term60_lock:
        sums = getattr(stream, "_term60_sums", None)
        if sums is None:
            sums = stream._term60_sums = array("q", [0])
        while len(sums) <= j:
            have = len(sums) - 1
            terms = fixedlog.term_block_fp60(stream.primes_list(have + 2, min(j, have + _GROW) + 1))
            sums.extend(islice(accumulate(terms, initial=sums[-1]), 1, None))
    return sums


@record
class Selection:
    """Result of a greedy run.

    ``ranges`` run-length encodes the chosen source indices and
    ``scanned`` is the last index read; with the source they replay the
    scan, since each gap between included indices, and the stretch after
    the last one up to ``scanned``, was skipped as one run.  For a
    prime-ratio source ``achieved`` is the integer pair (lo, hi) with the
    true selected sum in [lo, hi] * 2**-``fixedlog.PREC``: the scan's
    60-bit enclosure, shifted.  A run of at most ``EXACT_CAP`` included
    terms also sets ``exact_product`` = prod p/(p-1) = exp(sum).  For an
    additive source ``achieved`` is None: ``exact_sum`` is the sum
    itself.  On ``converged`` the contract is  target - eps < sum <= target.
    """

    ranges: tuple[tuple[int, int], ...]
    count: int
    status: str
    scanned: int
    target: Fraction | LogTarget
    eps: Fraction
    achieved: tuple[int, int] | None
    exact_sum: Fraction | None = None
    exact_product: Fraction | None = None


def greedy_select(source, target, eps) -> Selection:
    """One-sided greedy subsequence-sum selection; see the module docstring.

    ``eps`` must be positive.  The scan's one limit is the source's: the
    ``capacity`` of a ``TermSource``, the sieve ceiling of a
    ``PrimeRatioSource``.  Reaching it before convergence is a first-class
    outcome, ``capacity_exhausted`` in ``status``, not an error.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if isinstance(source, PrimeRatioSource):
        if not isinstance(target, LogTarget):
            raise TypeError(
                "prime ratio sources need a LogTarget (the terms are logs "
                "of rationals, so the target must be one as well)"
            )
        return _continue_fixed_point(source, target, eps)
    if isinstance(target, LogTarget):
        raise TypeError("LogTarget requires a log-ratio source")
    target = Fraction(target)
    if target < 0:
        raise ValueError("target must be >= 0")
    return _greedy_additive(source, target, eps)


# ---------------------------------------------------------------------------
# additive sources: exact Fraction arithmetic throughout


def _bisect_first_fitting(fits, lo: int, hi: int) -> int | None:
    """Smallest j in [lo, hi] with fits(j), assuming fits is monotone in j;
    None when even hi fails.  Exponential probe from lo, then bisection, so
    no probe lies past twice the answer's distance from lo (or past hi).
    """
    if fits(lo):
        return lo
    known_bad, step = lo, 1
    while True:
        mid = known_bad + step
        if mid >= hi:
            if known_bad >= hi or not fits(hi):
                return None
            break
        if fits(mid):
            hi = mid
            break
        known_bad = mid
        step *= 2
    while hi - known_bad > 1:
        mid = (known_bad + hi) // 2
        if fits(mid):
            hi = mid
        else:
            known_bad = mid
    return hi


def _greedy_additive(source, target, eps):
    total = Fraction(0)
    runs: list[tuple[int, int]] = []
    count = 0
    i = 1
    scanned = 0
    cap = source.capacity
    while True:
        if target - total < eps:
            status = CONVERGED
            break
        if i > cap:
            status = CAPACITY_EXHAUSTED
            break
        x = source.term(i)
        scanned = i
        deficit = target - total
        if x <= deficit:
            total += x
            _add_run(runs, i, i)
            count += 1
            i += 1
            continue
        # the terms are nonincreasing: jump the whole run of too-large terms
        j = _bisect_first_fitting(lambda m: source.term(m) <= deficit, i, cap)
        run_end = cap if j is None else j - 1
        scanned = run_end
        i = run_end + 1

    return Selection(
        ranges=tuple(runs),
        count=count,
        status=status,
        scanned=scanned,
        target=target,
        eps=eps,
        achieved=None,
        exact_sum=total,
    )


# ---------------------------------------------------------------------------
# log-ratio sources: one scan over the 60-bit term table


def _certified_deficit_below(qn, qd, un, ud, bound: Fraction) -> bool:
    """Certified check  ln(Q/U) < bound  for Q = qn/qd, U = un/ud <= Q."""
    if qn * ud == qd * un:
        return True  # deficit exactly zero
    _, hi = fixedlog.ln_quotient_bounds(qn * ud, qd * un, _PREC)
    return hi * bound.denominator < bound.numerator << _PREC


def _ceiling_upper_bound(x: int) -> tuple[int, int] | None:
    """Rigorous upper bound on the total ln(p/(p-1)) over the odd primes
    below the sieve ceiling x, as the exact integer ratio (num, den) of a
    float: sum_{p <= x} ln(p/(p-1)) < gamma + lnln x + 1/(2 ln^2 x) for
    x >= 285 (classical explicit Mertens-type bound), padded outward, less
    a lower bound of ln 2 for p = 2.  Lets hopeless targets fail fast
    instead of crawling the whole sieve."""
    if x < 285:
        return None
    total = 0.5772156650 + math.log(math.log(x)) + 0.5 / math.log(x) ** 2 + 0.01
    return (total - 0.6931471805).as_integer_ratio()


def _product(source, runs) -> tuple[int, int]:
    """U = prod p/(p-1) over the included runs, as a gcd-free pair, with
    one product tree per side."""
    primes: list[int] = []
    for lo, hi in runs:
        primes += source.stream.primes_list(lo + 1, hi + 1)
    return product_tree(primes), product_tree([p - 1 for p in primes])


def _certain_run(sum60, i: int, limit: int, room: int, eps60: int) -> int:
    """Last index of the run from i in [i, limit] that the greedy includes
    term after term as far as the enclosures prove it; i - 1 for none.

    With T_k the sum of the terms of indices i..k plus (k - i + 1) * _C, the
    true sum of ln U and those terms is below hi + T_k, so T_k <= room =
    q_lo - hi proves that term k fits, and T_k <= room - eps60 that the
    deficit after it is still at least eps.  The run takes k = i, i + 1, ...
    while term k fits and every earlier one left the deficit at eps or more.
    T_k increases with k, so one bisection finds the first k that may leave
    the deficit below eps, and that term ends the run if it fits.
    ``sum60(k)`` is the sum of the terms of indices 1..k.
    """
    base = sum60(i - 1) + (i - 1) * _C

    def past(k: int) -> bool:
        return sum60(k) + k * _C - base > room - eps60

    k = _bisect_first_fitting(past, i, limit)
    if k is None:
        return limit
    return k if sum60(k) + k * _C - base <= room else k - 1


def _first_included(source, i, limit, runs, lo, hi, q, exact):
    """Smallest j in [i, limit] whose term the greedy includes, with ln U
    in [lo, hi] * 2**-60 and q = (qn, qd, q_lo, q_hi); None when none is.

    A term t fits certainly when hi + t + C <= q_lo and certainly not when
    lo + t > q_hi.  In between, ``exact`` decides on U, built once for the
    whole search; otherwise the term counts as not fitting.  Both rules are
    monotone in j, since the floor terms are nonincreasing.
    """
    qn, qd, q_lo, q_hi = q
    u = None

    def fits(j: int) -> bool:
        nonlocal u
        t = source.term60(j)
        if hi + t + _C <= q_lo:
            return True
        if lo + t > q_hi or not exact:
            return False
        if u is None:
            u = _product(source, runs)
        p = source.prime(j)
        return u[0] * p * qd <= u[1] * (p - 1) * qn

    return _bisect_first_fitting(fits, i, limit)


def _extend(stream: PrimeStream) -> bool:
    """Extend the sieve by the stream's own doubling; False at the ceiling."""
    try:
        stream.nth_prime(stream.count + 1)
    except SieveCapacityError:
        return False
    return True


def _continue_fixed_point(source, target, eps):
    """The log-ratio greedy: one scan over the stream's floor-term table.

    (The name is the former fixed-point continuation's, which the
    benchmark's tracer wraps by name.)

    The scan keeps the included runs and the integer enclosure [lo, hi] *
    2**-60 of ln U, U = prod p/(p-1) over them: each inclusion adds its
    floor term t to ``lo`` and t + C to ``hi``.  A decision the enclosures
    and ln Q in [q_lo, q_hi] * 2**-60 settle is taken on them.  An
    ambiguous one is decided on U, rebuilt for it, while fewer than
    ``EXACT_CAP`` terms are included; past that, an ambiguous term is
    skipped and an ambiguous convergence test fails, so the selected sum
    never exceeds the target and a declared convergence is certified.
    Convergence is tested after every inclusion, so the selection stops at
    the first converged prefix whatever the sieve's extent.  The scan
    extends the sieve as it needs and ends at its ceiling.
    """
    stream = source.stream
    qn, qd = target.ratio.numerator, target.ratio.denominator
    q_lo, q_hi = fixedlog.ln_quotient_bounds(qn, qd, _SB)
    q = (qn, qd, q_lo, q_hi)
    eps60 = -((-eps.numerator << _SB) // eps.denominator)  # ceil(eps * 2**60)
    # q_hi - lo at most this proves ln(Q/U) <= eps - 2**-60
    done60 = ((eps.numerator << _SB) // eps.denominator) - 1
    runs: list[tuple[int, int]] = []  # the included indices
    count = lo = hi = 0
    i, scanned = 1, 0
    status = None
    avail = _ceiling_upper_bound(stream.ceiling)
    if avail is not None:
        # q_lo * 2**-60 - avail >= eps with every denominator cleared: even
        # selecting every prime under the ceiling leaves a deficit of at
        # least eps, so fail fast instead of crawling the sieve
        an, ad = avail
        if (q_lo * ad - (an << _SB)) * eps.denominator >= (eps.numerator << _SB) * ad:
            status = CAPACITY_EXHAUSTED

    while status is None:
        if q_hi - lo <= done60 or (
            q_lo - hi < eps60
            and count <= EXACT_CAP
            and _certified_deficit_below(qn, qd, *_product(source, runs), eps)
        ):
            status = CONVERGED
            break
        exact = count < EXACT_CAP
        if not exact and q_lo - hi <= _C:
            raise PrecisionRefusal(
                "tolerance sits below the accumulated fixed-point error "
                f"bound (certified remaining deficit <= "
                f"{float(Fraction(q_hi - lo, 1 << _SB)):.3e})"
            )
        limit = stream.count - 1  # the last source index under the sieve
        if i > limit:  # past the sieved primes
            if not _extend(stream):
                status = CAPACITY_EXHAUSTED
            continue
        end = _certain_run(source.sum60, i, limit, q_lo - hi, eps60)
        if end >= i:
            first, n = i, end - i + 1
            run = source.sum60(end) - source.sum60(i - 1)
            lo += run
            hi += run + n * _C
        else:
            # the front term is not a certain fit: skip to the first index
            # the greedy includes, extending the sieve as the skip needs
            first = _first_included(source, i, limit, runs, lo, hi, q, exact)
            while first is None and _extend(stream):
                start, limit = limit + 1, stream.count - 1
                first = _first_included(source, start, limit, runs, lo, hi, q, exact)
            if first is None:
                scanned = limit
                status = CAPACITY_EXHAUSTED
                break
            n = 1
            t = source.term60(first)
            lo += t
            hi += t + _C
        scanned = first + n - 1
        _add_run(runs, first, scanned)
        count += n
        i = scanned + 1

    product = Fraction(*_product(source, runs)) if count <= EXACT_CAP else None
    return Selection(
        ranges=tuple(runs),
        count=count,
        status=status,
        scanned=scanned,
        target=target,
        eps=eps,
        achieved=(lo << (_PREC - _SB), hi << (_PREC - _SB)),
        exact_product=product,
    )
