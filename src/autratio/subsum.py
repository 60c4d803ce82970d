"""Greedy selection of a finite subsequence whose sum approaches a target.

Given positive terms x_1, x_2, ... tending to zero with divergent sum, the
finite subset sums are dense in [0, oo).  ``greedy_select`` realizes that
constructively with the simplest possible rule: scan i = 1, 2, ... and take
x_i whenever it still fits under the target.  The running sum then never
exceeds the target, and every skip certifies that the remaining deficit was
smaller than the skipped term, which is what drives convergence once terms
fall below the tolerance.

Two kinds of term source are supported:

* ``TermSource`` with exact rational terms (e.g. the harmonic sequence);
  every decision is exact Fraction arithmetic with zero error.
* ``PrimeRatioSource`` with terms x_i = ln(p_i/(p_i - 1)).  The terms are
  irrational but each is the log of a rational, so against a ``LogTarget``
  (a target of the form ln(Q), Q rational) every greedy decision reduces
  to an exact comparison on the running product  U = prod p/(p-1).  The
  greedy is one scan over a table of floor terms at scale 2**-60
  (``fixedlog.term_block_fp60``, each under its true value by less than
  ``fixedlog.TERM_ERR60`` units).  It keeps the included runs and an
  integer enclosure of ln U built from their terms, and nothing else.  One
  prefix sum over a window of the table proves a whole run of inclusions,
  and a bisection over the table skips to the next included term.  U is
  built, one product tree per side, only for a comparison the enclosures
  cannot settle, which is then decided exactly while fewer than
  ``exact_cap`` terms are included and conservatively after; and for the
  exact product of a run of at most ``exact_cap`` terms.  Convergence is
  declared only when the certified deficit is below the tolerance, and
  is tested after every inclusion, so the selection does not depend on
  how far the sieve has been extended.

A log-ratio run returns its enclosure of the selected sum as one integer
pair (lo, hi) at scale 2**-``fixedlog.PREC``, the form ``fixedlog``
returns, and its certified convergence tests compare integers by
cross-multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import fixedlog
from .autorder import product_tree
from .errors import PrecisionRefusal, SieveCapacityError
from .groups import _ranges_from_indices
from .primes import PrimeStream, shared_stream

__all__ = [
    "CONVERGED",
    "BUDGET_EXHAUSTED",
    "CAPACITY_EXHAUSTED",
    "LogTarget",
    "TermSource",
    "PrimeRatioSource",
    "prime_ratio_terms",
    "Selection",
    "greedy_select",
    "DEFAULT_BUDGET",
    "DEFAULT_EXACT_CAP",
]

CONVERGED = "converged"
BUDGET_EXHAUSTED = "budget_exhausted"
CAPACITY_EXHAUSTED = "capacity_exhausted"

DEFAULT_BUDGET = 10_000_000
DEFAULT_EXACT_CAP = 10_000

_PREC = fixedlog.PREC
_SB = fixedlog.SCALE_BITS
_C = fixedlog.TERM_ERR60


@dataclass(frozen=True, slots=True)
class LogTarget:
    """Target sum ln(ratio) for a rational ratio >= 1."""

    ratio: Fraction

    def __post_init__(self):
        object.__setattr__(self, "ratio", Fraction(self.ratio))
        if self.ratio < 1:
            raise ValueError("LogTarget ratio must be >= 1 (target sum >= 0)")


class TermSource:
    """Indexed positive terms i -> x_i (i >= 1) with declared metadata.

    ``term(i)`` must be deterministic and return an exact Fraction.  The
    vanishing/divergence claims are caller-supplied and unverifiable here,
    which is exactly why greedy runs carry an index budget.  Setting
    ``nonincreasing`` lets the selector jump over non-fitting runs by
    bisection instead of index-by-index scanning.
    """

    def __init__(
        self,
        term: Callable[[int], Fraction],
        *,
        terms_tend_to_zero: bool,
        series_diverges: bool,
        nonincreasing: bool = False,
        capacity: int | None = None,
        description: str = "",
    ):
        self._term = term
        self.terms_tend_to_zero = terms_tend_to_zero
        self.series_diverges = series_diverges
        self.nonincreasing = nonincreasing
        self.capacity = capacity
        self.description = description

    def term(self, i: int) -> Fraction:
        if i < 1:
            raise ValueError("term index must be >= 1")
        x = Fraction(self._term(i))
        if x <= 0:
            raise ValueError(f"term {i} is not positive: {x}")
        return x


class PrimeRatioSource:
    """Terms x_i = ln(p/(p-1)) over all primes, or odd primes only.

    With ``odd_only`` the indices shift: source term j corresponds to the
    prime p_{j+1}, so the first term is ln(3/2).  Both metadata claims
    hold: terms vanish since p -> oo, and the series diverges because the
    terms are asymptotically 1/p and sum 1/p diverges.
    """

    terms_tend_to_zero = True
    series_diverges = True
    nonincreasing = True

    def __init__(self, odd_only: bool, stream: PrimeStream | None = None):
        self.odd_only = odd_only
        self.stream = stream or shared_stream()
        self.description = "ln(p/(p-1)) over " + (
            "odd primes" if odd_only else "all primes"
        )

    def prime_index(self, i: int) -> int:
        if i < 1:
            raise ValueError("term index must be >= 1")
        return i + 1 if self.odd_only else i

    def prime(self, i: int) -> int:
        """The prime of source index i."""
        return self.stream.nth_prime(self.prime_index(i))

    def available_count(self) -> int:
        """Highest source index under the current sieve (no extension)."""
        return self.stream.count - (1 if self.odd_only else 0)

    def term60_array(self, count: int) -> np.ndarray:
        """Floor terms at scale 2**-60 for source indices 1..count, a view
        of the stream's table.

        Requires the stream to already cover the needed primes.
        """
        first = self.prime_index(1)
        cache = _stream_term60_cache(self.stream, first + count - 1)
        return cache[first - 1 : first - 1 + count]


_LN2_FLOOR60 = np.int64(
    fixedlog.ln_fraction_bounds(Fraction(2), _PREC)[0] >> (_PREC - _SB)
)


def _stream_term60_cache(stream: PrimeStream, upto_prime_index: int) -> np.ndarray:
    """Growing per-stream table of floor terms: entry k - 1 is that of the
    k-th prime, ln 2's at entry 0.

    The table at least doubles when it grows, up to the sieve's extent, and
    new terms are computed a window at a time straight into the grown
    array, so the kernel's temporaries stay at a window's size."""
    cache = getattr(stream, "_term60_cache", None)
    have = 0 if cache is None else len(cache)
    if upto_prime_index > have:
        stream._ensure_count(upto_prime_index)
        size = max(upto_prime_index, min(2 * have, stream.count))
        grown = np.empty(size, dtype=np.int64)
        if have:
            grown[:have] = cache
        else:
            grown[0] = _LN2_FLOOR60
            have = 1
        lo = have + 1
        while lo <= size:
            hi = min(lo + _WINDOW - 1, size)
            grown[lo - 1 : hi] = fixedlog.term_block_fp60(stream.primes_slice(lo, hi))
            lo = hi + 1
        cache = stream._term60_cache = grown
    return cache


@dataclass(frozen=True, slots=True)
class Selection:
    """Result of a greedy run.

    ``ranges`` run-length encodes the chosen source indices.  For a
    prime-ratio source ``achieved`` is the integer pair (lo, hi) with the
    true selected sum in [lo, hi] * 2**-``fixedlog.PREC``.  A run of at
    most ``exact_cap`` included terms also sets ``exact_product`` =
    prod p/(p-1) = exp(sum) and encloses its log at that precision; a
    longer run's pair is the scan's 60-bit enclosure, shifted.  For
    an additive source ``achieved`` is None: ``exact_sum`` is the sum
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
    trail: tuple | None = None

    def indices(self):
        for lo, hi in self.ranges:
            yield from range(lo, hi + 1)


def greedy_select(
    source,
    target,
    eps,
    *,
    budget: int | None = DEFAULT_BUDGET,
    record_trail: bool = False,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> Selection:
    """One-sided greedy subsequence-sum selection; see the module docstring.

    ``eps`` must be positive.  ``budget`` caps the highest index examined
    (pass None for no cap); exhausting it, or the source's own capacity, is
    a first-class outcome reported in ``status``, not an error.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if budget is not None and budget < 0:
        raise ValueError("budget must be >= 0")
    if isinstance(source, PrimeRatioSource):
        if not isinstance(target, LogTarget):
            raise TypeError(
                "prime ratio sources need a LogTarget (the terms are logs "
                "of rationals, so the target must be one as well)"
            )
        return _continue_fixed_point(
            source, target, eps, budget, record_trail, exact_cap
        )
    if isinstance(target, LogTarget):
        raise TypeError("LogTarget requires a log-ratio source")
    target = Fraction(target)
    if target < 0:
        raise ValueError("target must be >= 0")
    return _greedy_additive(source, target, eps, budget, record_trail)


# ---------------------------------------------------------------------------
# additive sources: exact Fraction arithmetic throughout


def _bisect_first_fitting(fits, lo: int, hi: int | None) -> int | None:
    """Smallest j in [lo, hi] with fits(j), assuming fits is monotone in j.

    Returns None when even hi fails.  With hi None the range is unbounded
    and some j must fit.  Exponential probe, then bisection.
    """
    if fits(lo):
        return lo
    if hi is not None and (lo == hi or not fits(hi)):
        return None
    step = 1
    known_bad = lo
    while hi is None or known_bad + step < hi:
        mid = known_bad + step
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


def _greedy_additive(source, target, eps, budget, record_trail):
    total = Fraction(0)
    included: list[int] = []
    trail: list[tuple] = []
    i = 1
    scanned = 0
    cap = source.capacity
    limits = [x for x in (budget, cap) if x is not None]
    hard_limit = min(limits) if limits else None
    status = None
    while True:
        if target - total < eps:
            status = CONVERGED
            break
        if budget is not None and i > budget:
            status = BUDGET_EXHAUSTED
            break
        if cap is not None and i > cap:
            status = CAPACITY_EXHAUSTED
            break
        try:
            x = source.term(i)
        except SieveCapacityError:
            status = CAPACITY_EXHAUSTED
            break
        scanned = i
        deficit = target - total
        if x <= deficit:
            total += x
            included.append(i)
            if record_trail:
                trail.append(("include", i, x, total))
            i += 1
            continue
        if source.nonincreasing:
            # jump the whole run of too-large terms
            j = _bisect_first_fitting(
                lambda m: source.term(m) <= deficit, i, hard_limit
            )
            run_end = (j - 1) if j is not None else hard_limit
        else:
            run_end = i
        scanned = run_end
        if record_trail:
            trail.append(("skip_run", i, run_end, deficit, source.term(run_end)))
        i = run_end + 1

    return Selection(
        ranges=_ranges_from_indices(included),
        count=len(included),
        status=status,
        scanned=scanned,
        target=target,
        eps=eps,
        achieved=None,
        exact_sum=total,
        trail=tuple(trail) if record_trail else None,
    )


# ---------------------------------------------------------------------------
# log-ratio sources: one scan over the 60-bit term table


def _certified_deficit_below(qn, qd, un, ud, bound: Fraction) -> bool:
    """Certified check  ln(Q/U) < bound  for Q = qn/qd, U = un/ud <= Q."""
    if qn * ud == qd * un:
        return True  # deficit exactly zero
    _, hi = fixedlog.ln_quotient_bounds(qn * ud, qd * un, _PREC)
    return hi * bound.denominator < bound.numerator << _PREC


def _budget_upper_bound(source) -> Fraction | None:
    """Rigorous upper bound on the total ln(p/(p-1)) available below the
    sieve ceiling: sum_{p <= x} ln(p/(p-1)) < gamma + lnln x + 1/(2 ln^2 x)
    for x >= 285 (classical explicit Mertens-type bound), padded outward.
    Lets hopeless targets fail fast instead of crawling the whole sieve."""
    x = source.stream.ceiling
    if x < 285:
        return None
    total = 0.5772156650 + math.log(math.log(x)) + 0.5 / math.log(x) ** 2 + 0.01
    if source.odd_only:
        total -= 0.6931471805  # drop the p = 2 term (lower bound of ln 2)
    return Fraction(total)


def _product(source, runs) -> tuple[int, int]:
    """U = prod p/(p-1) over the included runs, as a gcd-free pair, with
    one product tree per side."""
    stream, k = source.stream, source.prime_index(1) - 1
    parts = [stream.primes_slice(lo + k, hi + k) for lo, hi in runs]
    primes = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return product_tree(primes.tolist()), product_tree((primes - 1).tolist())


# The include run's window starts at _RUN0 terms and doubles while whole
# windows fit, up to _WINDOW, so its temporaries stay at a window's size.
_RUN0 = 64
_WINDOW = 1 << 16


def _certain_prefix(terms: np.ndarray, room: int, eps60: int) -> tuple[int, int]:
    """Length n of the run of ``terms`` the greedy includes one after
    another as far as the enclosures prove it, and their sum plus n * _C.

    With T_k the sum of the first k terms plus k * _C, the true sum of ln U
    and those terms is below hi + T_k, so T_k <= room = q_lo - hi proves
    that the k-th term fits, and T_k <= room - eps60 that the deficit after
    it is still at least eps.  The run takes k = 1, 2, ... while the k-th
    term fits and every earlier one left the deficit at eps or more.
    """
    adj = np.cumsum(terms) + _C * np.arange(1, len(terms) + 1, dtype=np.int64)
    top = int(adj[-1])  # clamp: keep searchsorted in int64
    fit = int(np.searchsorted(adj, min(room, top), side="right"))
    open_ = int(np.searchsorted(adj, min(room - eps60, top), side="right"))
    n = min(fit, open_ + 1)
    return n, int(adj[n - 1]) if n else 0


def _first_included(source, i, limit, runs, lo, hi, q, exact):
    """Smallest j in [i, limit] whose term the greedy includes, with ln U
    in [lo, hi] * 2**-60 and q = (qn, qd, q_lo, q_hi); None when none is.

    A term t fits certainly when hi + t + C <= q_lo and certainly not when
    lo + t > q_hi.  In between, ``exact`` decides on U, built once for the
    whole search; otherwise the term counts as not fitting.  Both rules are
    monotone in j, since the floor terms are nonincreasing.
    """
    qn, qd, q_lo, q_hi = q
    table = source.term60_array(i)
    u = None

    def fits(j: int) -> bool:
        nonlocal table, u
        if j > len(table):
            table = source.term60_array(j)
        t = int(table[j - 1])
        if hi + t + _C <= q_lo:
            return True
        if lo + t > q_hi or not exact:
            return False
        if u is None:
            u = _product(source, runs)
        p = source.prime(j)
        return u[0] * p * qd <= u[1] * (p - 1) * qn

    return _bisect_first_fitting(fits, i, limit)


def _scan_limit(source, budget) -> int:
    """Highest index the scan may read without extending the sieve."""
    avail = source.available_count()
    return avail if budget is None else min(avail, budget)


def _extend(stream: PrimeStream) -> bool:
    """Extend the sieve by the stream's own doubling; False at the ceiling."""
    try:
        stream._ensure_count(stream.count + 1)
    except SieveCapacityError:
        return False
    return True


def _continue_fixed_point(source, target, eps, budget, record_trail, exact_cap):
    """The log-ratio greedy: one scan over the stream's floor-term table.

    (The name is the former fixed-point continuation's, which the
    benchmark's tracer wraps by name.)

    The scan keeps the included runs and the integer enclosure [lo, hi] *
    2**-60 of ln U, U = prod p/(p-1) over them: each inclusion adds its
    floor term t to ``lo`` and t + C to ``hi``.  A decision the enclosures
    and ln Q in [q_lo, q_hi] * 2**-60 settle is taken on them.  An
    ambiguous one is decided on U, rebuilt for it, while fewer than
    ``exact_cap`` terms are included; past that, an ambiguous term is
    skipped and an ambiguous convergence test fails, so the selected sum
    never exceeds the target and a declared convergence is certified.
    Convergence is tested after every inclusion, so the selection stops at
    the first converged prefix whatever the sieve's extent.
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
    trail: list[tuple] = []
    i, scanned, window = 1, 0, _RUN0
    status = None
    avail = _budget_upper_bound(source)
    if avail is not None and Fraction(q_lo, 1 << _SB) - avail >= eps:
        # even selecting every prime under the ceiling leaves a deficit of
        # at least eps: fail fast instead of crawling the sieve
        status = CAPACITY_EXHAUSTED

    while status is None:
        if q_hi - lo <= done60 or (
            q_lo - hi < eps60
            and count <= exact_cap
            and _certified_deficit_below(qn, qd, *_product(source, runs), eps)
        ):
            status = CONVERGED
            break
        if budget is not None and i > budget:
            status = BUDGET_EXHAUSTED
            break
        exact = count < exact_cap
        if not exact and q_lo - hi <= _C:
            raise PrecisionRefusal(
                "tolerance sits below the accumulated fixed-point error "
                f"bound (certified remaining deficit <= "
                f"{float(Fraction(q_hi - lo, 1 << _SB)):.3e})"
            )
        limit = _scan_limit(source, budget)
        if i > limit:  # past the sieved primes
            if not _extend(stream):
                status = CAPACITY_EXHAUSTED
            continue
        w = min(window, limit - i + 1)
        terms = source.term60_array(i + w - 1)[i - 1 :]
        n, used = _certain_prefix(terms, q_lo - hi, eps60)
        window = min(2 * window, _WINDOW) if n == w else _RUN0
        if n:
            first = i
            lo += used - n * _C
            hi += used
        else:
            # the front term is not a certain fit: skip to the first index
            # the greedy includes, extending the sieve as the skip needs
            first = _first_included(source, i, limit, runs, lo, hi, q, exact)
            while first is None and limit != budget and _extend(stream):
                start, limit = limit + 1, _scan_limit(source, budget)
                first = _first_included(source, start, limit, runs, lo, hi, q, exact)
            end = limit if first is None else first - 1
            if end >= i and record_trail:
                trail.append(("skip_run", i, end))
            if first is None:
                scanned = limit
                status = BUDGET_EXHAUSTED if limit == budget else CAPACITY_EXHAUSTED
                break
            n = 1
            t = int(source.term60_array(first)[first - 1])
            lo += t
            hi += t + _C
        scanned = first + n - 1
        _add_run(runs, first, scanned)
        count += n
        if record_trail:
            k = source.prime_index(1) - 1
            primes = stream.primes_slice(first + k, scanned + k).tolist()
            trail.extend(("include", j, p) for j, p in zip(range(first, scanned + 1), primes))
        i = scanned + 1

    if count <= exact_cap:
        product = Fraction(*_product(source, runs))
        achieved = fixedlog.ln_fraction_bounds(product, _PREC)
    else:
        product = None
        achieved = (lo << (_PREC - _SB), hi << (_PREC - _SB))
    return Selection(
        ranges=tuple(runs),
        count=count,
        status=status,
        scanned=scanned,
        target=target,
        eps=eps,
        achieved=achieved,
        exact_product=product,
        trail=tuple(trail) if record_trail else None,
    )


def _add_run(runs: list[tuple[int, int]], lo: int, hi: int) -> None:
    """Append the index run lo..hi, merged with the last run it extends."""
    if runs and runs[-1][1] + 1 == lo:
        runs[-1] = (runs[-1][0], hi)
    else:
        runs.append((lo, hi))


def prime_ratio_terms(
    odd_only: bool, primes: PrimeStream | None = None
) -> PrimeRatioSource:
    """Source of x_i = ln(p_i/(p_i - 1)); with odd_only the indices shift so
    term j corresponds to p_{j+1} (first term ln(3/2))."""
    return PrimeRatioSource(odd_only, primes)
