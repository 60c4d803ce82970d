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
  to an exact comparison on the running product  U = prod p/(p-1).  Both
  phases read one table of floor terms at scale 2**-60
  (``fixedlog.term_block_fp60``, each under its true value by less than
  ``fixedlog.TERM_ERR60`` units), so there is one error model.  The exact
  phase keeps an integer enclosure of ln U built from those terms, which
  settles most comparisons without touching U; the ambiguous rest is
  decided on U exactly.  Once the greedy has included a streak of
  consecutive terms, it proves a whole run of further inclusions at once
  with one prefix sum over the table and multiplies the run into U with
  one product tree per side; the selection is the one the term-by-term
  scan makes.  Runs that outgrow ``exact_cap`` included terms continue in
  certified 60-bit fixed point, where whole include/skip runs are located
  by binary search on error-adjusted prefix sums; convergence is declared
  only when the certified deficit (arithmetic error included) is below
  the tolerance.

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
        # (prime, floor term) of source indices _block_start, _block_start + 1, ...
        self._block_start = 0
        self._block: list[tuple[int, int]] = []

    def prime_index(self, i: int) -> int:
        if i < 1:
            raise ValueError("term index must be >= 1")
        return i + 1 if self.odd_only else i

    def read(self, i: int) -> tuple[int, int]:
        """The prime of source index i and its floor term at scale 2**-60,
        from one block sliced from the stream and from its term table:
        consecutive reads, as the greedy's scan makes, cost a list index.
        Far probes (``far_prime``) leave the block alone."""
        k = i - self._block_start
        if 0 <= k < len(self._block):
            return self._block[k]
        j = self.prime_index(i)
        hi = max(j, min(j + _READ_BLOCK - 1, self.stream.count))
        primes = self.stream.primes_slice(j, hi).tolist()
        terms = _stream_term60_cache(self.stream, hi)[j - 1 : hi].tolist()
        self._block = list(zip(primes, terms))
        self._block_start = i
        return self._block[0]

    def prime(self, i: int) -> int:
        """The prime of source index i (see ``read``)."""
        return self.read(i)[0]

    def far_prime(self, i: int) -> int:
        """The prime of source index i, read alone, for probes far ahead
        of the scan."""
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


# (prime, term) pairs per block that PrimeRatioSource.read reads at once
_READ_BLOCK = 256

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
    true selected sum in [lo, hi] * 2**-``fixedlog.PREC``, and a fully
    exact run also sets ``exact_product`` = prod p/(p-1) = exp(sum).  For
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
        return _greedy_log_ratio(source, target, eps, budget, record_trail, exact_cap)
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
# log-ratio sources: exact rational phase, then certified fixed point


class _ProductState:
    """Running product U = prod p/(p-1) as raw integers (gcd-free), with an
    integer enclosure [lo, hi] * 2**-60 of ln U that screens the exact
    comparisons.

    The pair is never reduced while the greedy runs: a gcd of two products
    of thousands of primes costs more than the rest of the greedy, and the
    enclosure of ln U is as rigorous without it.  Only a fully exact run's
    returned product is reduced.

    The enclosure is the table's model: a term's true value lies in
    [t, t + TERM_ERR60) units for its floor term t, so an inclusion adds t
    to ``lo`` and t + TERM_ERR60 to ``hi``.
    """

    __slots__ = ("un", "ud", "lo", "hi")

    def __init__(self):
        self.un = self.ud = 1
        self.lo = self.hi = 0

    def include(self, p: int, t: int):
        self.un *= p
        self.ud *= p - 1
        self.lo += t
        self.hi += t + _C

    def include_run(self, primes: np.ndarray, terms: np.ndarray):
        """Multiply a run of primes in by one product tree each side."""
        self.un *= product_tree(primes.tolist())
        self.ud *= product_tree((primes - 1).tolist())
        total = int(terms.sum())
        self.lo += total
        self.hi += total + len(terms) * _C


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


# After _STREAK consecutive inclusions the exact phase looks for a whole run
# of certain inclusions at once; the run it tries doubles while whole runs
# succeed, up to _RUN_MAX terms.
_STREAK = 256
_RUN_MAX = 1 << 16


def _greedy_log_ratio(source, target, eps, budget, record_trail, exact_cap):
    qn, qd = target.ratio.numerator, target.ratio.denominator
    # ln Q enclosed in [q_lo, q_hi] * 2**-60, the scale of the term table
    q_lo, q_hi = fixedlog.ln_quotient_bounds(qn, qd, _SB)
    avail = _budget_upper_bound(source)
    if avail is not None and Fraction(q_lo, 1 << _SB) - avail >= eps:
        # even selecting every prime under the ceiling leaves a deficit of
        # at least eps: fail fast instead of crawling the sieve
        return Selection(
            ranges=(),
            count=0,
            status=CAPACITY_EXHAUSTED,
            scanned=0,
            target=target,
            eps=eps,
            achieved=(0, 0),
            exact_product=Fraction(1),
            trail=() if record_trail else None,
        )
    st = _ProductState()
    eps60 = -((-eps.numerator << _SB) // eps.denominator)  # ceil(eps * 2**60)
    runs: list[tuple[int, int]] = []  # the included indices
    count = 0
    trail: list[tuple] = []
    i = 1
    scanned = 0
    status = None
    deficit_dirty = True  # the deficit changes only on inclusion
    streak, block = 0, _STREAK

    while True:
        if deficit_dirty:
            # ln(Q/U) >= (q_lo - hi) * 2**-60, so the certified test can
            # only succeed below eps60
            if q_lo - st.hi < eps60 and _certified_deficit_below(
                qn, qd, st.un, st.ud, eps
            ):
                status = CONVERGED
                break
            deficit_dirty = False
        if budget is not None and i > budget:
            status = BUDGET_EXHAUSTED
            break
        if count >= exact_cap:
            return _continue_fixed_point(
                source, target, eps, budget, record_trail,
                st, runs, trail, i, scanned,
            )
        if streak >= _STREAK:
            room = min(block, exact_cap - count, source.available_count() - i + 1)
            if budget is not None:
                room = min(room, budget - i + 1)
            if room > 0:
                primes, terms = _certain_run(source, st, i, room, q_lo, eps60)
                if len(primes) < room:
                    streak, block = 0, _STREAK
                else:
                    block = min(2 * block, _RUN_MAX)
                if len(primes):
                    st.include_run(primes, terms)
                    j = i + len(primes)
                    _add_run(runs, i, j - 1)
                    count += len(primes)
                    if record_trail:
                        trail.extend(
                            ("include", k, p) for k, p in zip(range(i, j), primes.tolist())
                        )
                    i = j
                    scanned = i - 1
                    deficit_dirty = True
                    continue
        try:
            p, t = source.read(i)
        except SieveCapacityError:
            status = CAPACITY_EXHAUSTED
            break
        scanned = i
        # include iff U * p/(p-1) <= Q, screened by the enclosures of ln U,
        # of the term (in [t, t + C)) and of ln Q
        if st.hi + t + _C <= q_lo:
            fits = True
        elif st.lo + t > q_hi:
            fits = False
        else:
            fits = st.un * p * qd <= st.ud * (p - 1) * qn
        if fits:
            st.include(p, t)
            _add_run(runs, i, i)
            count += 1
            deficit_dirty = True
            streak += 1
            if record_trail:
                trail.append(("include", i, p))
            i += 1
            continue
        streak = 0
        j, limit_seen = _first_fitting_ratio(source, i, st, qn, qd, budget)
        run_end = (j - 1) if j is not None else limit_seen
        scanned = max(scanned, run_end)
        if record_trail:
            trail.append(("skip_run", i, run_end))
        if j is None:
            status = (
                BUDGET_EXHAUSTED
                if budget is not None and run_end >= budget
                else CAPACITY_EXHAUSTED
            )
            break
        i = j

    product = Fraction(st.un, st.ud)
    return Selection(
        ranges=tuple(runs),
        count=count,
        status=status,
        scanned=scanned,
        target=target,
        eps=eps,
        achieved=fixedlog.ln_fraction_bounds(product, _PREC),
        exact_product=product,
        trail=tuple(trail) if record_trail else None,
    )


def _add_run(runs: list[tuple[int, int]], lo: int, hi: int) -> None:
    """Append the index run lo..hi, merged with the last run it extends."""
    if runs and runs[-1][1] + 1 == lo:
        runs[-1] = (runs[-1][0], hi)
    else:
        runs.append((lo, hi))


def _certain_run(
    source, st: _ProductState, i: int, room: int, q_lo: int, eps60: int
) -> tuple[np.ndarray, np.ndarray]:
    """Primes and floor terms of the longest run of terms i, i+1, ...,
    i+room-1 (already sieved) that the scalar path would include one after
    another, as far as the integer enclosures prove it.

    With T_k the sum of the first k table terms plus k * C, the true sum of
    ln U and those terms is below hi + T_k, so hi + T_k <= q_lo proves that
    the k-th term fits, and hi + T_k <= q_lo - eps60 proves that the
    deficit after it is still at least eps, so the scalar path does not
    stop there.  The run takes k = 1, 2, ... while the k-th term fits and
    every earlier one left the deficit at eps or more; both prefixes come
    from ``_fitting_prefix``.
    """
    j = source.prime_index(i)
    primes = source.stream.primes_slice(j, j + room - 1)
    terms = source.term60_array(i + room - 1)[i - 1 :]
    gap = q_lo - st.hi
    fit, _ = _fitting_prefix(terms, gap)
    open_, _ = _fitting_prefix(terms, gap - eps60)
    n = min(fit, open_ + 1)
    return primes[:n], terms[:n]


def _first_fitting_ratio(source, i, st, qn, qd, budget):
    """Smallest j >= i with U * ratio_j <= Q under the budget and sieve
    ceiling, extending the sieve geometrically as needed.

    Returns (j, limit_seen); j is None when no index fits, in which case
    limit_seen is the highest index examined.
    """

    def fits(j: int) -> bool:
        p = source.far_prime(j)
        return st.un * p * qd <= st.ud * (p - 1) * qn

    while True:
        limit = source.available_count()
        if budget is not None:
            limit = min(limit, budget)
        if limit >= i:
            j = _bisect_first_fitting(fits, i, limit)
            if j is not None:
                return j, limit
        at_budget = budget is not None and limit >= budget
        at_ceiling = source.stream.limit >= source.stream.ceiling
        if at_budget or at_ceiling:
            return None, limit
        source.stream.extend_to(
            min(source.stream.ceiling, source.stream.limit * 4)
        )


# The fixed-point scan works through the terms in windows, so its
# temporaries stay at a window's size however far the sieve reaches.
_WINDOW = 1 << 16


def _fitting_prefix(terms: np.ndarray, room: int) -> tuple[int, int]:
    """Length n of the longest prefix of ``terms`` whose sum plus _C per
    term is at most ``room``, and that sum plus n * _C."""
    take = used = 0
    for start in range(0, len(terms), _WINDOW):
        w = terms[start : start + _WINDOW]
        adj = np.cumsum(w) + _C * np.arange(1, len(w) + 1, dtype=np.int64)
        bound = min(room - used, int(adj[-1]))  # clamp: keep searchsorted in int64
        n = int(np.searchsorted(adj, bound, side="right"))
        if n:
            take += n
            used += int(adj[n - 1])
        if n < len(w):
            break
    return take, used


def _first_at_most(terms: np.ndarray, bound: int) -> int:
    """Index of the first term <= bound in a nonincreasing array, or its
    length when there is none."""
    for start in range(0, len(terms), _WINDOW):
        w = terms[start : start + _WINDOW]
        if w[-1] <= bound:
            return start + int(np.searchsorted(-w, -bound, side="left"))
    return len(terms)


def _continue_fixed_point(
    source, target, eps, budget, record_trail, st, runs, trail, start_i, scanned
):
    """Certified 60-bit continuation once the exact phase hits its cap.

    With the switch-point deficit d = ln(Q/U) enclosed in [d_lo, d_hi] and
    V the sum of floor terms included in this phase (n of them, each under
    its true value by < C units), the true remaining deficit lies in
    [d_lo - V - n*C, d_hi - V].  Inclusions are decided against the lower
    end, so the selected sum can never exceed the target; convergence is
    declared against the upper end, so the certificate is sound.
    """
    d_lo192, d_hi192 = fixedlog.ln_quotient_bounds(
        target.ratio.numerator * st.ud, target.ratio.denominator * st.un, _PREC
    )
    shift = _PREC - _SB
    d_lo = d_lo192 >> shift
    d_hi = -((-d_hi192) >> shift)

    V = 0
    n_fp = 0
    i = start_i
    status = None

    while True:
        if (d_hi - V) * eps.denominator < eps.numerator << _SB:
            status = CONVERGED
            break
        if budget is not None and i > budget:
            status = BUDGET_EXHAUSTED
            break
        rem_lo = d_lo - V - n_fp * _C
        if rem_lo <= _C:
            raise PrecisionRefusal(
                "tolerance sits below the accumulated fixed-point error "
                f"bound (certified remaining deficit <= "
                f"{float(Fraction(d_hi - V, 1 << _SB)):.3e})"
            )
        avail = source.available_count()
        if i > avail:
            if source.stream.limit >= source.stream.ceiling:
                status = CAPACITY_EXHAUSTED
                break
            source.stream.extend_to(
                min(source.stream.ceiling, source.stream.limit * 4)
            )
            continue
        hi_idx = min(avail, budget) if budget is not None else avail
        terms = source.term60_array(hi_idx)[i - 1 :]
        if len(terms) == 0:
            status = BUDGET_EXHAUSTED
            break
        take, used = _fitting_prefix(terms, rem_lo)
        if take > 0:
            V += used - take * _C
            n_fp += take
            _add_run(runs, i, i + take - 1)
            if record_trail:
                trail.append(("fp_include_run", i, i + take - 1))
            scanned = i + take - 1
            i += take
            continue
        # front term does not fit: skip to the first fitting index
        fit_at = _first_at_most(terms, rem_lo - _C)
        if fit_at >= len(terms):
            scanned = i + len(terms) - 1
            if record_trail:
                trail.append(("fp_skip_run", i, scanned))
            i += len(terms)
            continue
        fit_at = max(fit_at, 1)
        run_end = i + fit_at - 1
        scanned = max(scanned, run_end)
        if record_trail:
            trail.append(("fp_skip_run", i, run_end))
        i = run_end + 1

    ranges = tuple(runs)
    count = sum(hi_r - lo_r + 1 for lo_r, hi_r in ranges)
    lo_u, hi_u = fixedlog.ln_quotient_bounds(st.un, st.ud, _PREC)
    return Selection(
        ranges=ranges,
        count=count,
        status=status,
        scanned=scanned,
        target=target,
        eps=eps,
        achieved=(lo_u + (V << shift), hi_u + ((V + n_fp * _C) << shift)),
        exact_product=None,
        trail=tuple(trail) if record_trail else None,
    )


def prime_ratio_terms(
    odd_only: bool, primes: PrimeStream | None = None
) -> PrimeRatioSource:
    """Source of x_i = ln(p_i/(p_i - 1)); with odd_only the indices shift so
    term j corresponds to p_{j+1} (first term ln(3/2))."""
    return PrimeRatioSource(odd_only, primes)
