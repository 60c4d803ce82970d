"""Certified natural logarithms in integer fixed point.

Everything here returns *enclosures*: an integer pair (lo, hi) with

    lo * 2**-prec  <=  true value  <=  hi * 2**-prec

obtained from exact integer arithmetic with directed rounding and explicit
series-truncation bounds.  No float ever enters a bound, so downstream
comparisons against exact rationals are rigorous.

ln of an integer n = 2**e * m, 1 <= m < 2, is e ln 2 + ln m.  ln m is
reduced by a table (Tang's table-driven logarithm, done in exact
integers): with j the top five fraction bits of m, m = (1 + j/32) * m'
and m' < 1 + 1/32, so the atanh series in z = (m'-1)/(m'+1) < 1/65 needs
15 rounds at 192 bits, against 95 for an unreduced z <= 1/3.  The 33 table
entries ln(1 + j/32), ln 2 among them, come from the same direct series at
16 guard bits, rounded outward once per precision and cached; m' is
rounded down from the lower end of m and up from the upper end.  Every
piece is an outward enclosure, so their sum is one.

Two precision regimes are used:

* scalar enclosures at ``prec`` fractional bits (default 192), for targets,
  per-term values and final certificates;
* a vectorized int64 regime at 60 fractional bits for bulk evaluation of
  ln(p/(p-1)) over millions of primes.

There are two int64 kernels.  ``term_block_fp60`` is the greedy's kernel:
floor values per prime, with the uniform per-term error constant
``TERM_ERR60`` (the true value overshoots the stored one by strictly less
than TERM_ERR60 units of 2**-60).  The greedy sums them into an integer
enclosure of its selected sum and takes its decisions on it.
``term_block_atanh60`` sums a different series into one enclosure per
block; it encloses ln f(G) for the second pass and for ``autorder.f_log``
above 65,536 odd primes, so an error in one kernel cannot hide in both the
greedy and its verifier.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "PREC",
    "SCALE_BITS",
    "TERM_ERR60",
    "ln_int_bounds",
    "ln_fraction_bounds",
    "ln_quotient_bounds",
    "log_ratio_term_bounds",
    "term_block_fp60",
    "term_block_atanh60",
]

PREC = 192
SCALE_BITS = 60
TERM_ERR60 = 64  # proven bound is < 40 for p >= 3; padded for headroom


def _div_ceil(a: int, b: int) -> int:
    return -((-a) // b)


def _atanh_series(z: int, prec: int, upper: bool) -> int:
    """2 * sum z^(2j+1)/(2j+1) at fixed point, rounded down (or up, with a
    certified tail bound, when ``upper``).  Requires 0 <= z < 2**(prec-1),
    that is z < 1/2.

    The round count comes from z's bit length L: z < 2**-s with
    s = prec - L >= 1, and after r rounds the omitted tail is at most
    z^(2r+3) / ((2r+3) (1 - z^2)) < z^(2r+3) * 4/9, below one unit once
    s (2r+3) >= prec.  Each round gains 2s bits: at 192 bits the reduced
    arguments of ``_ln_mantissa_bounds`` (z < 1/65, s >= 6) take 15 rounds,
    and the table's unreduced z <= 1/3 (s = 1) takes 95."""
    if z == 0:
        return 0
    s = prec - z.bit_length()
    rounds = max(0, (-(-prec // s) - 2) // 2)
    acc = zpow = z
    k = 1
    # division by 2**prec is a shift: floor is >>, ceil is -((-x) >> prec)
    if upper:
        z2 = -(-z * z >> prec)
        for _ in range(rounds):
            zpow = -(-zpow * z2 >> prec)
            k += 2
            acc -= -zpow // k
        acc += 1  # covers the sub-unit truncated tail
    else:
        z2 = z * z >> prec
        for _ in range(rounds):
            zpow = zpow * z2 >> prec
            if zpow == 0:
                break
            k += 2
            acc += zpow // k
    return 2 * acc


def _ln_direct_bounds(m_lo: int, m_hi: int, prec: int) -> tuple[int, int]:
    """Enclosure of ln(m) for m in [m_lo, m_hi] * 2**-prec, 1 <= m <= 2, by
    the series in z = (m-1)/(m+1) <= 1/3 with no reduction."""
    one = 1 << prec
    z_lo = ((m_lo - one) << prec) // (m_lo + one)
    z_hi = _div_ceil((m_hi - one) << prec, m_hi + one)
    return _atanh_series(z_lo, prec, upper=False), _atanh_series(z_hi, prec, upper=True)


# Table-driven argument reduction (Tang, ACM TOMS 16(4), 1990) in exact
# integers: m = (1 + j/K) * m' with j the top _RED_BITS bits of m's
# fraction, so that m' < 1 + 1/K and the series argument z < 1/(2K + 1).
_RED_BITS = 5
_RED_K = 1 << _RED_BITS
_TABLE_GUARD = 16


@lru_cache(maxsize=8)
def _ln_table(prec: int) -> tuple[tuple[int, int], ...]:
    """Enclosures of ln(1 + j/K) for j = 0..K (the last is ln 2) at
    ``prec`` bits: the direct series at prec + _TABLE_GUARD bits, where
    1 + j/K is exact, rounded outward.  Each entry is at most two units
    wide, so ln 2 adds at most two units per binary exponent."""
    wide = prec + _TABLE_GUARD
    one = 1 << wide
    table = []
    for j in range(_RED_K + 1):
        m = one + (j << (wide - _RED_BITS))
        lo, hi = _ln_direct_bounds(m, m, wide)
        table.append((lo >> _TABLE_GUARD, -((-hi) >> _TABLE_GUARD)))
    return tuple(table)


def _ln_mantissa_bounds(m_lo: int, m_hi: int, prec: int) -> tuple[int, int]:
    """Enclosure of ln(m) for m in [m_lo, m_hi] * 2**-prec, 1 <= m < 2.

    With j = floor(K (m_lo - 1)), ln m = ln(1 + j/K) + ln m', where
    m' = m K / (K + j) lies in [1, 1 + 1/K) up to the width of [m_lo, m_hi].
    m' is rounded outward (down from m_lo, up from m_hi), the table entry
    is outward, and the series is outward, so the sum encloses ln m."""
    one = 1 << prec
    j = (m_lo - one) >> (prec - _RED_BITS)
    t_lo, t_hi = _ln_table(prec)[j]
    if j:
        d = _RED_K + j
        m_lo = (m_lo << _RED_BITS) // d
        m_hi = _div_ceil(m_hi << _RED_BITS, d)
    lo, hi = _ln_direct_bounds(m_lo, m_hi, prec)
    return t_lo + lo, t_hi + hi


def ln_int_bounds(n: int, prec: int = PREC) -> tuple[int, int]:
    """Certified enclosure of ln(n) for an integer n >= 1, at prec >= 5
    fractional bits (the table reduction reads five bits of n)."""
    if n < 1:
        raise ValueError("ln requires n >= 1")
    if n == 1:
        return (0, 0)
    e = n.bit_length() - 1
    if e >= prec:
        m_lo = n >> (e - prec)
        m_hi = m_lo + 1  # shifted-off bits make the mantissa inexact
    else:
        m_lo = m_hi = n << (prec - e)
    ml, mh = _ln_mantissa_bounds(m_lo, m_hi, prec)
    l2l, l2h = _ln_table(prec)[_RED_K]
    return (e * l2l + ml, e * l2h + mh)


def ln_fraction_bounds(q: Fraction | int, prec: int = PREC) -> tuple[int, int]:
    """Certified enclosure of ln(q) for a positive rational q."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("ln requires a positive value")
    return ln_quotient_bounds(q.numerator, q.denominator, prec)


def ln_quotient_bounds(num: int, den: int, prec: int = PREC) -> tuple[int, int]:
    """Certified enclosure of ln(num/den) for integers num, den >= 1, with no
    gcd: callers with large unreduced products skip the reduction."""
    nl, nh = ln_int_bounds(num, prec)
    dl, dh = ln_int_bounds(den, prec)
    return (nl - dh, nh - dl)


def log_ratio_term_bounds(p: int, prec: int = PREC) -> tuple[int, int]:
    """Certified enclosure of ln(p/(p-1)) via sum_k 1/(k p^k), p >= 2."""
    if p < 2:
        raise ValueError("p must be >= 2")
    one = 1 << prec
    acc = 0
    pk = 1
    k = 0
    while True:
        k += 1
        pk *= p
        t = one // (k * pk)
        if t == 0:
            break
        acc += t
    # k floor roundings plus a tail below one unit (pk already past 2**prec)
    return (acc, acc + k + 1)


def _root_cut(k: int) -> int:
    """Largest r with r**k <= 2**60."""
    scale = 1 << SCALE_BITS
    r = int(scale ** (1.0 / k))
    while (r + 1) ** k <= scale:
        r += 1
    while r**k > scale:
        r -= 1
    return r


def term_block_fp60(primes: np.ndarray) -> np.ndarray:
    """Floor values of ln(p/(p-1)) * 2**60 for an ascending int64 array of
    odd primes.  True value exceeds the stored one by < TERM_ERR60 units."""
    if len(primes) == 0:
        return np.zeros(0, dtype=np.int64)
    scale = 1 << SCALE_BITS
    acc = scale // primes  # k = 1
    k = 2
    while True:
        # terms for p > _root_cut(k) floor to zero
        cut = int(np.searchsorted(primes, _root_cut(k), side="right"))
        if cut == 0:
            break
        pk = primes[:cut] ** k
        acc[:cut] += (scale // pk) // k
        k += 1
    return acc


_ATANH_BLOCK = 1 << 16


def term_block_atanh60(primes: np.ndarray) -> tuple[int, int]:
    """Enclosure (lo, hi) at scale 2**-60 of the sum of ln(p/(p-1)) over an
    ascending int64 array of odd primes, by a series independent of
    ``term_block_fp60``.

    With m = 2p - 1,  ln(p/(p-1)) = 2 atanh(1/m) = 2 sum_k 1/(k m^k)  over
    odd k.  For each prime, term k is computed only where m^k <= 2**60 (the
    same root cut as ``term_block_fp60``), as floor(floor(2**60 / m^k) / k),
    which equals floor(2**60 / (k m^k)) and so lies below the true term by
    less than one unit.  The first omitted term, with m^k > 2**60 and
    k >= 3, is below 1/3 unit, and each later one is at most 1/m^2 <= 1/25
    of the one before (p >= 3), so the omitted tail is below
    (1/3) * 25/24 < 0.35 unit.  If A is the sum of a prime's n computed
    terms, its true value times 2**60 therefore lies in
    [2A, 2(A + n + 0.35)) and below 2A + 2n + 1.  Summed over the block,
    the error is 2 * (terms computed) + (number of primes), where the terms
    computed are counted from the cuts.

    Blocks of at most 2**16 primes are summed into Python ints: the int64
    partial sums stay below 2**61 (the sum of 1/(2p - 1) over the first
    2**16 odd primes is below 2), and no array outgrows the block.
    """
    scale = 1 << SCALE_BITS
    lo = err = 0
    for start in range(0, len(primes), _ATANH_BLOCK):
        m = 2 * primes[start : start + _ATANH_BLOCK] - 1
        acc = scale // m  # k = 1, computed for every prime
        terms = len(m)
        k = 3
        while True:
            cut = int(np.searchsorted(m, _root_cut(k), side="right"))
            if cut == 0:
                break
            acc[:cut] += (scale // m[:cut] ** k) // k
            terms += cut
            k += 2
        lo += 2 * int(acc.sum())
        err += 2 * terms + len(m)
    return lo, lo + err
