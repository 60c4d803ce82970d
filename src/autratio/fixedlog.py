"""Certified natural logarithms in integer fixed point.

Everything here returns *enclosures*: an integer pair (lo, hi) with

    lo * 2**-prec  <=  true value  <=  hi * 2**-prec

obtained from exact integer arithmetic with directed rounding and explicit
series-truncation bounds.  No float ever enters a bound, so downstream
comparisons against exact rationals are rigorous.  Callers keep these
pairs, and rationals as (num, den) pairs of integers, all the way to a
result: floats are made once, by ``autorder.LogValue.from_bounds``.

Each end of an enclosure comes from one one-sided function
(``_ln_int_end``, ``ln_quotient_end``) with its own directed rounding;
``ln_int_bounds`` and ``ln_quotient_bounds`` return the pair of ends.  A
caller that needs one end, such as the greedy's log tolerance, runs half
the series.

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
* a 60-fractional-bit regime for bulk evaluation of ln(p/(p-1)) over
  millions of primes.  Running sums of these terms fit the signed 64-bit
  arrays the prime stream keeps: over the odd primes below 10^8 they
  total less than 3 * 2**60.

There are two 60-bit kernels, both per-prime loops over Python ints.
``term_block_fp60`` is the greedy's kernel: floor values per prime, with
the uniform per-term error constant ``TERM_ERR60`` (the true value
overshoots the stored one by strictly less than TERM_ERR60 units of
2**-60).  The greedy sums them into an integer enclosure of its selected
sum and takes its decisions on it.  ``term_block_atanh60`` sums a
different series into one enclosure per block; it encloses ln f(G) for the
second pass and for ``autorder.f_log`` above 65,536 odd primes, so an
error in one kernel cannot hide in both the greedy and its verifier.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

__all__ = [
    "PREC",
    "SCALE_BITS",
    "TERM_ERR60",
    "ln_int_bounds",
    "ln_fraction_bounds",
    "ln_quotient_end",
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


def _ln_direct_end(m: int, prec: int, upper: bool) -> int:
    """One end of ln(m) for m * 2**-prec in [1, 2], by the series in
    z = (m-1)/(m+1) <= 1/3 with no reduction: the lower end rounds z and
    the series down, the upper end rounds both up."""
    one = 1 << prec
    if upper:
        z = _div_ceil((m - one) << prec, m + one)
    else:
        z = ((m - one) << prec) // (m + one)
    return _atanh_series(z, prec, upper)


def _ln_direct_bounds(m_lo: int, m_hi: int, prec: int) -> tuple[int, int]:
    """Enclosure of ln(m) for m in [m_lo, m_hi] * 2**-prec, 1 <= m <= 2."""
    return _ln_direct_end(m_lo, prec, False), _ln_direct_end(m_hi, prec, True)


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


def _ln_mantissa_end(m_lo: int, m_hi: int, prec: int, upper: bool) -> int:
    """One end of the enclosure of ln(m) for m in [m_lo, m_hi] * 2**-prec,
    1 <= m < 2: the lower end when ``upper`` is false, else the upper.

    With j = floor(K (m_lo - 1)) for both ends, ln m = ln(1 + j/K) + ln m',
    where m' = m K / (K + j) lies in [1, 1 + 1/K) up to the width of
    [m_lo, m_hi].  The lower end rounds m_lo's m' down and takes the table
    entry's and the series' lower ends; the upper end rounds m_hi's m' up
    and takes their upper ends."""
    one = 1 << prec
    j = (m_lo - one) >> (prec - _RED_BITS)
    m = m_hi if upper else m_lo
    if j:
        d = _RED_K + j
        m = _div_ceil(m << _RED_BITS, d) if upper else (m << _RED_BITS) // d
    return _ln_table(prec)[j][upper] + _ln_direct_end(m, prec, upper)


def _ln_int_end(n: int, prec: int = PREC, upper: bool = False) -> int:
    """One end of the certified enclosure of ln(n) for an integer n >= 1,
    at prec >= 5 fractional bits (the table reduction reads five bits of
    n): the lower end, or the upper one when ``upper``."""
    if n < 1:
        raise ValueError("ln requires n >= 1")
    if n == 1:
        return 0
    e = n.bit_length() - 1
    if e >= prec:
        m_lo = n >> (e - prec)
        m_hi = m_lo + 1  # shifted-off bits make the mantissa inexact
    else:
        m_lo = m_hi = n << (prec - e)
    ln2 = _ln_table(prec)[_RED_K][upper]
    return e * ln2 + _ln_mantissa_end(m_lo, m_hi, prec, upper)


def ln_int_bounds(n: int, prec: int = PREC) -> tuple[int, int]:
    """Certified enclosure of ln(n) for an integer n >= 1: the pair of
    ``_ln_int_end``'s two ends."""
    return _ln_int_end(n, prec), _ln_int_end(n, prec, True)


def ln_fraction_bounds(q: Fraction | int, prec: int = PREC) -> tuple[int, int]:
    """Certified enclosure of ln(q) for a positive rational q."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("ln requires a positive value")
    return ln_quotient_bounds(q.numerator, q.denominator, prec)


def ln_quotient_end(num: int, den: int, prec: int = PREC, upper: bool = False) -> int:
    """One end of the certified enclosure of ln(num/den) for integers
    num, den >= 1: the lower end is num's lower end less den's upper one.
    A caller that needs one end runs half the series."""
    return _ln_int_end(num, prec, upper) - _ln_int_end(den, prec, not upper)


def ln_quotient_bounds(num: int, den: int, prec: int = PREC) -> tuple[int, int]:
    """Certified enclosure of ln(num/den) for integers num, den >= 1, with no
    gcd: callers with large unreduced products skip the reduction."""
    return ln_quotient_end(num, den, prec), ln_quotient_end(num, den, prec, True)


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


def term_block_fp60(primes: list[int]) -> list[int]:
    """Floor values of ln(p/(p-1)) * 2**60 for odd primes, as a list of
    Python ints.  True value exceeds the stored one by < TERM_ERR60 units.

    Each is the sum of floor(floor(2**60 / p**k) / k) over the k with
    p**k <= 2**60.
    """
    scale = 1 << SCALE_BITS
    out = []
    for p in primes:
        acc = scale // p
        pk, k = p * p, 2
        while pk <= scale:
            acc += scale // pk // k
            pk *= p
            k += 1
        out.append(acc)
    return out


def term_block_atanh60(primes: list[int]) -> tuple[int, int]:
    """Enclosure (lo, hi) at scale 2**-60 of the sum of ln(p/(p-1)) over
    odd primes, by a series independent of ``term_block_fp60``.

    With m = 2p - 1,  ln(p/(p-1)) = 2 atanh(1/m) = 2 sum_k 1/(k m^k)  over
    odd k.  For each prime, term k is computed only where m^k <= 2**60, as
    floor(floor(2**60 / m^k) / k), which equals floor(2**60 / (k m^k)) and
    so lies below the true term by less than one unit.  The first omitted
    term, with m^k > 2**60 and k >= 3, is below 1/3 unit, and each later
    one is at most 1/m^2 <= 1/25 of the one before (p >= 3), so the omitted
    tail is below (1/3) * 25/24 < 0.35 unit.  If A is the sum of a prime's
    n computed terms, its true value times 2**60 therefore lies in
    [2A, 2(A + n + 0.35)) and below 2A + 2n + 1.  Summed over the block,
    the error is 2 * (terms computed) + (number of primes).
    """
    scale = 1 << SCALE_BITS
    acc = terms = 0
    for p in primes:
        m = 2 * p - 1
        acc += scale // m  # k = 1, computed for every prime
        m2 = m * m
        mk, k = m2 * m, 3
        while mk <= scale:
            acc += scale // mk // k
            terms += 1
            mk *= m2
            k += 2
    lo = 2 * acc
    return lo, lo + 2 * (terms + len(primes)) + len(primes)
