"""Certified natural logarithms in integer fixed point.

Everything here returns *enclosures*: an integer pair (lo, hi) with

    lo * 2**-prec  <=  true value  <=  hi * 2**-prec

obtained from exact integer arithmetic with directed rounding and explicit
series-truncation bounds.  No float ever enters a bound, so downstream
comparisons against exact rationals are rigorous.

Two precision regimes are used:

* scalar enclosures at ``prec`` fractional bits (default 192), for targets,
  per-term values and final certificates;
* a vectorized int64 regime at 60 fractional bits for bulk evaluation of
  ln(p/(p-1)) over millions of primes.

There are two int64 kernels.  ``term_block_fp60`` is the greedy's kernel:
floor values per prime, with the uniform per-term error constant
``TERM_ERR60`` (the true value overshoots the stored one by strictly less
than TERM_ERR60 units of 2**-60).  ``term_block_atanh60`` sums a different
series into one enclosure per block; it encloses ln f(G) for the second
pass and for ``autorder.f_log`` above 65,536 odd primes, so an error in
one kernel cannot hide in both the greedy and its verifier.
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


def _div_floor(a: int, b: int) -> int:
    return a // b


def _div_ceil(a: int, b: int) -> int:
    return -((-a) // b)


def _atanh_series(z: int, prec: int, upper: bool) -> int:
    """2 * sum z^(2j+1)/(2j+1) at fixed point, rounded down (or up, with a
    certified tail bound, when ``upper``).  Requires 0 <= z <= 2**prec / 3
    up to one unit, which holds for z = (m-1)/(m+1) with m in [1, 2]."""
    one = 1 << prec
    div = _div_ceil if upper else _div_floor
    z2 = div(z * z, one)
    # z < 0.334 shrinks z^(2j+1) by > 3.1 bits per round; this many rounds
    # drives the true tail below one fixed-point unit
    rounds = prec // 3 + 2
    acc = z
    zpow = z
    k = 1
    for _ in range(rounds):
        zpow = div(zpow * z2, one)
        if zpow == 0:
            break
        k += 2
        acc += div(zpow, k)
    if upper:
        acc += 1  # covers the sub-unit truncated tail
    return 2 * acc


def _ln_mantissa_bounds(m_lo: int, m_hi: int, prec: int) -> tuple[int, int]:
    """Enclosure of ln(m) for m in [m_lo, m_hi] * 2**-prec, 1 <= m <= 2."""
    one = 1 << prec
    z_lo = _div_floor((m_lo - one) << prec, m_lo + one)
    z_hi = _div_ceil((m_hi - one) << prec, m_hi + one)
    lo = _atanh_series(z_lo, prec, upper=False)
    hi = _atanh_series(z_hi, prec, upper=True)
    return lo, hi


@lru_cache(maxsize=8)
def _ln2_bounds(prec: int) -> tuple[int, int]:
    one = 1 << prec
    return _ln_mantissa_bounds(2 * one, 2 * one, prec)


def ln_int_bounds(n: int, prec: int = PREC) -> tuple[int, int]:
    """Certified enclosure of ln(n) for an integer n >= 1."""
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
    l2l, l2h = _ln2_bounds(prec)
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
