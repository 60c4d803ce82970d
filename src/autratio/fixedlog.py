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
  ln(p/(p-1)) over millions of primes, with the uniform per-term error
  constant ``TERM_ERR60`` (floor values: true value overshoots the stored
  one by strictly less than TERM_ERR60 units of 2**-60).
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
    "log_ratio_term_bounds",
    "term_block_fp60",
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
    nl, nh = ln_int_bounds(q.numerator, prec)
    dl, dh = ln_int_bounds(q.denominator, prec)
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


def term_block_fp60(primes: np.ndarray) -> np.ndarray:
    """Floor values of ln(p/(p-1)) * 2**60 for an ascending int64 array of
    odd primes.  True value exceeds the stored one by < TERM_ERR60 units."""
    if len(primes) == 0:
        return np.zeros(0, dtype=np.int64)
    scale = 1 << SCALE_BITS
    acc = scale // primes  # k = 1
    k = 2
    while True:
        # largest r with r**k <= 2**60; terms for p > r floor to zero
        r = int(scale ** (1.0 / k))
        while (r + 1) ** k <= scale:
            r += 1
        while r**k > scale:
            r -= 1
        cut = int(np.searchsorted(primes, r, side="right"))
        if cut == 0:
            break
        pk = primes[:cut] ** k
        acc[:cut] += (scale // pk) // k
        k += 1
    return acc
