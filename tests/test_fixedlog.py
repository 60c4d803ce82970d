import math
import random
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autratio.fixedlog import (
    _RED_BITS,
    _RED_K,
    PREC,
    SCALE_BITS,
    TERM_ERR60,
    _ln_direct_bounds,
    _ln_int_end,
    _ln_mantissa_end,
    _ln_table,
    ln_int_bounds,
    ln_quotient_bounds,
    ln_quotient_end,
    log_ratio_term_bounds,
    term_block_atanh60,
    term_block_fp60,
)

SHIFT = PREC - SCALE_BITS


def odd_primes_below(limit):
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return list(compress(range(limit), flags))[1:]


def root_cut(k):
    """Largest r with r**k <= 2**60."""
    r = round(2 ** (SCALE_BITS / k))
    while (r + 1) ** k <= 1 << SCALE_BITS:
        r += 1
    while r**k > 1 << SCALE_BITS:
        r -= 1
    return r


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def assert_overlaps_scalar(p):
    lo, hi = term_block_atanh60([p])
    s_lo, s_hi = log_ratio_term_bounds(p, PREC)
    assert lo << SHIFT <= s_hi and s_lo <= hi << SHIFT, p


def test_atanh_kernel_matches_scalar_on_small_primes():
    primes = odd_primes_below(200_000)
    assert primes[0] == 3  # the largest per-prime error: 13 series terms
    for p in primes:
        assert_overlaps_scalar(p)


def test_atanh_kernel_matches_scalar_near_1e8():
    near = [n for n in range(10**8 - 3000, 10**8 + 3000) if is_prime(n)]
    assert len(near) > 100
    for p in near:
        assert_overlaps_scalar(p)


def test_atanh_kernel_error_bound_for_p3():
    # m = 5: odd k up to 25 have 5**k <= 2**60, so 13 terms, error 2*13 + 1
    lo, hi = term_block_atanh60([3])
    assert hi - lo == 27
    assert lo <= math.log(1.5) * 2**SCALE_BITS <= hi


def test_atanh_kernel_blocks_agree_with_first_pass_kernel():
    # a block sum is the sum of its parts, and it overlaps the independent
    # 1/(k p^k) kernel's enclosure of the same sum
    primes = odd_primes_below(1_000_000)
    assert len(primes) > 1 << 16
    lo, hi = term_block_atanh60(primes)
    fp = sum(term_block_fp60(primes))
    assert lo <= fp + TERM_ERR60 * len(primes) and fp <= hi
    halves = [term_block_atanh60(part) for part in (primes[:70_000], primes[70_000:])]
    assert (lo, hi) == tuple(map(sum, zip(*halves)))
    one_by_one = [term_block_atanh60([p]) for p in primes[:5000]]
    assert term_block_atanh60(primes[:5000]) == tuple(map(sum, zip(*one_by_one)))


def test_atanh_kernel_empty_block():
    assert term_block_atanh60([]) == (0, 0)


def assert_fp60_floor(primes):
    """Each floor term is the 60-bit scalar series' lower end, lies under
    ln(p/(p-1)) * 2**60 and within TERM_ERR60 units of it (checked against
    the 192-bit enclosure)."""
    got = term_block_fp60(primes)
    assert type(got) is list and len(got) == len(primes)
    for p, t in zip(primes, got):
        assert type(t) is int
        lo60, hi60 = log_ratio_term_bounds(p, SCALE_BITS)
        assert t == lo60 and hi60 < t + TERM_ERR60, p
        lo, hi = log_ratio_term_bounds(p, PREC)
        assert t << SHIFT <= hi and lo < (t + TERM_ERR60) << SHIFT, p


def test_fp60_floor_matches_the_scalar_series_below_2_16():
    assert_fp60_floor(odd_primes_below(1 << 16))
    assert term_block_fp60([]) == []


def test_fp60_floor_at_the_root_cuts():
    # the last k of a prime's sum is the largest with p**k <= 2**60, so
    # primes just under and just over each cut end their sums one k apart
    near = []
    for k in range(2, 7):
        cut = root_cut(k)
        assert cut**k <= 1 << SCALE_BITS < (cut + 1) ** k
        below = [n for n in range(cut, cut - 2000, -1) if is_prime(n)][:3]
        above = [n for n in range(cut + 1, cut + 2000) if is_prime(n)][:3]
        assert len(below) == len(above) == 3
        near += below + above
    near.sort()
    want = term_block_fp60(near)
    assert_fp60_floor(near)
    scale = 1 << SCALE_BITS
    for p, t in zip(near, want):
        ks = range(1, 61)
        assert t == sum(scale // p**k // k for k in ks if p**k <= scale), p


# ---------------------------------------------------------------------------
# table-reduced logarithms against the unreduced series at twice the bits

PRECS = (64, 192, 384)


def direct_ln_int(n, prec):
    """ln n enclosed with no table: e * ln 2 plus the unreduced series on
    the mantissa (inexact, one unit wide, when n >= 2**prec)."""
    one = 1 << prec
    e = n.bit_length() - 1
    if e >= prec:
        m_lo = n >> (e - prec)
        m_hi = m_lo + 1
    else:
        m_lo = m_hi = n << (prec - e)
    l2_lo, l2_hi = _ln_direct_bounds(2 * one, 2 * one, prec)
    m_l, m_h = _ln_direct_bounds(m_lo, m_hi, prec)
    return e * l2_lo + m_l, e * l2_hi + m_h


def _ln_mantissa_bounds(m_lo, m_hi, prec):
    """Both ends of the table-reduced ln of the mantissa [m_lo, m_hi]."""
    return _ln_mantissa_end(m_lo, m_hi, prec, False), _ln_mantissa_end(m_lo, m_hi, prec, True)


def assert_overlaps(bounds, reference, prec):
    """[lo, hi] at prec bits meets [r_lo, r_hi] at 2 * prec bits."""
    (lo, hi), (r_lo, r_hi) = bounds, reference
    assert lo <= hi and r_lo <= r_hi
    assert lo << prec <= r_hi and r_lo <= hi << prec


def width_bound(n, prec):
    """The stated width of ln_int_bounds(n, prec): the ln 2 entry's width
    per binary exponent, plus prec // 4 + 16 units for the table entry, the
    rounding of m' and z, and the series."""
    l2_lo, l2_hi = _ln_table(prec)[_RED_K]
    return (n.bit_length() - 1) * (l2_hi - l2_lo) + prec // 4 + 16


@pytest.mark.parametrize("prec", PRECS)
def test_table_entries_overlap_the_direct_series(prec):
    table = _ln_table(prec)
    assert len(table) == _RED_K + 1 and table[0] == (0, 0)
    wide = 2 * prec
    for j, entry in enumerate(table):
        m = (1 << wide) + (j << (wide - _RED_BITS))  # 1 + j/K, exact
        assert_overlaps(entry, _ln_direct_bounds(m, m, wide), prec)
        assert entry[1] - entry[0] <= 2  # outward rounding of a guarded series


@pytest.mark.parametrize("prec", PRECS)
def test_mantissas_on_and_beside_table_steps(prec):
    one, step = 1 << prec, 1 << (prec - _RED_BITS)
    table = _ln_table(prec)
    for j in range(_RED_K):
        m = one + j * step  # exactly 1 + j/K: m' = 1, only the table entry
        assert _ln_mantissa_bounds(m, m, prec) == table[j]
        assert_overlaps(table[j], _ln_direct_bounds(m << prec, m << prec, 2 * prec), prec)
        for m in (one + (j + 1) * step - 1, one + j * step + 1):  # beside the steps
            assert_overlaps(
                _ln_mantissa_bounds(m, m, prec),
                _ln_direct_bounds(m << prec, m << prec, 2 * prec),
                prec,
            )
    m = 2 * one - 1  # 2 - 2**-prec, the largest mantissa
    got = _ln_mantissa_bounds(m, m, prec)
    assert_overlaps(got, _ln_direct_bounds(m << prec, m << prec, 2 * prec), prec)
    # an inexact mantissa [m, m + 1] that reaches 2 itself
    got = _ln_mantissa_bounds(m, m + 1, prec)
    assert_overlaps(got, _ln_direct_bounds(m << prec, (m + 1) << prec, 2 * prec), prec)


@pytest.mark.parametrize("prec", PRECS)
def test_ln_int_at_powers_of_two_and_past_the_exact_mantissa(prec):
    assert ln_int_bounds(1, prec) == (0, 0)
    ns = [2, 3]
    for k in (1, 5, 31, prec - 1, prec, prec + 1, 2 * prec + 7, 399):
        ns += [(1 << k) - 1, 1 << k, (1 << k) + 1]
    # n >= 2**prec: the shifted-off bits make the mantissa one unit wide
    ns += [3**300, (1 << (prec + 40)) - (1 << 20), 10**150 + 1]
    for n in ns:
        got = ln_int_bounds(n, prec)
        assert_overlaps(got, direct_ln_int(n, 2 * prec), prec)
        assert got[1] - got[0] <= width_bound(n, prec), n


@settings(max_examples=300)
@given(st.integers(1, 2**400 - 1), st.sampled_from(PRECS))
def test_ln_int_overlaps_the_direct_series_at_twice_the_bits(n, prec):
    got = ln_int_bounds(n, prec)
    assert_overlaps(got, direct_ln_int(n, 2 * prec), prec)
    assert got[1] - got[0] <= width_bound(n, prec)


# ---------------------------------------------------------------------------
# one-sided ends against the former two-sided reduction, kept as reference


def reference_ln_int_bounds(n, prec):
    """ln n enclosed by one table reduction shared by both ends, as
    ln_int_bounds computed it before each end had its own function."""
    if n == 1:
        return (0, 0)
    one = 1 << prec
    e = n.bit_length() - 1
    if e >= prec:
        m_lo = n >> (e - prec)
        m_hi = m_lo + 1
    else:
        m_lo = m_hi = n << (prec - e)
    j = (m_lo - one) >> (prec - _RED_BITS)
    t_lo, t_hi = _ln_table(prec)[j]
    if j:
        d = _RED_K + j
        m_lo = (m_lo << _RED_BITS) // d
        m_hi = -((-m_hi << _RED_BITS) // d)
    lo, hi = _ln_direct_bounds(m_lo, m_hi, prec)
    l2l, l2h = _ln_table(prec)[_RED_K]
    return e * l2l + t_lo + lo, e * l2h + t_hi + hi


def test_one_sided_ends_match_the_reference_pairs():
    rng = random.Random(20)
    for _ in range(20_000):
        prec = rng.choice((8, 60, 64, 192, 384, rng.randint(5, 400)))
        num = rng.randint(1, 1 << rng.randint(1, 600))
        den = rng.randint(1, 1 << rng.randint(1, 600))
        n_lo, n_hi = reference_ln_int_bounds(num, prec)
        d_lo, d_hi = reference_ln_int_bounds(den, prec)
        assert _ln_int_end(num, prec) == n_lo and _ln_int_end(num, prec, True) == n_hi
        lo, hi = ln_quotient_bounds(num, den, prec)
        assert (lo, hi) == (n_lo - d_hi, n_hi - d_lo), (num, den, prec)
        assert ln_quotient_end(num, den, prec) == lo
        assert ln_quotient_end(num, den, prec, True) == hi
