import math

import numpy as np
import pytest

from autratio.fixedlog import (
    PREC,
    SCALE_BITS,
    TERM_ERR60,
    log_ratio_term_bounds,
    term_block_atanh60,
    term_block_fp60,
)

SHIFT = PREC - SCALE_BITS


def odd_primes_below(limit):
    flags = np.ones(limit, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)[1:].astype(np.int64)


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def assert_overlaps_scalar(p):
    lo, hi = term_block_atanh60(np.array([p], dtype=np.int64))
    s_lo, s_hi = log_ratio_term_bounds(p, PREC)
    assert lo << SHIFT <= s_hi and s_lo <= hi << SHIFT, p


def test_atanh_kernel_matches_scalar_on_small_primes():
    primes = odd_primes_below(200_000)
    assert primes[0] == 3  # the largest per-prime error: 13 series terms
    for p in primes.tolist():
        assert_overlaps_scalar(p)


def test_atanh_kernel_matches_scalar_near_1e8():
    near = [n for n in range(10**8 - 3000, 10**8 + 3000) if is_prime(n)]
    assert len(near) > 100
    for p in near:
        assert_overlaps_scalar(p)


def test_atanh_kernel_error_bound_for_p3():
    # m = 5: odd k up to 25 have 5**k <= 2**60, so 13 terms, error 2*13 + 1
    lo, hi = term_block_atanh60(np.array([3], dtype=np.int64))
    assert hi - lo == 27
    assert lo <= math.log(1.5) * 2**SCALE_BITS <= hi


def test_atanh_kernel_blocks_agree_with_first_pass_kernel():
    # more than one 2**16 block, against the independent 1/(k p^k) kernel
    primes = odd_primes_below(1_000_000)
    assert len(primes) > 1 << 16
    lo, hi = term_block_atanh60(primes)
    fp = int(term_block_fp60(primes).sum())
    assert lo <= fp + TERM_ERR60 * len(primes) and fp <= hi
    halves = [term_block_atanh60(part) for part in (primes[:70_000], primes[70_000:])]
    assert (lo, hi) == tuple(map(sum, zip(*halves)))


def test_atanh_kernel_empty_block():
    assert term_block_atanh60(np.zeros(0, dtype=np.int64)) == (0, 0)
