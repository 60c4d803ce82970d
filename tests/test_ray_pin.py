"""Pinned ray outputs: selections and certificates for fixed targets.

``approx_ray(a, 1/1000)`` on a fresh sieve, for 30 fixed targets in
[0.1, 5], is hashed line by line: the two-rank, the odd-prime index ranges
and either the exact ratio (in hex) or the certificate's repr.  A change
to the greedy, to the certified logarithms or to the prime reads that
moves any selection or certificate changes the digest.  The greedy stops
at the first converged prefix, so a selection does not depend on how far
the stream was sieved before it; 38/25, 9/5 and 2 pass the exact cap and
pin the 60-bit enclosure of their selected sums.
"""

import hashlib
from fractions import Fraction

import pytest

from autratio.approximate import approx_ray, verify_certificate
from autratio.primes import PrimeStream

EPS = Fraction(1, 1000)

TARGETS = [
    Fraction(x)
    for x in (
        "1/10", "617/5000", "1/4", "1/3", "2/5", "1/2", "3/5", "2/3",
        "7/10", "3/4", "4/5", "9/10", "19/20", "1",
        "11/10", "6/5", "5/4", "7/5", "3/2", "38/25", "9/5", "2",
        "21/10", "12/5", "3", "3141/1000", "7/2", "4", "9/2", "5",
    )
]

DIGEST = "35301391b5caf112665be3ff5a6e0d6650a5be36ad8637a6c87598421104f26e"


def _line(a, res):
    g = res.group
    if res.exact_ratio is not None:
        r = res.exact_ratio
        cert = f"{r.numerator:x}/{r.denominator:x}"
    else:
        cert = repr(res.achieved)
    return f"{a}|{g.two_rank}|{g.odd_prime_ranges}|{cert}"


@pytest.fixture(scope="module")
def results():
    stream = PrimeStream(ceiling=10**8)
    return stream, [approx_ray(a, EPS, stream=stream) for a in TARGETS]


def test_ray_outputs_match_pinned_digest(results):
    _, res = results
    assert len(TARGETS) == 30 and min(TARGETS) == Fraction(1, 10) and max(TARGETS) == 5
    # the set passes the exact cap and has an exact unit target below 1
    by_target = dict(zip(TARGETS, res))
    assert by_target[Fraction(38, 25)].exact_ratio is None
    assert by_target[Fraction(38, 25)].group.index_count > 10_000
    assert by_target[Fraction(3, 5)].exact_ratio is not None
    lines = "\n".join(_line(a, r) for a, r in zip(TARGETS, res))
    assert hashlib.sha256(lines.encode()).hexdigest() == DIGEST


@pytest.mark.parametrize("prec", [None, 384])
def test_ray_outputs_pass_second_pass(results, prec):
    stream, res = results
    for a, r in zip(TARGETS, res):
        assert verify_certificate(r, stream=stream, prec=prec), (a, prec)
