"""Pinned ray outputs: selections and certificates for fixed targets.

``approx_ray(a, 1/1000)`` on a fresh sieve, for 30 fixed targets in
[0.1, 5], is hashed line by line: the two-rank, the odd-prime index ranges
and either the exact ratio (in hex) or the certificate's repr.  A change
to the greedy, to the certified logarithms or to the prime reads that
moves any selection or certificate changes the digest.  The greedy stops
at the first converged prefix, so a selection does not depend on how far
the stream was sieved before it; 38/25, 9/5 and 2 pass the exact cap and
pin ln b's 192-bit enclosure less the 60-bit enclosure of their selected
sums.
"""

import hashlib
from fractions import Fraction

import pytest

from autratio.approximate import approx_ray, verify_certificate
from autratio.errors import PrecisionRefusal, SieveCapacityError
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

DIGEST = "95763e963eb16e88c9cc45a7d472cf4aef2fbed17c0e229744d0e3a37571a52f"


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


# The floats ``LogValue.from_bounds`` rounds: ``achieved`` of every pinned
# result (DIGEST hashes exact results by their ratio alone), then below-eps
# witnesses, an exact hit at a <= eps and refusals from targets a <= eps or
# an eps below the log tolerance's resolution, by exception and message.
EXTRA = [
    ("1/20", "1/10", False), ("0", "1/10", False), ("1/30", "1/10", True),
    ("1/2", "1", False), ("1/1000", "1/100", False), ("0", "1/20", True),
    ("0", "1/1000", True), ("3", "1e-60", False),
]

ACHIEVED_DIGEST = "5a6226387a7805114c0122b033f548a1767e979bb86c605b213e1dd2762ae1f3"


def test_achieved_floats_match_pinned_digest(results):
    stream, res = results
    lines = [f"{a}|{r.achieved!r}" for a, r in zip(TARGETS, res)]
    for a, eps, odd in EXTRA:
        try:
            r = approx_ray(Fraction(a), Fraction(eps), odd_only=odd, stream=stream)
        except (PrecisionRefusal, SieveCapacityError) as exc:
            lines.append(f"{a}|{eps}|{odd}|{type(exc).__name__}|{exc}")
        else:
            lines.append(f"{a}|{eps}|{odd}|{r.trace.below_eps_witness}|{r.achieved!r}")
    assert sum("SieveCapacityError" in line for line in lines) == 3
    assert sum("|True|LogValue(" in line for line in lines) == 3  # witnesses
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ACHIEVED_DIGEST
