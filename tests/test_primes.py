import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autratio.primes
from autratio.errors import SieveCapacityError
from autratio.primes import PrimeStream, estimate_sieve_limit


def trial_division_primes(limit):
    found = []
    for n in range(2, limit + 1):
        r = math.isqrt(n)
        if all(n % p for p in found if p <= r):
            found.append(n)
    return found


def is_prime_td(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_sieve_matches_trial_division(stream):
    ref = trial_division_primes(100_000)
    got = stream.primes_slice(1, len(ref))
    assert got.tolist() == ref
    assert stream.nth_prime(len(ref)) == ref[-1]


def test_nth_prime_examples(stream):
    assert stream.nth_prime(1) == 2
    assert stream.nth_prime(2) == 3
    assert stream.nth_prime(25) == 97


def test_nth_prime_extends_on_demand():
    s = PrimeStream()
    n = s.count + 1000
    p = s.nth_prime(n)
    assert s.count >= n and p > 2


def test_nth_prime_rejects_bad_index(stream):
    with pytest.raises(ValueError):
        stream.nth_prime(0)


def test_capacity_error():
    s = PrimeStream(ceiling=10_000)
    with pytest.raises(SieveCapacityError):
        s.nth_prime(10**6)


def test_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("AUTRATIO_SIEVE_CEILING", "70000")
    s = PrimeStream()
    assert s.ceiling == 70000
    with pytest.raises(SieveCapacityError):
        s.nth_prime(10**5)


def test_estimate_examples():
    assert estimate_sieve_limit(0) == 1000
    x = estimate_sieve_limit(0.75)
    assert math.log(math.log(x)) >= 1.68
    assert 200 <= x <= 300
    x = estimate_sieve_limit(2.5)
    assert 10**6 <= x <= 10**8


def test_estimate_unreachable():
    with pytest.raises(SieveCapacityError):
        estimate_sieve_limit(2.5, ceiling=10_000)
    with pytest.raises(ValueError):
        estimate_sieve_limit(-0.1)


def odd_log_sum_upto(stream, x: float) -> float:
    stream.extend_to(int(x))
    ps = stream.primes_slice(2, stream.count).astype(float)
    ps = ps[ps <= x]
    return float(np.sum(np.log(ps) - np.log(ps - 1.0)))


@settings(max_examples=25)
@given(target=st.floats(min_value=0.0, max_value=2.5, allow_nan=False))
def test_estimate_is_conservative(stream, target):
    # whenever no capacity error is raised, the odd primes below the
    # returned limit must actually carry the requested log-sum budget
    x = estimate_sieve_limit(target)
    assert odd_log_sum_upto(stream, x) >= target


def test_primes_upto_matches_trial_division(stream):
    ref = trial_division_primes(5000)
    got = stream.primes_upto(5000)
    assert got == ref
    assert all(type(p) is int for p in got)  # p**w must not wrap at int64
    assert stream.primes_upto(1) == [] and stream.primes_upto(2) == [2]


def test_primes_upto_extends_and_refuses_past_ceiling():
    s = PrimeStream(ceiling=200_000)
    top = s.primes_upto(150_000)
    assert s.limit >= 150_000 and top[-1] == 149_993
    assert s.primes_upto(200_000)[-1] == 199_999
    with pytest.raises(SieveCapacityError):
        s.primes_upto(200_001)


def test_extension_rebuilds_base_sieve_only_past_its_root(monkeypatch):
    calls = []
    real = autratio.primes._simple_sieve

    def counted(limit):
        calls.append(limit)
        return real(limit)

    monkeypatch.setattr(autratio.primes, "_simple_sieve", counted)
    s = PrimeStream()
    assert calls == [1 << 16]
    s.extend_to(10**6)
    s.extend_to(4 * 10**6)
    assert calls == [1 << 16]  # sqrt(4e6) = 2000 is inside the first sieve
    top = s.primes_upto(4 * 10**6)
    head = trial_division_primes(5000)
    assert top[: len(head)] == head
    tail = [n for n in range(4 * 10**6 - 3000, 4 * 10**6) if is_prime_td(n)]
    assert top[-len(tail) :] == tail
    # a stream whose sieve ends below sqrt(limit) rebuilds the base once
    s._primes, s._limit = real(100), 100
    s.extend_to(20_000)
    assert calls[1:] == [141]
    assert s.primes_upto(20_000) == trial_division_primes(20_000)

