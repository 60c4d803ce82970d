import math

import pytest

import autratio.primes
from autratio.errors import SieveCapacityError
from autratio.primes import PrimeStream


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


def test_ceiling_below_the_first_segment(monkeypatch):
    # the first segment is cut at a ceiling below it, so nothing past the
    # ceiling is ever returned (the 1000th prime is 7919)
    s = PrimeStream(ceiling=1000)
    assert s.count == 168 and s.limit == 1000
    with pytest.raises(SieveCapacityError):
        s.nth_prime(1000)
    monkeypatch.setenv("AUTRATIO_SIEVE_CEILING", "1000")
    assert PrimeStream().primes_slice(168, 168).tolist() == [997]
    with pytest.raises(SieveCapacityError):
        PrimeStream().nth_prime(169)


def test_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("AUTRATIO_SIEVE_CEILING", "70000")
    s = PrimeStream()
    assert s.ceiling == 70000
    with pytest.raises(SieveCapacityError):
        s.nth_prime(10**5)


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

