import math
from array import array
from itertools import compress

import pytest

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


def reference_sieve(limit):
    """All primes <= limit as an array('q'): one unsegmented odd-only
    sieve, independent of the stream's."""
    flags = bytearray([1]) * ((limit + 1) // 2)  # flags[i] marks 2i + 1
    flags[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(flags), p)))
    return array("q", [2, *compress(range(1, limit + 1, 2), flags)])


def test_sieve_matches_trial_division(stream):
    ref = trial_division_primes(100_000)
    got = stream.primes_list(1, len(ref))
    assert got == ref
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
    s.extend_to(1 << 16)
    assert s.count == 168 and s.limit == 1000
    with pytest.raises(SieveCapacityError):
        s.nth_prime(1000)
    monkeypatch.setenv("AUTRATIO_SIEVE_CEILING", "1000")
    assert PrimeStream().primes_list(168, 168) == [997]
    with pytest.raises(SieveCapacityError):
        PrimeStream().nth_prime(169)


def test_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("AUTRATIO_SIEVE_CEILING", "70000")
    s = PrimeStream()
    assert s.ceiling == 70000
    with pytest.raises(SieveCapacityError):
        s.nth_prime(10**5)


def test_ceiling_below_two_is_refused():
    for ceiling in (-5, 0, 1):
        with pytest.raises(ValueError, match=f"sieve ceiling must be >= 2, got {ceiling}"):
            PrimeStream(ceiling=ceiling)
    assert PrimeStream(ceiling=2).primes_upto(2) == [2]


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


def test_extension_rebuilds_base_sieve_only_past_its_root():
    s = PrimeStream()
    s.extend_to(10**6)
    s.extend_to(4 * 10**6)
    top = s.primes_upto(4 * 10**6)
    head = trial_division_primes(5000)
    assert top[: len(head)] == head
    tail = [n for n in range(4 * 10**6 - 3000, 4 * 10**6) if is_prime_td(n)]
    assert top[-len(tail) :] == tail
    # a stream whose store ends below sqrt(limit) first extends to the
    # root, so the base primes come from the stream itself
    s._primes, s._limit = array("q", trial_division_primes(100)), 100
    s.extend_to(20_000)
    assert s.primes_upto(20_000) == trial_division_primes(20_000)


FIRST_WINDOW = 1 << 16


def test_new_stream_sieves_nothing_until_read():
    # construction sieves nothing; a read that 2 answers sieves nothing
    # either, and the first read past it extends the stream as it needs
    for s in (PrimeStream(), PrimeStream(ceiling=1000)):
        assert s._primes.tolist() == [2] and s.limit == 2 and s.count == 1
        assert s.nth_prime(1) == 2 and s.primes_upto(2) == [2]
        assert s.limit == 2
        assert s.primes_list(1, 25)[-1] == 97 and 97 <= s.limit < 1000


def test_first_window_matches_trial_division():
    s = PrimeStream()
    assert s.limit == 2  # nothing sieved yet
    ref = [n for n in range(FIRST_WINDOW + 1) if is_prime_td(n)]
    assert s.primes_upto(FIRST_WINDOW) == ref
    assert s.count == len(ref) and s.nth_prime(len(ref)) == ref[-1]
    assert s.limit == FIRST_WINDOW


def test_small_ceilings_match_trial_division():
    # ceilings at the odd-only layout's edges (2 alone; first windows of
    # one and two odd numbers), around 16^2 and around the first window's
    # end: a stream holds exactly the primes up to its ceiling
    ceilings = (2, 3, 4, 5, 255, 256, 257, FIRST_WINDOW - 1, FIRST_WINDOW, FIRST_WINDOW + 1)
    ref = trial_division_primes(FIRST_WINDOW + 1)
    for c in ceilings:
        s = PrimeStream(ceiling=c)
        want = [p for p in ref if p <= c]
        assert s.primes_upto(c) == want and s.limit == c, c
        assert s._primes.tolist() == want
        with pytest.raises(SieveCapacityError):
            s.nth_prime(len(want) + 1)


def test_reads_agree_across_the_first_extension():
    s = PrimeStream()
    s.extend_to(FIRST_WINDOW)
    n = s.count
    before = s.primes_list(1, n)
    assert all(type(p) is int for p in before)
    ref = [p for p in range(2 * FIRST_WINDOW + 1) if is_prime_td(p)]
    assert before == ref[:n] and s.nth_prime(n) == ref[n - 1]
    store = s._primes
    s.extend_to(2 * FIRST_WINDOW)
    assert s.limit == 2 * FIRST_WINDOW and s.count == len(ref)
    # one array('q') store in every window, grown in place
    assert s._primes is store and store.typecode == "q"
    assert s.primes_list(n - 2, n + 2) == ref[n - 3 : n + 2]
    assert [s.nth_prime(i) for i in range(n - 1, n + 2)] == ref[n - 2 : n + 1]
    assert s.primes_upto(FIRST_WINDOW) == ref[:n]
    assert s.primes_upto(2 * FIRST_WINDOW) == ref


def test_segments_match_the_unsegmented_sieve():
    # three 2**22-wide segments, the last one cut short, against the plain
    # odd-only sieve run in one piece; then extensions by one odd number,
    # from an even limit (100,001 = 11 * 9091) and from an odd one (100,003)
    limit = FIRST_WINDOW + 2 * (1 << 22) + 12_345
    s = PrimeStream()
    s.extend_to(limit)
    assert s._primes == reference_sieve(limit)
    assert isinstance(s._primes, array)
    s = PrimeStream(ceiling=100_003)
    s.extend_to(100_000)
    s.extend_to(100_001)
    assert s.limit == 100_001 and s.nth_prime(s.count) == 99_991
    s.extend_to(100_003)
    assert s.nth_prime(s.count) == 100_003
    assert s._primes == reference_sieve(100_003)


def test_streams_refuse_undeclared_attributes():
    # a stream's state is its declared slots, and what other modules derive
    # from its primes lives in its tables: no module attaches state to it
    s = PrimeStream()
    assert not hasattr(s, "__dict__")
    with pytest.raises(AttributeError):
        s._sums = array("q")


def test_table_grows_once_per_fill_to_what_is_read():
    calls = []

    def squares(stream, t, n):
        calls.append(n)
        while len(t) < n:
            t.append(stream.nth_prime(len(t) + 1) ** 2)

    s = PrimeStream()
    t = s.table(squares, 3)
    assert t.typecode == "q" and t.tolist() == [4, 9, 25] and calls == [3]
    # a read the table already holds fills nothing; a longer one grows it
    # in place
    assert s.table(squares, 2) is t and s.table(squares, 0) is t and calls == [3]
    assert s.table(squares, 5) is t and t.tolist() == [4, 9, 25, 49, 121]
    assert calls == [3, 5]
    # each fill owns its own table, and so does each stream
    assert len(s.table(lambda stream, t, n: t.extend(range(n)), 0)) == 0
    assert len(PrimeStream().table(squares, 0)) == 0
