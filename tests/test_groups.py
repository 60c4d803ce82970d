import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import autratio.groups as groups_mod
from autratio.errors import GroupParseError, InputLimitExceeded
from autratio.groups import (
    MAX_LITERAL_AUT_BITS,
    MAX_LITERAL_DIGITS,
    TRIVIAL,
    AbelianGroup,
    SymbolicGroup,
    cyclic,
    direct_product,
    factorize,
    format_group,
    invariant_factors,
    order,
    parse_group,
)
from autratio.primes import PrimeStream
from selections import runs_of

partitions = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
    lambda xs: sorted(xs)
)
groups = st.dictionaries(
    st.sampled_from([2, 3, 5, 7, 11, 13]), partitions, max_size=3
).map(AbelianGroup.from_primary)


def test_order_examples():
    assert order(TRIVIAL) == 1
    assert order(AbelianGroup.from_primary({2: [1, 2]})) == 8
    assert order(AbelianGroup.from_primary({2: [1, 1], 3: [2]})) == 36


def test_direct_product_examples():
    c2 = parse_group("C2")
    assert direct_product(c2, TRIVIAL) == c2
    assert direct_product(c2, parse_group("C3")).factors == ((2, (1,)), (3, (1,)))
    assert direct_product(c2, parse_group("C4")).factors == ((2, (1, 2)),)


def test_invariant_factors_examples():
    assert invariant_factors(TRIVIAL) == []
    assert invariant_factors(parse_group("C2 x C4 x C9")) == [2, 36]
    assert invariant_factors(AbelianGroup.from_primary({5: [1, 1, 1]})) == [5, 5, 5]


def crt_expand(divisors) -> AbelianGroup:
    """Independent oracle: re-split a divisor chain into primary parts."""
    g = TRIVIAL
    for d in divisors:
        g = direct_product(g, cyclic(d))
    return g


@given(groups)
def test_invariant_factors_properties(g):
    divs = invariant_factors(g)
    for a, b in zip(divs, divs[1:]):
        assert b % a == 0
    prod = 1
    for d in divs:
        prod *= d
    assert prod == order(g)
    assert crt_expand(divs) == g


def test_parse_examples():
    assert parse_group("C2^3") == AbelianGroup.from_primary({2: [1, 1, 1]})
    assert parse_group("C2 x C4 x C9").factors == ((2, (1, 2)), (3, (2,)))
    assert parse_group("C12").factors == ((2, (2,)), (3, (1,)))
    assert parse_group("C1") == TRIVIAL
    assert parse_group("") == TRIVIAL
    assert parse_group("  C6xC10 ") == parse_group("C2 x C2 x C3 x C5")


@pytest.mark.parametrize("bad", ["C0", "C2^0", "Cx", "C2 y C3", "2", "C-3", "C2^"])
def test_parse_rejects(bad):
    with pytest.raises(GroupParseError):
        parse_group(bad)


def test_literal_aut_bits_limit():
    assert MAX_LITERAL_AUT_BITS == 2048 * 2048  # |C2^2048|^2048
    for literal, rank in [
        ("C2^2048", 2048),
        ("C4^1448", 1448),
        ("C6^1024", 2048),
        ("C2^1000 x C3^1000 x C5^48", 2048),
        (f"C{2**100}^204", 204),  # 204 * log2 |G_2| = 204 * 20400 bits
    ]:
        assert parse_group(literal).rank == rank, literal
    for literal in [
        "C2^2049",
        "C2^2048 x C2",
        "C3^2048",
        "C1000003^1024",
        f"C{2**100}^205",  # the exponent counts, not only the rank
        "C2^100000000",
        "C2^100000000 x C7",
    ]:
        with pytest.raises(InputLimitExceeded, match="MAX_LITERAL_AUT_BITS"):
            parse_group(literal)


def test_literal_digits_limit():
    assert MAX_LITERAL_DIGITS == 4300
    # leading zeros are not significant; 10^4299 has 4300 digits
    assert parse_group("C" + "0" * 5000 + "7^" + "0" * 5000 + "2").factors == ((7, (1, 1)),)
    g = parse_group("C1" + "0" * 4299)
    assert g.factors == ((2, (4299,)), (5, (4299,)))
    for literal in ["C2^" + "1" * 5000, "C1" + "0" * 4300, "C3 x C" + "7" * 4301 + "^2"]:
        with pytest.raises(InputLimitExceeded, match="MAX_LITERAL_DIGITS = 4300"):
            parse_group(literal)


def test_many_distinct_primes_are_within_the_literal_limit(stream):
    # each prime of rank 1 adds only log2 p bits to the bound
    primes = [stream.nth_prime(i) for i in range(1, 5001)]
    g = parse_group(" x ".join(f"C{p}" for p in primes))
    assert g.rank == len(g.factors) == 5000  # of rank 1 each


@given(groups)
def test_format_parse_round_trip(g):
    assert parse_group(format_group(g)) == g


@given(groups, groups)
def test_order_multiplicative_over_product(g1, g2):
    assert order(direct_product(g1, g2)) == order(g1) * order(g2)


def test_canonical_equality_is_isomorphism():
    assert parse_group("C6") == parse_group("C2 x C3")
    assert parse_group("C8") != parse_group("C2 x C4")
    assert hash(parse_group("C6")) == hash(parse_group("C3 x C2"))


def test_symbolic_group_basics(stream):
    s = SymbolicGroup(3, runs_of([2, 3, 4, 7]))
    assert s.odd_prime_ranges == ((2, 4), (7, 7))
    assert s.index_count == 4
    assert s.odd_primes(stream) == [3, 5, 7, 17]  # p2, p3, p4, p7
    for indices in ([2, 3, 3], [2, 5, 4]):
        with pytest.raises(ValueError, match="strictly increasing"):
            SymbolicGroup(0, runs_of(indices))
    g = s.materialize(stream)
    assert g == parse_group("C2^3 x C3 x C5 x C7 x C17")


def test_symbolic_group_validation():
    with pytest.raises(ValueError):
        SymbolicGroup(0, ((1, 2),))  # index 1 is the even prime
    with pytest.raises(ValueError):
        SymbolicGroup(-1, ())
    with pytest.raises(ValueError):
        SymbolicGroup(0, ((3, 2),))


def test_symbolic_materialize_cap():
    # 10,001 prime indices, one past the cap: refused before any prime is read
    s = SymbolicGroup(0, ((2, 10_002),))
    fresh = PrimeStream()
    with pytest.raises(ValueError, match="10001 prime factors"):
        s.materialize(fresh)
    assert fresh.limit == 2


def trial_division(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_trial_division():
    rng = random.Random(7)
    sample = list(range(1, 20_001))
    sample += [rng.randrange(20_001, 10**6 + 1) for _ in range(3000)]
    # prime powers, a prime square, large primes and two-prime products
    sample += [2**19, 3**12, 997**2, 999_983, 2 * 999_983, 991 * 997, 35 * 997]
    for n in sample:
        assert factorize(n) == trial_division(n), n


@pytest.mark.parametrize("p", [10000000000037, 2**61 - 1])
def test_factorize_large_prime_cofactor(p):
    for m in list(range(1, 40)) + [997 * 991, 2**10 * 3**5, 999_983]:
        want = trial_division(m)
        want[p] = 1
        assert factorize(m * p) == want, m


def test_is_prime_bound_is_the_first_strong_pseudoprime():
    psi12 = 399165290221 * 798330580441
    assert groups_mod._MR_PROVEN_BELOW == psi12
    assert groups_mod._is_prime(psi12)  # composite, yet passes all twelve bases


def test_factorize_trusts_the_primality_test_only_below_the_bound(monkeypatch):
    # a test that calls everything prime stands in for a pseudoprime; below
    # the bound its answer is trusted, and trial division below 1024 still
    # finds small factors; above the bound factorize refuses
    monkeypatch.setattr(groups_mod, "_MR_PROVEN_BELOW", 10**6)
    monkeypatch.setattr(groups_mod, "_is_prime", lambda n: True)
    for n in [1009 * 1013, 2 * 1009 * 1013 * 1019]:
        assert factorize(n) == trial_division(n), n
    with pytest.raises(InputLimitExceeded, match="psi_12 = 1000000"):
        factorize(3 * 999_983 * 1_000_003)


@pytest.mark.parametrize(
    "n",
    [
        2**89 - 1,  # a Mersenne prime, 27 digits
        3 * 5 * (2**89 - 1),
        399165290221 * 798330580441,  # psi_12 itself: composite, passes all bases
        2**521 - 1,
        (2**127 - 1) * 1_000_003,  # rho splits off 1000003, the rest is refused
    ],
)
def test_factorize_refuses_probable_primes_above_psi12(n):
    start = time.perf_counter()
    with pytest.raises(InputLimitExceeded, match="psi_12 = 318665857834031151167461"):
        factorize(n)
    assert time.perf_counter() - start < 1.0


def accepted_as_prime(n: int) -> bool:
    try:
        AbelianGroup(((n, (1,)),))
    except ValueError:
        return False
    return True


def factored_as_prime(n: int) -> bool:
    try:
        return factorize(n) == {n: 1}
    except InputLimitExceeded:
        return False


def test_abelian_group_and_factorize_agree_on_what_is_prime(stream):
    # C_n is a valid primary factor exactly when factorize calls n prime;
    # both refuse psi_12 (composite) and 2^89 - 1 (prime, but above psi_12)
    psi12, m89 = 399165290221 * 798330580441, 2**89 - 1
    rng = random.Random(26)
    small = stream.primes_upto(1 << 20)
    primes = [2, 3] + rng.sample(small, 20)
    for _ in range(20):  # seeded primes in (2^39, 2^40), by trial division
        n = rng.randrange(1 << 39, 1 << 40) | 1
        while not all(n % p for p in small):
            n += 2
        primes.append(n)
    refused = [psi12, m89, 9, 4] + [p * q for p, q in zip(
        rng.sample(small, 40), rng.sample(small, 40)
    )]
    randoms = [rng.randrange(2, 1 << 40) for _ in range(200)]
    for n in primes + refused + randoms:
        assert accepted_as_prime(n) == factored_as_prime(n), n
    assert all(map(accepted_as_prime, primes))
    assert not any(map(accepted_as_prime, refused))
    with pytest.raises(ValueError, match="is not a proven prime"):
        AbelianGroup(((psi12, (1,)),))


def test_factorize_below_psi12_is_a_proof():
    # the largest prime below the bound: Miller-Rabin proves it prime
    p = groups_mod._MR_PROVEN_BELOW - 2
    while not groups_mod._is_prime(p):
        p -= 2
    assert factorize(p) == {p: 1}
    assert factorize(6 * p) == {2: 1, 3: 1, p: 1}


def test_parse_large_prime_literal_is_fast():
    start = time.perf_counter()
    g = parse_group("C2305843009213693951")
    assert time.perf_counter() - start < 1.0
    assert g.factors == ((2**61 - 1, (1,)),)


@pytest.mark.parametrize(
    "p, q",
    [(1_000_003, 1_000_033), (10_000_019, 10_000_079), (1_000_000_007, 1_000_000_009)],
)
def test_factorize_splits_large_semiprimes_quickly(p, q):
    # trial division needs sqrt(pq) steps (minutes at 19 digits)
    start = time.perf_counter()
    assert factorize(p * q) == {p: 1, q: 1}
    assert time.perf_counter() - start < 0.1
    assert factorize(6 * p * q * q) == {2: 1, 3: 1, p: 1, q: 2}


def test_factorize_refuses_when_rho_spends_its_budget(monkeypatch):
    # a budget too small for a factor near 10^6 stands in for a composite
    # whose factors are all too large for rho
    monkeypatch.setattr(groups_mod, "RHO_STEP_BUDGET", 64)
    with pytest.raises(InputLimitExceeded, match="RHO_STEP_BUDGET = 64 steps"):
        factorize(12 * 1_000_003 * 1_000_033)
    assert factorize(12 * 1031 * 1033) == {2: 2, 3: 1, 1031: 1, 1033: 1}


def test_factorize_rho_budget_scales_with_cofactor_size():
    # M2203 * M2281 (4484 bits): a rho step costs about 16 times one at
    # 1128 bits, so the full step budget would take about 25 s; the
    # cofactor is now refused by MAX_COFACTOR_BITS before rho runs
    start = time.perf_counter()
    with pytest.raises(InputLimitExceeded, match="4484 bits"):
        factorize((2**2203 - 1) * (2**2281 - 1))
    assert time.perf_counter() - start < 5.0


def test_factorize_refuses_a_cofactor_above_the_size_bound_before_testing_it():
    # (2^4423 - 1)(2^9689 - 1), 14,112 bits: its Miller-Rabin test alone
    # took about 8 s; 1031^409 leaves a cofactor of 4095 bits, 1031^410 of 4105
    big = (2**4423 - 1) * (2**9689 - 1)
    for literal in (f"C{big}", f"C2 x C{12 * big}"):
        start = time.perf_counter()
        with pytest.raises(InputLimitExceeded, match="14112 bits, above MAX_COFACTOR_BITS = 4096"):
            parse_group(literal)
        assert time.perf_counter() - start < 1.0
    assert groups_mod.MAX_COFACTOR_BITS == 4096
    assert factorize(6 * 1031**409) == {2: 1, 3: 1, 1031: 409}
    with pytest.raises(InputLimitExceeded, match="4105 bits, above MAX_COFACTOR_BITS"):
        factorize(6 * 1031**410)


def test_factorize_rho_budget_scales_below_the_size_bound():
    # M1279 * M2281 (3560 bits) is within MAX_COFACTOR_BITS, so rho runs
    # and spends its scaled budget
    start = time.perf_counter()
    with pytest.raises(InputLimitExceeded, match="3560 bits within RHO_STEP_BUDGET"):
        factorize((2**1279 - 1) * (2**2281 - 1))
    assert time.perf_counter() - start < 5.0


def test_factorize_splits_composites_without_small_factors():
    # every prime factor above the trial-division limit, repeated factors too
    for want in [{1031: 2}, {1031: 3, 1033: 1}, {1_048_583: 1, 999_983: 2, 4099: 1}]:
        n = 1
        for p, e in want.items():
            n *= p**e
        assert factorize(n) == want


def test_factorize_divides_a_repeated_prime_out_at_once(monkeypatch):
    # 1031 is the first prime past trial division: a power of it once cost
    # one Pollard-Brent split and one large Miller-Rabin test per power
    from autratio import groups

    rho, big_tests = [], []
    real_rho, real_is_prime = groups._pollard_brent, groups._is_prime

    def counted_rho(n):
        rho.append(n)
        return real_rho(n)

    def counted_is_prime(n):
        if n.bit_length() > 1000:
            big_tests.append(n)
        return real_is_prime(n)

    monkeypatch.setattr(groups, "_pollard_brent", counted_rho)
    monkeypatch.setattr(groups, "_is_prime", counted_is_prime)
    assert factorize(1031**300) == {1031: 300}
    assert len(rho) <= 2 and len(big_tests) <= 1
    rho.clear()
    assert factorize(12 * 1031**7 * 1033**5) == {2: 2, 3: 1, 1031: 7, 1033: 5}
    assert len(rho) <= 3
