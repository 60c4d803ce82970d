import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autratio import autorder, oracle
from autratio.autorder import (
    LogValue,
    aut_order,
    aut_order_local,
    euler_phi_of_order,
    f_exact,
    f_log,
    f_prime_exact,
    two_rank_ratio,
)
from autratio.errors import OracleCapExceeded
from autratio.groups import (
    TRIVIAL,
    AbelianGroup,
    SymbolicGroup,
    cyclic,
    direct_product,
    parse_group,
)
from autratio.oracle import OracleCaps, aut_order_bruteforce, aut_order_bruteforce_naive
from autratio.search import SearchBounds, enumerate_groups
from selections import runs_of

BIG_CAPS = OracleCaps(order_cap=200, work_cap=10**12)


def test_local_formula_pinned_values():
    assert aut_order_local(7, [1]) == 6
    assert aut_order_local(2, [1, 1]) == 6  # |GL_2(2)|
    assert aut_order_local(2, [1, 2]) == 8
    assert aut_order_local(2, [1, 1, 1]) == 168  # (8-1)(8-2)(8-4)


def quadratic_aut_order_local(p, part):
    """The closed form with d_k and c_k found by scanning every entry."""
    n = len(part)
    d = [max(l for l in range(n) if part[l] == part[k]) + 1 for k in range(n)]
    c = [min(l for l in range(n) if part[l] == part[k]) + 1 for k in range(n)]
    a = math.prod(p ** d[k] - p**k for k in range(n))
    b = math.prod(p ** (part[j] * (n - d[j])) for j in range(n))
    e = math.prod(p ** ((part[i] - 1) * (n - c[i] + 1)) for i in range(n))
    return a * b * e


def partitions(w, largest=None):
    """Ascending partitions of w with parts <= largest."""
    if w == 0:
        yield ()
        return
    for top in range(min(w, largest or w), 0, -1):
        for rest in partitions(w - top, top):
            yield rest + (top,)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_local_formula_run_lengths_match_the_definition(p):
    for w in range(1, 13):
        for part in partitions(w):
            assert aut_order_local(p, part) == quadratic_aut_order_local(p, part)


def test_elementary_two_groups_match_two_rank_ratio():
    for r in range(401):
        g = AbelianGroup(((2, (1,) * r),) if r else ())
        assert f_exact(g) == two_rank_ratio(r), r


def test_local_formula_rejects_bad_partitions():
    with pytest.raises(ValueError):
        aut_order_local(2, [2, 1])
    with pytest.raises(ValueError):
        aut_order_local(2, [])


def test_aut_order_examples():
    assert aut_order(TRIVIAL) == 1
    assert aut_order(parse_group("C2^3")) == 168
    assert aut_order(parse_group("C6")) == 2  # = phi(6)


def test_f_exact_examples():
    assert f_exact(TRIVIAL) == 1
    assert f_exact(parse_group("C2")) == Fraction(1, 2)
    assert f_exact(parse_group("C2^2")) == Fraction(3, 2)
    assert f_exact(parse_group("C2^3")) == 21


def test_f_prime_examples():
    for p in (2, 3, 5, 7, 11):
        assert f_prime_exact(cyclic(p)) == 1
    assert f_prime_exact(parse_group("C2 x C4")) == 2
    assert f_prime_exact(parse_group("C2^3")) == 42
    assert f_prime_exact(TRIVIAL) == 1


def trial_phi(n: int) -> int:
    out = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def test_phi_of_order_matches_trial_division():
    for n in range(1, 500):
        assert euler_phi_of_order(cyclic(n)) == trial_phi(n)


def test_cyclic_aut_is_phi_sample():
    for n in range(1, 1000):
        assert aut_order(cyclic(n)) == trial_phi(n)


def test_oracle_equivalence_small():
    for g in enumerate_groups(SearchBounds(max_order=48)):
        assert aut_order(g) == aut_order_bruteforce(g, BIG_CAPS), g


def test_naive_and_fast_oracle_agree():
    for lit in ["C1", "C2", "C4", "C2 x C2", "C2 x C4", "C3 x C3", "C8",
                "C2 x C2 x C2", "C12", "C2 x C6", "C9 x C3", "C2 x C4 x C3"]:
        g = parse_group(lit)
        assert aut_order_bruteforce(g, BIG_CAPS) == aut_order_bruteforce_naive(
            g, BIG_CAPS
        ), lit


def test_coset_collapsed_oracle_matches_the_literal_scan(monkeypatch):
    # every group of order <= 32 whose tuple space the scan takes in; among
    # them are groups where one coset of S n G[q_j] holds several images
    monkeypatch.setattr(oracle, "_NAIVE_MAX_TUPLES", 10_000)
    checked = set()
    for g in enumerate_groups(SearchBounds(max_order=32)):
        try:
            naive = aut_order_bruteforce_naive(g, BIG_CAPS)
        except OracleCapExceeded:
            continue
        assert aut_order_bruteforce(g, BIG_CAPS) == naive, g
        checked.add(g)
    assert {parse_group(s) for s in ("C2^3", "C4 x C4", "C3^2 x C2")} <= checked


def test_oracle_frees_its_tables_on_return():
    # a reference cycle would keep each call's tables and memo until the
    # cyclic collector runs
    g = parse_group("C2 x C4 x C3")
    gc.collect()
    gc.disable()
    try:
        assert aut_order_bruteforce(g) == aut_order(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_oracle_caps_refused():
    with pytest.raises(OracleCapExceeded):
        aut_order_bruteforce(cyclic(211))  # order above the default cap
    with pytest.raises(OracleCapExceeded):
        aut_order_bruteforce(parse_group("C2^6"))  # 64**6 beyond default work cap


coprime_left = st.dictionaries(
    st.sampled_from([2, 3, 5]),
    st.lists(st.integers(1, 3), min_size=1, max_size=2).map(sorted),
    max_size=2,
).map(AbelianGroup.from_primary)
coprime_right = st.dictionaries(
    st.sampled_from([7, 11, 13]),
    st.lists(st.integers(1, 3), min_size=1, max_size=2).map(sorted),
    max_size=2,
).map(AbelianGroup.from_primary)


@given(coprime_left, coprime_right)
def test_f_multiplicative_over_coprime_orders(g1, g2):
    assert f_exact(direct_product(g1, g2)) == f_exact(g1) * f_exact(g2)


def test_two_rank_ratio_growth():
    # strict growth past any bound, against the closed-form product
    prev = Fraction(0)
    for n in range(1, 21):
        closed = Fraction(1, 2**n)
        for k in range(n):
            closed *= 2**n - 2**k
        assert two_rank_ratio(n) == closed
        assert closed > prev
        prev = closed
    assert two_rank_ratio(20) > 10**50
    assert two_rank_ratio(0) == 1


def test_f_log_examples(stream):
    lv = f_log(SymbolicGroup(0, ()), stream=stream)
    assert lv.log_value == 0.0 and lv.abs_error == 0.0

    lv = f_log(SymbolicGroup(1, ()), stream=stream)
    assert abs(lv.log_value - math.log(0.5)) <= lv.abs_error + 1e-15

    lv = f_log(SymbolicGroup(0, runs_of([2])), stream=stream)  # C3, f = 2/3
    assert abs(lv.log_value - math.log(2 / 3)) <= lv.abs_error + 1e-15


@settings(max_examples=20)
@given(
    n=st.integers(0, 4),
    idx=st.lists(st.integers(2, 40), min_size=0, max_size=6, unique=True),
)
def test_f_log_agrees_with_exact(stream, n, idx):
    s = SymbolicGroup(n, runs_of(sorted(idx)))
    lv = f_log(s, stream=stream)
    f = f_exact(s.materialize(stream))
    # |log_value - ln f| <= abs_error, verified through exact rationals
    err = Fraction(lv.abs_error)
    mid = Fraction(lv.log_value)
    # exp(mid - err) <= f <= exp(mid + err)  <=>  containment of ln f
    assert math.exp(float(mid - err)) <= float(f) * (1 + 1e-12)
    assert float(f) <= math.exp(float(mid + err)) * (1 + 1e-12)


def test_f_log_doubled_precision_pass(stream):
    s = SymbolicGroup(2, runs_of([2, 3, 5, 8, 13]))
    first = f_log(s, stream=stream)
    second = f_log(s, stream=stream, prec=384)
    # the reported error saturates at float granularity, so only <= holds
    assert second.abs_error <= first.abs_error
    assert abs(first.log_value - second.log_value) <= (
        first.abs_error + second.abs_error
    )


def assert_bulk_enclosure(s, stream):
    """f_log's 60-bit branch overlaps the 192-bit enclosure and is no wider
    than the former floor-kernel bound of 64 units of 2**-60 per prime."""
    bulk = f_log(s, stream=stream)
    lo, hi = bulk.interval()
    lo192, hi192 = f_log(s, stream=stream, prec=192).interval()
    assert lo <= hi192 and lo192 <= hi
    assert hi - lo <= Fraction(64 * s.index_count, 1 << 60)


@pytest.mark.parametrize(
    "s",
    [
        SymbolicGroup(0, ((2, 2),)),
        SymbolicGroup(2, runs_of([2, 3, 5, 8, 13])),
        SymbolicGroup(3, ((2, 400), (600, 900))),
    ],
)
def test_f_log_bulk_branch_small_groups(stream, monkeypatch, s):
    monkeypatch.setattr(autorder, "_VECTOR_THRESHOLD", 0)
    assert_bulk_enclosure(s, stream)
    lo, hi = f_log(s, stream=stream).interval()
    f = f_exact(s.materialize(stream))
    assert math.exp(float(lo)) <= float(f) * (1 + 1e-12)
    assert float(f) <= math.exp(float(hi)) * (1 + 1e-12)


def test_f_log_bulk_branch_above_threshold(stream):
    s = SymbolicGroup(1, ((2, 70_000),))
    assert s.index_count > autorder._VECTOR_THRESHOLD
    assert_bulk_enclosure(s, stream)


@pytest.mark.parametrize("spacing", [256, 3])
def test_atanh_range_sums_match_the_direct_per_prime_sum(monkeypatch, spacing):
    # range sums read through the checkpoints equal the atanh kernel summed
    # one prime at a time: ranges inside one block, ranges ending on and
    # beside checkpoints, and ranges across many blocks
    from autratio.fixedlog import term_block_atanh60
    from autratio.primes import PrimeStream

    monkeypatch.setattr(autorder, "_CHECKPOINT", spacing)
    s = PrimeStream()
    per_prime = [(0, 0), (0, 0)] + [term_block_atanh60([p]) for p in s.primes_list(2, 4000)]

    def direct(i0, i1):
        return tuple(map(sum, zip(*per_prime[i0 : i1 + 1])))

    rng = random.Random(23)
    k = spacing
    ranges = [(2, 2), (2, k), (2, k + 1), (k, k), (k, k + 1), (k + 1, 2 * k), (k - 1, 3 * k + 1),
              (2, 4000), (3999, 4000)]
    ranges += [tuple(sorted(rng.sample(range(2, 4001), 2))) for _ in range(300)]
    for i0, i1 in ranges:
        assert autorder._atanh_range(s, i0, i1) == direct(i0, i1), (i0, i1)
    table = s._atanh60_sums
    assert table.typecode == "q" and len(table) <= 2 * (4000 // k + 1)


def test_logvalue_contract():
    with pytest.raises(ValueError):
        LogValue(0.0, -1e-9)
    lv = LogValue.from_bounds(-10, 10, 8)
    lo, hi = lv.interval()
    assert lo <= Fraction(-10, 256) and hi >= Fraction(10, 256)


def fraction_from_bounds(lo, hi, prec):
    """LogValue.from_bounds as it rounded through Fractions, kept as the
    reference for the integer rounding."""
    lo, hi = Fraction(lo, 1 << prec), Fraction(hi, 1 << prec)
    mid = float((lo + hi) / 2)
    rad = max(hi - Fraction(mid), Fraction(mid) - lo, Fraction(0))
    out = float(rad)
    while Fraction(out) < rad:
        out = math.nextafter(out, math.inf)
    return LogValue(mid, out)


def test_from_bounds_rounds_as_the_fraction_reference():
    rng = random.Random(19)
    cases = [(0, 0, 8), (-5, 5, 8), (7, 7, 384), (-(1 << 200), -(1 << 200), 8), (1, 2, 384)]
    for _ in range(20_000):
        prec = rng.randint(8, 384)
        lo = rng.choice((-1, 1)) * rng.randint(0, 1 << rng.randint(0, prec + 200))
        width = rng.randint(0, 1 << rng.randint(0, 190)) if rng.random() < 0.95 else 0
        cases.append((lo, lo + width, prec))
    for lo, hi, prec in cases:
        got = LogValue.from_bounds(lo, hi, prec)
        assert repr(got) == repr(fraction_from_bounds(lo, hi, prec)), (lo, hi, prec)


def partitions_descending(n: int, largest: int):
    """Every partition of n with parts at most ``largest``, parts descending."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions_descending(n - k, k):
            yield (k,) + rest


@pytest.mark.parametrize(
    "p, top", [(2, 24), (3, 14), (5, 14), (7, 14)], ids=["p2", "p3", "p5", "p7"]
)
def test_hall_identity_over_the_groups_of_order_p_to_the_n(p, top):
    # P. Hall (1938): the sum of 1/|Aut G| over the abelian groups of order
    # p^n is p^-n * prod_{i <= n} (1 - p^-i)^-1
    for n in range(1, top + 1):
        total = sum(
            Fraction(1, aut_order_local(p, part[::-1]))
            for part in partitions_descending(n, n)
        )
        want = Fraction(1, p**n) * math.prod(
            Fraction(p**i, p**i - 1) for i in range(1, n + 1)
        )
        assert total == want, (p, n)


@pytest.mark.parametrize("prec", [0, 1, 4])
def test_f_log_refuses_a_precision_below_the_table_bits(stream, prec):
    with pytest.raises(ValueError, match="prec must be at least 5 bits"):
        f_log(SymbolicGroup(2, ((2, 5),)), stream=stream, prec=prec)


def test_f_log_at_the_least_precision_encloses_the_ratio(stream):
    # C2^2 x C3 x C5 x C7 x C11: f = 3/2 * 2/3 * 4/5 * 6/7 * 10/11 = 48/77
    s = SymbolicGroup(2, ((2, 5),))
    assert f_exact(s.materialize(stream)) == Fraction(48, 77)
    lo, hi = f_log(s, stream=stream, prec=5).interval()
    assert math.exp(lo) <= 48 / 77 * (1 + 1e-12)
    assert 48 / 77 <= math.exp(hi) * (1 + 1e-12)


def test_explicit_prec_enclosure_reads_primes_in_blocks():
    # 100,000 odd primes at prec 8: the enclosure reads them a block at a
    # time rather than as one list, and sums the same per-prime bounds
    import tracemalloc

    from autratio import fixedlog
    from autratio.primes import PrimeStream

    s = SymbolicGroup(0, ((2, 100_001),))
    stream = PrimeStream()
    primes = stream.primes_list(2, 100_001)  # sieves the stream first
    t_lo, t_hi = map(sum, zip(*(fixedlog.log_ratio_term_bounds(p, 8) for p in primes)))
    del primes
    tracemalloc.start()
    try:
        got = autorder._f_log_bounds(s, stream, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert got == (-t_hi, -t_lo)  # ln f(C1) = 0 exactly
