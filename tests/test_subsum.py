import bisect
import dataclasses
import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autratio.groups import _ranges_from_indices
from autratio.primes import PrimeStream
from autratio.subsum import (
    BUDGET_EXHAUSTED,
    CAPACITY_EXHAUSTED,
    CONVERGED,
    DEFAULT_EXACT_CAP,
    LogTarget,
    TermSource,
    greedy_select,
    prime_ratio_terms,
)


def harmonic():
    return TermSource(
        lambda i: Fraction(1, i),
        terms_tend_to_zero=True,
        series_diverges=True,
        nonincreasing=True,
        description="1/i",
    )


def test_target_zero_converges_empty():
    sel = greedy_select(harmonic(), 0, Fraction(1, 10**6))
    assert sel.status == CONVERGED
    assert sel.count == 0 and sel.ranges == ()
    assert sel.exact_sum == 0


def test_harmonic_exact_hit():
    sel = greedy_select(harmonic(), Fraction(3, 2), Fraction(1, 10**6))
    assert sel.status == CONVERGED
    assert list(sel.indices()) == [1, 2]
    assert sel.exact_sum == Fraction(3, 2)
    # exhaustive oracle over the first 20 terms: {1, 2} is an exact hit,
    # and no subset achieves a sum in (3/2, 3/2] beyond it (one-sidedness)
    import itertools

    hits = set()
    for r in range(1, 4):
        for combo in itertools.combinations(range(1, 21), r):
            if sum(Fraction(1, i) for i in combo) == Fraction(3, 2):
                hits.add(combo)
    assert (1, 2) in hits
    # greedy's rule (earliest fitting index wins) selects exactly {1, 2}
    assert min(hits) == (1, 2)


def test_prime_log_target_ln2(stream):
    src = prime_ratio_terms(False, stream)
    sel = greedy_select(src, LogTarget(Fraction(2)), Fraction(1, 10**9))
    assert sel.status == CONVERGED
    assert list(sel.indices()) == [1]
    assert sel.exact_product == 2  # selected sum is exactly ln 2


def test_odd_only_index_shift(stream):
    src = prime_ratio_terms(True, stream)
    assert src.prime(1) == 3 and src.prime(2) == 5
    all_src = prime_ratio_terms(False, stream)
    assert all_src.prime(1) == 2 and all_src.prime(3) == 5
    assert src.terms_tend_to_zero and src.series_diverges


def test_eps_validation():
    with pytest.raises(ValueError):
        greedy_select(harmonic(), 1, 0)
    with pytest.raises(ValueError):
        greedy_select(harmonic(), 1, Fraction(-1, 2))
    with pytest.raises(ValueError):
        greedy_select(harmonic(), -1, Fraction(1, 2))


def test_target_type_dispatch(stream):
    with pytest.raises(TypeError):
        greedy_select(prime_ratio_terms(False, stream), Fraction(1), Fraction(1, 10))
    with pytest.raises(TypeError):
        greedy_select(harmonic(), LogTarget(Fraction(2)), Fraction(1, 10))


def check_trail_invariants(sel, source, target):
    """Per-step contract: running sum never exceeds the target, and every
    skipped term was larger than the deficit at that moment."""
    running = Fraction(0)
    for entry in sel.trail:
        if entry[0] == "include":
            _, i, x, after = entry
            running += x
            assert running == after
            assert running <= target
        elif entry[0] == "skip_run":
            _, i0, i1, deficit, smallest = entry
            assert deficit == target - running
            # terms are nonincreasing: the last (smallest) term in the run
            # bounding below still exceeds the deficit covers the whole run
            assert deficit < smallest


def test_trail_invariants_random_targets():
    rng = random.Random(20250808)
    for _ in range(30):
        t = Fraction(rng.uniform(0, 3)).limit_denominator(10**6)
        sel = greedy_select(harmonic(), t, Fraction(1, 10**6), record_trail=True)
        assert sel.status == CONVERGED
        check_trail_invariants(sel, harmonic(), t)
        assert t - sel.exact_sum < Fraction(1, 10**6)
        assert sel.exact_sum <= t


def test_determinism(stream):
    a = greedy_select(harmonic(), Fraction(9, 4), Fraction(1, 10**6))
    b = greedy_select(harmonic(), Fraction(9, 4), Fraction(1, 10**6))
    assert a == b
    s1 = greedy_select(
        prime_ratio_terms(False, stream), LogTarget(Fraction(7, 2)), Fraction(1, 10**4)
    )
    s2 = greedy_select(
        prime_ratio_terms(False, stream), LogTarget(Fraction(7, 2)), Fraction(1, 10**4)
    )
    assert s1.ranges == s2.ranges and s1.status == s2.status == CONVERGED


def test_budget_exhaustion():
    # terms 1/(i+10) with budget 3: cannot get deficit below eps in 3 terms
    src = TermSource(
        lambda i: Fraction(1, i + 10),
        terms_tend_to_zero=True,
        series_diverges=True,
        nonincreasing=True,
    )
    sel = greedy_select(src, 2, Fraction(1, 10**9), budget=3)
    assert sel.status == BUDGET_EXHAUSTED
    assert sel.scanned <= 3


def test_capacity_exhaustion_declared_capacity():
    src = TermSource(
        lambda i: Fraction(1, i),
        terms_tend_to_zero=True,
        series_diverges=True,
        nonincreasing=True,
        capacity=5,
    )
    sel = greedy_select(src, 10, Fraction(1, 10**6))
    assert sel.status == CAPACITY_EXHAUSTED
    assert sel.exact_sum == sum(Fraction(1, i) for i in range(1, 6))


def test_capacity_exhaustion_prime_ceiling():
    tiny = PrimeStream(ceiling=1000)
    src = prime_ratio_terms(False, tiny)
    # needs U > 20, i.e. log-sum ln 20, far beyond primes <= 1000
    sel = greedy_select(src, LogTarget(Fraction(20)), Fraction(1, 100))
    assert sel.status == CAPACITY_EXHAUSTED
    assert sel.exact_product < 20


def test_exact_cap_switches_to_fixed_point(stream):
    # force an early switch into the certified fixed-point continuation,
    # then re-multiply the returned selection exactly and check the full
    # contract against it
    from autratio.fixedlog import PREC, ln_fraction_bounds

    src = prime_ratio_terms(False, stream)
    q = Fraction(27, 10)
    eps = Fraction(1, 10**5)
    mixed = greedy_select(src, LogTarget(q), eps, exact_cap=3)
    assert mixed.status == CONVERGED
    assert mixed.exact_product is None  # no longer a fully exact run
    assert mixed.count > 3
    recomputed = Fraction(1)
    for i in mixed.indices():
        p = src.prime(i)
        recomputed *= Fraction(p, p - 1)
    # one-sided: the true product never exceeds the target ratio
    assert recomputed <= q
    # converged: certified deficit ln(q / recomputed) below eps
    _, hi = ln_fraction_bounds(q / recomputed, PREC)
    assert Fraction(hi, 1 << PREC) < eps
    # the run's enclosure really contains the true selected sum
    lo_t, hi_t = ln_fraction_bounds(recomputed, PREC)
    assert mixed.achieved[0] <= hi_t
    assert mixed.achieved[1] >= lo_t
    # the fully exact run of the same instance obeys the same contract
    exact = greedy_select(src, LogTarget(q), eps, exact_cap=10**6)
    assert exact.status == CONVERGED and exact.exact_product is not None
    assert exact.exact_product <= q
    _, hi2 = ln_fraction_bounds(q / exact.exact_product, PREC)
    assert Fraction(hi2, 1 << PREC) < eps


@pytest.mark.parametrize(
    "q, exact_cap, status",
    [
        (Fraction(27, 10), DEFAULT_EXACT_CAP, "exact"),
        (Fraction(27, 10), 3, "continuation"),
        (Fraction(40), DEFAULT_EXACT_CAP, CAPACITY_EXHAUSTED),  # fail-fast
    ],
)
def test_log_ratio_achieved_is_an_integer_enclosure(stream, q, exact_cap, status):
    # achieved is (lo, hi) with the selected sum in [lo, hi] * 2**-PREC,
    # checked against an enclosure of the re-multiplied product at 2 * PREC
    from autratio.fixedlog import PREC, ln_fraction_bounds

    src = prime_ratio_terms(False, stream)
    sel = greedy_select(src, LogTarget(q), Fraction(1, 10**5), exact_cap=exact_cap)
    if status == CAPACITY_EXHAUSTED:
        assert sel.status == status and sel.scanned == 0
    else:
        assert sel.status == CONVERGED
        assert (sel.exact_product is not None) == (status == "exact")
    lo, hi = sel.achieved
    assert type(lo) is int and type(hi) is int and lo <= hi
    product = math.prod(Fraction(p, p - 1) for p in map(src.prime, sel.indices()))
    t_lo, t_hi = ln_fraction_bounds(product, 2 * PREC)
    assert lo << PREC <= t_hi and t_lo <= hi << PREC


def test_exact_hit_at_the_cap_converges_on_the_product():
    # Q is the product over the first ten primes and eps one unit of the
    # term table, so only U itself proves convergence after the tenth
    # inclusion: the cap-th inclusion's convergence test is still exact
    q = math.prod(Fraction(p, p - 1) for p in _primes_upto(29))
    src = prime_ratio_terms(False, PrimeStream(ceiling=10**5))
    sel = greedy_select(src, LogTarget(q), Fraction(1, 2**60), exact_cap=10)
    assert sel.status == CONVERGED and sel.ranges == ((1, 10),)
    assert sel.exact_product == q


def test_certified_deficit_below_decides_at_the_bound():
    # the float screen reaches this check only when the deficit is within
    # a few ulps of eps, so the greedy's own tests barely exercise it:
    # ln 2 = 0.693147...
    from autratio.subsum import _certified_deficit_below

    assert _certified_deficit_below(2, 1, 1, 1, Fraction(6932, 10000))
    assert not _certified_deficit_below(2, 1, 1, 1, Fraction(6931, 10000))
    assert not _certified_deficit_below(4, 1, 3, 2, Fraction(6931, 10000))
    assert _certified_deficit_below(3, 2, 3, 2, Fraction(1, 10**30))  # zero


def test_mixed_phase_random_differential(stream):
    # random targets forced through the fixed-point continuation, verified
    # by gcd-free exact re-multiplication of the returned selection
    from autratio.fixedlog import PREC, ln_fraction_bounds

    def tree_prod(xs):
        xs = list(xs) or [1]
        while len(xs) > 1:
            xs = [xs[k] * xs[k + 1] for k in range(0, len(xs) - 1, 2)] + (
                [xs[-1]] if len(xs) % 2 else []
            )
        return xs[0]

    rng = random.Random(421)
    n_mixed = 0
    for _ in range(50):
        q = Fraction(rng.randint(101, 1500), 100)
        eps = Fraction(1, 10 ** rng.randint(3, 5))
        cap = rng.choice([0, 1, 2, 5, 13])
        src = prime_ratio_terms(rng.random() < 0.5, stream)
        sel = greedy_select(src, LogTarget(q), eps, exact_cap=cap)
        assert sel.status == CONVERGED, (q, eps, cap)
        if sel.exact_product is None:
            n_mixed += 1
        if sel.count > 120_000:
            continue  # exact recheck gets expensive; smaller cases cover it
        ps = [src.prime(i) for i in sel.indices()]
        un, ud = tree_prod(ps), tree_prod([p - 1 for p in ps])
        assert un * q.denominator <= ud * q.numerator  # one-sided, exactly
        if un * q.denominator != ud * q.numerator:
            _, hi = ln_fraction_bounds(
                Fraction(q.numerator * ud, q.denominator * un), PREC
            )
            assert Fraction(hi, 1 << PREC) < eps, (q, eps, cap)
    assert n_mixed >= 25  # the cap choices really exercised the switch


def test_windowed_fixed_point_scan_matches_one_pass(monkeypatch):
    # one include run's prefix must be the one a term-by-term pass takes,
    # up to rooms past the int64 range, and the window sizes must not move
    # any selection
    import numpy as np

    from autratio import subsum
    from autratio.subsum import _C, _certain_prefix

    rng = np.random.default_rng(5)
    terms = np.sort(rng.integers(0, 2**40, 300))[::-1].copy()
    adj = np.cumsum(terms) + _C * np.arange(1, len(terms) + 1)

    def one_pass(room, eps60):
        n = used = 0
        for t in terms.tolist():
            if used + t + _C > room:
                break
            n, used = n + 1, used + t + _C
            if used > room - eps60:
                break  # the deficit may be below eps after this term
        return n, used

    for k in [0, 1, 150, len(terms) - 1]:
        for room in [int(adj[k]) - 1, int(adj[k]), int(adj[-1]) + 2**66]:
            for eps60 in [0, 1, int(terms[k]), int(adj[-1]) + 2**65]:
                assert _certain_prefix(terms, room, eps60) == one_pass(room, eps60)
    assert _certain_prefix(terms, -(2**70), 0) == (0, 0)

    cases = [
        (Fraction(27, 10), Fraction(1, 10**5), False, 5),
        (Fraction(20, 7), Fraction(1, 10**6), True, DEFAULT_EXACT_CAP),
        (1 / Fraction("0.0401"), Fraction(1, 10**6), False, DEFAULT_EXACT_CAP),
    ]
    want = [
        greedy_select(prime_ratio_terms(odd, PrimeStream()), LogTarget(q), eps, exact_cap=cap)
        for q, eps, odd, cap in cases
    ]
    monkeypatch.setattr(subsum, "_RUN0", 1)
    monkeypatch.setattr(subsum, "_WINDOW", 4)
    for (q, eps, odd, cap), w in zip(cases, want):
        got = greedy_select(
            prime_ratio_terms(odd, PrimeStream()), LogTarget(q), eps, exact_cap=cap
        )
        assert got == w


def test_hopeless_targets_fail_fast(stream):
    # targets beyond the certified total budget under the ceiling return
    # capacity_exhausted immediately, without crawling the sieve
    import time

    for q, odd in [(Fraction(40), False), (Fraction(17), True)]:
        t0 = time.time()
        sel = greedy_select(
            prime_ratio_terms(odd, stream), LogTarget(q), Fraction(1, 1000)
        )
        assert sel.status == CAPACITY_EXHAUSTED
        assert sel.scanned == 0 and sel.count == 0
        assert time.time() - t0 < 1.0


nonincreasing_sources = st.sampled_from(
    [
        ("1/i", lambda i: Fraction(1, i)),
        ("1/(2i)", lambda i: Fraction(1, 2 * i)),
        ("3/(2i+5)", lambda i: Fraction(3, 2 * i + 5)),
    ]
)


@settings(max_examples=30)
@given(
    named=nonincreasing_sources,
    target=st.fractions(min_value=0, max_value=3),
)
def test_progress_guarantee(named, target):
    name, fn = named
    src = TermSource(
        fn,
        terms_tend_to_zero=True,
        series_diverges=True,
        nonincreasing=True,
        description=name,
    )
    sel = greedy_select(src, target, Fraction(1, 10**6))
    assert sel.status == CONVERGED
    assert target - sel.exact_sum < Fraction(1, 10**6)
    assert sel.exact_sum <= target


@pytest.mark.parametrize(
    "target", [Fraction(9, 4), Fraction(7, 3), Fraction(31, 10), Fraction(2, 7)]
)
def test_unbounded_budget_matches_bounded(target):
    # budget=None sends the skip-run bisection down its unbounded probe
    eps = Fraction(1, 10**6)
    free = greedy_select(harmonic(), target, eps, budget=None, record_trail=True)
    capped = greedy_select(harmonic(), target, eps, budget=10**7, record_trail=True)
    assert free.status == capped.status == CONVERGED
    assert any(step[0] == "skip_run" for step in free.trail)
    assert free.ranges == capped.ranges
    assert free.trail == capped.trail


# ---------------------------------------------------------------------------
# differential: the exact phase against a plain exact greedy


def _primes_upto(n):
    """A plain sieve, independent of PrimeStream."""
    flags = [True] * (n + 1)
    flags[0] = flags[1] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(range(p * p, n + 1, p))
    return [p for p in range(n + 1) if flags[p]]


@functools.cache
def _ref_primes():
    return _primes_upto(1 << 22)


def exact_greedy(q, eps, odd_only, budget, exact_cap):
    """The greedy's exact phase one prime at a time, in integers only.

    Every inclusion is decided by cross-multiplication; a skipped run ends
    at the smallest prime p with p/(p-1) <= Q/U, i.e. p >= r/(r - 1) for
    r = Q/U.  Convergence is the greedy's certified test: the 192-bit upper
    bound of ln(Q/U) below eps, skipped when ln r >= 2(r - 1)/(r + 1) >= eps
    already proves the deficit is at least eps.  Returns the Selection's
    fields, or the switch state when ``exact_cap`` inclusions are reached.
    """
    from autratio.fixedlog import PREC, ln_quotient_bounds

    primes = _ref_primes()[1:] if odd_only else _ref_primes()
    qn, qd = q.numerator, q.denominator
    un = ud = 1
    included, trail = [], []
    i, scanned, check = 1, 0, True
    while True:
        if check:
            gap = qn * ud - qd * un  # Q/U - 1 = gap / (qd * un)
            if gap == 0:
                status = CONVERGED
                break
            if 2 * gap * eps.denominator < eps.numerator * (qn * ud + qd * un):
                _, hi = ln_quotient_bounds(qn * ud, qd * un, PREC)
                if Fraction(hi, 1 << PREC) < eps:
                    status = CONVERGED
                    break
            check = False
        if budget is not None and i > budget:
            status = BUDGET_EXHAUSTED
            break
        if len(included) >= exact_cap:
            return {"switch": (un, ud, list(_ranges_from_indices(included)), trail, i, scanned)}
        p = primes[i - 1]
        scanned = i
        if un * p * qd <= ud * (p - 1) * qn:
            un, ud = un * p, ud * (p - 1)
            included.append(i)
            trail.append(("include", i, p))
            i, check = i + 1, True
            continue
        gap = qn * ud - qd * un
        first = -(-(qn * ud) // gap)  # ceil(r / (r - 1))
        j = bisect.bisect_left(primes, first) + 1
        assert j <= len(primes), "reference prime list too short"
        end = j - 1 if budget is None or j <= budget else budget
        scanned = max(scanned, end)
        trail.append(("skip_run", i, end))
        if end != j - 1:
            status = BUDGET_EXHAUSTED
            break
        i = j
    return {
        "ranges": _ranges_from_indices(included),
        "count": len(included),
        "scanned": scanned,
        "status": status,
        "exact_product": Fraction(un, ud),
        "trail": tuple(trail),
    }


_DIFF_CASES = [
    # unit targets near 0.04: Q = 1/a over all primes
    *[(1 / Fraction(a), Fraction(1, 10**6), False) for a in ("0.0401", "0.043")],
    # below-eps witnesses: Q = 3/e with log tolerance 1; at 1/15 the
    # deficit falls below it in the middle of an inclusion run
    *[(3 / Fraction(e), Fraction(1), False) for e in ("1/10", "1/15", "1/20")],
    # Q is the product over the first 1000 primes (7919 is the 1000th),
    # less a relative 1e-12: the 1000th prime misses by less than a float's
    # rounding, so only a sound margin stops the run before it
    (
        math.prod(Fraction(p, p - 1) for p in _primes_upto(7919)) * (1 - Fraction(1, 10**12)),
        Fraction(1, 10**6),
        False,
    ),
    # odd-only unit targets a/21 just above 1.5
    *[(21 / Fraction(a), Fraction(1, 10**5), True) for a in ("1.5001", "1.52")],
    # the same product less a relative 1e-16: the miss is below the table
    # model's accumulated width (1000 * 64 * 2**-60 = 5.6e-14), so only the
    # exact comparison stops the run
    (
        math.prod(Fraction(p, p - 1) for p in _primes_upto(7919)) * (1 - Fraction(1, 10**16)),
        Fraction(1, 10**6),
        False,
    ),
]


@functools.cache
def _exact_ratio(odd_only, ranges):
    """prod p/(p-1) over the selected source indices as a gcd-free pair;
    cached, since the runs past the cap of one case select alike."""
    from autratio.autorder import product_tree

    shift = 1 if odd_only else 0
    s = PrimeStream()
    ps = [p for lo, hi in ranges for p in s.primes_slice(lo + shift, hi + shift).tolist()]
    return product_tree(ps), product_tree([p - 1 for p in ps])


@pytest.mark.parametrize("q, eps, odd_only", _DIFF_CASES)
@pytest.mark.parametrize("exact_cap", [1, 50, 300, None])
def test_exact_phase_matches_plain_exact_greedy(q, eps, odd_only, exact_cap):
    from autratio import subsum
    from autratio.fixedlog import PREC, ln_quotient_bounds

    cap = DEFAULT_EXACT_CAP if exact_cap is None else exact_cap
    # a fresh stream, so that inclusion runs meet the sieve's extent
    src = prime_ratio_terms(odd_only, PrimeStream())
    got = greedy_select(src, LogTarget(q), eps, exact_cap=cap, record_trail=True)
    want = exact_greedy(q, eps, odd_only, subsum.DEFAULT_BUDGET, cap)
    if "switch" in want:
        # up to the cap the run is the plain exact greedy's
        _, _, runs, trail, i, _ = want["switch"]
        assert [(lo, min(hi, i - 1)) for lo, hi in got.ranges if lo < i] == runs
        assert got.trail[: len(trail)] == tuple(trail)
        # past it, the contract holds by exact re-multiplication
        assert got.status == CONVERGED and got.count > cap
        assert got.exact_product is None
        un, ud = _exact_ratio(odd_only, got.ranges)
        assert un * q.denominator <= ud * q.numerator
        if un * q.denominator != ud * q.numerator:
            _, hi = ln_quotient_bounds(q.numerator * ud, q.denominator * un, PREC)
            assert Fraction(hi, 1 << PREC) < eps
        t_lo, t_hi = ln_quotient_bounds(un, ud, 2 * PREC)
        lo, hi = got.achieved
        assert lo << PREC <= t_lo and t_hi <= hi << PREC
    else:
        assert {k: getattr(got, k) for k in want} == want
    untraced = greedy_select(
        prime_ratio_terms(odd_only, PrimeStream()), LogTarget(q), eps, exact_cap=cap
    )
    assert untraced.trail is None
    assert dataclasses.replace(untraced, trail=got.trail) == got


def test_exact_phase_budget_cut_matches_plain_exact_greedy():
    q, eps = 1 / Fraction("0.0401"), Fraction(1, 10**6)
    for budget in (700, 5000):
        got = greedy_select(
            prime_ratio_terms(False, PrimeStream()), LogTarget(q), eps,
            budget=budget, record_trail=True,
        )
        want = exact_greedy(q, eps, False, budget, DEFAULT_EXACT_CAP)
        assert got.status == BUDGET_EXHAUSTED
        assert {k: getattr(got, k) for k in want} == want


def test_stream_term_table_layout():
    import numpy as np

    from autratio.fixedlog import term_block_fp60
    from autratio.subsum import _LN2_FLOOR60

    s = PrimeStream()
    odd, every = prime_ratio_terms(True, s), prime_ratio_terms(False, s)
    assert not hasattr(s, "_term60_cache")  # made on first read
    odd.term60_array(5000)
    table = s._term60_cache
    # entry 0 is ln 2's floor, entry k - 1 the k-th prime's term for k >= 2
    assert table[0] == _LN2_FLOOR60
    assert (table[1:5001] == term_block_fp60(s.primes_slice(2, 5001))).all()
    for src, first in [(odd, 2), (every, 1)]:
        view = src.term60_array(3000)
        assert len(view) == 3000 and np.shares_memory(view, s._term60_cache)
        assert (view == s._term60_cache[first - 1 : first + 2999]).all()
    for src in (odd, every):
        for i in [1, 2, 255, 256, 257, 2999, 3000]:
            assert src.prime(i) == s.nth_prime(src.prime_index(i))


def test_product_state_encloses_ln_u(stream):
    # the scan keeps only the included runs and [lo, hi]; past the cap it
    # returns that pair, which must enclose ln U of U rebuilt from the runs
    from autratio.fixedlog import PREC, ln_quotient_bounds

    rng = random.Random(77)
    n_past = 0
    for odd_only in (False, True):
        src = prime_ratio_terms(odd_only, stream)
        for _ in range(20):
            q = Fraction(rng.randint(101, 600), 100)
            eps = Fraction(1, 10 ** rng.randint(2, 4))
            sel = greedy_select(src, LogTarget(q), eps, exact_cap=rng.choice([0, 3, 40]))
            if sel.exact_product is not None:
                continue
            lo, hi = sel.achieved
            assert type(lo) is int and type(hi) is int
            ps = [src.prime(k) for k in sel.indices()]
            t_lo, t_hi = ln_quotient_bounds(math.prod(ps), math.prod(p - 1 for p in ps), PREC)
            assert lo <= t_lo and t_hi <= hi
            n_past += 1
    assert n_past >= 20


def test_term60_cache_grows_in_place():
    from autratio.fixedlog import term_block_fp60

    s = PrimeStream()
    src = prime_ratio_terms(True, s)
    head = src.term60_array(1000).copy()
    s.extend_to(10**6)
    grown = src.term60_array(70_000)
    assert (grown[:1000] == head).all()
    assert (grown == term_block_fp60(s.primes_slice(2, 70_001))).all()
