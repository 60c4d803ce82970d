import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autratio.primes import PrimeStream
from autratio.subsum import (
    BUDGET_EXHAUSTED,
    CAPACITY_EXHAUSTED,
    CONVERGED,
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
    assert sel.achieved.abs_error == 0
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
    assert mixed.achieved.lo <= Fraction(hi_t, 1 << PREC)
    assert mixed.achieved.hi >= Fraction(lo_t, 1 << PREC)
    # the fully exact run of the same instance obeys the same contract
    exact = greedy_select(src, LogTarget(q), eps, exact_cap=10**6)
    assert exact.status == CONVERGED and exact.exact_product is not None
    assert exact.exact_product <= q
    _, hi2 = ln_fraction_bounds(q / exact.exact_product, PREC)
    assert Fraction(hi2, 1 << PREC) < eps


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


def test_windowed_fixed_point_scan_matches_one_pass():
    # the windowed scan must pick the same prefix and first fitting index as
    # one cumulative sum over the whole array
    import numpy as np

    from autratio.subsum import _C, _WINDOW, _first_at_most, _fitting_prefix

    rng = np.random.default_rng(5)
    terms = np.sort(rng.integers(0, 2**40, 3 * _WINDOW + 123))[::-1].copy()
    adj = np.cumsum(terms) + _C * np.arange(1, len(terms) + 1)
    for k in [0, 1, _WINDOW - 1, _WINDOW, 2 * _WINDOW + 7, len(terms) - 1]:
        for room in [int(adj[k]) - 1, int(adj[k]), int(adj[-1]) + 2**62]:
            take = int(np.searchsorted(adj, min(room, int(adj[-1])), side="right"))
            used = int(adj[take - 1]) if take else 0
            assert _fitting_prefix(terms, room) == (take, used)
        for bound in [int(terms[k]), int(terms[k]) - 1]:
            want = int(np.searchsorted(-terms, -bound, side="left"))
            assert _first_at_most(terms, bound) == want
    assert _first_at_most(terms, -1) == len(terms)


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
