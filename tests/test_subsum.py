import bisect
import functools
import math
import random
from array import array
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autratio import subsum
from autratio.primes import PrimeStream
from autratio.subsum import (
    CAPACITY_EXHAUSTED,
    CONVERGED,
    DEFAULT_CAPACITY,
    EXACT_CAP,
    LogTarget,
    PrimeRatioSource,
    TermSource,
    greedy_select,
)
from selections import indices, runs_of, trail


def harmonic(capacity=DEFAULT_CAPACITY):
    return TermSource(lambda i: Fraction(1, i), capacity=capacity)


def test_target_zero_converges_empty():
    sel = greedy_select(harmonic(), 0, Fraction(1, 10**6))
    assert sel.status == CONVERGED
    assert sel.count == 0 and sel.ranges == ()
    assert sel.exact_sum == 0


def test_harmonic_exact_hit():
    sel = greedy_select(harmonic(), Fraction(3, 2), Fraction(1, 10**6))
    assert sel.status == CONVERGED
    assert indices(sel) == [1, 2]
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
    # ln 2 is the C2 factor's, so over the odd primes it leaves ln 1: the
    # empty selection, exactly
    src = PrimeRatioSource(stream)
    sel = greedy_select(src, LogTarget(Fraction(1)), Fraction(1, 10**9))
    assert sel.status == CONVERGED
    assert sel.ranges == () and sel.exact_product == 1
    sel = greedy_select(src, LogTarget(Fraction(3, 2)), Fraction(1, 10**9))
    assert sel.status == CONVERGED
    assert indices(sel) == [1]
    assert sel.exact_product == Fraction(3, 2)  # selected sum is exactly ln(3/2)


def test_odd_only_index_shift(stream):
    src = PrimeRatioSource(stream)
    assert src.prime(1) == 3 and src.prime(2) == 5 and src.prime(3) == 7
    with pytest.raises(ValueError):
        src.prime(0)


def test_eps_validation():
    with pytest.raises(ValueError):
        greedy_select(harmonic(), 1, 0)
    with pytest.raises(ValueError):
        greedy_select(harmonic(), 1, Fraction(-1, 2))
    with pytest.raises(ValueError):
        greedy_select(harmonic(), -1, Fraction(1, 2))


def test_target_type_dispatch(stream):
    with pytest.raises(TypeError):
        greedy_select(PrimeRatioSource(stream), Fraction(1), Fraction(1, 10))
    with pytest.raises(TypeError):
        greedy_select(harmonic(), LogTarget(Fraction(2)), Fraction(1, 10))


def check_trail_invariants(sel, source, target):
    """Per-step contract: running sum never exceeds the target, and every
    skipped term was larger than the deficit at that moment."""
    running = Fraction(0)
    for entry in trail(sel, source):
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
        sel = greedy_select(harmonic(), t, Fraction(1, 10**6))
        assert sel.status == CONVERGED
        check_trail_invariants(sel, harmonic(), t)
        assert t - sel.exact_sum < Fraction(1, 10**6)
        assert sel.exact_sum <= t


def test_determinism(stream):
    a = greedy_select(harmonic(), Fraction(9, 4), Fraction(1, 10**6))
    b = greedy_select(harmonic(), Fraction(9, 4), Fraction(1, 10**6))
    assert a == b
    s1 = greedy_select(
        PrimeRatioSource(stream), LogTarget(Fraction(7, 4)), Fraction(1, 10**4)
    )
    s2 = greedy_select(
        PrimeRatioSource(stream), LogTarget(Fraction(7, 4)), Fraction(1, 10**4)
    )
    assert s1.ranges == s2.ranges and s1.status == s2.status == CONVERGED


def test_budget_exhaustion():
    # terms 1/(i+10) limited to 3 scanned terms: the deficit cannot fall
    # below eps, and the scan stops at the declared capacity
    src = TermSource(lambda i: Fraction(1, i + 10), capacity=3)
    sel = greedy_select(src, 2, Fraction(1, 10**9))
    assert sel.status == CAPACITY_EXHAUSTED
    assert sel.scanned <= 3
    assert sel.exact_sum == sum(Fraction(1, i + 10) for i in range(1, 4))


def test_capacity_exhaustion_declared_capacity():
    src = harmonic(capacity=5)
    sel = greedy_select(src, 10, Fraction(1, 10**6))
    assert sel.status == CAPACITY_EXHAUSTED
    assert sel.scanned <= 5
    assert sel.exact_sum == sum(Fraction(1, i) for i in range(1, 6))


def test_capacity_zero_reads_no_term():
    sel = greedy_select(harmonic(capacity=0), 1, Fraction(1, 10**6))
    assert sel.status == CAPACITY_EXHAUSTED
    assert sel.scanned == 0 and sel.count == 0 and sel.exact_sum == 0
    # a target already met converges before the capacity is consulted
    assert greedy_select(harmonic(capacity=0), 0, Fraction(1, 10**6)).status == CONVERGED


def test_capacity_at_the_last_fitting_index():
    # target 2.088 on 1/i: 1 + 1/2 + 1/3 + 1/4 leaves 7/1500, which first
    # fits 1/215; after it 1/64500 is left, above eps.  A capacity of 215
    # ends the skip run's bisection on the fitting index itself, so the
    # run includes it and then stops; at 214 the skip runs to the capacity
    t, eps = Fraction(2088, 1000), Fraction(1, 10**6)
    sel = greedy_select(harmonic(capacity=215), t, eps)
    assert sel.status == CAPACITY_EXHAUSTED
    assert sel.ranges == ((1, 4), (215, 215)) and sel.scanned == 215
    assert t - sel.exact_sum == Fraction(1, 64500)
    assert trail(sel, harmonic(capacity=215))[-2][:3] == ("skip_run", 5, 214)
    check_trail_invariants(sel, harmonic(capacity=215), t)
    sel = greedy_select(harmonic(capacity=214), t, eps)
    assert sel.status == CAPACITY_EXHAUSTED
    assert sel.ranges == ((1, 4),) and sel.scanned == 214
    full = greedy_select(harmonic(), t, eps)
    assert full.status == CONVERGED and full.ranges[:2] == ((1, 4), (215, 215))


def test_capacity_exhaustion_prime_ceiling():
    tiny = PrimeStream(ceiling=1000)
    src = PrimeRatioSource(tiny)
    # needs U > 10, i.e. log-sum ln 10, far beyond odd primes <= 1000
    sel = greedy_select(src, LogTarget(Fraction(10)), Fraction(1, 100))
    assert sel.status == CAPACITY_EXHAUSTED
    assert sel.exact_product < 10


@pytest.mark.parametrize("ceiling, k", [(1000, 167), (200, 45)])
def test_every_odd_prime_under_the_ceiling_fits(ceiling, k):
    # Q is 1 % above the product over all k odd primes under the ceiling, so
    # the scan includes each of them and stops after the last sieved index.
    # At 1000 the Mertens bound leaves the target possible; below 285 there
    # is no bound to consult
    assert (subsum._ceiling_upper_bound(ceiling) is None) == (ceiling < 285)
    q = math.prod(Fraction(p, p - 1) for p in _primes_upto(ceiling)[1:]) * Fraction(101, 100)
    src = PrimeRatioSource(PrimeStream(ceiling=ceiling))
    sel = greedy_select(src, LogTarget(q), Fraction(1, 1000))
    assert sel.status == CAPACITY_EXHAUSTED
    assert sel.ranges == ((1, k),) and sel.scanned == k


def test_exact_cap_switches_to_fixed_point(stream, monkeypatch):
    # force an early switch into the certified fixed-point continuation,
    # then re-multiply the returned selection exactly and check the full
    # contract against it
    from autratio.fixedlog import PREC, ln_fraction_bounds

    src = PrimeRatioSource(stream)
    q = Fraction(27, 20)
    eps = Fraction(1, 10**5)
    monkeypatch.setattr(subsum, "EXACT_CAP", 3)
    mixed = greedy_select(src, LogTarget(q), eps)
    assert mixed.status == CONVERGED
    assert mixed.exact_product is None  # no longer a fully exact run
    assert mixed.count > 3
    recomputed = Fraction(1)
    for i in indices(mixed):
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
    monkeypatch.setattr(subsum, "EXACT_CAP", 10**6)
    exact = greedy_select(src, LogTarget(q), eps)
    assert exact.status == CONVERGED and exact.exact_product is not None
    assert exact.exact_product <= q
    _, hi2 = ln_fraction_bounds(q / exact.exact_product, PREC)
    assert Fraction(hi2, 1 << PREC) < eps


@pytest.mark.parametrize(
    "q, exact_cap, status",
    [
        (Fraction(27, 20), EXACT_CAP, "exact"),
        (Fraction(27, 20), 3, "continuation"),
        (Fraction(20), EXACT_CAP, CAPACITY_EXHAUSTED),  # fail-fast
    ],
)
def test_log_ratio_achieved_is_an_integer_enclosure(stream, monkeypatch, q, exact_cap, status):
    # achieved is (lo, hi) with the selected sum in [lo, hi] * 2**-PREC,
    # checked against an enclosure of the re-multiplied product at 2 * PREC
    from autratio.fixedlog import PREC, ln_fraction_bounds

    src = PrimeRatioSource(stream)
    monkeypatch.setattr(subsum, "EXACT_CAP", exact_cap)
    sel = greedy_select(src, LogTarget(q), Fraction(1, 10**5))
    if status == CAPACITY_EXHAUSTED:
        assert sel.status == status and sel.scanned == 0
    else:
        assert sel.status == CONVERGED
        assert (sel.exact_product is not None) == (status == "exact")
    lo, hi = sel.achieved
    assert type(lo) is int and type(hi) is int and lo <= hi
    product = math.prod(Fraction(p, p - 1) for p in map(src.prime, indices(sel)))
    t_lo, t_hi = ln_fraction_bounds(product, 2 * PREC)
    assert lo << PREC <= t_hi and t_lo <= hi << PREC


def test_exact_hit_at_the_cap_converges_on_the_product(monkeypatch):
    # Q is the product over the first ten odd primes and eps one unit of
    # the term table, so only U itself proves convergence after the tenth
    # inclusion: the cap-th inclusion's convergence test is still exact
    q = math.prod(Fraction(p, p - 1) for p in _primes_upto(31)[1:])
    src = PrimeRatioSource(PrimeStream(ceiling=10**5))
    monkeypatch.setattr(subsum, "EXACT_CAP", 10)
    sel = greedy_select(src, LogTarget(q), Fraction(1, 2**60))
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


def test_mixed_phase_random_differential(stream, monkeypatch):
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
        if rng.random() >= 0.5 and q >= 2:
            q /= 2  # a former all-primes case: the C2 factor takes ln 2
        src = PrimeRatioSource(stream)
        monkeypatch.setattr(subsum, "EXACT_CAP", cap)
        sel = greedy_select(src, LogTarget(q), eps)
        assert sel.status == CONVERGED, (q, eps, cap)
        if sel.exact_product is None:
            n_mixed += 1
        if sel.count > 120_000:
            continue  # exact recheck gets expensive; smaller cases cover it
        ps = [src.prime(i) for i in indices(sel)]
        un, ud = tree_prod(ps), tree_prod([p - 1 for p in ps])
        assert un * q.denominator <= ud * q.numerator  # one-sided, exactly
        if un * q.denominator != ud * q.numerator:
            _, hi = ln_fraction_bounds(
                Fraction(q.numerator * ud, q.denominator * un), PREC
            )
            assert Fraction(hi, 1 << PREC) < eps, (q, eps, cap)
    assert n_mixed >= 25  # the cap choices really exercised the switch


def one_term_at_a_time(terms, room, eps60):
    """The run a term-by-term pass includes from the front of ``terms``:
    its length n and the sum of its terms plus n * _C."""
    from autratio.subsum import _C

    n = used = 0
    for t in terms:
        if used + t + _C > room:
            break
        n, used = n + 1, used + t + _C
        if used > room - eps60:
            break  # the deficit may be below eps after this term
    return n, used


def bisected_run(sum60, i, limit, room, eps60):
    """``_certain_run`` from index i, over the running sums ``sum60``, as
    the pair ``one_term_at_a_time`` gives."""
    from autratio.subsum import _C, _certain_run

    end = _certain_run(sum60, i, limit, room, eps60)
    n = end - i + 1
    return n, sum60(end) - sum60(i - 1) + n * _C


def test_windowed_fixed_point_scan_matches_one_pass(monkeypatch):
    # one include run must be the one a term-by-term pass takes, up to rooms
    # past the int64 range, and the table's growth step must not move any
    # selection
    from autratio.subsum import _C

    rng = random.Random(5)
    terms = sorted((rng.randrange(2**40) for _ in range(300)), reverse=True)
    sums = [0, *accumulate(terms)]
    adj = [t + k * _C for k, t in enumerate(sums)]  # adj[k]: T_k from index 1

    for i in [1, 2, 150, len(terms)]:
        for k in [1, 150, len(terms)]:
            for room in [adj[k] - 1, adj[k], adj[-1] + 2**66]:
                for eps60 in [0, 1, terms[k - 1], adj[-1] + 2**65]:
                    want = one_term_at_a_time(terms[i - 1 :], room, eps60)
                    assert bisected_run(sums.__getitem__, i, len(terms), room, eps60) == want
    assert bisected_run(sums.__getitem__, 1, len(terms), -(2**70), 0) == (0, 0)

    cases = [
        (Fraction(27, 20), Fraction(1, 10**5), 5),
        (Fraction(20, 7), Fraction(1, 10**6), EXACT_CAP),
        (1 / Fraction("0.0802"), Fraction(1, 10**6), EXACT_CAP),
    ]
    want = []
    for q, eps, cap in cases:
        monkeypatch.setattr(subsum, "EXACT_CAP", cap)
        want.append(greedy_select(PrimeRatioSource(PrimeStream()), LogTarget(q), eps))
    monkeypatch.setattr(subsum, "_GROW", 7)
    for (q, eps, cap), w in zip(cases, want):
        monkeypatch.setattr(subsum, "EXACT_CAP", cap)
        got = greedy_select(PrimeRatioSource(PrimeStream()), LogTarget(q), eps)
        assert got == w


@pytest.mark.parametrize("eps60", [1, 40])
def test_refusal_fires_where_the_run_enters_the_error_zone(monkeypatch, eps60):
    # past EXACT_CAP, with eps60 <= TERM_ERR60 = C (eps <= 2**-54), a run may
    # leave the certain deficit q_lo - hi in [eps60, C], where the refusal
    # check fires.  The one bisection over [i, sieve limit] ends the run at
    # that term, since the next term exceeds C and cannot fit, so the check
    # runs before any later read: the refusal reports q_hi - lo over exactly
    # the first n terms.
    from autratio.autorder import product_tree
    from autratio.errors import PrecisionRefusal
    from autratio.fixedlog import TERM_ERR60 as C
    from autratio.fixedlog import ln_quotient_bounds

    s = PrimeStream(ceiling=10**5)
    src = PrimeRatioSource(s)
    n = 100
    ps = s.primes_list(2, n + 1)
    floor_sum = src.sum60(n)
    un, ud = product_tree(ps), product_tree([p - 1 for p in ps])
    # Q = U (1 + delta), with delta stepped a unit at a time until q_lo lies
    # in [eps60, C] above hi
    start = floor_sum + n * C - ln_quotient_bounds(un, ud, 60)[0]
    for d in range(start - 1000, start + 1000):
        q = Fraction(un, ud) * (1 + Fraction(d, 1 << 60))
        q_lo, q_hi = ln_quotient_bounds(q.numerator, q.denominator, 60)
        if eps60 <= q_lo - (floor_sum + n * C) <= C:
            break
    assert eps60 <= q_lo - (floor_sum + n * C) <= C
    eps = Fraction(eps60, 1 << 60)
    with pytest.raises(PrecisionRefusal, match="accumulated fixed-point error") as info:
        monkeypatch.setattr(subsum, "EXACT_CAP", 0)
        greedy_select(src, LogTarget(q), eps)
    assert f"<= {float(Fraction(q_hi - floor_sum, 1 << 60)):.3e})" in str(info.value)
    # with the run inside EXACT_CAP, U decides instead, and nothing more fits
    monkeypatch.setattr(subsum, "EXACT_CAP", n + 1)
    sel = greedy_select(src, LogTarget(q), eps)
    assert sel.status == CAPACITY_EXHAUSTED and sel.ranges == ((1, n),)


def test_hopeless_targets_fail_fast(stream):
    # targets beyond the certified total budget under the ceiling return
    # capacity_exhausted immediately, without crawling the sieve
    import time

    for q in [Fraction(20), Fraction(17)]:
        t0 = time.time()
        sel = greedy_select(PrimeRatioSource(stream), LogTarget(q), Fraction(1, 1000))
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
    _, fn = named
    src = TermSource(fn)
    sel = greedy_select(src, target, Fraction(1, 10**6))
    assert sel.status == CONVERGED
    assert target - sel.exact_sum < Fraction(1, 10**6)
    assert sel.exact_sum <= target


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


def exact_greedy(q, eps, limit, exact_cap):
    """The greedy's exact phase one odd prime at a time, in integers only.

    Every inclusion is decided by cross-multiplication; a skipped run ends
    at the smallest prime p with p/(p-1) <= Q/U, i.e. p >= r/(r - 1) for
    r = Q/U.  Convergence is the greedy's certified test: the 192-bit upper
    bound of ln(Q/U) below eps, skipped when ln r >= 2(r - 1)/(r + 1) >= eps
    already proves the deficit is at least eps.  The scan reads no source
    index past ``limit`` (None for none), as a sieve ceiling cuts it.
    Returns the Selection's fields, or the switch state when ``exact_cap``
    inclusions are reached.
    """
    from autratio.fixedlog import PREC, ln_quotient_bounds

    primes = _ref_primes()[1:]
    qn, qd = q.numerator, q.denominator
    un = ud = 1
    included, steps = [], []
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
        if limit is not None and i > limit:
            status = CAPACITY_EXHAUSTED
            break
        if len(included) >= exact_cap:
            return {"switch": (un, ud, list(runs_of(included)), steps, i, scanned)}
        p = primes[i - 1]
        scanned = i
        if un * p * qd <= ud * (p - 1) * qn:
            un, ud = un * p, ud * (p - 1)
            included.append(i)
            steps.append(("include", i, p))
            i, check = i + 1, True
            continue
        gap = qn * ud - qd * un
        first = -(-(qn * ud) // gap)  # ceil(r / (r - 1))
        j = bisect.bisect_left(primes, first) + 1
        assert j <= len(primes), "reference prime list too short"
        end = j - 1 if limit is None or j <= limit else limit
        scanned = max(scanned, end)
        steps.append(("skip_run", i, end))
        if end != j - 1:
            status = CAPACITY_EXHAUSTED
            break
        i = j
    return {
        "ranges": runs_of(included),
        "count": len(included),
        "scanned": scanned,
        "status": status,
        "exact_product": Fraction(un, ud),
        "trail": tuple(steps),
    }


def fields(sel, source, keys):
    """The named fields of ``sel``, with "trail" replayed from its ranges."""
    return {k: trail(sel, source) if k == "trail" else getattr(sel, k) for k in keys}


# (Q, eps, ray): ``ray`` marks the odd part of a ray target a > 1, Q = b/a
# with b = 21; the other cases are targets at most 1/2, whose C2 factor
# takes ln 2, so Q is half the former all-primes target
_DIFF_CASES = [
    # unit targets near 0.04: Q = 1/(2a)
    *[(1 / (2 * Fraction(a)), Fraction(1, 10**6), False) for a in ("0.0401", "0.043")],
    # below-eps witnesses: Q = 3b/e = 3/(2e) with log tolerance 1; at 1/15
    # the deficit falls below it in the middle of an inclusion run
    *[(3 / (2 * Fraction(e)), Fraction(1), False) for e in ("1/10", "1/15", "1/20")],
    # Q is the product over the first 999 odd primes (7919 is the 999th),
    # less a relative 1e-12: the 999th misses by less than a float's
    # rounding, so only a sound margin stops the run before it
    (
        math.prod(Fraction(p, p - 1) for p in _primes_upto(7919)[1:]) * (1 - Fraction(1, 10**12)),
        Fraction(1, 10**6),
        False,
    ),
    # ray targets a just above 1.5: Q = 21/a
    *[(21 / Fraction(a), Fraction(1, 10**5), True) for a in ("1.5001", "1.52")],
    # the same product less a relative 1e-16: the miss is below the table
    # model's accumulated width (999 * 64 * 2**-60 = 5.5e-14), so only the
    # exact comparison stops the run
    (
        math.prod(Fraction(p, p - 1) for p in _primes_upto(7919)[1:]) * (1 - Fraction(1, 10**16)),
        Fraction(1, 10**6),
        False,
    ),
]


@functools.cache
def _exact_ratio(ranges):
    """prod p/(p-1) over the selected source indices as a gcd-free pair;
    cached, since the runs past the cap of one case select alike."""
    from autratio.autorder import product_tree

    s = PrimeStream()
    ps = [p for lo, hi in ranges for p in s.primes_list(lo + 1, hi + 1)]
    return product_tree(ps), product_tree([p - 1 for p in ps])


@pytest.mark.parametrize("q, eps, ray", _DIFF_CASES)
@pytest.mark.parametrize("exact_cap", [1, 50, 300, None])
def test_exact_phase_matches_plain_exact_greedy(monkeypatch, q, eps, ray, exact_cap):
    from autratio.fixedlog import PREC, ln_quotient_bounds

    cap = EXACT_CAP if exact_cap is None else exact_cap
    monkeypatch.setattr(subsum, "EXACT_CAP", cap)
    # a fresh stream, so that inclusion runs meet the sieve's extent
    src = PrimeRatioSource(PrimeStream())
    got = greedy_select(src, LogTarget(q), eps)
    want = exact_greedy(q, eps, None, cap)
    if "switch" in want:
        # up to the cap the run is the plain exact greedy's
        _, _, runs, want_trail, i, _ = want["switch"]
        assert [(lo, min(hi, i - 1)) for lo, hi in got.ranges if lo < i] == runs
        assert trail(got, src)[: len(want_trail)] == tuple(want_trail)
        # past it, the contract holds by exact re-multiplication
        assert got.status == CONVERGED and got.count > cap
        assert got.exact_product is None
        un, ud = _exact_ratio(got.ranges)
        assert un * q.denominator <= ud * q.numerator
        if un * q.denominator != ud * q.numerator:
            _, hi = ln_quotient_bounds(q.numerator * ud, q.denominator * un, PREC)
            assert Fraction(hi, 1 << PREC) < eps
        t_lo, t_hi = ln_quotient_bounds(un, ud, 2 * PREC)
        lo, hi = got.achieved
        assert lo << PREC <= t_lo and t_hi <= hi << PREC
    else:
        assert fields(got, src, want) == want
    again = greedy_select(PrimeRatioSource(PrimeStream()), LogTarget(q), eps)
    assert again == got


def test_exact_phase_ceiling_cut_matches_plain_exact_greedy():
    # a ceiling at p_701 = 5281 (p_5001 = 48619) leaves source indices up to
    # 700 (5000); ln 6 is under the fail-fast bound there, so the scan runs
    # to the ceiling and stops as the plain greedy cut at that index does
    q, eps = Fraction(6), Fraction(1, 10**7)
    for ceiling, limit in ((5281, 700), (48619, 5000)):
        src = PrimeRatioSource(PrimeStream(ceiling=ceiling))
        got = greedy_select(src, LogTarget(q), eps)
        want = exact_greedy(q, eps, limit, EXACT_CAP)
        assert got.status == CAPACITY_EXHAUSTED and got.scanned == limit
        assert fields(got, src, want) == want


@pytest.mark.parametrize(
    "q, eps, ceiling, kind",
    [
        (Fraction(27, 20), Fraction(1, 10**5), None, "exact"),
        # the odd part of ray target 1.52, Q = 21/a: 378,351 inclusions
        (21 / Fraction("1.52"), Fraction(1, 10**5), None, "past-cap"),
        (3 / (2 * Fraction(1, 15)), Fraction(1), None, "below-eps"),
        (Fraction(6), Fraction(1, 10**7), 5281, CAPACITY_EXHAUSTED),
    ],
    ids=["exact", "past-cap-ray-1.52", "below-eps", "ceiling-cut"],
)
def test_selection_does_not_depend_on_a_presieved_stream(q, eps, ceiling, kind):
    # a new stream holds only 2 and grows as the scan reads; one sieved to
    # 2^16 first gives the same Selection, every field
    ahead = PrimeStream(ceiling)
    ahead.extend_to(1 << 16)
    sels = [
        greedy_select(PrimeRatioSource(s), LogTarget(q), eps)
        for s in (PrimeStream(ceiling), ahead)
    ]
    assert sels[0] == sels[1]
    sel = sels[0]
    assert sel.status == (CAPACITY_EXHAUSTED if kind == CAPACITY_EXHAUSTED else CONVERGED)
    assert (sel.exact_product is None) == (kind == "past-cap")
    assert (sel.count > EXACT_CAP) == (kind == "past-cap")


def test_stream_term_table_layout():
    from autratio.fixedlog import term_block_fp60

    s = PrimeStream()
    src = PrimeRatioSource(s)
    assert not hasattr(s, "_term60_sums")  # made on first read
    total = src.sum60(5000)
    table = s._term60_sums
    assert isinstance(table, array) and table.typecode == "q" and len(table) == 5001
    # entry j sums the terms of the first j odd primes, p_2..p_(j+1)
    terms = term_block_fp60(s.primes_list(2, 5001))
    assert table.tolist() == [0, *accumulate(terms)] and total == table[-1]
    assert [src.term60(j) for j in range(1, 5001)] == terms
    for i in [1, 2, 255, 256, 257, 2999, 3000]:
        assert src.prime(i) == s.nth_prime(i + 1)


def test_product_state_encloses_ln_u(stream, monkeypatch):
    # the scan keeps only the included runs and [lo, hi]; past the cap it
    # returns that pair, which must enclose ln U of U rebuilt from the runs
    from autratio.fixedlog import PREC, ln_quotient_bounds

    rng = random.Random(77)
    n_past = 0
    src = PrimeRatioSource(stream)
    for halve in (True, False):
        for _ in range(20):
            q = Fraction(rng.randint(101, 600), 100)
            if halve and q >= 2:
                q /= 2  # a former all-primes case: the C2 factor takes ln 2
            eps = Fraction(1, 10 ** rng.randint(2, 4))
            monkeypatch.setattr(subsum, "EXACT_CAP", rng.choice([0, 3, 40]))
            sel = greedy_select(src, LogTarget(q), eps)
            if sel.exact_product is not None:
                continue
            lo, hi = sel.achieved
            assert type(lo) is int and type(hi) is int
            ps = [src.prime(k) for k in indices(sel)]
            t_lo, t_hi = ln_quotient_bounds(math.prod(ps), math.prod(p - 1 for p in ps), PREC)
            assert lo <= t_lo and t_hi <= hi
            n_past += 1
    assert n_past >= 20


def test_term60_cache_grows_in_place():
    # past the sieve's first window and by more than one growth step, the
    # table stays one array, grown in place
    from autratio.fixedlog import term_block_fp60

    s = PrimeStream()
    src = PrimeRatioSource(s)
    src.sum60(1000)
    table = s._term60_sums
    head = table.tolist()
    s.extend_to(10**6)
    assert 70_000 > subsum._GROW
    src.sum60(70_000)
    assert s._term60_sums is table and len(table) == 70_001
    assert table[:1001].tolist() == head
    assert table.tolist() == [0, *accumulate(term_block_fp60(s.primes_list(2, 70_001)))]


def test_bisected_run_matches_one_term_at_a_time():
    # _certain_run's one bisection against the term-by-term pass, on windows
    # of 1..300 terms: slices of the real table and synthetic nonincreasing
    # terms, with rooms below the first term, rooms below eps60, eps60 = 0,
    # and rooms past the window's total
    from autratio.subsum import _C

    rng = random.Random(20)
    src = PrimeRatioSource(PrimeStream())
    real = [src.term60(j) for j in range(1, 6001)]
    kinds = set()
    for trial in range(6000):
        n = rng.randint(1, 300)
        if trial % 2:
            start = rng.randint(1, len(real) - n + 1)
            terms = real[start - 1 : start - 1 + n]
            sum60 = src.sum60
        else:
            start = rng.randint(1, 40)
            terms = sorted((rng.randrange(1 << rng.randint(1, 52)) for _ in range(n)), reverse=True)
            sums = [0, *accumulate([rng.randrange(1 << 52) for _ in range(start - 1)] + terms)]
            sum60 = sums.__getitem__
        total = sum(terms) + n * _C
        room = rng.choice([
            terms[0] + _C - rng.randrange(1, 1 << rng.randint(1, 62)),  # below the first term
            rng.randrange(terms[0] + _C, total + 1),
            total + rng.randrange(1 << 62),  # past the window's total
        ])
        eps60 = rng.choice([0, 1, rng.randrange(1 << 61), room + rng.randrange(1, 1 << 40)])
        kinds.add((room < terms[0] + _C, room < eps60, eps60 == 0, room > total))
        want = one_term_at_a_time(terms, room, eps60)
        got = bisected_run(sum60, start, start + n - 1, room, eps60)
        assert got == want, (terms, room, eps60)
    for k in range(4):
        assert {kind[k] for kind in kinds} == {True, False}


def test_first_window_table_grows_to_what_is_read():
    s = PrimeStream()
    src = PrimeRatioSource(s)
    assert src.sum60(164) - src.sum60(100) == sum(src.term60(j) for j in range(101, 165))
    assert len(s._term60_sums) == 165
    # a probe past the table computes its term alone and leaves the table
    t = src.term60(3000)
    assert len(s._term60_sums) == 165
    assert src.sum60(3000) - src.sum60(2999) == t == src.term60(3000)
    assert len(s._term60_sums) == 3001
    # a greedy reads the sums no further than twice past what it scans
    s = PrimeStream()
    s.extend_to(1 << 16)
    sel = greedy_select(PrimeRatioSource(s), LogTarget(Fraction(3)), Fraction(1, 1000))
    assert sel.status == CONVERGED and sel.scanned < s.count // 4
    assert len(s._term60_sums) <= 2 * sel.scanned + 2


def test_first_window_table_grows_safely_under_threads():
    # threads read running sums, single terms and atanh checkpoints of one
    # fresh stream at once; a lost check-then-extend would write a run of
    # entries twice
    import sys
    import threading

    from autratio import autorder
    from autratio.fixedlog import term_block_atanh60, term_block_fp60

    primes = PrimeStream().primes_list(2, 6001)
    terms = term_block_fp60(primes)
    ref = [0, *accumulate(terms)]
    k = autorder._CHECKPOINT
    per_prime = [term_block_atanh60([p]) for p in primes]  # indices 2..6001
    checkpoints = [(0, 0)] + [
        tuple(map(sum, zip(*per_prime[: c * k - 1]))) for c in range(1, 6001 // k + 1)
    ]
    wrong = []

    def worker(seed, src):
        rng = random.Random(seed)
        for _ in range(200):
            j = rng.randint(0, 6000)
            if src.sum60(j) != ref[j]:
                wrong.append((seed, "sum", j))
            j = rng.randint(1, 6000)
            if src.term60(j) != terms[j - 1]:
                wrong.append((seed, "term", j))
            c = rng.randrange(len(checkpoints))
            got = autorder._atanh_checkpoints(src.stream, c)[2 * c : 2 * c + 2]
            if tuple(got) != checkpoints[c]:
                wrong.append((seed, "checkpoint", c))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):  # each round grows both tables from empty
            s = PrimeStream()
            src = PrimeRatioSource(s)
            threads = [threading.Thread(target=worker, args=(n, src)) for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert isinstance(s._term60_sums, array)
            assert s._term60_sums.tolist() == ref[: len(s._term60_sums)]
            got = s._atanh60_sums.tolist()
            assert list(zip(got[::2], got[1::2])) == checkpoints[: len(got) // 2]
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
