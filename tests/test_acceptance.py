"""Acceptance suite: one test per criterion, each printing a pass line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Every tolerance is pinned here, not configured elsewhere.
"""

import random
import time
from fractions import Fraction

from autratio.approximate import approx_ray, verify_certificate
from autratio.autorder import aut_order, f_exact, two_rank_ratio
from autratio.groups import cyclic, format_group, order, parse_group
from autratio.oracle import OracleCaps, aut_order_bruteforce
from autratio.search import (
    SearchBounds,
    build_f_table,
    enumerate_groups,
    find_exact,
)
from autratio.subsum import CONVERGED, TermSource, greedy_select
from selections import trail

ACCEPT_CAPS = OracleCaps(order_cap=200, work_cap=10**12)


def _ok(name: str, detail: str = "") -> None:
    print(f"[PASS] {name}" + (f": {detail}" if detail else ""))


def test_criterion_1_formula_vs_oracle(stream):
    t0 = time.time()
    checked = 0
    for g in enumerate_groups(SearchBounds(max_order=96)):
        if g.rank > 5:
            continue
        assert aut_order(g) == aut_order_bruteforce(g, ACCEPT_CAPS), format_group(g)
        checked += 1
    dt = time.time() - t0
    assert dt <= 600
    _ok(
        "criterion 1 (formula equals brute-force oracle)",
        f"{checked} groups of order <= 96, rank <= 5, in {dt:.1f}s",
    )


def _trial_phi(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def test_criterion_2_cyclic_consistency():
    t0 = time.time()
    for n in range(1, 10_001):
        assert aut_order(cyclic(n)) == _trial_phi(n), n
    _ok(
        "criterion 2 (|Aut(C_n)| = phi(n) for n <= 10^4)",
        f"in {time.time()-t0:.1f}s",
    )


def test_criterion_3_pinned_ratio_values(stream):
    assert f_exact(parse_group("C2")) == Fraction(1, 2)
    assert f_exact(parse_group("C2^2")) == Fraction(3, 2)
    assert f_exact(parse_group("C2^3")) == Fraction(21)
    for i in range(1, 101):
        p = stream.nth_prime(i)
        assert f_exact(cyclic(p)) == Fraction(p - 1, p)
    _ok("criterion 3 (pinned exact values, incl. f(C_p) for first 100 primes)")


def test_criterion_4_unit_density(stream):
    eps = Fraction(1, 10**4)
    for k in range(1, 10):
        a = Fraction(k, 10)
        t0 = time.time()
        res = approx_ray(a, eps, stream=stream)
        dt = time.time() - t0
        assert dt <= 5.0, (a, dt)
        # independent re-multiplication over the returned index set
        prod = two_rank_ratio(res.group.two_rank)
        for p in res.group.odd_primes(stream):
            prod *= Fraction(p - 1, p)
        assert a <= prod < a + eps, (a, prod)
        if res.exact_ratio is not None:
            assert res.exact_ratio == prod
    _ok("criterion 4 (unit-interval density at eps = 1e-4, re-multiplied)")


def test_criterion_5_ray_density(stream):
    eps = Fraction(1, 10**3)
    rng = random.Random(16)  # fixed seed: reproducible targets in [0, 5]
    targets = [Fraction(rng.uniform(0, 5)) for _ in range(200)]
    worst = 0.0
    for a in targets:
        t0 = time.time()
        res = approx_ray(a, eps, stream=stream)
        dt = time.time() - t0
        worst = max(worst, dt)
        assert dt <= 30.0, (float(a), dt)
        sel = res.trace.selection
        assert sel is None or sel.status == CONVERGED
        assert res.trace.max_prime_scanned <= 10**8
        if res.exact_ratio is not None:
            assert abs(res.exact_ratio - a) <= eps
        else:
            assert verify_certificate(res, stream=stream), float(a)
    _ok(
        "criterion 5 (200 certified ray targets in [0,5] at eps = 1e-3)",
        f"worst single run {worst:.2f}s, sieve extent <= 1e8",
    )


def test_criterion_6_greedy_contract():
    eps = Fraction(1, 10**6)
    src = TermSource(lambda i: Fraction(1, i))
    rng = random.Random(6)
    for _ in range(100):
        t = Fraction(rng.uniform(0, 3))
        sel = greedy_select(src, t, eps)
        assert sel.status == CONVERGED
        assert t - eps < sel.exact_sum <= t
        running = Fraction(0)
        for entry in trail(sel, src):
            if entry[0] == "include":
                running += entry[2]
                assert running <= t  # one-sided throughout
            else:
                _, i0, i1, deficit, smallest = entry
                assert deficit == t - running
                assert deficit < smallest  # every skipped term beat the deficit
    _ok("criterion 6 (greedy contract on the harmonic source, 100 targets)")


def test_criterion_7_search_round_trip():
    bounds = SearchBounds(max_order=500)
    groups = list(enumerate_groups(bounds))
    rng = random.Random(77)
    sample = rng.sample(groups, 500)
    t0 = time.time()
    for g in sample:
        a = f_exact(g)
        hits = find_exact(a, bounds)
        assert any(w.group == g for w in hits), format_group(g)
        for w in hits:
            assert f_exact(w.group) == a  # soundness by recomputation
    dt = time.time() - t0

    small = SearchBounds(max_order=200)
    for g in sample:
        a = f_exact(g)
        pruned = [w.group for w in find_exact(a, small)]
        plain = [w.group for w in find_exact(a, small, prune=False)]
        assert pruned == plain, format_group(g)
    _ok(
        "criterion 7 (500-group round-trip at order <= 500; prune differential)",
        f"round-trip phase {dt:.1f}s",
    )


def _partition_count_table(n: int) -> list[int]:
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table


def test_criterion_8_enumeration_count():
    from autratio.groups import factorize

    pc = _partition_count_table(16)
    counts = {}
    for g in enumerate_groups(SearchBounds(max_order=2000, max_rank_per_prime=16)):
        counts[order(g)] = counts.get(order(g), 0) + 1
    for n in range(1, 2001):
        expected = 1
        if n > 1:
            for _, k in factorize(n).items():
                expected *= pc[k]
        assert counts.get(n, 0) == expected, n
    _ok("criterion 8 (enumeration counts match the partition function, n <= 2000)")


def test_criterion_9_table_determinism(tmp_path):
    b = SearchBounds(max_order=500)
    p1, p2 = tmp_path / "run1.tsv", tmp_path / "run2.tsv"
    r1 = build_f_table(b, p1)
    r2 = build_f_table(b, p2)
    assert r1 == r2
    d1, d2 = p1.read_bytes(), p2.read_bytes()
    assert d1 == d2
    # construction is sequential by design, so the bytes cannot depend on
    # any thread count; assert the sorted invariant that guarantees it
    lines = d1.decode().splitlines()[1:]
    orders = [int(ln.split("\t")[1]) for ln in lines]
    assert orders == sorted(orders)
    _ok(
        "criterion 9 (f-table byte-identical across runs)",
        f"{r1} rows at max_order=500",
    )
