import hashlib
import os
import random
from bisect import bisect_right
import subprocess
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod
from pathlib import Path

import pytest

import autratio.primes
import autratio.search as search
from autratio.autorder import aut_order, aut_order_local, f_exact
from autratio.errors import InputLimitExceeded, SieveCapacityError
from autratio.groups import AbelianGroup, format_group, order, parse_group
from autratio.oracle import OracleCaps, aut_order_bruteforce
from autratio.primes import PrimeStream, shared_stream
from autratio.search import (
    TABLE_HEADER_PREFIX,
    SearchBounds,
    build_f_table,
    enumerate_groups,
    find_exact,
    render_table,
)


def partition_count(n: int) -> int:
    """Independent partition function via the classic recurrence table."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def partition_count_at_most(n: int, parts: int) -> int:
    """Partitions of n into at most ``parts`` parts (parts of size <= parts,
    by conjugation)."""
    table = [1] + [0] * n
    for part in range(1, parts + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def abelian_count(n: int, rank: int | None = None) -> int:
    from autratio.groups import factorize

    out = 1
    for _, k in factorize(n).items() if n > 1 else []:
        out *= partition_count(k) if rank is None else partition_count_at_most(k, rank)
    return out


def test_enumeration_examples():
    assert [format_group(g) for g in enumerate_groups(SearchBounds(1))] == ["C1"]
    gs = list(enumerate_groups(SearchBounds(8)))
    assert len(gs) == 11
    counts = {}
    for g in gs:
        counts[order(g)] = counts.get(order(g), 0) + 1
    assert [counts.get(n, 0) for n in range(1, 9)] == [1, 1, 1, 2, 1, 1, 1, 3]
    g16 = [g for g in enumerate_groups(SearchBounds(16)) if order(g) == 16]
    assert len(g16) == 5  # partitions of 4


def test_enumeration_matches_partition_oracle():
    counts = {}
    for g in enumerate_groups(SearchBounds(300)):
        counts[order(g)] = counts.get(order(g), 0) + 1
    for n in range(1, 301):
        assert counts.get(n, 0) == abelian_count(n), n


def test_enumeration_is_sorted_and_unique():
    gs = list(enumerate_groups(SearchBounds(60)))
    keys = [(order(g), g.factors) for g in gs]
    assert keys == sorted(keys)
    assert len(set(gs)) == len(gs)


def test_enumeration_respects_rank_and_prime_bounds():
    gs = list(enumerate_groups(SearchBounds(64, max_rank_per_prime=2)))
    assert all(
        all(len(part) <= 2 for _, part in g.factors) for g in gs
    )
    gs = list(enumerate_groups(SearchBounds(30, max_prime=3)))
    assert all(all(p <= 3 for p, _ in g.factors) for g in gs)


def test_find_exact_examples():
    b8 = SearchBounds(8)
    assert [format_group(w.group) for w in find_exact(1, b8)] == ["C1", "C2 x C4"]
    # C8 also hits 1/2: |Aut(C8)| = phi(8) = 4
    assert [format_group(w.group) for w in find_exact(Fraction(1, 2), b8)] == [
        "C2",
        "C4",
        "C8",
    ]
    assert [format_group(w.group) for w in find_exact(21, b8)] == ["C2 x C2 x C2"]
    assert find_exact(5, SearchBounds(4)) == []
    assert find_exact(0, SearchBounds(100)) == []


def test_find_exact_soundness():
    for w in find_exact(Fraction(1, 2), SearchBounds(200)):
        assert f_exact(w.group) == Fraction(1, 2)
        assert w.f_value == Fraction(1, 2)


def test_round_trip_completeness():
    bounds = SearchBounds(200)
    groups = list(enumerate_groups(bounds))
    rng = random.Random(7)
    for g in rng.sample(groups, 60):
        a = f_exact(g)
        hits = find_exact(a, bounds)
        assert any(w.group == g for w in hits), format_group(g)


def test_prune_differential():
    bounds = SearchBounds(120)
    targets = [
        Fraction(1),
        Fraction(1, 2),
        Fraction(3, 2),
        Fraction(2, 3),
        Fraction(21),
        Fraction(7, 5),
        Fraction(4, 7),
        Fraction(48, 5),
    ]
    for a in targets:
        pruned = [w.group for w in find_exact(a, bounds)]
        plain = [w.group for w in find_exact(a, bounds, prune=False)]
        assert pruned == plain, a


@pytest.mark.parametrize("a", [Fraction(5), Fraction(3, 2), Fraction(1)])
def test_prune_differential_at_scale(a):
    bounds = SearchBounds(9000)
    pruned = [w.group for w in find_exact(a, bounds)]
    assert pruned == [w.group for w in find_exact(a, bounds, prune=False)]


def test_f_denominators_are_squarefree():
    # nu_p(f(G_p)) >= r(r - 3)/2 >= -1 for a p-group of rank r, and the
    # other primary parts contribute integers |Aut(G_q)|, so p^2 never
    # divides the denominator of f(G): 1/4, for one, is never attained
    bounds = SearchBounds(max_order=20_000, max_rank_per_prime=15)
    n = 0
    for g in enumerate_groups(bounds):
        den = f_exact(g).denominator
        assert all(den % (p * p) for p, _ in g.factors), format_group(g)
        n += 1
    assert n == 44_766  # every group: no rank bound binds below order 2^15


def test_find_exact_rejects_negative():
    with pytest.raises(ValueError):
        find_exact(Fraction(-1, 2), SearchBounds(10))


def test_table_format(tmp_path):
    out = tmp_path / "table.tsv"
    rows = build_f_table(SearchBounds(8), out)
    assert rows == 11
    lines = out.read_bytes().decode().splitlines()
    assert lines[0] == f"{TABLE_HEADER_PREFIX} max_order=8"
    assert lines[1] == "C1\t1\t1\t1/1"
    assert lines[2] == "C2\t2\t1\t1/2"
    got = {}
    for ln in lines[1:]:
        lit, n, aut, f = ln.split("\t")
        got[lit] = (int(n), int(aut), Fraction(f))
    assert got["C4"] == (4, 2, Fraction(1, 2))
    assert got["C2 x C2"] == (4, 6, Fraction(3, 2))
    for lit, (n, aut, f) in got.items():
        g = parse_group(lit)
        assert order(g) == n and aut_order(g) == aut and f_exact(g) == f
        # cross-check each row against the brute-force counter
        assert aut == aut_order_bruteforce(g, OracleCaps(200, 10**12))


def test_table_deterministic_and_idempotent(tmp_path):
    b = SearchBounds(60)
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    build_f_table(b, p1)
    build_f_table(b, p2)
    assert p1.read_bytes() == p2.read_bytes()
    build_f_table(b, p1)  # rewrite in place
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes() == render_table(b)


def test_search_refuses_primes_past_the_sieve_ceiling(monkeypatch):
    # a cut-down prime list would turn "not scanned" into "no witness"
    monkeypatch.setattr(autratio.primes, "_shared", PrimeStream(ceiling=1000))
    bounds = SearchBounds(max_order=5000)
    with pytest.raises(SieveCapacityError):
        find_exact(Fraction(5), bounds)
    with pytest.raises(SieveCapacityError):
        list(enumerate_groups(bounds))
    small = SearchBounds(max_order=1000, max_rank_per_prime=10)
    assert [format_group(w.group) for w in find_exact(Fraction(3, 2), small)] == [
        "C2 x C2"
    ]
    assert len(list(enumerate_groups(small))) == sum(
        abelian_count(n) for n in range(1, 1001)
    )


def reference_partitions(weight: int, max_len: int, least: int = 1):
    """Ascending exponent tuples summing to ``weight``, at most ``max_len``
    long, in any order."""
    if weight == 0:
        yield ()
        return
    if max_len == 0:
        return
    for first in range(least, weight + 1):
        for rest in reference_partitions(weight - first, max_len - 1, first):
            yield (first,) + rest


def reference_rows(bounds: SearchBounds) -> list[tuple[int, tuple]]:
    """Every group within bounds as ``(order, factors)``, sorted.

    This is the include-only stack walk with a final sort that built the
    f-table before the order-by-order walk, kept as an independent
    reference for it: its primes come from trial division and its
    partitions from ``reference_partitions``."""
    primes = [
        p for p in range(2, bounds.prime_limit + 1)
        if all(p % q for q in range(2, isqrt(p) + 1))
    ]
    rows = []
    stack = [(0, bounds.max_order, 1, ())]
    while stack:
        start, budget, n, factors = stack.pop()
        rows.append((n, factors))
        for j in range(start, bisect_right(primes, budget, start)):
            p = primes[j]
            pw, w = p, 1
            while pw <= budget:
                for part in reference_partitions(w, bounds.max_rank_per_prime):
                    stack.append((j + 1, budget // pw, n * pw, factors + ((p, part),)))
                w += 1
                pw *= p
    rows.sort()
    return rows


def slow_table(bounds: SearchBounds) -> bytes:
    """The f-table rebuilt row by row from the reference walk and the
    public per-group functions."""
    lines = [f"{TABLE_HEADER_PREFIX} max_order={bounds.max_order}\n"]
    for _, factors in reference_rows(bounds):
        g = AbelianGroup(factors)
        f = f_exact(g)
        lines.append(
            f"{format_group(g)}\t{order(g)}\t{aut_order(g)}\t"
            f"{f.numerator}/{f.denominator}\n"
        )
    return "".join(lines).encode("utf-8")


@pytest.mark.parametrize(
    "bounds",
    [SearchBounds(n) for n in (1, 2, 96, 500, 2000)]
    + [SearchBounds(500, max_rank_per_prime=2), SearchBounds(500, max_prime=3)],
)
def test_table_equals_per_group_reference(bounds):
    assert render_table(bounds) == slow_table(bounds)


WALK_BOUNDS = [SearchBounds(n) for n in (1, 2, 3, 96, 500, 1990, 2010, 8000)] + [
    SearchBounds(2010, max_rank_per_prime=1),
    SearchBounds(2010, max_rank_per_prime=2),
    SearchBounds(2010, max_prime=2),
    SearchBounds(2010, max_prime=3),
]
# a prime limit below max_order takes the heap of orders, not the sieve
HEAP_BOUNDS = [SearchBounds(2003, max_prime=2002), SearchBounds(5000, max_prime=47)]
WALK_BOUNDS += HEAP_BOUNDS


@pytest.mark.parametrize("bounds", WALK_BOUNDS, ids=repr)
def test_order_by_order_walk_matches_the_stack_walk(bounds):
    reference = reference_rows(bounds)
    assert [g.factors for g in enumerate_groups(bounds)] == [f for _, f in reference]
    assert render_table(bounds) == slow_table(bounds)


@pytest.mark.parametrize("bounds", HEAP_BOUNDS, ids=repr)
def test_heap_orders_give_the_sieve_rows_they_share(bounds):
    # the same max_order with every prime usable takes the sieve; its rows
    # whose primes are all within the limit must be the heap's rows
    dense = SearchBounds(bounds.max_order, max_rank_per_prime=bounds.max_rank_per_prime)
    groups = list(enumerate_groups(dense))
    usable = [all(p <= bounds.prime_limit for p, _ in g.factors) for g in groups]
    assert not all(usable)
    assert list(enumerate_groups(bounds)) == [g for g, ok in zip(groups, usable) if ok]
    header, *rows = render_table(dense).splitlines(keepends=True)
    assert render_table(bounds) == header + b"".join(
        row for row, ok in zip(rows, usable) if ok
    )


@pytest.mark.parametrize(
    "bounds",
    [SearchBounds(2000), SearchBounds(2000, max_rank_per_prime=2, max_prime=3)],
    ids=repr,
)
def test_walk_groups_equal_validated_groups(bounds):
    # the walk builds its groups without the constructor's checks
    for g in enumerate_groups(bounds):
        assert g == AbelianGroup(g.factors)
        assert g == parse_group(format_group(g))
        assert hash(g) == hash(AbelianGroup(g.factors))
    for w in find_exact(Fraction(3, 2), bounds):
        assert w.group == parse_group(format_group(w.group))


def test_table_file_streams_the_rendered_bytes(tmp_path):
    bounds = SearchBounds(3000, max_rank_per_prime=3)
    out = tmp_path / "table.tsv"
    rows = build_f_table(bounds, out)
    data = render_table(bounds)
    assert out.read_bytes() == data
    assert rows == data.count(b"\n") - 1 == sum(
        abelian_count(n, 3) for n in range(1, 3001)
    )


def test_refused_table_leaves_the_file_untouched(tmp_path, monkeypatch):
    out = tmp_path / "table.tsv"
    out.write_bytes(b"an earlier table\n")
    monkeypatch.setattr(autratio.primes, "_shared", PrimeStream(ceiling=1000))
    with pytest.raises(SieveCapacityError):
        build_f_table(SearchBounds(5000), out)
    assert out.read_bytes() == b"an earlier table\n"


def test_failed_table_leaves_the_file_untouched(tmp_path, monkeypatch):
    import autratio.search as search

    def failing(bounds):
        chunks = render_chunks(bounds)
        yield next(chunks)
        yield next(chunks)
        raise KeyboardInterrupt

    render_chunks = search._table_text
    out = tmp_path / "table.tsv"
    out.write_bytes(b"an earlier table\n")
    monkeypatch.setattr(search, "_table_text", failing)
    with pytest.raises(KeyboardInterrupt):
        build_f_table(SearchBounds(500), out)
    assert out.read_bytes() == b"an earlier table\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.tsv"]


def run_python(script: str, timeout: float) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter on this checkout's source."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=timeout
    )


SPARSE_BOUNDS = [
    SearchBounds(10**15, max_prime=3, max_rank_per_prime=2),
    SearchBounds(10**12, max_prime=5, max_rank_per_prime=2),
]


@pytest.mark.parametrize("bounds", SPARSE_BOUNDS, ids=repr)
def test_walk_cost_follows_the_groups_not_the_order_bound(bounds):
    # far fewer groups than orders: under a 1 GiB address-space limit, a
    # walk that allocated per order up to max_order would fail
    script = (
        "import hashlib, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from autratio.search import SearchBounds, enumerate_groups, render_table\n"
        f"b = SearchBounds({bounds.max_order}, max_prime={bounds.max_prime}, "
        f"max_rank_per_prime={bounds.max_rank_per_prime})\n"
        "print(hashlib.sha256(repr([g.factors for g in enumerate_groups(b)]).encode()).hexdigest())\n"
        "print(hashlib.sha256(render_table(b)).hexdigest())\n"
    )
    proc = run_python(script, timeout=60)
    assert proc.returncode == 0, proc.stderr
    factors = [f for _, f in reference_rows(bounds)]
    assert proc.stdout.split() == [
        hashlib.sha256(repr(factors).encode()).hexdigest(),
        hashlib.sha256(render_table(bounds)).hexdigest(),
    ]


def test_walk_depth_does_not_grow_with_the_prime_count():
    # a skipped prime must not cost a stack frame, so a recursion limit far
    # below the number of primes up to the bound (1007 below 8000) is
    # enough; rank 12 admits C2^12, so every group of order <= 8000 is a row
    script = (
        "import sys\n"
        "from autratio.autorder import f_exact\n"
        "from autratio.search import SearchBounds, find_exact, render_table\n"
        "sys.setrecursionlimit(150)\n"
        "table = render_table(SearchBounds(8000, max_rank_per_prime=12))\n"
        "print(table.count(b'\\n') - 1)\n"
        "ws = find_exact(5, SearchBounds(9000))\n"
        "print(all(f_exact(w.group) == 5 for w in ws))\n"
    )
    proc = run_python(script, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows, sound = proc.stdout.split()
    assert int(rows) == sum(abelian_count(n) for n in range(1, 8001))
    assert sound == "True"


def plain_witnesses(bounds: SearchBounds) -> dict[Fraction, list]:
    """``find_exact(a, bounds, prune=False)`` for every a at once: each
    group within bounds under its f, in enumeration order."""
    by_f: dict[Fraction, list] = {}
    for g in enumerate_groups(bounds):
        by_f.setdefault(f_exact(g), []).append(g)
    return by_f


@pytest.mark.parametrize(
    "bounds",
    [SearchBounds(2000, max_prime=7), SearchBounds(3000, max_rank_per_prime=2)]
    + SPARSE_BOUNDS,
    ids=repr,
)
def test_prune_differential_on_limited_bounds(bounds):
    # a prime limit or a rank bound below the defaults, and prime limits far
    # below an order bound above the sieve ceiling; seeded targets, half
    # f(G) within bounds and half n/d with n, d <= 60
    plain = plain_witnesses(bounds)
    rng = random.Random(bounds.max_order % 1000)
    targets = rng.sample(sorted(plain), 20) + [
        Fraction(rng.randint(1, 60), rng.randint(1, 60)) for _ in range(20)
    ]
    for a in targets:
        assert [w.group for w in find_exact(a, bounds)] == plain.get(a, []), a


def test_search_past_the_sieve_ceiling_needs_only_the_prime_limit(monkeypatch):
    ws = find_exact(11664, SPARSE_BOUNDS[0])
    assert len(ws) == 320
    assert all(f_exact(w.group) == 11664 for w in ws)
    # the node tests' table, built afresh by a new stream, stays within a
    # ceiling below its 2^16 cap
    stream = PrimeStream(ceiling=1000)
    monkeypatch.setattr(autratio.primes, "_shared", stream)
    assert find_exact(11664, SPARSE_BOUNDS[0]) == ws
    assert len(stream.table(search._top_fill, 0)) == 1001


def clear_levels():
    """Empty the level cache and the per-prime tables that hold its levels."""
    search._clear_levels()


def test_child_tables_shared_across_calls_keep_the_witnesses():
    # the per-prime child tables outlive a call and grow with max_order:
    # calls in sequence, with bounds that shrink, grow and change rank and
    # prime limit, must each give the unpruned scan's witnesses
    clear_levels()
    sequence = [
        SearchBounds(300),
        SearchBounds(3000, max_rank_per_prime=2),
        SearchBounds(100, max_prime=5),
        SearchBounds(5000),
        SearchBounds(700, max_rank_per_prime=1),
        SearchBounds(4000, max_prime=7, max_rank_per_prime=3),
        SearchBounds(300),
    ]
    targets = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(21),
               Fraction(5), Fraction(48, 5), Fraction(4, 7), Fraction(7, 2)]
    for bounds in sequence:
        plain = plain_witnesses(bounds)
        for a in targets:
            got = [w.group for w in find_exact(a, bounds)]
            assert got == plain.get(a, []), (bounds, a)


def test_child_tables_grow_safely_under_threads():
    # threads extend the shared tables at once; a lost check-then-append
    # would list a weight twice, and the walk would repeat witnesses
    bounds = [SearchBounds(n) for n in (300, 1000, 3000, 6000)]
    targets = [Fraction(1), Fraction(3, 2), Fraction(21), Fraction(7, 2)]
    plain = {b: plain_witnesses(b) for b in bounds}
    wrong = []

    def worker(k):
        for b in bounds[k % 4:] + bounds[: k % 4]:
            for a in targets:
                if [w.group for w in find_exact(a, b)] != plain[b].get(a, []):
                    wrong.append((k, b, a))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(6):  # each round grows the tables from empty
            clear_levels()
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            walk = search._walk(bounds[3], shared_stream())
            for j, p in enumerate((2, 3, 5, 7)):
                weights = [pw for pw, _ in walk.tables.get(j) or walk._table(j)]
                assert weights == [p**w for w in range(1, len(weights) + 1)]
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


TABLE_SEQUENCE = [
    SearchBounds(n, max_rank_per_prime=rank) for n in (30, 2000, 96) for rank in (1, 2, 8)
]


def test_shared_child_tables_keep_the_table_bytes():
    # the f-table's p-parts of weight >= 2 come from the shared child
    # tables: built in sequence, each table equals one built from empty
    fresh = {}
    for bounds in TABLE_SEQUENCE:
        clear_levels()
        fresh[bounds] = (render_table(bounds), list(enumerate_groups(bounds)))
    clear_levels()
    for bounds in TABLE_SEQUENCE:
        assert render_table(bounds) == fresh[bounds][0], bounds
        assert list(enumerate_groups(bounds)) == fresh[bounds][1], bounds


def test_shared_child_tables_keep_the_table_bytes_under_threads():
    serial = {b: render_table(b) for b in TABLE_SEQUENCE}
    wrong = []

    def worker(k):
        for b in TABLE_SEQUENCE[k:] + TABLE_SEQUENCE[:k]:
            if render_table(b) != serial[b]:
                wrong.append((k, b))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):  # each round grows the tables from empty
            clear_levels()
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_sparse_search_builds_its_levels_once():
    # rank 8 to 10**15 needs 238,093 p-parts for p = 2 and 18,082 for p = 3;
    # under a 1 GiB address-space limit the cached levels serve a second
    # call without building any
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from autratio import search\n"
        "from autratio.autorder import f_exact\n"
        "for _ in range(2):\n"
        "    ws = search.find_exact(11664, search.SearchBounds(10**15, max_prime=3))\n"
        "    print(len(ws), all(f_exact(w.group) == 11664 for w in ws),"
        " search._level.cache_info().misses)\n"
    )
    proc = run_python(script, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, second = [line.split() for line in proc.stdout.splitlines()]
    assert first[:2] == second[:2] == ["381", "True"]
    assert second[2] == first[2]


def test_level_caches_are_cleared_before_they_pass_their_cap(monkeypatch):
    # with the cap lowered to 1,500 p-parts, searches at other ranks (414 to
    # 1,921 p-parts each) keep the count built since the last clear under
    # it; the rank-8 search passes it alone, so the caches are cleared in
    # the middle of its walk, which keeps the tables it has read; every
    # search still finds what it finds with the caches kept
    sequence = [
        SearchBounds(2**W - 1, max_prime=3, max_rank_per_prime=r)
        for r, W in ((4, 20), (5, 20), (6, 14), (8, 20), (4, 20), (3, 20))
    ]
    targets = [Fraction(112), Fraction(8, 3), Fraction(192), Fraction(208)]
    clear_levels()
    expected = [[find_exact(a, b) for a in targets] for b in sequence]
    assert all(any(ws) for ws in expected)
    cap, clears = 1500, []
    clear = search._clear_levels
    monkeypatch.setattr(search, "_PARTS_MAX", cap)
    clear_levels()
    monkeypatch.setattr(search, "_clear_levels", lambda: (clears.append(1), clear()))
    for bounds, want in zip(sequence, expected):
        before = len(clears)
        assert [find_exact(a, bounds) for a in targets] == want, bounds
        assert 0 < search._parts_built <= cap
        if bounds.max_rank_per_prime == 8:
            assert len(clears) > before  # cleared inside this search
    assert len(clears) >= 3


def test_partitions_and_their_count_match_the_reference():
    for w in range(1, 25):
        for rank in range(1, 10):
            assert search._partitions(w, rank) == sorted(reference_partitions(w, rank))
    for weights in range(30):
        for rank in (1, 2, 3, 8, 40):
            assert search._part_count(weights, rank) == sum(
                partition_count_at_most(w, rank) for w in range(1, weights + 1)
            )
    # 10**30 at rank 8 would need 21,582,622; counting stops past the limit
    assert search.MAX_SEARCH_PARTS < search._part_count(99, 8) < 2 * search.MAX_SEARCH_PARTS
    with pytest.raises(InputLimitExceeded, match="MAX_SEARCH_PARTS"):
        find_exact(5, SearchBounds(10**30, max_prime=2))


def local_ratio(p: int, part: tuple) -> Fraction:
    return Fraction(aut_order_local(p, part), p ** sum(part))


@pytest.mark.parametrize(
    "bounds",
    [SearchBounds(3000), SearchBounds(10**6, max_prime=13, max_rank_per_prime=3)],
    ids=repr,
)
def test_integer_tests_leave_out_only_dead_children(bounds):
    # a child the walk leaves out before dividing must be one that reach
    # cuts, reach(r / ratio, j + 1, budget // p**w) == j + 1, and that is no
    # hit; a child it keeps carries r / ratio in lowest terms and its budget
    walk = search._Walk(bounds, shared_stream())
    primes, rank = walk.primes, bounds.max_rank_per_prime
    rng = random.Random(15)
    groups = list(enumerate_groups(SearchBounds(
        min(bounds.max_order, 3000), bounds.max_prime, rank
    )))
    live = cut = 0
    for _ in range(300):
        # a node on the way to a sampled group, with that group's ratio or
        # with a random n/d as its target
        g = rng.choice(groups)
        prefix = g.factors[: rng.randrange(len(g.factors) + 1)]
        a = f_exact(g) if rng.random() < 0.7 else Fraction(
            rng.randint(1, 500), rng.randint(1, 500)
        )
        r = a / prod((local_ratio(p, e) for p, e in prefix), start=Fraction(1))
        start = primes.index(prefix[-1][0]) + 1 if prefix else 0
        budget = bounds.max_order // order(AbelianGroup(prefix))
        end = walk.reach(r.numerator, r.denominator, start, budget)
        if end == start:
            continue
        live += 1
        kept = {(j, pair): (n, d, b) for j, pair, n, d, b in
                walk.children(r.numerator, r.denominator, start, end, budget)}
        for j in range(start, end):
            p, pw, w = primes[j], primes[j], 1
            while pw <= budget:
                for part in reference_partitions(w, rank):
                    q, b = r / local_ratio(p, part), budget // pw
                    if (j, (p, part)) in kept:
                        assert kept.pop((j, (p, part))) == (q.numerator, q.denominator, b)
                    else:
                        cut += 1
                        assert q != 1
                        assert walk.reach(q.numerator, q.denominator, j + 1, b) == j + 1
                w, pw = w + 1, pw * p
        assert not kept  # nothing but children
    assert live >= 100 and cut >= 1000


def loop_reach(walk, num: int, den: int, start: int, budget: int) -> int:
    """``_Walk.reach`` by trial division alone, without the size cut: the
    reference for the table lookups."""
    if den > budget:
        return start
    primes = walk.primes
    end = bisect_right(primes, budget, start)
    if num > 1:
        for q in primes:
            if q >= budget or q > num:
                break
            while num % q == 0:
                num //= q
        if num > 1 and (
            budget <= walk.limit + 1
            or num >= budget and search._proven_prime(num, walk.limit)
        ):
            return start
    if den > 1:
        for j in range(start, end):
            q = primes[j]
            if q > den:
                break
            v = 0
            while den % q == 0:
                den //= q
                v += 1
            if v:
                if q**v > budget:
                    return start
                end = min(end, j + 1)
        if den > 1:
            return start
    return end


def size_cut(num: int, den: int, budget: int) -> bool:
    size = budget.bit_length()
    return num.bit_length() - den.bit_length() > size * (size - 1)


REACH_BOUNDS = [SearchBounds(600), SearchBounds(600, max_prime=7)]


@pytest.mark.parametrize("top_max", [64, 1 << 16])
@pytest.mark.parametrize("bounds", REACH_BOUNDS, ids=repr)
def test_table_reach_matches_trial_division(bounds, top_max, monkeypatch):
    # at T = 64 values up to 64 are looked up and larger ones divided, so
    # both regimes meet in one walk; at the default T = 600 all but the
    # numerators above 600 are looked up.  Every num in 1..3000 meets den 1
    # and a den that runs through 1..budget; the size cut only ever cuts
    monkeypatch.setattr(search, "_TOP_MAX", top_max)
    walk = search._Walk(bounds, shared_stream())
    assert walk.tabled == min(600, top_max)
    count = len(walk.primes)
    cuts = 0
    for budget in (1, 3, 7, 8, 12, 65, 600):
        for start in sorted({0, 1, count // 2, count}):
            for num in range(1, 3001):
                for den in (1, 1 + num * 7919 % budget):
                    want = loop_reach(walk, num, den, start, budget)
                    got = walk.reach(num, den, start, budget)
                    if got != want:
                        assert got == start and size_cut(num, den, budget), (num, den, start, budget)
                        cuts += 1
    assert cuts


@pytest.mark.parametrize("bounds", REACH_BOUNDS, ids=repr)
def test_prune_differential_with_both_node_regimes(bounds, monkeypatch):
    monkeypatch.setattr(search, "_TOP_MAX", 64)
    # an empty walk cache for this test: a walk cached at the default T
    # would be reused, and one cached here would outlive the patch
    monkeypatch.setattr(search, "_walk", lru_cache(maxsize=1)(search._Walk))
    plain = plain_witnesses(bounds)
    rng = random.Random(23)
    targets = rng.sample(sorted(plain), 40) + [
        Fraction(rng.randint(1, 200), rng.randint(1, 200)) for _ in range(40)
    ]
    for a in targets:
        assert [w.group for w in find_exact(a, bounds)] == plain.get(a, []), a
    assert search._walk(bounds, shared_stream()).tabled == 64
    assert search._walk.cache_info().misses == 1


def test_f_is_bounded_by_the_endomorphism_count():
    # |Aut H| <= |End H| <= |H|^rank(H) and rank(H) <= log2 |H|, so with
    # L = |H|.bit_length(), f(H) < 2^(L(L - 1)) past the trivial group
    bounds = SearchBounds(4096, max_rank_per_prime=12)
    groups = list(enumerate_groups(bounds))
    for g in groups:
        n = order(g)
        size = n.bit_length()
        assert f_exact(g) < 2 ** (size * (size - 1)) or n == 1 == f_exact(g)
    a = f_exact(parse_group("C2^12"))
    assert find_exact(a, bounds) == find_exact(a, bounds, prune=False)
    assert [w.group for w in find_exact(a, bounds)] == [
        g for g in groups if f_exact(g) == a
    ]


def test_node_table_stays_within_its_cap():
    stream = shared_stream()
    walk = search._Walk(SearchBounds(10**6), stream)
    assert walk.tabled == 1 << 16 and len(walk.top) == (1 << 16) + 1
    assert find_exact(Fraction(3, 2), SearchBounds(10**6))
    top = stream.table(search._top_fill, 0)
    assert len(top) <= (1 << 16) + 1
    # a smaller walk reads the table already built
    assert search._Walk(SearchBounds(5000), stream).top is top


def test_stream_owns_the_node_table(monkeypatch):
    stream = PrimeStream()
    assert len(stream.table(search._top_fill, 0)) == 0  # a fresh stream's is empty
    monkeypatch.setattr(autratio.primes, "_shared", stream)
    for n in (5000, 9000, 10**6):
        assert find_exact(Fraction(3, 2), SearchBounds(n))
        top = stream.table(search._top_fill, 0)
        T = min(n, 1 << 16)
        assert len(top) == T + 1 <= (1 << 16) + 1
        assert top.tolist() == search._largest_primes(stream.primes_upto(T), T).tolist()
    # a search at a smaller T reads the same table, not a copy
    assert search._walk(SearchBounds(5000), stream).top is top
    assert len(PrimeStream().table(search._top_fill, 0)) == 0


def count_walks(monkeypatch) -> list:
    """The (bounds, stream) of each walk built from here on."""
    built, init = [], search._Walk.__init__

    def counted(self, bounds, stream):
        built.append((bounds, stream))
        init(self, bounds, stream)

    monkeypatch.setattr(search._Walk, "__init__", counted)
    return built


def test_repeated_search_reuses_its_walk(monkeypatch):
    bounds, a = SearchBounds(5000), Fraction(48, 5)
    want = find_exact(a, bounds)
    assert want
    sieved, primes_upto = [], PrimeStream.primes_upto
    monkeypatch.setattr(
        PrimeStream, "primes_upto", lambda self, n: sieved.append(n) or primes_upto(self, n)
    )
    built = count_walks(monkeypatch)
    assert find_exact(a, bounds) == want
    assert sieved == [] and built == []
    # other bounds, or a new shared stream, get a new walk
    old, other = shared_stream(), SearchBounds(5000, max_rank_per_prime=2)
    assert [w.group for w in find_exact(a, other)] == plain_witnesses(other).get(a, [])
    assert find_exact(a, bounds) == want
    fresh = PrimeStream()
    monkeypatch.setattr(autratio.primes, "_shared", fresh)
    assert find_exact(a, bounds) == want
    assert built == [(other, old), (bounds, old), (bounds, fresh)]


def test_refused_bound_is_refused_on_every_call(monkeypatch):
    bounds = SearchBounds(5000)
    find_exact(Fraction(3, 2), bounds)
    built = count_walks(monkeypatch)
    refused = SearchBounds(10**30, max_prime=2)
    for _ in range(2):
        with pytest.raises(InputLimitExceeded, match="MAX_SEARCH_PARTS"):
            find_exact(5, refused)
    assert built == [(refused, shared_stream())] * 2
    assert search._walk(bounds, shared_stream()).max_order == 5000  # still cached


def test_clear_levels_empties_the_walk_cache():
    find_exact(Fraction(3, 2), SearchBounds(5000))
    assert search._walk.cache_info().currsize == 1
    search._clear_levels()
    assert search._walk.cache_info().currsize == 0


def test_threads_share_one_walk_whose_tables_fill_lazily():
    # eight threads start at once on one bounds; the walk is built first,
    # empty, so all of them read it and fill its per-prime tables together
    bounds = SearchBounds(6000)
    plain = plain_witnesses(bounds)
    targets = sorted(plain)[::max(1, len(plain) // 24)] + [Fraction(7, 2), Fraction(21)]
    clear_levels()
    walk = search._walk(bounds, shared_stream())
    assert walk.tables == {}
    start, wrong = threading.Barrier(8), []

    def worker(k):
        start.wait(timeout=60)
        for a in targets[k:] + targets[:k]:
            if [w.group for w in find_exact(a, bounds)] != plain.get(a, []):
                wrong.append((k, a))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert search._walk(bounds, shared_stream()) is walk and walk.tables
    for j, table in walk.tables.items():
        p = walk.primes[j]
        assert [pw for pw, _ in table] == [p**w for w in range(1, len(table) + 1)]
        assert p ** (len(table) + 1) > bounds.max_order


def hall_failures(bounds: SearchBounds) -> tuple[int, list[int]]:
    """The table's row count and the orders N whose rows break P. Hall's
    identity: the sum of 1/f(G) over the abelian groups of order N is
    prod over p^e || N of prod_{i <= e} (1 - p^-i)^-1."""
    rows = render_table(bounds).decode().splitlines()[1:]  # under the header
    sums: dict[int, Fraction] = {}
    for row in rows:
        _, n, aut, _ = row.split("\t")
        sums[int(n)] = sums.get(int(n), 0) + Fraction(int(n), int(aut))
    assert sorted(sums) == list(range(1, bounds.max_order + 1))
    failures = []
    for n, total in sums.items():
        want, m, p = Fraction(1), n, 2
        while m > 1:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
                want *= Fraction(p**e, p**e - 1)
            p += 1
        if total != want:
            failures.append(n)
    return len(rows), sorted(failures)


def test_full_rank_table_meets_hall_identity_at_every_order():
    # rank 13 = floor(log2 10^4) admits every abelian group of order <= 10^4
    assert hall_failures(SearchBounds(10**4, max_rank_per_prime=13)) == (22184, [])


def test_default_rank_table_misses_groups_only_at_orders_divisible_by_2_to_the_9():
    # the default rank bound 8 leaves out the p-groups of rank 9 and more,
    # which at orders <= 10^4 are the 2-groups of order 2^9 and up
    rows, failures = hall_failures(SearchBounds(10**4))
    assert rows == 22134
    assert failures == [512 * k for k in range(1, 20)]


def test_witness_table_is_cleared_when_full(monkeypatch):
    # with room for four witnesses, searches that find 7, 10 and 9 groups
    # clear the table as they go and still return what the plain scan does
    most = []

    class Table(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            most.append(len(self))

    monkeypatch.setattr(search, "_WITNESSES_MAX", 4)
    monkeypatch.setattr(search, "_WITNESSES", Table())
    bounds = SearchBounds(max_order=200)
    for a in (Fraction(1, 2), Fraction(2, 3), Fraction(4, 5)):
        hits = find_exact(a, bounds)
        assert len(hits) > 4
        assert hits == find_exact(a, bounds, prune=False)
    assert max(most) == 4 and 1 in most[1:]
