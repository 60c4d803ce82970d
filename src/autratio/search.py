"""Bounded exhaustive search for exact rational hits f(G) = a.

Not every nonnegative rational is attained: f(G) always has a squarefree
denominator.  By the |Aut| formula in ``autorder`` (Hillar & Rhea, Amer.
Math. Monthly 114, 2007), a p-group G_p of rank r has
nu_p(|Aut(G_p)|) >= nu_p(|G_p|) - r + r(r - 1)/2, since the k-th factor
p^d_k - p^(k-1) carries p^(k-1) exactly and the third product carries at
least p^(e_i - 1) per part.  So nu_p(f(G_p)) >= r(r - 3)/2 >= -1, and
the other primary parts only multiply in integers |Aut(G_q)|: 1/4 is
never attained.  Beyond that, this module only ever reports
*bound-relative* evidence.  Finding no witness under given bounds says
nothing beyond those bounds, and the empty result is a first-class
outcome.

Enumeration and the f-table go order by order.  Order n = m * p^w, p its
largest prime, joins each group of order m, whose primes lie below p,
with each p-part of weight w, so taking both in order gives (order,
factors) order without a sort.  When every prime up to the order bound is
usable, the orders are 2, 3, ... and a largest-prime sieve gives each one
its p; below that a heap yields the orders ascending, each once, so a
bound with few usable primes costs only the orders it has.  The p-part of
weight 1 is C_p, made where its order comes; those of weight w >= 2 are
the cached levels that the pruned search shares (below).

The pruned search walks only the primes a group includes, keeping live
nodes on a stack and threading r = rn/rd = a / (product of chosen local
ratios), in lowest terms, through them.  A node is dead when (``reach``):

* rd is above the order budget left: the rest H has f(H) = r, whose
  squarefree denominator is made of primes of |H|, so rd <= |H|;
* a numerator prime of r is at or above the budget: every prime factor of
  a future local numerator is a remaining prime q with q*q <= budget or
  divides some q^j - 1 < budget.  Only primes up to the prime limit are
  divided out, so below a budget past the limit what is left is cut only
  when it is a proven prime at or above the budget;
* a prime q of rd is not a later prime: local denominators are 1 or the
  prime itself, so only the q-part can cancel q.  The node's prime loop
  ends at the smallest such q, since including any prime past it would
  leave q uncancelled.
* (first, for dense and sparse bounds alike) rn.bit_length() -
  rd.bit_length() > L(L - 1), with L = budget.bit_length(), so that r >
  2^(L(L - 1)).  An endomorphism of an abelian H is fixed by the images of
  rank(H) <= log2 |H| generators, so |Aut H| <= |End H| <= |H|^rank(H),
  and f(H) <= |H|^(log2 |H| - 1) < 2^(L(L - 1)) for 2 <= |H| <= budget <
  2^L (f = 1 for the trivial group).

The two prime tests factor a value up to T = min(max_order, 2^16, sieve
ceiling) by lookup in the prime stream's largest-prime table, P(n) at
index n (``PrimeStream.table``: grown to the largest T asked for, never
past 2^16 + 1 entries); larger values are divided by the primes in turn.
With P = P(rn), the numerator cut is P >= budget when budget <= limit + 1,
and past that P >= budget with no prime of rn / P above the limit, so that
the part of rn above the limit is the prime P.
rd is read largest prime first: the largest must be within the limit, and
the smallest, at or past the node's first prime, sets the end.

A child, one p-part of weight w, is judged before it is divided or pushed
(``_Walk.children``), by integer tests on rn and rd against the level of
p and w, one (pair, an, ad, low) per partition e of w with pair = (p, e):
an/ad is |Aut(G_p)|/p^w in lowest terms (ad is 1 or p) and low the part
of an made of primes up to p.

* Denominator test: ``rn % low != 0``.  A prime up to p would stay in the
  child's denominator, and only its own part, already passed, can cancel it.
* Numerator test: ad = p, p does not divide rd and p >= budget // p^w.  p
  would stay in the child's numerator, at or above its budget.  Beside it,
  ad = 1 while p divides rd leaves p in the denominator.
* rd, less the p that ad = p cancels, above budget // p^w: the child's
  denominator is above its budget, at this weight and every larger one.
* Past sqrt(budget) a prime's only child is C_p (ad = p), and no prime
  below the smallest of rd divides rd, so only that one can pass.

Each test is a consequence of the node cuts, so the witnesses do not
change.  A child that passes is divided and pushed only when it can still
hit or branch, with its end index.  f is multiplicative and the local
factor depends only on p and e, so a level is a pure function of (p, w,
rank): it is built once, never changed, and kept in a bounded cache that
later calls, enumeration and the f-table share.  The last walk is kept
(``_walk``, one per bounds and stream): its primes and, per prime, its
levels up to max_order, filled on first read, so a repeated search builds
none of them.  Two threads can at most build the same level or table
twice, and both copies are equal.  A bound whose p = 2 alone would need
more than ``MAX_SEARCH_PARTS`` p-parts is refused before any is built, on
every call.  All cuts are conservative; the differential test against the
unpruned scan is part of the contract.
"""

from __future__ import annotations

import os
import threading
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import islice
from math import gcd, isqrt, prod
from typing import Iterator

from ._record import record
from .autorder import aut_order_local, f_exact
from .errors import InputLimitExceeded
from .groups import AbelianGroup, _proven_prime
from .primes import PrimeStream, shared_stream

__all__ = [
    "SearchBounds",
    "Witness",
    "enumerate_groups",
    "find_exact",
    "build_f_table",
    "TABLE_HEADER_PREFIX",
    "MAX_SEARCH_PARTS",
]

TABLE_HEADER_PREFIX = "# autratio f-table v1"

# The p-parts the pruned search may build for p = 2, the prime with the
# most: every partition of each weight w with 2^w <= max_order into at most
# max_rank_per_prime parts.  At rank 8, 10^15 needs 238,093 and 2^56 - 1,
# the largest bound let through, 478,699 (4.4 s and 204 MB peak RSS on one
# core of a 2-vCPU Xeon); 10^30 would need 21,582,622.
MAX_SEARCH_PARTS = 1 << 19


@record
class SearchBounds:
    """Finite search region: order, largest usable prime, per-prime rank."""

    max_order: int
    max_prime: int | None = None
    max_rank_per_prime: int = 8

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError("max_order must be >= 1")
        if self.max_prime is not None and self.max_prime < 2:
            raise ValueError("max_prime must be >= 2")
        if self.max_rank_per_prime < 1:
            raise ValueError("max_rank_per_prime must be >= 1")

    @property
    def prime_limit(self) -> int:
        p = self.max_prime if self.max_prime is not None else self.max_order
        return min(p, self.max_order)


@record
class Witness:
    group: AbelianGroup
    f_value: Fraction


def _partitions(weight: int, max_len: int) -> list[tuple]:
    """Ascending partitions of ``weight`` >= 1 into at most ``max_len``
    parts, in tuple order.  Each one's successor raises its second-last
    part by one, to x, and refills the rest with copies of x while at least
    x is left and a part is free, the last part taking what remains
    (Kelleher's rule_asc, with the fill stopped at max_len parts)."""
    a = [0] * (weight + 1)
    a[1], k, out = weight, 1, []
    while k:
        x, y = a[k - 1] + 1, a[k] - 1
        k -= 1
        while x <= y and k < max_len - 1:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        out.append(tuple(a[: k + 1]))
    return out


def _part_count(weights: int, rank: int) -> int:
    """The partitions of 1, ..., ``weights`` into at most ``rank`` parts, in
    all, counted until the sum passes MAX_SEARCH_PARTS."""
    rows, total = [[1]], 0  # rows[w][k], k <= w: partitions of w into parts <= k
    for w in range(1, weights + 1):
        row = [0]
        for k in range(1, min(w, rank) + 1):
            row.append(row[-1] + rows[w - k][min(k, w - k)])
        rows.append(row)
        total += row[-1]
        if total > MAX_SEARCH_PARTS:
            break
    return total


def _largest_primes(primes: list[int], max_order: int) -> array:
    """P(n), the largest prime of n, at index n for 2 <= n <= max_order;
    ``primes`` is every prime up to max_order."""
    top = array("I", bytes(4 * (max_order + 1)))
    half = bisect_right(primes, max_order // 2)
    for p in primes[:half]:  # a larger prime overwrites a smaller one
        top[p::p] = array("I", [p]) * (max_order // p)
    for p in primes[half:]:  # its only multiple up to max_order
        top[p] = p
    return top


# The node tests factor values up to at most _TOP_MAX by lookup.
_TOP_MAX = 1 << 16


def _top_fill(stream: PrimeStream, top: array, n: int) -> None:
    """Fill of the stream's largest-prime table, grown to n entries:
    ``_largest_primes`` up to n - 1, appended past what it holds."""
    top.extend(islice(_largest_primes(stream.primes_upto(n - 1), n - 1), len(top), None))


def _heap_orders(primes: list[int], max_order: int) -> Iterator[tuple[int, int]]:
    """``(n, p)``, n ascending, for each order 2 <= n <= max_order whose
    primes all lie in ``primes``, p its largest.  Heap entry n * size + j
    for p = primes[j] leads to n * primes[j] and n / p * primes[j + 1]."""
    size = len(primes)
    pending = [2 * size] if primes else []
    while pending:
        n, j = divmod(heappop(pending), size)
        p = primes[j]
        yield n, p
        if n * p <= max_order:
            heappush(pending, n * p * size + j)
        if j + 1 < size and (x := n // p * primes[j + 1]) <= max_order:
            heappush(pending, x * size + j + 1)


def _by_order(primes: list[int], bounds: SearchBounds, unit, cyclic, part, join):
    """``(n, base, block)``, n ascending, per order 2 <= n <= max_order of
    ``primes``: with p the largest prime of n = m * p**w, base is the rows
    of order m (``[unit]`` if m = 1) and block the p-parts of weight w,
    ``cyclic(p)`` for w = 1, else ``part(pair, |Aut|)`` per partition from
    the cached level.  ``join(base, block)`` is kept while a larger
    prime can join it.  The orders come from a largest-prime sieve when
    every prime up to max_order is usable, else from a heap."""
    max_order, rank = bounds.max_order, bounds.max_rank_per_prime
    if bounds.prime_limit == max_order:
        orders = islice(enumerate(_largest_primes(primes, max_order)), 2, None)
    else:
        orders = _heap_orders(primes, max_order)
    rows, blocks = {1: [unit]}, {}  # blocks: p**w -> block, for w >= 2
    for n, p in orders:
        m = n // p
        if m % p:
            block = cyclic(p)
        else:
            m, pw, w = m // p, p * p, 2
            while m % p == 0:
                m, pw, w = m // p, pw * p, w + 1
            if (block := blocks.get(pw)) is None:
                block = blocks[pw] = [
                    part(pair, an * pw // ad) for pair, an, ad, _ in _level(p, w, rank)
                ]
        base = rows[m]
        if n * (p + 1) <= max_order:
            rows[n] = join(base, block)
        yield n, base, block


def enumerate_groups(bounds: SearchBounds) -> Iterator[AbelianGroup]:
    """Every abelian group within bounds, exactly once, in nondecreasing
    order of group order (ties broken by canonical form).  Raises
    SieveCapacityError when the prime limit is above the sieve ceiling."""
    primes = shared_stream().primes_upto(bounds.prime_limit)
    join = lambda base, block: [fm + fb for fm in base for fb in block]
    yield AbelianGroup._trusted(())
    for _, base, block in _by_order(
        primes, bounds, (), lambda p: [(_cyclic_pair(p),)], lambda pair, aut: (pair,), join
    ):
        yield from map(AbelianGroup._trusted, join(base, block))


def _smooth_part(n: int, p: int, primes: list[int]) -> int:
    """The part of n made of primes up to p; ``primes`` is every prime up to
    p.  Trial division stops at the square root of what is left, which is
    then 1 or a prime."""
    low = 1
    for q in primes:
        if q * q > n:
            break
        if n % q == 0:
            qpart = gcd(n, q ** n.bit_length())  # all of it at once
            n //= qpart
            low *= qpart
    return low * n if n <= p else low


# Levels cached, counted as levels: a dense search at the sieve ceiling,
# 10^8, expands 2,633, nearly all of primes above 100 with one or two
# p-parts each, so repeating any dense search builds nothing.  Large levels
# come only from small primes at large weights, which MAX_SEARCH_PARTS
# bounds per search but not across searches at other ranks, so the p-parts
# built are counted too: before they pass _PARTS_MAX, the level cache and
# the cached walk, whose child tables hold its levels, are cleared, as
# _WITNESSES is when full.  A walk in progress keeps the tables it read.
_LEVELS_MAX = 1 << 12
_PARTS_MAX = 2 * MAX_SEARCH_PARTS
_parts_built = 0  # p-parts built since the caches were last cleared
_parts_lock = threading.Lock()


def _clear_levels() -> None:
    """Empty the level cache and the cached walk, whose child tables hold
    its levels."""
    global _parts_built
    _walk.cache_clear()
    _level.cache_clear()
    _parts_built = 0


def _count_parts(n: int) -> None:
    """Count n p-parts about to be built, clearing both caches first when
    the count would pass _PARTS_MAX."""
    global _parts_built
    with _parts_lock:
        if _parts_built + n > _PARTS_MAX:
            _clear_levels()
        _parts_built += n


@lru_cache(maxsize=_LEVELS_MAX)
def _level(p: int, w: int, rank: int) -> tuple:
    """The p-parts of weight w and at most ``rank`` parts: one ``(pair, an,
    ad, low)`` per partition e of w, in tuple order, with ``pair = (p, e)``
    shared by every group that includes it, an/ad = |Aut(G_p)| / p**w in
    lowest terms and low the part of an made of primes up to p."""
    parts = _partitions(w, rank)
    _count_parts(len(parts))
    pw, primes, kids = p**w, shared_stream().primes_upto(p), []
    for part in parts:
        aut = aut_order_local(p, part)
        an, ad = aut // (g := gcd(aut, pw)), pw // g
        kids.append(((p, part), an, ad, _smooth_part(an, p, primes)))
    return tuple(kids)


@lru_cache(maxsize=1 << 14)
def _cyclic_pair(p: int) -> tuple:
    """The factor (p, (1,)) of C_p, one object shared by every hit."""
    return (p, (1,))


class _Walk:
    """The pruned search's primes and child tables for one ``SearchBounds``
    and prime stream.

    A node is a group, the index of the next prime it may include, the
    order budget left and r = rn/rd in lowest terms, what the rest must
    still make of the target (see the module docstring)."""

    def __init__(self, bounds: SearchBounds, stream: PrimeStream):
        self.primes = stream.primes_upto(bounds.prime_limit)
        self.limit = bounds.prime_limit
        self.rank = bounds.max_rank_per_prime
        self.max_order = bounds.max_order
        if _part_count(self.max_order.bit_length() - 1, self.rank) > MAX_SEARCH_PARTS:
            raise InputLimitExceeded(
                f"search bounds need more than MAX_SEARCH_PARTS = "
                f"{MAX_SEARCH_PARTS} p-parts of p = 2 at rank {self.rank}"
            )
        self.tables: dict[int, tuple] = {}  # prime index -> its (p**w, level)s
        # node values up to T are factored by lookup; T stays within the
        # sieve ceiling, as the table's primes come from the stream
        self.tabled = min(self.max_order, _TOP_MAX, stream.ceiling)
        self.top = stream.table(_top_fill, self.tabled + 1)

    def reach(self, num: int, den: int, start: int, budget: int) -> int:
        """End of the prime indices worth including at node r = num/den:
        start when r cannot be met, else past the smallest prime of its
        denominator (and never past the budget)."""
        if den > budget:
            return start
        size = budget.bit_length()
        if num.bit_length() - den.bit_length() > size * (size - 1):
            return start  # r > 2^(L(L - 1)) >= f(H) for every |H| <= budget
        primes, top, tabled, limit = self.primes, self.top, self.tabled, self.limit
        if 1 < num <= tabled:
            q = top[num]  # past the limit: is q all of num above the limit?
            if q >= budget and (budget <= limit + 1 or top[num // q] <= limit):
                return start
        elif num > 1:
            for q in primes:
                if q >= budget or q > num:
                    break
                while num % q == 0:
                    num //= q
            if num > 1 and (
                budget <= limit + 1  # every prime below it divided out
                or num >= budget and _proven_prime(num, limit)
            ):
                return start
        if den == 1:
            return bisect_right(primes, budget, start)
        if den <= tabled:
            if top[den] > limit:
                return start
            while den > 1:  # largest prime first: q ends as the smallest
                den //= (q := top[den])
            j = bisect_left(primes, q, start)
            return j + 1 if j < len(primes) and primes[j] == q else start
        end = bisect_right(primes, budget, start)
        for j in range(start, end):
            q = primes[j]
            if q > den:
                break
            if den % q == 0:
                end = min(end, j + 1)
                while den % q == 0:
                    den //= q
        return start if den > 1 else end

    def children(self, rn: int, rd: int, start: int, end: int, budget: int):
        """``(j, pair, n, d, b)`` for each child of a live node, ``end =
        reach(rn, rd, start, budget) > start``, that the integer tests leave:
        p = primes[j], n/d = r / (an/ad) in lowest terms, b = budget // p**w."""
        primes, tables = self.primes, self.tables
        mid = bisect_right(primes, isqrt(budget), start, end)
        for j in range(start, mid):
            p = primes[j]
            pd = rd % p == 0
            rest = rd // p if pd else rd  # divides each passing child's d
            for pw, kids in tables.get(j) or self._table(j):
                b = budget // pw
                if b < rest:
                    break
                dead = 1 if pd else p if p >= b else 0  # the ad that keeps p
                for pair, an, ad, low in kids:
                    if rn % low or ad == dead:
                        continue
                    g, h = gcd(rn, an), gcd(rd, ad)
                    yield j, pair, rn // g * (ad // h), rd // h * (an // g), b
        if mid < end and rd % (p := primes[end - 1]) == 0 and rn % (p - 1) == 0:
            yield end - 1, _cyclic_pair(p), rn // (p - 1), rd // p, budget // p

    def _table(self, j: int) -> tuple:
        p = pw = self.primes[j]
        table, w = [], 1
        while pw <= self.max_order:
            table.append((pw, _level(p, w, self.rank)))
            pw, w = pw * p, w + 1
        table = self.tables[j] = tuple(table)
        return table


# The last walk, kept after its search with its prime list (2.7 MB at a
# prime limit of 10^6), the largest-prime table it read and the child tables
# it built, so a repeated search reads them again.  A refused bound raises
# on every call, as nothing is cached for it.
_walk = lru_cache(maxsize=1)(_Walk)


# Witnesses handed out, by factors.  A group has one f value, so its
# witness is one immutable value: a later search that finds the group again
# returns the same object, and callers that keep many results hold it once.
_WITNESSES: dict[tuple, Witness] = {}
_WITNESSES_MAX = 1 << 14  # cleared when full


def _witness(factors: tuple, a: Fraction) -> Witness:
    w = _WITNESSES.get(factors)
    if w is None:
        if len(_WITNESSES) >= _WITNESSES_MAX:
            _WITNESSES.clear()
        w = _WITNESSES[factors] = Witness(AbelianGroup._trusted(factors), a)
    return w


def find_exact(
    a, bounds: SearchBounds, *, prune: bool = True
) -> list[Witness]:
    """All witnesses f(G) = a within bounds, by exact rational comparison.

    An empty list means "no witness within these bounds", nothing more.
    With ``prune=False`` the search degenerates to a plain filtered scan of
    the full enumeration (the reference behavior for differential tests).
    Raises SieveCapacityError when the prime limit is above the sieve
    ceiling, and InputLimitExceeded when the pruned search would need more
    than MAX_SEARCH_PARTS p-parts of p = 2.
    """
    a = Fraction(a)
    if a < 0:
        raise ValueError("search target must be >= 0")
    if not prune:
        return [
            Witness(g, a) for g in enumerate_groups(bounds) if f_exact(g) == a
        ]
    if a == 0:
        return []  # f is strictly positive on every finite group
    walk = _walk(bounds, shared_stream())
    rn, rd, budget = a.numerator, a.denominator, bounds.max_order
    hits = [()] if a == 1 else []
    stack = [(0, walk.reach(rn, rd, 0, budget), budget, (), rn, rd)]
    while stack:
        start, end, budget, factors, rn, rd = stack.pop()
        for j, pair, n, d, b in walk.children(rn, rd, start, end, budget):
            if n == d:  # in lowest terms: r == 1
                hits.append(factors + (pair,))
            if (e := walk.reach(n, d, j + 1, b)) > j + 1:
                stack.append((j + 1, e, b, factors + (pair,), n, d))

    hits.sort(key=lambda f: (prod(p ** sum(e) for p, e in f), f))
    return [_witness(f, a) for f in hits]


def _table_text(bounds: SearchBounds) -> Iterator[str]:
    """The f-table as its header, its first row, then one chunk per order."""
    primes = shared_stream().primes_upto(bounds.prime_limit)
    yield f"{TABLE_HEADER_PREFIX} max_order={bounds.max_order}\n"
    yield "C1\t1\t1\t1/1\n"
    for n, base, block in _by_order(
        primes, bounds, ("", 1),
        lambda p: [(f"C{p}", p - 1)],  # |Aut(C_p)| = p - 1
        lambda pair, aut: (" x ".join([f"C{pair[0]**k}" for k in pair[1]]), aut),
        lambda base, block: [  # kept rows: (literal + " x ", |Aut|)
            (f"{lm}{lb} x ", am * ab) for lm, am in base for lb, ab in block
        ],
    ):
        tail = f"\t{n}\t"
        yield "".join([
            f"{lm}{lb}{tail}{(a := am * ab)}\t{a // (g := gcd(a, n))}/{n // g}\n"
            for lm, am in base for lb, ab in block
        ])


def render_table(bounds: SearchBounds) -> bytes:
    """The f-table as bytes: one row per group,
    ``<literal>\\t<order>\\t<aut_order>\\t<num>/<den>``, sorted by order
    then canonical form, under a version header."""
    return "".join(_table_text(bounds)).encode("utf-8")


def build_f_table(bounds: SearchBounds, path) -> int:
    """Write the f-table to ``path``; return the number of data rows.  The
    rows stream into a temporary file that replaces ``path`` once complete,
    so a refused bound or a failure part way leaves ``path`` as it was."""
    chunks = _table_text(bounds)
    header, rows = next(chunks), 0  # sieves first: a refused bound opens no file
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(header)
            for chunk in chunks:
                fh.write(chunk)
                rows += chunk.count("\n")
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename != tmp:
            raise
        # name the file the caller asked for, not the temporary beside it
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return rows
