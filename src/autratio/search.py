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
factors) order without a sort.  A heap yields the orders ascending, each
once, and each block of p-parts is made once per call.

The pruned search walks only the primes a group includes, keeping pending
nodes on a stack and threading r = a / (product of chosen local ratios)
through them.  It cuts what provably cannot be met, once per node:

* every prime factor of a future local numerator is either some remaining
  prime q or divides q^j - 1 < remaining budget, so a numerator prime of r
  at or above the budget is unreachable and the node is dead;
* a prime q dividing the reduced denominator of r can only be cancelled by
  the q-part itself (local denominators are prime powers), so q must be a
  later prime and q^v must fit the remaining budget.  The node is dead
  otherwise, and its prime loop ends at the smallest such q, since
  including any prime past it would leave q uncancelled.

Both cuts are conservative; the differential test against the unpruned
scan is part of the contract.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from math import gcd
from typing import Iterator

from .autorder import aut_order_local, f_exact
from .groups import AbelianGroup, order
from .primes import shared_stream

__all__ = [
    "SearchBounds",
    "Witness",
    "enumerate_groups",
    "find_exact",
    "build_f_table",
    "TABLE_HEADER_PREFIX",
]

TABLE_HEADER_PREFIX = "# autratio f-table v1"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Witness:
    group: AbelianGroup
    f_value: Fraction


@lru_cache(maxsize=None)
def _partitions(weight: int, max_len: int, min_part: int = 1) -> tuple:
    """Ascending partitions of ``weight`` into at most ``max_len`` parts,
    each at least ``min_part``, in tuple order."""
    if weight == 0:
        return ((),)
    return tuple(
        (first,) + rest for first in range(min_part, weight + 1) if max_len
        for rest in _partitions(weight - first, max_len - 1, first)
    )


@lru_cache(maxsize=None)
def _local_ratio(p: int, part: tuple[int, ...]) -> Fraction:
    return Fraction(aut_order_local(p, part), p ** sum(part))


def _by_order(primes: list[int], bounds: SearchBounds, unit, part_row, join):
    """``(n, base, block)``, n ascending, per order 2 <= n <= max_order of
    ``primes``: with p the largest prime of n = m * p**w, base is the rows
    of order m (``[unit]`` if m = 1) and block the ``part_row(p, partition)``
    of weight w.  ``join(base, block)`` is kept while a larger prime can join
    it.  Heap entry n = x * primes[j] leads to n * primes[j], x * primes[j+1]."""
    max_order, rank = bounds.max_order, bounds.max_rank_per_prime
    blocks = [[None] for _ in primes]  # blocks[j][w] for p = primes[j]
    for p, block in zip(primes, blocks):
        while p ** len(block) <= max_order:
            block.append([part_row(p, e) for e in _partitions(len(block), rank)])
    rows, size = {1: [unit]}, len(primes)
    pending = [2 * size] if primes else []  # n * size + j for p = primes[j]
    while pending:
        n, j = divmod(heappop(pending), size)
        p = primes[j]
        m, w = n // p, 1
        while m % p == 0:
            m, w = m // p, w + 1
        base, block = rows[m], blocks[j][w]
        if n * (p + 1) <= max_order:
            rows[n] = join(base, block)
        yield n, base, block
        if n * p <= max_order:
            heappush(pending, n * p * size + j)
        if j + 1 < size and (x := n // p * primes[j + 1]) <= max_order:
            heappush(pending, x * size + j + 1)


def enumerate_groups(bounds: SearchBounds) -> Iterator[AbelianGroup]:
    """Every abelian group within bounds, exactly once, in nondecreasing
    order of group order (ties broken by canonical form).  Raises
    SieveCapacityError when the prime limit is above the sieve ceiling."""
    primes = shared_stream().primes_upto(bounds.prime_limit)
    join = lambda base, block: [fm + fb for fm in base for fb in block]
    yield AbelianGroup._trusted(())
    for _, base, block in _by_order(primes, bounds, (), lambda p, e: ((p, e),), join):
        yield from map(AbelianGroup._trusted, join(base, block))


def find_exact(
    a, bounds: SearchBounds, *, prune: bool = True
) -> list[Witness]:
    """All witnesses f(G) = a within bounds, by exact rational comparison.

    An empty list means "no witness within these bounds", nothing more.
    With ``prune=False`` the search degenerates to a plain filtered scan of
    the full enumeration (the reference behavior for differential tests).
    Raises SieveCapacityError when max_order is above the sieve ceiling.
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
    stream = shared_stream()
    primes = stream.primes_upto(bounds.prime_limit)
    strip_primes = stream.primes_upto(bounds.max_order)
    rank = bounds.max_rank_per_prime
    hits: list[AbelianGroup] = []

    def reach(r: Fraction, start: int, budget: int) -> int:
        """End of the prime indices worth including at a node: start when
        the requirement r cannot be met, else past the smallest prime of
        its denominator (and never past the budget)."""
        end = bisect_right(primes, budget, start)
        num = r.numerator
        if num > 1:
            # every future numerator prime is < budget: local q-powers need
            # rank >= 2 (so q*q <= budget) and divisors of q^x - 1 are
            # below q^x <= budget
            for q in strip_primes:
                if q >= budget or q > num:
                    break
                while num % q == 0:
                    num //= q
            if num > 1:
                return start
        den = r.denominator
        if den > 1:
            # denominator primes can only be cancelled by their own local
            # part, so each must be at index >= start and fit the budget;
            # past the smallest one the first of these can never hold again
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

    stack = [(0, bounds.max_order, (), a)]
    while stack:
        start, budget, factors, r = stack.pop()
        if r == 1:
            hits.append(AbelianGroup._trusted(factors))
        for j in range(start, reach(r, start, budget)):
            p = primes[j]
            pw, w = p, 1
            while pw <= budget:
                for part in _partitions(w, rank):
                    stack.append((
                        j + 1,
                        budget // pw,
                        factors + ((p, part),),
                        r / _local_ratio(p, part),
                    ))
                w += 1
                pw *= p

    hits.sort(key=lambda g: (order(g), g.factors))
    return [Witness(g, a) for g in hits]


def _table_text(bounds: SearchBounds) -> Iterator[str]:
    """The f-table as its header, its first row, then one chunk per order."""
    primes = shared_stream().primes_upto(bounds.prime_limit)
    yield f"{TABLE_HEADER_PREFIX} max_order={bounds.max_order}\n"
    yield "C1\t1\t1\t1/1\n"
    for n, base, block in _by_order(primes, bounds, ("", 1), lambda p, e: (
        (f"C{p}", p - 1) if e == (1,)  # |Aut(C_p)| = p - 1
        else (" x ".join([f"C{p**k}" for k in e]), aut_order_local(p, e))
    ), lambda base, block: [  # kept rows: (literal + " x ", |Aut|)
        (f"{lm}{lb} x ", am * ab) for lm, am in base for lb, ab in block
    ]):
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
