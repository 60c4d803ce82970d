"""Bounded exhaustive search for exact rational hits f(G) = a.

Whether every nonnegative rational is attained by some abelian group is
open; this module only ever reports *bound-relative* evidence.  Finding no
witness under given bounds says nothing beyond those bounds, and the empty
result is a first-class outcome.

Enumeration walks primes in ascending order, assigning each an exponent
partition (or none) under the order budget, which visits every isomorphism
class exactly once.  The pruned search threads the running requirement
r = a / (product of chosen local ratios) through that same walk and cuts
branches whose requirement provably cannot be met:

* a prime q dividing the reduced denominator of r can only be cancelled by
  the q-part itself (local denominators are prime powers), so q must still
  be available and q^v must fit the remaining order budget;
* every prime factor of a future local numerator is either some remaining
  prime q or divides q^j - 1 < remaining budget, so a numerator prime of r
  at or above the budget is unreachable.

Both cuts are conservative; the differential test against the unpruned
scan is part of the contract.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .autorder import aut_order, aut_order_local, f_exact
from .groups import AbelianGroup, format_group, order
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
def _partitions(weight: int, max_len: int, max_part: int | None = None) -> tuple:
    """Ascending partitions of ``weight`` with at most ``max_len`` parts."""
    if weight == 0:
        return ((),)
    if max_len == 0:
        return ()
    cap = max_part if max_part is not None else weight
    out = []
    for largest in range(1, min(weight, cap) + 1):
        for rest in _partitions(weight - largest, max_len - 1, largest):
            out.append(rest + (largest,))
    return tuple(out)


@lru_cache(maxsize=None)
def _local_ratio(p: int, part: tuple[int, ...]) -> Fraction:
    return Fraction(aut_order_local(p, part), p ** sum(part))


def _sort_key(g: AbelianGroup):
    return (order(g), g.factors)


def enumerate_groups(bounds: SearchBounds) -> Iterator[AbelianGroup]:
    """Every abelian group within bounds, exactly once, in nondecreasing
    order of group order (ties broken by canonical form).

    Raises SieveCapacityError when the prime limit is above the sieve
    ceiling."""
    groups: list[AbelianGroup] = []

    def walk(primes: list[int], idx: int, budget: int, acc: list):
        if idx == len(primes) or primes[idx] > budget:
            groups.append(AbelianGroup(tuple(acc)))
            return
        p = primes[idx]
        walk(primes, idx + 1, budget, acc)  # skip p
        pw = p
        w = 1
        while pw <= budget:
            for part in _partitions(w, bounds.max_rank_per_prime):
                acc.append((p, part))
                walk(primes, idx + 1, budget // pw, acc)
                acc.pop()
            w += 1
            pw *= p

    walk(shared_stream().primes_upto(bounds.prime_limit), 0, bounds.max_order, [])
    groups.sort(key=_sort_key)
    yield from groups


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
    hits: list[AbelianGroup] = []

    def cut(r: Fraction, idx: int, budget: int) -> bool:
        den = r.denominator
        if den > 1:
            # denominator primes can only be cancelled by their own local
            # part, so each must still be ahead of us and fit the budget
            for j in range(idx, len(primes)):
                q = primes[j]
                if q > den:
                    break
                v = 0
                while den % q == 0:
                    den //= q
                    v += 1
                if v and q**v > budget:
                    return True
            if den > 1:
                return True
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
                return True
        return False

    def walk(idx: int, budget: int, acc: list, r: Fraction):
        if r != 1 and cut(r, idx, budget):
            return
        if idx == len(primes) or primes[idx] > budget:
            if r == 1:
                hits.append(AbelianGroup(tuple(acc)))
            return
        p = primes[idx]
        walk(idx + 1, budget, acc, r)
        pw = p
        w = 1
        while pw <= budget:
            for part in _partitions(w, bounds.max_rank_per_prime):
                acc.append((p, part))
                walk(idx + 1, budget // pw, acc, r / _local_ratio(p, part))
                acc.pop()
            w += 1
            pw *= p

    walk(0, bounds.max_order, [], a)
    hits.sort(key=_sort_key)
    return [Witness(g, a) for g in hits]


def render_table(bounds: SearchBounds) -> bytes:
    """The f-table as bytes: one row per group,
    ``<literal>\\t<order>\\t<aut_order>\\t<num>/<den>``, sorted by order
    then canonical form, under a version header."""
    buf = io.StringIO()
    buf.write(f"{TABLE_HEADER_PREFIX} max_order={bounds.max_order}\n")
    for g in enumerate_groups(bounds):
        f = f_exact(g)
        buf.write(
            f"{format_group(g)}\t{order(g)}\t{aut_order(g)}\t"
            f"{f.numerator}/{f.denominator}\n"
        )
    return buf.getvalue().encode("utf-8")


def build_f_table(bounds: SearchBounds, path) -> int:
    """Write the f-table to ``path`` (idempotent, byte-deterministic).
    Returns the number of data rows."""
    data = render_table(bounds)
    with open(path, "wb") as fh:
        fh.write(data)
    return data.count(b"\n") - 1
