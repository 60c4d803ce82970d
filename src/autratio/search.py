"""Bounded exhaustive search for exact rational hits f(G) = a.

Whether every nonnegative rational is attained by some abelian group is
open; this module only ever reports *bound-relative* evidence.  Finding no
witness under given bounds says nothing beyond those bounds, and the empty
result is a first-class outcome.

Enumeration walks only the primes a group includes.  A node is a group
together with the index of the next prime it may take and the order budget
left; it reports its group, then loops over the later primes p up to the
budget and adds one child for each exponent partition of p that fits.
Each isomorphism class is one node, a skipped prime costs one loop step,
and pending nodes sit on an explicit stack, so no bound hits Python's
recursion limit.  The f-table is computed in the same walk: each node
carries its order, |Aut| and literal as products and joins of per-(p, part)
values computed once per table, and the rows are sorted at the end.

The pruned search threads the running requirement
r = a / (product of chosen local ratios) through the same kind of walk and
cuts what provably cannot be met, once per node:

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

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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


def _rows(bounds: SearchBounds) -> list[tuple[int, tuple, int, str]]:
    """Every group within bounds as a row ``(order, factors, |Aut|,
    literal)``, sorted by (order, factors) as ``_sort_key`` sorts groups;
    the trivial group's literal is "".

    A node is a row plus the index of the next prime it may include and
    the order budget left.  The local |Aut| and literal of each (p, part)
    are computed once per call.
    """
    primes = shared_stream().primes_upto(bounds.prime_limit)
    rank = bounds.max_rank_per_prime
    blocks: dict[tuple[int, int], list] = {}
    rows = []
    stack = [(0, bounds.max_order, 1, (), 1, "")]
    while stack:
        start, budget, n, factors, aut, literal = stack.pop()
        rows.append((n, factors, aut, literal))
        for j in range(start, bisect_right(primes, budget, start)):
            p = primes[j]
            pw, w = p, 1
            while pw <= budget:
                block = blocks.get((p, w))
                if block is None:
                    block = blocks[(p, w)] = [
                        (
                            (p, part),
                            aut_order_local(p, part),
                            " x ".join(f"C{p**e}" for e in part),
                        )
                        for part in _partitions(w, rank)
                    ]
                for factor, a, lit in block:
                    stack.append((
                        j + 1,
                        budget // pw,
                        n * pw,
                        factors + (factor,),
                        aut * a,
                        f"{literal} x {lit}" if literal else lit,
                    ))
                w += 1
                pw *= p
    rows.sort()  # (order, factors) is unique, so later fields never compare
    return rows


def enumerate_groups(bounds: SearchBounds) -> Iterator[AbelianGroup]:
    """Every abelian group within bounds, exactly once, in nondecreasing
    order of group order (ties broken by canonical form).

    Raises SieveCapacityError when the prime limit is above the sieve
    ceiling."""
    for row in _rows(bounds):
        yield AbelianGroup(row[1])


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
            hits.append(AbelianGroup(factors))
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

    hits.sort(key=_sort_key)
    return [Witness(g, a) for g in hits]


def render_table(bounds: SearchBounds) -> bytes:
    """The f-table as bytes: one row per group,
    ``<literal>\\t<order>\\t<aut_order>\\t<num>/<den>``, sorted by order
    then canonical form, under a version header."""
    out = [f"{TABLE_HEADER_PREFIX} max_order={bounds.max_order}\n"]
    for n, _, aut, literal in _rows(bounds):
        g = gcd(aut, n)
        out.append(f"{literal or 'C1'}\t{n}\t{aut}\t{aut // g}/{n // g}\n")
    return "".join(out).encode("utf-8")


def build_f_table(bounds: SearchBounds, path) -> int:
    """Write the f-table to ``path`` (idempotent, byte-deterministic).
    Returns the number of data rows."""
    data = render_table(bounds)
    with open(path, "wb") as fh:
        fh.write(data)
    return data.count(b"\n") - 1
