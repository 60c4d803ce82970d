"""Brute-force automorphism counting on small groups.

This is the independent oracle that anchors the closed-form |Aut| formula:
it never touches the formula, only elementary facts.  Writing G as a direct
sum of cyclic groups C_{q_1} x ... x C_{q_k} (prime power q_j, canonical
generator g_j), every endomorphism is determined by generator images
(h_1, ..., h_k) with ord(h_j) | q_j, and it is an automorphism exactly when
the images generate G (a surjective endomorphism of a finite group is
bijective).  So |Aut(G)| is the number of generating image tuples.

Elements are mixed-radix ints and subgroups are frozensets of them;
generation is checked by subgroup closure.  The DFS over image choices
memoizes on the subgroup S generated so far, and it collapses the choices
for h_j by coset.  closure(S, h) = closure(S, h + s) for every s in S, and
the allowed images G[q_j] = {h : q_j h = 0} form a subgroup, so they split
into the cosets h + W of W = S n G[q_j], and the |W| images of one coset
lead to the same subgroup.  Counting one image per coset, weighted by |W|,
therefore counts exactly the same generating tuples.  The literal
tuple-by-tuple scan is kept as ``aut_order_bruteforce_naive`` and the test
suite checks the two against each other.
"""

from __future__ import annotations

import itertools
from math import prod

from ._record import record
from .errors import OracleCapExceeded
from .groups import AbelianGroup, order

__all__ = ["OracleCaps", "aut_order_bruteforce", "aut_order_bruteforce_naive"]

_NAIVE_MAX_TUPLES = 500_000  # the most image tuples the literal scan tries


@record
class OracleCaps:
    """Refusal thresholds: group order and |G|**rank tuple-space size."""

    order_cap: int = 200
    work_cap: int = 10**8


def _cyclic_radices(g: AbelianGroup) -> list[int]:
    return [p**e for p, part in g.factors for e in part]


def _check_caps(g: AbelianGroup, caps: OracleCaps) -> None:
    n = order(g)
    if n > caps.order_cap:
        raise OracleCapExceeded(
            f"group order {n} exceeds oracle order cap {caps.order_cap}"
        )
    if n**g.rank > caps.work_cap:
        raise OracleCapExceeded(
            f"|G|^rank = {n}^{g.rank} exceeds oracle work cap {caps.work_cap}"
        )


def aut_order_bruteforce(g: AbelianGroup, caps: OracleCaps = OracleCaps()) -> int:
    """Count automorphisms by enumerating generator images; see module doc.

    Raises OracleCapExceeded (never silently truncates) when the group is
    outside the configured caps.
    """
    _check_caps(g, caps)
    if g.is_trivial:
        return 1
    radices = _cyclic_radices(g)
    n = order(g)
    k = len(radices)
    strides = [prod(radices[:j]) for j in range(k)]
    digits = [[x // s % q for x in range(n)] for q, s in zip(radices, strides)]
    # allowed[j]: the subgroup G[q_j] of elements h with q_j h = 0
    allowed = [
        frozenset(
            x for x in range(n) if all(d[x] * q % r == 0 for d, r in zip(digits, radices))
        )
        for q in radices
    ]
    # room left at depth j: adding an image of order dividing q grows the
    # generated subgroup by at most a factor q
    room = [prod(radices[j:]) for j in range(k)] + [1]
    memo: dict[tuple[int, frozenset[int]], int] = {}

    def add(x: int, y: int) -> int:
        return sum((d[x] + d[y]) % q * s for d, q, s in zip(digits, radices, strides))

    def closure(S: frozenset[int], h: int) -> frozenset[int]:
        T = set(S)
        m = h
        while m not in S:
            T.update(add(s, m) for s in S)
            m = add(m, h)
        return frozenset(T)

    def count(j: int, S: frozenset[int]) -> int:
        if len(S) * room[j] < n:
            return 0
        if j == k:
            return 1  # room[k] = 1, so S is all of G
        key = (j, S)
        hit = memo.get(key)
        if hit is not None:
            return hit
        W = S & allowed[j]
        covered: set[int] = set()
        total = 0
        for h in allowed[j]:
            if h not in covered:
                covered.update(add(h, w) for w in W)
                total += count(j + 1, closure(S, h))
        total *= len(W)
        memo[key] = total
        return total

    total = count(0, frozenset([0]))
    del count  # count refers to itself; drop the cycle so memo goes now
    return total


def aut_order_bruteforce_naive(g: AbelianGroup, caps: OracleCaps = OracleCaps()) -> int:
    """Literal scan over all image tuples; exponential, for cross-checks only."""
    _check_caps(g, caps)
    if g.is_trivial:
        return 1
    radices = _cyclic_radices(g)
    n = order(g)
    k = len(radices)

    def digits_of(x):
        out = []
        for q in radices:
            out.append(x % q)
            x //= q
        return tuple(out)

    def index_of(ds):
        x = 0
        for q, d in zip(reversed(radices), reversed(ds)):
            x = x * q + d
        return x

    def add(x, y):
        return index_of(
            tuple((a + b) % q for a, b, q in zip(digits_of(x), digits_of(y), radices))
        )

    def elem_order_divides(x, q):
        return all((d * q) % r == 0 for d, r in zip(digits_of(x), radices))

    allowed = [[x for x in range(n) if elem_order_divides(x, q)] for q in radices]
    if prod(len(a) for a in allowed) > _NAIVE_MAX_TUPLES:
        raise OracleCapExceeded("naive oracle tuple space too large")

    def generates(images) -> bool:
        span = {0}
        for h in images:
            new = set(span)
            m = h
            while m != 0:
                new |= {add(s, m) for s in span}
                m = add(m, h)
            span = new
        return len(span) == n

    return sum(1 for images in itertools.product(*allowed) if generates(images))
