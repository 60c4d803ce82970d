"""Brute-force automorphism counting on small groups.

This is the independent oracle that anchors the closed-form |Aut| formula:
it never touches the formula, only elementary facts.  Writing G as a direct
sum of cyclic groups C_{q_1} x ... x C_{q_k} (prime power q_j, canonical
generator g_j), every endomorphism is determined by generator images
(h_1, ..., h_k) with ord(h_j) | q_j, and it is an automorphism exactly when
the images generate G (a surjective endomorphism of a finite group is
bijective).  So |Aut(G)| is the number of generating image tuples.

Elements are mixed-radix exponent tuples; generation is checked by subgroup
closure.  The DFS over image choices memoizes on the subgroup generated so
far, which collapses the count without changing what is counted; the
literal tuple-by-tuple scan is kept as ``aut_order_bruteforce_naive`` and
the test suite checks the two against each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import OracleCapExceeded
from .groups import AbelianGroup, order

__all__ = ["OracleCaps", "aut_order_bruteforce", "aut_order_bruteforce_naive"]


@dataclass(frozen=True)
class OracleCaps:
    """Refusal thresholds: group order and |G|**rank tuple-space size."""

    order_cap: int = 200
    work_cap: int = 10**8


def _cyclic_radices(g: AbelianGroup) -> list[int]:
    return [p**e for p, part in g.factors for e in part]


class _GroupTable:
    """Dense addition tables for one small abelian group."""

    def __init__(self, g: AbelianGroup):
        self.radices = _cyclic_radices(g)
        self.n = order(g)
        k = len(self.radices)
        digits = np.zeros((k, self.n), dtype=np.int64)
        idx = np.arange(self.n)
        stride = 1
        strides = []
        for j, q in enumerate(self.radices):
            digits[j] = (idx // stride) % q
            strides.append(stride)
            stride *= q
        self.digits = digits
        self.strides = strides
        # add[a] is the permutation x -> x + a
        self.add = np.zeros((self.n, self.n), dtype=np.int32)
        for a in range(self.n):
            acc = np.zeros(self.n, dtype=np.int64)
            for j, q in enumerate(self.radices):
                acc += ((digits[j] + digits[j][a]) % q) * strides[j]
            self.add[a] = acc
        neg = np.zeros(self.n, dtype=np.int64)
        for j, q in enumerate(self.radices):
            neg += ((q - digits[j]) % q) * strides[j]
        self.neg = neg.astype(np.int32)

    def allowed_images(self, q: int) -> list[int]:
        """Elements h with ord(h) | q, i.e. q*h = 0."""
        ok = np.ones(self.n, dtype=bool)
        for j, qj in enumerate(self.radices):
            ok &= (self.digits[j] * q) % qj == 0
        return [int(x) for x in np.flatnonzero(ok)]


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
    tab = _GroupTable(g)
    k = len(tab.radices)
    allowed = [tab.allowed_images(q) for q in tab.radices]
    # room left at depth j: adding an image of order dividing q grows the
    # generated subgroup by at most a factor q
    room = [prod(tab.radices[j:]) for j in range(k)] + [1]

    trivial = np.zeros(tab.n, dtype=bool)
    trivial[0] = True
    memo: dict[tuple[int, bytes], int] = {}

    def closure(S: np.ndarray, h: int) -> np.ndarray:
        if S[h]:
            return S
        T = S.copy()
        m = h
        while m != 0:
            T |= S[tab.add[tab.neg[m]]]
            m = int(tab.add[m][h])
        return T

    def count(j: int, S: np.ndarray, size: int) -> int:
        if size * room[j] < tab.n:
            return 0
        if j == k:
            return 1 if size == tab.n else 0
        key = (j, S.tobytes())
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = 0
        for h in allowed[j]:
            T = closure(S, h)
            total += count(j + 1, T, int(T.sum()))
        memo[key] = total
        return total

    total = count(0, trivial, 1)
    del count  # count refers to itself; drop the cycle so tab and memo go now
    return total


def aut_order_bruteforce_naive(
    g: AbelianGroup, caps: OracleCaps = OracleCaps(), max_tuples: int = 500_000
) -> int:
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
    if prod(len(a) for a in allowed) > max_tuples:
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
