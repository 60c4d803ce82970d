"""Independent reference arithmetic for the benchmark's answer checks.

Nothing here imports autratio: the checks rebuild answers from the groups
the program returns, using only elementary facts (a sieve, Miller-Rabin,
|GL(r, p)|, Euler's phi and partition counts), so a wrong answer cannot
hide behind the program's own bookkeeping.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


def factor_small(n: int) -> dict[int, int]:
    """Trial-division factorization, meant for n below about 10**6."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(factors: dict[int, int]) -> int:
    return math.prod(p ** (e - 1) * (p - 1) for p, e in factors.items())


def gl_order(p: int, r: int) -> int:
    """|GL(r, p)| = |Aut(C_p^r)| = prod_{k<r} (p^r - p^k)."""
    pr = p**r
    return math.prod(pr - p**k for k in range(r))


def partitions(weight: int, max_parts: int, max_part: int | None = None) -> list[tuple]:
    """Ascending partitions of ``weight`` into at most ``max_parts`` parts."""
    if weight == 0:
        return [()]
    if max_parts == 0:
        return []
    cap = weight if max_part is None else min(weight, max_part)
    out = []
    for largest in range(1, cap + 1):
        for rest in partitions(weight - largest, max_parts - 1, largest):
            out.append(rest + (largest,))
    return out


def count_groups(max_order: int, max_parts: int) -> int:
    """Number of abelian groups of order <= max_order whose p-parts have at
    most ``max_parts`` cyclic factors each (the f-table's row count)."""
    memo: dict[int, int] = {}
    total = 0
    for n in range(1, max_order + 1):
        ways = 1
        for e in factor_small(n).values():
            if e not in memo:
                memo[e] = len(partitions(e, max_parts))
            ways *= memo[e]
        total += ways
    return total


def small_groups(max_order: int, max_rank: int) -> list[dict[int, tuple[int, ...]]]:
    """Every abelian group of order <= max_order with at most ``max_rank``
    cyclic prime-power factors, as {prime: ascending exponent partition}."""
    out = []
    for n in range(1, max_order + 1):
        combos: list[dict[int, tuple[int, ...]]] = [{}]
        for p, e in sorted(factor_small(n).items()):
            combos = [{**c, p: part} for c in combos for part in partitions(e, max_rank)]
        out.extend(c for c in combos if sum(len(v) for v in c.values()) <= max_rank)
    return out


class PrimeTable:
    """1-based prime sequence p1 = 2 from a plain numpy sieve, grown on demand."""

    def __init__(self):
        self._limit = 0
        self._primes = np.zeros(0, dtype=np.int64)

    def nth(self, indices: np.ndarray) -> np.ndarray:
        need = int(indices.max()) if len(indices) else 0
        while len(self._primes) < need:
            self._sieve(max(1 << 16, 2 * self._limit))
        return self._primes[indices - 1]

    def _sieve(self, limit: int) -> None:
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        self._primes = np.flatnonzero(flags).astype(np.int64)
        self._limit = limit


def ranges_to_indices(ranges) -> np.ndarray:
    if not ranges:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in ranges])


def exact_ratio_of(two_rank: int, odd_primes: np.ndarray) -> Fraction:
    """f(C2^two_rank x prod C_p) = f(C2^two_rank) * prod (p-1)/p, exactly."""
    num = gl_order(2, two_rank)
    den = 2**two_rank
    num *= _product_tree([int(p) - 1 for p in odd_primes])
    den *= _product_tree([int(p) for p in odd_primes])
    return Fraction(num, den)


def log_ratio_of(two_rank: int, odd_primes: np.ndarray) -> float:
    """ln f(C2^two_rank x prod C_p) in floating point (a sanity value, not
    a bound): the float error is below 1e-9 for any selection the program
    can make under its 10**8 sieve ceiling."""
    base = math.log(gl_order(2, two_rank)) - two_rank * math.log(2) if two_rank else 0.0
    terms = np.log1p(-1.0 / odd_primes.astype(np.float64))
    return base + math.fsum(terms.tolist())


def _product_tree(values: list[int]) -> int:
    while len(values) > 1:
        values = [
            values[i] * values[i + 1] if i + 1 < len(values) else values[i]
            for i in range(0, len(values), 2)
        ]
    return values[0] if values else 1
