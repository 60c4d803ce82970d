"""Prime generation for greedy log-sum budgets and bounded search.

A shared, extendable segmented sieve is the package's one prime source: it
supplies the indexed prime sequence p1 < p2 < ... (1-based, p1 = 2) and the
list of primes up to a bound, growing on demand but never past its hard
ceiling.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import SieveCapacityError

__all__ = [
    "PrimeStream",
    "shared_stream",
    "nth_prime",
    "DEFAULT_CEILING",
]

DEFAULT_CEILING = 10**8
_SEGMENT = 1 << 22


def _hard_ceiling(ceiling: int | None) -> int:
    if ceiling is not None:
        return int(ceiling)
    return int(os.environ.get("AUTRATIO_SIEVE_CEILING", DEFAULT_CEILING))


def _simple_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


class PrimeStream:
    """All primes up to a growing sieve limit, index base 1 (p1 = 2).

    Reads are lock-free on the immutable prime array; extension is
    serialized, so concurrent callers may share one stream.
    """

    def __init__(self, ceiling: int | None = None):
        self.ceiling = _hard_ceiling(ceiling)
        self._lock = threading.Lock()
        self._limit = min(1 << 16, self.ceiling)
        self._primes = _simple_sieve(self._limit)

    @property
    def limit(self) -> int:
        return self._limit

    @property
    def count(self) -> int:
        return len(self._primes)

    def extend_to(self, limit: int) -> None:
        """Grow the sieve to cover all primes <= limit (capped at the ceiling)."""
        limit = min(int(limit), self.ceiling)
        if limit <= self._limit:
            return
        with self._lock:
            if limit <= self._limit:
                return
            root = math.isqrt(limit)
            if self._limit < root:
                # sqrt(limit) outgrew the current sieve; rebuild the base first
                base = _simple_sieve(root)
            else:
                base = self._primes[self._primes <= root]
            chunks = [self._primes]
            lo = self._limit + 1
            while lo <= limit:
                hi = min(lo + _SEGMENT - 1, limit)
                flags = np.ones(hi - lo + 1, dtype=bool)
                for p in base[1:]:  # skip 2; evens handled by stride start
                    p = int(p)
                    start = max(p * p, ((lo + p - 1) // p) * p)
                    if start > hi:
                        continue
                    flags[start - lo :: p] = False
                p = 2
                start = max(4, ((lo + 1) // 2) * 2)
                if start <= hi:
                    flags[start - lo :: 2] = False
                chunk = np.flatnonzero(flags).astype(np.int64, copy=False)
                chunk += lo
                chunks.append(chunk)
                lo = hi + 1
            self._primes = np.concatenate(chunks)
            self._limit = limit

    def _ensure_count(self, n: int) -> None:
        while self.count < n:
            if self._limit >= self.ceiling:
                raise SieveCapacityError(
                    f"need {n} primes but only {self.count} exist below the "
                    f"sieve ceiling {self.ceiling}"
                )
            # Rosser-style upper bound for p_n, then padded
            guess = max(
                2 * self._limit,
                int(n * (math.log(max(n, 6)) + math.log(math.log(max(n, 6))) + 1)),
            )
            self.extend_to(guess)

    def nth_prime(self, i: int) -> int:
        """The i-th prime (i >= 1), extending the sieve on demand."""
        if i < 1:
            raise ValueError("prime index must be >= 1")
        self._ensure_count(i)
        return int(self._primes[i - 1])

    def primes_slice(self, i0: int, i1: int) -> np.ndarray:
        """Primes p_{i0}..p_{i1} inclusive (1-based) as an int64 array."""
        if i0 < 1 or i1 < i0:
            raise ValueError(f"bad prime index range [{i0}, {i1}]")
        self._ensure_count(i1)
        return self._primes[i0 - 1 : i1]

    def primes_upto(self, n: int) -> list[int]:
        """All primes <= n as Python ints, ascending.

        Raises SieveCapacityError when n is above the ceiling, since a
        silently shortened list would make a bounded scan look complete.
        """
        if n > self.ceiling:
            raise SieveCapacityError(
                f"need all primes up to {n} but the sieve ceiling is "
                f"{self.ceiling}"
            )
        self.extend_to(n)
        primes = self._primes
        return primes[: int(np.searchsorted(primes, n, side="right"))].tolist()


_shared: PrimeStream | None = None
_shared_lock = threading.Lock()


def shared_stream() -> PrimeStream:
    """Process-wide default stream (created on first use)."""
    global _shared
    if _shared is None:
        with _shared_lock:
            if _shared is None:
                _shared = PrimeStream()
    return _shared


def nth_prime(i: int, stream: PrimeStream | None = None) -> int:
    return (stream or shared_stream()).nth_prime(i)

