"""Prime generation for the approximation greedy and bounded search.

A shared, extendable segmented sieve is the package's one prime source: it
supplies the indexed prime sequence p1 < p2 < ... (1-based, p1 = 2) and the
list of primes up to a bound, growing on demand but never past its hard
ceiling.  A new stream holds only 2 and sieves on first use, as far as the
read needs.

Everything runs on the standard library.  One routine sieves every window,
in segments at most 2^22 wide: it marks odd numbers in a bytearray,
crossing off the stream's own primes up to the window's square root (sieved
first), and appends the primes it finds to one ``array('q')``, eight bytes
a prime.

A stream also owns what other modules derive from its primes, such as the
greedy's running term sums: ``PrimeStream.table``, one grow-only
``array('q')`` per fill function.
"""

from __future__ import annotations

import math
import os
import threading
from array import array
from bisect import bisect_right
from itertools import compress

from .errors import SieveCapacityError

__all__ = [
    "PrimeStream",
    "shared_stream",
    "DEFAULT_CEILING",
]

DEFAULT_CEILING = 10**8
_SEGMENT = 1 << 22


def env_int(name: str, default: int, minimum: int) -> int:
    """The environment override ``name`` as an integer, ``default`` when it
    is unset.  A value that is not a decimal integer >= ``minimum`` raises
    ValueError naming the variable, its value and the accepted form."""
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < minimum:
        raise ValueError(f"{name}={text!r}: expected a decimal integer >= {minimum}")
    return value


def _hard_ceiling(ceiling: int | None) -> int:
    if ceiling is None:
        return env_int("AUTRATIO_SIEVE_CEILING", DEFAULT_CEILING, 2)
    ceiling = int(ceiling)
    if ceiling < 2:
        raise ValueError(f"sieve ceiling must be >= 2, got {ceiling}")
    return ceiling


def _odd_segment(lo: int, hi: int, base) -> compress:
    """The primes in [lo, hi], for odd lo > 2, with ``base`` the odd primes
    up to sqrt(hi) at least: flags[i] marks lo + 2i, and each base prime p
    clears its odd multiples from max(p*p, lo) on."""
    flags = bytearray([1]) * ((hi - lo) // 2 + 1)
    for p in base:
        if p * p > hi:
            break
        start = max(p * p, -(-lo // p) * p)
        if start % 2 == 0:
            start += p  # the even multiples are not in the segment
        first = (start - lo) // 2
        flags[first::p] = bytes(len(range(first, len(flags), p)))
    return compress(range(lo, hi + 1, 2), flags)


class PrimeStream:
    """All primes up to a growing sieve limit, index base 1 (p1 = 2).

    Reads are lock-free: the prime store and each derived table, one
    array('q') apiece, only grow, and an entry never changes once written.
    Extension is serialized, so concurrent callers may share one stream.
    """

    __slots__ = ("ceiling", "_lock", "_limit", "_primes", "_tables", "_tables_lock")

    def __init__(self, ceiling: int | None = None):
        self.ceiling = _hard_ceiling(ceiling)
        self._lock = threading.Lock()
        self._limit = 2
        self._primes = array("q", [2])
        self._tables: dict = {}
        self._tables_lock = threading.Lock()

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
        root = math.isqrt(limit)
        self.extend_to(root)  # the base primes, up to sqrt(limit)
        with self._lock:
            if limit <= self._limit:
                return
            # the segments hold odd numbers only, so the base skips 2
            base = self._primes[1 : bisect_right(self._primes, root)]
            lo = self._limit + 1 | 1
            while lo <= limit:
                hi = min(lo + _SEGMENT - 1, limit)
                self._primes.extend(_odd_segment(lo, hi, base))
                lo = hi + 1 | 1
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

    def primes_list(self, i0: int, i1: int) -> list[int]:
        """Primes p_{i0}..p_{i1} inclusive (1-based) as Python ints."""
        if i0 < 1 or i1 < i0:
            raise ValueError(f"bad prime index range [{i0}, {i1}]")
        self._ensure_count(i1)
        return self._primes[i0 - 1 : i1].tolist()

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
        return primes[: bisect_right(primes, n)].tolist()

    def table(self, fill, n: int) -> array:
        """The stream's table for ``fill``, grown to at least n entries.

        The table is one array('q'), empty until ``fill(stream, table, n)``
        appends entries to hold n, under the stream's one table lock.  An
        entry never changes once written, so reads take no lock."""
        t = self._tables.get(fill)
        if t is None or len(t) < n:
            with self._tables_lock:
                t = self._tables.setdefault(fill, array("q"))
                if len(t) < n:
                    fill(self, t, n)
        return t


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
