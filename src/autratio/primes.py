"""Prime generation for the approximation greedy and bounded search.

A shared, extendable segmented sieve is the package's one prime source: it
supplies the indexed prime sequence p1 < p2 < ... (1-based, p1 = 2) and the
list of primes up to a bound, growing on demand but never past its hard
ceiling.

The first window, the primes up to ``FIRST_WINDOW`` = 2^16, is sieved
with the standard library (a bytearray of marks, stored as an
``array('q')``), so commands that stay inside it, such as small tables,
searches and short approximations, never import numpy.  Extensions past it
sieve 2^22-wide segments with numpy and store an int64 ndarray.
``primes_list`` reads either store as Python ints without numpy;
``primes_slice`` always returns an int64 ndarray, for the numpy kernels.
"""

from __future__ import annotations

import math
import os
import threading
from array import array
from bisect import bisect_right
from itertools import compress
from typing import TYPE_CHECKING

from .errors import SieveCapacityError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PrimeStream",
    "shared_stream",
    "nth_prime",
    "DEFAULT_CEILING",
    "FIRST_WINDOW",
]

DEFAULT_CEILING = 10**8
FIRST_WINDOW = 1 << 16
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


def _simple_sieve(limit: int) -> array:
    """All primes <= limit (>= 2) as an array('q'), without numpy."""
    flags = bytearray([1]) * ((limit + 1) // 2)  # flags[i] marks 2i + 1
    flags[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(flags), p)))
    return array("q", [2, *compress(range(1, limit + 1, 2), flags)])


class PrimeStream:
    """All primes up to a growing sieve limit, index base 1 (p1 = 2).

    Reads are lock-free on the immutable prime store (an array('q') for
    the first window, an int64 ndarray once extended); extension is
    serialized, so concurrent callers may share one stream.
    """

    def __init__(self, ceiling: int | None = None):
        self.ceiling = _hard_ceiling(ceiling)
        self._lock = threading.Lock()
        self._limit = min(FIRST_WINDOW, self.ceiling)
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
        import numpy as np

        with self._lock:
            if limit <= self._limit:
                return
            root = math.isqrt(limit)
            if self._limit < root:
                # sqrt(limit) outgrew the current sieve; rebuild the base first
                base = _simple_sieve(root)
            else:
                base = self._primes[: bisect_right(self._primes, root)]
            chunks = [np.asarray(self._primes)]  # views an array("q") store
            lo = self._limit + 1
            while lo <= limit:
                hi = min(lo + _SEGMENT - 1, limit)
                flags = np.ones(hi - lo + 1, dtype=bool)
                for p in base:
                    p = int(p)
                    start = max(p * p, ((lo + p - 1) // p) * p)
                    if start > hi:
                        continue
                    flags[start - lo :: p] = False
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

    def _store_upto(self, i0: int, i1: int):
        if i0 < 1 or i1 < i0:
            raise ValueError(f"bad prime index range [{i0}, {i1}]")
        self._ensure_count(i1)
        return self._primes

    def primes_list(self, i0: int, i1: int) -> list[int]:
        """Primes p_{i0}..p_{i1} inclusive (1-based) as Python ints, read
        from either store without importing numpy."""
        return self._store_upto(i0, i1)[i0 - 1 : i1].tolist()

    def primes_slice(self, i0: int, i1: int) -> np.ndarray:
        """Primes p_{i0}..p_{i1} inclusive (1-based) as an int64 array."""
        primes = self._store_upto(i0, i1)
        if isinstance(primes, array):  # the first window, viewed as int64
            import numpy as np

            primes = np.asarray(primes)
        return primes[i0 - 1 : i1]

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

