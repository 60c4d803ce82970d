"""Canonical finite abelian groups.

A finite abelian group decomposes uniquely as a direct sum of cyclic groups
of prime power order.  ``AbelianGroup`` stores that primary decomposition as
an ordered map  prime -> ascending list of exponents,  so two values compare
equal exactly when the groups are isomorphic.

>>> g = parse_group("C2 x C4 x C9")
>>> g.factors
((2, (1, 2)), (3, (2,)))
>>> order(g)
72
>>> format_group(g)
'C2 x C4 x C9'

``SymbolicGroup`` is the companion representation for groups of the shape
C2^n x (product of distinct odd primes), which can involve so many prime
factors that expanding them is not an option.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log2, prod
from typing import NoReturn

from .errors import GroupParseError, InputLimitExceeded

__all__ = [
    "AbelianGroup",
    "SymbolicGroup",
    "TRIVIAL",
    "order",
    "direct_product",
    "invariant_factors",
    "parse_group",
    "format_group",
    "cyclic",
    "MAX_LITERAL_AUT_BITS",
    "MAX_LITERAL_DIGITS",
    "RHO_STEP_BUDGET",
    "MAX_COFACTOR_BITS",
]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_12: the least strong pseudoprime to all of _SMALL_PRIMES as bases
# (399165290221 * 798330580441).  Below it, _is_prime is a proof.
_MR_PROVEN_BELOW = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the twelve prime bases 2..37.

    Deterministic for n < _MR_PROVEN_BELOW (about 3.2 * 10**23); above it a
    True is only "probably prime", and psi_12 itself passes.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
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


def _proven_prime(n: int, divided_to: int = 1) -> bool:
    """Whether n > 1, with no prime factor up to ``divided_to``, is proven
    prime: below (divided_to + 1)**2, or by _is_prime below _MR_PROVEN_BELOW."""
    return n < (divided_to + 1) ** 2 or n < _MR_PROVEN_BELOW and _is_prime(n)


# Trial division removes every prime factor below this before Pollard-Brent
# sees a cofactor; rho finds small factors slower than dividing does.
_TRIAL_LIMIT = 1 << 10


def _trial_divide(n: int, out: dict[int, int]) -> int:
    """Divide out of n every prime factor below _TRIAL_LIMIT, counting them
    in ``out``, and return the cofactor.  Division stops at sqrt(n), so a
    cofactor is 1, a prime, or has no prime factor below _TRIAL_LIMIT."""
    for p in (2, 3):
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    f = 5
    while f * f <= n and f < _TRIAL_LIMIT:
        for p in (f, f + 2):
            while n % p == 0:
                n //= p
                out[p] = out.get(p, 0) + 1
        f += 6
    return n


# The most rho steps (iterations of x -> x^2 + c) that factorize spends on
# one composite cofactor of up to 1128 bits.  Random semiprimes with a
# 30-bit factor took at most 123,518; a 1128-bit cofactor spends the budget
# in about 2.6 s on one core of a 2-vCPU Xeon.  The cost of a step grows
# with the square of the cofactor's size, so a larger cofactor gets
# RHO_STEP_BUDGET * (1128 / bits)**2 steps, about the same time.
RHO_STEP_BUDGET = 1 << 18


def _pollard_brent(n: int) -> int | None:
    """A proper divisor of a composite n that has no prime factor below
    _TRIAL_LIMIT: Pollard's rho with Brent's cycle detection, gcds batched
    over 128 steps, polynomials x^2 + c for c = 1, 2, ... until one splits n.
    None when the step budget (RHO_STEP_BUDGET, scaled down above 1128
    bits) found no divisor.
    """
    bits = n.bit_length()
    budget = RHO_STEP_BUDGET * min(bits, 1128) ** 2 // bits**2
    steps = 0
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # this round: r steps, then at most r more
            if steps > budget:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"{n} did not split")  # unreachable for composite n


# factorize refuses a cofactor above this size before testing it: one
# Miller-Rabin round costs about 0.2 s at 4096 bits and 1.6 s at 8192 (the
# cost grows near the cube of the size), so a probable prime at the bound
# is refused after its twelve rounds in about 3 s.
MAX_COFACTOR_BITS = 4096


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1, as {prime: exponent}.

    Trial division removes the factors below _TRIAL_LIMIT.  A cofactor
    that Miller-Rabin finds composite (a proof at any size) is split by
    Pollard-Brent and both parts are factored in turn, the smaller first,
    so a product of two large primes costs about the fourth root of n
    steps.  Each prime found is divided out of every pending part, so a
    repeated prime costs one split and one test, not one per power.  A
    cofactor that passes Miller-Rabin at or above _MR_PROVEN_BELOW is only
    probably prime, and proving it prime or composite is out of reach here
    (trial division would cost sqrt(n) steps), so factorize raises
    InputLimitExceeded; so it does when Pollard-Brent spends its step
    budget on a cofactor without splitting it, and, before any test, when
    the cofactor left by trial division has more than MAX_COFACTOR_BITS
    bits.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    m = _trial_divide(n, out)
    if m.bit_length() > MAX_COFACTOR_BITS:
        raise InputLimitExceeded(
            f"cannot factor {_short(n)}: its cofactor after trial division "
            f"has {m.bit_length()} bits, above MAX_COFACTOR_BITS = "
            f"{MAX_COFACTOR_BITS}"
        )
    todo = [m]
    while todo:
        m = todo.pop()
        if m == 1:
            continue
        if not _proven_prime(m):
            if m >= _MR_PROVEN_BELOW and _is_prime(m):
                raise InputLimitExceeded(
                    f"cannot factor {_short(n)}: a cofactor of {m.bit_length()} "
                    f"bits passes Miller-Rabin to the bases 2..37 but lies at "
                    f"or above psi_12 = {_MR_PROVEN_BELOW}, the limit below which "
                    f"that test proves primality"
                )
            d = _pollard_brent(m)
            if d is None:
                raise InputLimitExceeded(
                    f"cannot factor {_short(n)}: Pollard-Brent found no "
                    f"factor of a composite cofactor of {m.bit_length()} bits "
                    f"within RHO_STEP_BUDGET = {RHO_STEP_BUDGET} steps, "
                    f"scaled by (1128 / bits)^2 above 1128 bits"
                )
            todo += sorted((d, m // d), reverse=True)  # the smaller is popped first
            continue
        e = 1
        for k, c in enumerate(todo):
            while c % m == 0:
                c //= m
                e += 1
            todo[k] = c
        out[m] = out.get(m, 0) + e
    return dict(sorted(out.items()))


def _short(x: int | Fraction) -> str:
    """x in decimal while its numerator and denominator have at most 200
    bits (60 digits), else their bit lengths."""
    x = Fraction(x)
    n, d = x.numerator.bit_length(), x.denominator.bit_length()
    if max(n, d) <= 200:
        return str(x)
    if d == 1:
        return f"a number of {n} bits"
    return f"a rational with a {n}-bit numerator and a {d}-bit denominator"


@dataclass(frozen=True, slots=True)
class AbelianGroup:
    """Primary decomposition: ((p, (e1 <= e2 <= ...)), ...) with p ascending.

    The empty tuple is the trivial group.  Instances are immutable, hashable
    and canonical, so ``==`` is isomorphism.
    """

    factors: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        last_p = 1
        for p, part in self.factors:
            if p <= last_p:
                raise ValueError(f"primes not strictly increasing: {self.factors}")
            if not _proven_prime(p):
                raise ValueError(f"{p} is not a proven prime")
            if not part:
                raise ValueError(f"empty partition for prime {p}")
            if any(e < 1 for e in part) or list(part) != sorted(part):
                raise ValueError(f"partition for {p} must be ascending, entries >= 1: {part}")
            last_p = p

    @classmethod
    def _trusted(cls, factors) -> "AbelianGroup":
        """A group from factors already in canonical form, without the
        checks: for walks that take their primes from the sieve and their
        partitions from the partition generator."""
        g = object.__new__(cls)
        object.__setattr__(g, "factors", factors)
        return g

    @classmethod
    def from_primary(cls, parts: dict[int, list[int] | tuple[int, ...]]) -> "AbelianGroup":
        """Build the canonical group from a {prime: exponent list} mapping."""
        factors = tuple(
            (p, tuple(sorted(parts[p]))) for p in sorted(parts) if parts[p]
        )
        return cls(factors)

    @property
    def rank(self) -> int:
        """Total number of cyclic factors in the primary decomposition."""
        return sum(len(part) for _, part in self.factors)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def __str__(self) -> str:
        return format_group(self)


TRIVIAL = AbelianGroup()


def cyclic(n: int) -> AbelianGroup:
    """The cyclic group C_n (n >= 1)."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    return AbelianGroup.from_primary({p: [e] for p, e in factorize(n).items()})


def order(g: AbelianGroup) -> int:
    """|G| = product of p**(sum of exponents); 1 for the trivial group."""
    return prod(p ** sum(part) for p, part in g.factors)


def direct_product(g1: AbelianGroup, g2: AbelianGroup) -> AbelianGroup:
    """Direct product, re-canonicalized (per-prime partitions merged)."""
    parts: dict[int, list[int]] = {}
    for g in (g1, g2):
        for p, part in g.factors:
            parts.setdefault(p, []).extend(part)
    return AbelianGroup.from_primary(parts)


def invariant_factors(g: AbelianGroup) -> list[int]:
    """The chain d1 | d2 | ... | dk with G isomorphic to C_d1 x ... x C_dk.

    Level by level from the top: each invariant factor is the product of the
    largest remaining prime power of every prime.

    >>> invariant_factors(parse_group("C2 x C4 x C9"))
    [2, 36]
    """
    depth = max((len(part) for _, part in g.factors), default=0)
    out = []
    for level in range(depth):
        d = prod(
            p ** part[-1 - level] for p, part in g.factors if level < len(part)
        )
        out.append(d)
    out.reverse()
    return out


_FACTOR_RE = re.compile(r"C(\d+)(?:\^(\d+))?$")

# The most bits a literal's |Aut(G)| may have, by the bound
# |Aut(G)| <= prod_p |G_p|^(r_p), r_p the rank of the p-part G_p (an
# endomorphism is fixed by where r_p generators go).  The bound is 2^22
# bits for C2^2048 and just below for C4^1448 and C1000003^458; on one
# core of a 2-vCPU Xeon `autratio aut` takes 1.1, 0.7 and 1.7 s on these
# and 2.8 s on C3^2048 (6.6 * 10^6 bits).  Distinct primes cost little:
# the 10,000 odd primes that `approx --materialize` may print come to
# about 1.5 * 10^5 bits.
MAX_LITERAL_AUT_BITS = 2**22

# The most significant digits of one base or exponent in a literal, which
# is CPython's default limit on int() of a decimal string.  An exponent of
# more than four digits is refused by MAX_LITERAL_AUT_BITS in any case (the
# bound is at least its square).
MAX_LITERAL_DIGITS = 4300


def parse_group(text: str) -> AbelianGroup:
    """Parse a group literal:  Group := Factor ("x" Factor)*,  Factor := C<m>[^<k>].

    Whitespace is ignored.  Composite bases are split into prime powers, so
    "C12" means C4 x C3.  "C1" and the empty string denote the trivial group.
    A literal whose bound sum_p r_p * log2 |G_p| on log2 |Aut(G)| is above
    MAX_LITERAL_AUT_BITS, or with a base or exponent of more than
    MAX_LITERAL_DIGITS digits, raises InputLimitExceeded before it is
    expanded; so does a base with a probable-prime factor at or above
    psi_12 (see ``factorize``).

    >>> parse_group("C2^3") == AbelianGroup.from_primary({2: [1, 1, 1]})
    True
    >>> parse_group("C12").factors
    ((2, (2,)), (3, (1,)))
    """
    compact = "".join(text.split())
    if compact == "":
        return TRIVIAL
    runs: dict[int, list[tuple[int, int]]] = {}  # p -> (exponent, count)
    for chunk in compact.split("x"):
        m = _FACTOR_RE.match(chunk)
        if not m:
            raise GroupParseError(f"bad group factor {chunk!r} in {text!r}")
        base = _literal_int(m.group(1))
        mult = _literal_int(m.group(2)) if m.group(2) else 1
        if base == 0:
            raise GroupParseError("factor base 0 is not a finite cyclic group")
        if m.group(2) is not None and mult == 0:
            raise GroupParseError("exponent 0 is rejected")
        if base == 1:
            continue
        if mult * mult > MAX_LITERAL_AUT_BITS:  # r_p, log2 |G_p| >= mult
            _refuse_literal(mult * mult)
        for p, e in factorize(base).items():
            runs.setdefault(p, []).append((e, mult))
    bits = sum(
        sum(c for _, c in pe) * sum(e * c for e, c in pe) * log2(p)
        for p, pe in runs.items()
    )
    if bits > MAX_LITERAL_AUT_BITS:
        _refuse_literal(bits)
    return AbelianGroup.from_primary(
        {p: [e for e, c in pe for _ in range(c)] for p, pe in runs.items()}
    )


def _literal_int(digits: str) -> int:
    """A literal's base or exponent, refused above MAX_LITERAL_DIGITS
    significant digits before int() sees it."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > MAX_LITERAL_DIGITS:
        raise InputLimitExceeded(
            f"group literal refused: a number of {len(digits)} digits is "
            f"longer than MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}"
        )
    return int(digits)


def _refuse_literal(bits) -> NoReturn:
    raise InputLimitExceeded(
        f"group literal refused: its bound on log2 |Aut| is at least "
        f"{bits:.0f} bits, above MAX_LITERAL_AUT_BITS = {MAX_LITERAL_AUT_BITS}"
    )


def format_group(g: AbelianGroup) -> str:
    """Canonical literal: ascending primes, exponent lists expanded.

    Round-trips through parse_group.  The trivial group prints as "C1".
    """
    if g.is_trivial:
        return "C1"
    return " x ".join(
        f"C{p ** e}" for p, part in g.factors for e in part
    )


def _add_run(runs: list[tuple[int, int]], lo: int, hi: int) -> None:
    """Append the index run lo..hi to the (lo, hi) runs, merged with the
    last run it extends; indices must be strictly increasing."""
    if runs and lo <= runs[-1][1]:
        raise ValueError("indices must be strictly increasing")
    if runs and runs[-1][1] + 1 == lo:
        runs[-1] = (runs[-1][0], hi)
    else:
        runs.append((lo, hi))


_DESCRIBE_RUNS = 6  # the most index runs SymbolicGroup.describe lists
_MATERIALIZE_CAP = 10_000  # the most prime indices SymbolicGroup.materialize expands


@dataclass(frozen=True, slots=True)
class SymbolicGroup:
    """C2^two_rank x (product of C_p over the odd primes at the given indices).

    ``odd_prime_ranges`` run-length encodes a set of 1-based indices into the
    prime sequence (p1 = 2), each index >= 2 so every referenced prime is odd.
    The group order is never materialized; index sets in the hundreds of
    thousands are routine.
    """

    two_rank: int = 0
    odd_prime_ranges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.two_rank < 0:
            raise ValueError("two_rank must be >= 0")
        last = 1
        for lo, hi in self.odd_prime_ranges:
            if lo <= last or hi < lo:
                raise ValueError(f"bad index ranges {self.odd_prime_ranges}")
            last = hi

    @property
    def index_count(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.odd_prime_ranges)

    def odd_primes(self, stream) -> list[int]:
        """The group's odd primes, ascending, read from ``stream``."""
        primes: list[int] = []
        for lo, hi in self.odd_prime_ranges:
            primes += stream.primes_list(lo, hi)
        return primes

    def materialize(self, stream) -> AbelianGroup:
        """Expand to an AbelianGroup; refuses above ``_MATERIALIZE_CAP``
        prime indices."""
        n = self.index_count
        if n > _MATERIALIZE_CAP:
            raise ValueError(
                f"refusing to materialize {n} prime factors (cap {_MATERIALIZE_CAP})"
            )
        parts = {p: [1] for p in self.odd_primes(stream)}
        if self.two_rank:
            parts[2] = [1] * self.two_rank
        return AbelianGroup.from_primary(parts)

    def describe(self) -> str:
        """Short human-readable rendering, e.g. 'C2^3 x odd primes #2-#451',
        listing at most ``_DESCRIBE_RUNS`` index runs."""
        bits = []
        if self.two_rank == 1:
            bits.append("C2")
        elif self.two_rank > 1:
            bits.append(f"C2^{self.two_rank}")
        if self.odd_prime_ranges:
            runs = [
                f"#{lo}" if lo == hi else f"#{lo}-#{hi}"
                for lo, hi in self.odd_prime_ranges[:_DESCRIBE_RUNS]
            ]
            more = len(self.odd_prime_ranges) - _DESCRIBE_RUNS
            if more > 0:
                runs.append(f"... {more} more runs")
            bits.append(
                f"odd primes {', '.join(runs)} ({self.index_count} primes)"
            )
        return " x ".join(bits) if bits else "C1"
