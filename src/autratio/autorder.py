"""Exact |Aut(G)| and the ratios f(G) = |Aut(G)|/|G|, f'(G) = |Aut(G)|/phi(|G|).

For an abelian p-group with ascending exponent partition e1 <= ... <= en the
automorphism group order is

    prod_k (p^d_k - p^(k-1)) * prod_j p^(e_j (n - d_j)) * prod_i p^((e_i - 1)(n - c_i + 1))

where d_k = max{l : e_l = e_k} and c_k = min{l : e_l = e_k}.  This closed
form is standard but easy to get subtly wrong, so the test suite pins it
against an independent brute-force count (see ``autratio.oracle``) on every
small group; the oracle, not the formula, is the trust root.

Across distinct primes |Aut| is multiplicative, which is also what makes
f multiplicative over direct factors of coprime order.

Exact values are ``fractions.Fraction``; ``LogValue`` carries a certified
log-space result for groups too large for exact rationals.
"""

from __future__ import annotations

import threading
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import inf, nextafter, prod

from . import fixedlog
from ._record import record
from .groups import AbelianGroup, SymbolicGroup, order
from .primes import PrimeStream, shared_stream

__all__ = [
    "LogValue",
    "aut_order_local",
    "aut_order",
    "f_exact",
    "f_prime_exact",
    "f_log",
    "two_rank_ratio",
    "euler_phi_of_order",
]


@record
class LogValue:
    """ln of a positive quantity together with a certified absolute error.

    Represents the interval [exp(log_value - abs_error),
    exp(log_value + abs_error)]; every constructor rounds outward, so the
    true value is always inside.  The library builds it only with
    ``from_bounds``, from an integer enclosure, so its floats are made
    once, at the end of an exact computation.
    """

    log_value: float
    abs_error: float

    def __post_init__(self):
        if self.abs_error < 0:
            raise ValueError("abs_error must be >= 0")

    @classmethod
    def from_bounds(cls, lo: int, hi: int, prec: int) -> "LogValue":
        """From an integer enclosure [lo, hi] * 2**-prec: float midpoint and
        radius, the radius rounded up until the float interval contains the
        exact one.

        This is where the integer pairs of ``fixedlog`` become floats, once.
        Int true division rounds correctly, as ``float(Fraction)`` does, so
        the midpoint is (lo + hi) / 2**(prec + 1) and the radius is the
        exact distance to the farther end, over the common power-of-two
        denominator of 2**-prec and the midpoint's dyadic value."""
        mid = (lo + hi) / (1 << (prec + 1))
        mn, md = mid.as_integer_ratio()  # md is a power of two
        shift = md.bit_length() - 1 - prec
        if shift >= 0:  # rad = max(...) / md
            den, lo, hi = md, lo << shift, hi << shift
        else:  # rad = max(...) / 2**prec
            den, mn = 1 << prec, mn << -shift
        rad = max(hi - mn, mn - lo, 0)
        out = rad / den
        on, od = out.as_integer_ratio()
        while on * den < rad * od:
            out = nextafter(out, inf)
            on, od = out.as_integer_ratio()
        return cls(mid, out)

    def interval(self) -> tuple[Fraction, Fraction]:
        """The certified log-space interval as exact rationals."""
        v = Fraction(self.log_value)
        e = Fraction(self.abs_error)
        return v - e, v + e


def product_tree(xs: list[int]) -> int:
    """Product by halving, so big factors meet only near the root."""
    if len(xs) <= 16:
        return prod(xs)
    mid = len(xs) // 2
    return product_tree(xs[:mid]) * product_tree(xs[mid:])


def aut_order_local(p: int, partition) -> int:
    """|Aut| of the p-group with the given ascending exponent partition.

    Equal parts form runs, and a run of m parts at 1-based positions
    c..d has d_k = d and c_k = c throughout.  Its factors of the first
    product are p^d - p^(k-1) = p^(k-1) * (p^(d-k+1) - 1) for k = c..d,
    i.e. (p^j - 1) for j = 1..m times powers of p, so the whole value is
    the product over runs of (p^j - 1), j <= m, times one power of p.
    """
    part = list(partition)
    if not part:
        raise ValueError("partition must be non-empty")
    if part != sorted(part) or part[0] < 1:
        raise ValueError(f"partition must be ascending with entries >= 1: {part}")
    n = len(part)
    units = []
    power = n * (n - 1) // 2  # the p^(k-1) of every first-product factor
    c = 1
    for e, run in groupby(part):
        m = len(list(run))
        d = c + m - 1
        units += [p**j - 1 for j in range(1, m + 1)]
        power += m * (e * (n - d) + (e - 1) * (n - c + 1))
        c = d + 1
    return product_tree(units) * p**power


def aut_order(g: AbelianGroup) -> int:
    """|Aut(G)|, multiplicative over the primary components."""
    return prod(aut_order_local(p, part) for p, part in g.factors)


def f_exact(g: AbelianGroup) -> Fraction:
    """f(G) = |Aut(G)| / |G| as an exact rational in lowest terms."""
    return Fraction(aut_order(g), order(g))


def euler_phi_of_order(g: AbelianGroup) -> int:
    """phi(|G|) straight from the known factorization of |G|."""
    return prod(
        p ** (sum(part) - 1) * (p - 1) for p, part in g.factors
    )


def f_prime_exact(g: AbelianGroup) -> Fraction:
    """f'(G) = |Aut(G)| / phi(|G|); phi(1) = 1 for the trivial group."""
    return Fraction(aut_order(g), euler_phi_of_order(g))


@lru_cache(maxsize=128)
def two_rank_ratio(n: int) -> Fraction:
    """f(C2^n) = |GL_n(F_2)| / 2^n  (1 for n = 0), computed once per n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(aut_order_local(2, (1,) * n), 2**n) if n else Fraction(1)


# Above this many odd-prime factors, f_log sums the atanh kernel
# instead of one scalar enclosure per prime.
_VECTOR_THRESHOLD = 65536

# The atanh kernel's running sums are kept at every _CHECKPOINT-th prime
# index, so a range sum reads two checkpoints and at most two partial
# blocks, and the table takes a 128th of the prime store's memory.
_CHECKPOINT = 256
_SCALAR_BLOCK = 1 << 12  # the most primes an explicit-prec enclosure reads at once
_atanh_lock = threading.Lock()


def _atanh_checkpoints(stream: PrimeStream, c: int) -> array:
    """The stream's running sums of ``fixedlog.term_block_atanh60``, grown
    to hold checkpoint c: entries 2j and 2j + 1 are the (lo, hi) enclosure
    of the sum over prime indices 2..j * _CHECKPOINT (checkpoint 0 is
    empty).  The table grows one block at a time; an entry never changes
    once written, so reads take no lock."""
    sums = getattr(stream, "_atanh60_sums", None)
    if sums is not None and 2 * c + 1 < len(sums):
        return sums
    stream.nth_prime(c * _CHECKPOINT)
    with _atanh_lock:
        sums = getattr(stream, "_atanh60_sums", None)
        if sums is None:
            sums = stream._atanh60_sums = array("q", [0, 0])
        while len(sums) <= 2 * c:
            j = len(sums) // 2
            block = stream.primes_list(max(2, (j - 1) * _CHECKPOINT + 1), j * _CHECKPOINT)
            lo, hi = fixedlog.term_block_atanh60(block)
            sums.extend((sums[-2] + lo, sums[-1] + hi))
    return sums


def _atanh_range(stream: PrimeStream, i0: int, i1: int) -> tuple[int, int]:
    """Enclosure at scale 2**-60 of the sum of ln(p/(p-1)) over the prime
    indices i0..i1, i0 >= 2: the checkpoints' difference for the whole
    blocks inside the range, plus the kernel on the partial blocks at its
    two ends."""
    c0 = -(-(i0 - 1) // _CHECKPOINT)  # the first checkpoint at or past i0 - 1
    c1 = i1 // _CHECKPOINT
    if c0 >= c1:
        return fixedlog.term_block_atanh60(stream.primes_list(i0, i1))
    sums = _atanh_checkpoints(stream, c1)
    ends = stream.primes_list(i0, c0 * _CHECKPOINT) if c0 * _CHECKPOINT >= i0 else []
    if i1 > c1 * _CHECKPOINT:
        ends += stream.primes_list(c1 * _CHECKPOINT + 1, i1)
    lo, hi = fixedlog.term_block_atanh60(ends)
    return (
        lo + sums[2 * c1] - sums[2 * c0],
        hi + sums[2 * c1 + 1] - sums[2 * c0 + 1],
    )


def _f_log_bounds(
    s: SymbolicGroup, stream: PrimeStream, prec: int | None
) -> tuple[int, int]:
    """Certified enclosure (lo, hi) of ln f(G) at scale 2**-(prec or PREC).

    ln f = ln f(C2^two_rank) - sum over the odd primes of ln(p/(p-1)).  With
    ``prec`` None the sum comes from ``fixedlog.term_block_atanh60`` over
    the index ranges, read through the stream's checkpoints; with an
    explicit ``prec`` each prime, read ``_SCALAR_BLOCK`` at a time, is
    enclosed at ``prec`` bits by ``fixedlog.log_ratio_term_bounds``.  This
    is the one enclosure of ln f(G) from a group: ``f_log`` and both passes
    of ``approximate.verify_certificate`` use it.  An explicit ``prec`` below
    ``fixedlog._RED_BITS`` (5), which the log table reads, raises ValueError.
    """
    if prec is not None and prec < fixedlog._RED_BITS:
        raise ValueError(f"prec must be at least {fixedlog._RED_BITS} bits, got {prec}")
    p_used = prec or fixedlog.PREC
    b = two_rank_ratio(s.two_rank)
    b_lo, b_hi = fixedlog.ln_quotient_bounds(b.numerator, b.denominator, p_used)
    t_lo = t_hi = 0
    if prec is None:
        for i0, i1 in s.odd_prime_ranges:
            lo, hi = _atanh_range(stream, i0, i1)
            t_lo += lo
            t_hi += hi
        shift = p_used - fixedlog.SCALE_BITS
        t_lo, t_hi = t_lo << shift, t_hi << shift
    else:
        for i0, i1 in s.odd_prime_ranges:
            for j in range(i0, i1 + 1, _SCALAR_BLOCK):
                for p in stream.primes_list(j, min(j + _SCALAR_BLOCK - 1, i1)):
                    lo, hi = fixedlog.log_ratio_term_bounds(p, prec)
                    t_lo += lo
                    t_hi += hi
    return (b_lo - t_hi, b_hi - t_lo)


def f_log(
    s: SymbolicGroup,
    *,
    stream: PrimeStream | None = None,
    prec: int | None = None,
) -> LogValue:
    """Certified ln f(G) for a symbolic group.

    ln f = ln f(C2^two_rank) + sum over selected odd primes of ln((p-1)/p),
    with every term enclosed by directed fixed-point arithmetic and the
    per-term bounds summed into abs_error.  Up to 65,536 odd primes each
    term is enclosed at 192 bits; above that the sum comes from the 60-bit
    atanh kernel ``fixedlog.term_block_atanh60`` (``term_block_fp60`` is the
    greedy's kernel, not an enclosure of f).  Pass ``prec`` (fractional
    bits) to force per-term evaluation, e.g. for a doubled-precision
    second pass.
    """
    stream = stream or shared_stream()
    if prec is None and s.index_count <= _VECTOR_THRESHOLD:
        prec = fixedlog.PREC
    lo, hi = _f_log_bounds(s, stream, prec)
    return LogValue.from_bounds(lo, hi, prec or fixedlog.PREC)
