import math
from fractions import Fraction

import pytest

from autratio import fixedlog, subsum
from autratio._record import replace
from autratio.approximate import (
    _two_part,
    approx_ray,
    verify_certificate,
)
from autratio.autorder import LogValue, f_exact, two_rank_ratio
from autratio.errors import PrecisionRefusal, SieveCapacityError
from autratio.groups import SymbolicGroup
from autratio.primes import PrimeStream


def independent_product(group, stream) -> Fraction:
    """Re-multiply f over the synthesized group from scratch."""
    prod = Fraction(1)
    if group.two_rank:
        from autratio.autorder import two_rank_ratio

        prod *= two_rank_ratio(group.two_rank)
    for p in group.odd_primes(stream):
        prod *= Fraction(p - 1, p)
    return prod


@pytest.mark.parametrize("exact_cap", [10_000, 2])
def test_unit_result_encloses_the_selection_pair(stream, monkeypatch, exact_cap):
    # a certified result's LogValue is ln b's integer pair less the
    # selection's; an exact one encloses ln of its exact ratio
    monkeypatch.setattr(subsum, "EXACT_CAP", exact_cap)
    r = approx_ray(Fraction(3, 10), Fraction(1, 1000), stream=stream)
    b = two_rank_ratio(r.group.two_rank)
    assert b == Fraction(1, 2) and r.trace.selection.count == 3
    assert (r.exact_ratio is None) == (exact_cap == 2)
    if r.exact_ratio is None:
        b_lo, b_hi = fixedlog.ln_fraction_bounds(b)
        lo, hi = r.trace.selection.achieved
        assert r.achieved == LogValue.from_bounds(b_lo - hi, b_hi - lo, fixedlog.PREC)
    else:
        pair = fixedlog.ln_fraction_bounds(r.exact_ratio)
        assert r.achieved == LogValue.from_bounds(*pair, fixedlog.PREC)


def test_unit_exact_one(stream):
    r = approx_ray(1, Fraction(1, 10**6), stream=stream)
    assert r.exact_ratio == 1
    assert r.group.two_rank == 0 and r.group.index_count == 0
    assert r.achieved.log_value == 0.0 and r.achieved.abs_error == 0.0


def test_unit_exact_half(stream):
    r = approx_ray(Fraction(1, 2), Fraction(1, 10**9), stream=stream)
    assert r.exact_ratio == Fraction(1, 2)
    assert r.group.two_rank == 1 and r.group.index_count == 0


def test_unit_generic_target(stream):
    a, eps = Fraction(3, 10), Fraction(1, 10**3)
    r = approx_ray(a, eps, stream=stream)
    P = r.exact_ratio
    assert P is not None
    assert a <= P < a + eps
    assert independent_product(r.group, stream) == P
    assert verify_certificate(r, stream=stream)
    # the exact ratio is kept once, on the result, not again in the trace
    assert not hasattr(r.trace.selection, "exact_product")


def test_unit_rejects_bad_inputs(stream):
    with pytest.raises(ValueError):
        approx_ray(Fraction(1, 2), 0, stream=stream)


def test_unit_odd_only_no_two_part(stream):
    r = approx_ray(Fraction(2, 3), Fraction(1, 10**6), odd_only=True, stream=stream)
    assert r.group.two_rank == 0
    assert all(lo >= 2 for lo, _ in r.group.odd_prime_ranges)
    assert r.exact_ratio == Fraction(2, 3)  # p = 3 alone hits exactly


def test_below_eps_witness(stream):
    r = approx_ray(0, Fraction(1, 10), stream=stream)
    assert r.trace.below_eps_witness
    assert r.exact_ratio is not None and 0 < r.exact_ratio < Fraction(1, 10)
    assert verify_certificate(r, stream=stream)
    # a <= eps routes the same way
    r2 = approx_ray(Fraction(1, 100), Fraction(5, 100), stream=stream)
    assert r2.trace.below_eps_witness


@pytest.mark.parametrize("a, eps", [(0, 5), (Fraction(1, 2), 4), (2, 100)])
def test_tolerances_above_the_target_answer(stream, a, eps):
    # 3b/eps below 1 once aimed the greedy at a ratio under 1; now the
    # below-eps witness is C2 alone, and 1/2 itself is an exact hit
    r = approx_ray(a, eps, stream=stream)
    assert r.exact_ratio is not None and 0 < r.exact_ratio < eps
    assert verify_certificate(r, stream=stream)


def test_two_part_examples():
    # the smallest of 1/2 < 1 < 3/2 < 21 < 1260 < ... at or above a
    half = (1, Fraction(1, 2))
    assert _two_part(Fraction(0), False) == half
    assert _two_part(Fraction(1, 3), False) == half
    assert _two_part(Fraction(1, 2), False) == half
    assert _two_part(Fraction(3, 4), False) == (0, Fraction(1))
    assert _two_part(Fraction(1), False) == (0, Fraction(1))
    assert _two_part(Fraction(6, 5), False) == (2, Fraction(3, 2))
    assert _two_part(Fraction(2), False) == (3, Fraction(21))
    assert _two_part(Fraction(21), False) == (3, Fraction(21))
    assert _two_part(Fraction(22), False) == (4, Fraction(1260))
    assert _two_part(Fraction(1, 3), True) == (0, Fraction(1))
    with pytest.raises(ValueError):
        approx_ray(Fraction(6, 5), Fraction(1, 10), odd_only=True)


def test_ray_delegates_below_one(stream):
    r = approx_ray(Fraction(7, 10), Fraction(1, 10**6), stream=stream)
    assert r.exact_ratio is not None
    assert Fraction(7, 10) <= r.exact_ratio < Fraction(7, 10) + Fraction(1, 10**6)


def test_ray_exact_two_group_short_circuit(stream):
    # a = f(C2^2) exactly: the odd-prime greedy selects nothing, the hit
    # is exact
    r = approx_ray(Fraction(3, 2), Fraction(1, 10**9), stream=stream)
    assert r.exact_ratio == Fraction(3, 2)
    assert r.group.two_rank == 2 and r.group.index_count == 0
    assert two_rank_ratio(r.group.two_rank) == Fraction(3, 2)
    assert r.trace.selection.ranges == () and r.trace.selection.scanned == 0
    r = approx_ray(21, Fraction(1, 10**9), stream=stream)
    assert r.exact_ratio == 21 and r.group.two_rank == 3


def test_ray_generic_target(stream):
    a, eps = Fraction(2), Fraction(1, 10**3)
    r = approx_ray(a, eps, stream=stream)
    assert r.group.two_rank == 3
    b = two_rank_ratio(r.group.two_rank)
    assert b == 21 and r.eps / b == Fraction(1, 21000)
    assert verify_certificate(r, stream=stream)
    lo, hi = r.achieved.interval()
    # the certified interval sits inside (a - eps, a + eps)
    assert math.exp(float(lo)) > float(a - eps)
    assert math.exp(float(hi)) < float(a + eps)


def test_ray_coprimality_structure(stream):
    for a in [Fraction(5, 4), Fraction(2), Fraction(7, 2)]:
        r = approx_ray(a, Fraction(1, 100), stream=stream)
        if r.group.two_rank > 0:
            assert all(lo >= 2 for lo, _ in r.group.odd_prime_ranges)


def test_ray_materialized_ratio_matches_certificate(stream):
    r = approx_ray(Fraction(5, 4), Fraction(1, 100), stream=stream)
    g = r.group.materialize(stream)
    f = f_exact(g)
    assert abs(f - Fraction(5, 4)) <= Fraction(1, 100)
    if r.exact_ratio is not None:
        assert f == r.exact_ratio


def test_refuses_eps_below_arithmetic_resolution(stream):
    # ln(1 + eps/a) underflows the 192-bit working precision
    with pytest.raises(PrecisionRefusal):
        approx_ray(Fraction(1, 3), Fraction(1, 2**200), stream=stream)
    # an exact hit needs no tolerance: the greedy selects nothing
    for b in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        assert approx_ray(b, Fraction(1, 2**200), stream=stream).exact_ratio == b


def test_ray_capacity_error_carries_partial_trace():
    tiny = PrimeStream(ceiling=2000)
    with pytest.raises(SieveCapacityError) as exc:
        approx_ray(Fraction(1, 50), Fraction(1, 10**6), stream=tiny)
    assert exc.value.partial is not None
    assert exc.value.partial.selection.status == "capacity_exhausted"


def test_monotone_resource_use(stream):
    # for fixed a, loosening eps never scans farther into the primes
    for a in [Fraction(3, 10), Fraction(3, 4), Fraction(9, 5)]:
        prev = None
        for eps in [Fraction(1, 10**5), Fraction(1, 10**4), Fraction(1, 10**3)]:
            r = approx_ray(a, eps, stream=stream)
            scanned = r.trace.selection.scanned
            if prev is not None:
                assert scanned <= prev
            prev = scanned


def test_trace_replays_deterministically(stream):
    r1 = approx_ray(Fraction(19, 8), Fraction(1, 10**4), stream=stream)
    r2 = approx_ray(Fraction(19, 8), Fraction(1, 10**4), stream=stream)
    assert r1.group == r2.group
    assert r1.achieved == r2.achieved
    assert r1.trace.selection.ranges == r2.trace.selection.ranges


def test_second_pass_double_precision(stream):
    r = approx_ray(Fraction(2), Fraction(1, 10**3), stream=stream)
    assert verify_certificate(r, stream=stream, prec=384)


EPS = Fraction(1, 10**3)


@pytest.fixture(scope="module")
def certified(stream):
    """Certified (not exact) results on 375k, 40k, 12k and 11k selected
    primes, and a below-eps witness on 6 odd primes, certified because its
    greedy leaves the exact phase after one of them."""
    out = {}
    for a in ("1.52", "1.8", "2.0", "0.047"):
        out[a] = approx_ray(Fraction(a), EPS, stream=stream)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subsum, "EXACT_CAP", 1)
        out["0"] = approx_ray(0, Fraction(1, 5), stream=stream)
    assert out["0"].trace.below_eps_witness
    assert all(r.exact_ratio is None for r in out.values())
    return out


def count_scalar_terms(monkeypatch):
    calls = []
    real = fixedlog.log_ratio_term_bounds

    def counted(p, prec=fixedlog.PREC):
        calls.append(p)
        return real(p, prec)

    monkeypatch.setattr(fixedlog, "log_ratio_term_bounds", counted)
    return calls


@pytest.mark.parametrize("a", ["1.52", "1.8", "2.0", "0.047", "0"])
@pytest.mark.parametrize("shift", [0, 2, -2])
def test_fast_and_scalar_verifiers_agree(certified, stream, a, shift):
    r = certified[a]
    if shift:
        target = r.target + shift * r.eps
        if target >= 0:
            r = replace(r, target=target)
        else:  # the witness: shrink eps below f(G) instead
            r = replace(r, eps=r.eps / 1000)
    fast = verify_certificate(r, stream=stream)
    assert fast is (shift == 0)
    assert verify_certificate(r, stream=stream, prec=384) is fast


@pytest.mark.parametrize("prec", [0, 1, 4])
def test_verifier_refuses_a_precision_below_the_table_bits(certified, stream, prec):
    # below five bits the scalar enclosure is not defined: a refusal, never
    # a verdict from a 192-bit 2-part mixed with a 0-bit odd part
    with pytest.raises(ValueError, match="prec must be at least 5 bits"):
        verify_certificate(certified["1.52"], stream=stream, prec=prec)


def fast_enclosure_mid(r, stream) -> float:
    g = r.group
    b_lo, b_hi = fixedlog.ln_fraction_bounds(two_rank_ratio(g.two_rank))
    t_lo = t_hi = 0
    for i0, i1 in g.odd_prime_ranges:
        lo, hi = fixedlog.term_block_atanh60(stream.primes_list(i0, i1))
        t_lo, t_hi = t_lo + lo, t_hi + hi
    return (b_lo + b_hi) / 2 ** (fixedlog.PREC + 1) - (t_lo + t_hi) / 2 ** (
        fixedlog.SCALE_BITS + 1
    )


@pytest.mark.parametrize("end", [1, -1])
def test_straddling_enclosure_falls_back_to_scalar(certified, stream, monkeypatch, end):
    # put an end of (a - eps, a + eps) at the middle of the 60-bit enclosure,
    # where only the scalar path can decide
    r = certified["1.8"]
    x = Fraction(math.exp(fast_enclosure_mid(r, stream)))
    r = replace(r, target=x - end * EPS)
    scalar = verify_certificate(r, stream=stream, prec=384)
    calls = count_scalar_terms(monkeypatch)
    assert verify_certificate(r, stream=stream) is scalar
    assert len(calls) == r.group.index_count


def test_default_verifier_makes_no_scalar_term_calls(certified, stream, monkeypatch):
    r = certified["1.8"]
    assert r.group.index_count > 40_000
    calls = count_scalar_terms(monkeypatch)
    assert verify_certificate(r, stream=stream)
    assert calls == []


def test_reduced_pairs_match_the_fraction_arithmetic(stream, monkeypatch):
    # approx_ray and the verifier build (a + eps)/a and a +- eps as
    # gcd-reduced integer pairs: the greedy's log tolerance is the one the
    # Fraction arithmetic gives, and a certified witness with a = eps, where
    # a - eps = 0 has no logarithm, is still decided
    for a in ("3/2", "0.83", "5/2", "7/3", "4.2", "0.3"):
        a = Fraction(a)
        r = approx_ray(a, EPS, stream=stream)
        lo = fixedlog.ln_fraction_bounds((a + EPS) / a)[0]
        assert r.trace.selection.eps == Fraction(max(lo, 1), 1 << fixedlog.PREC), a
    monkeypatch.setattr(subsum, "EXACT_CAP", 1)
    r = approx_ray(Fraction(1, 10), Fraction(1, 10), stream=stream)
    assert r.trace.below_eps_witness and r.exact_ratio is None
    assert verify_certificate(r, stream=stream)
    assert verify_certificate(r, stream=stream, prec=384)


def test_verifier_recomputes_exact_ratio_from_the_group(stream):
    r = approx_ray(Fraction(9, 2), EPS, stream=stream)
    assert r.exact_ratio is not None and r.exact_ratio != r.target
    assert verify_certificate(r, stream=stream)
    # a claimed ratio that is not f(G) is rejected even when it meets the target
    assert not verify_certificate(
        replace(r, exact_ratio=r.target), stream=stream
    )
    # so is a group that is not the one the ratio came from
    fewer = SymbolicGroup(r.group.two_rank, r.group.odd_prime_ranges[:-1])
    assert not verify_certificate(replace(r, group=fewer), stream=stream)


@pytest.mark.parametrize("a, cap", [("0.047", None), ("2.0", None), ("0", 1)])
def test_continuation_encloses_the_unreduced_product(stream, monkeypatch, a, cap):
    # runs past the exact cap return the scan's own 60-bit enclosure of the
    # selected sum instead of a product; the result must pass both second
    # passes
    eps = Fraction(1, 5) if a == "0" else EPS
    if cap is not None:
        monkeypatch.setattr(subsum, "EXACT_CAP", cap)
    r = approx_ray(Fraction(a), eps, stream=stream)
    assert r.exact_ratio is None
    assert verify_certificate(r, stream=stream)
    assert verify_certificate(r, stream=stream, prec=384)


@pytest.mark.parametrize(
    "call, cap",
    [
        (lambda s: approx_ray(0, Fraction(1, 10), stream=s), 1),
        (lambda s: approx_ray(Fraction(38, 25), Fraction(1, 1000), stream=s), None),
        (lambda s: approx_ray(Fraction(1, 25), Fraction(1, 1000), stream=s), None),
    ],
    ids=["below-eps-past-cap", "ray-38/25", "unit-1/25"],
)
def test_selection_does_not_depend_on_sieve_history(monkeypatch, call, cap):
    # the greedy stops at the first converged prefix, so how far the
    # stream was sieved before the call cannot move its selection
    if cap is not None:
        monkeypatch.setattr(subsum, "EXACT_CAP", cap)
    groups = []
    for extent in (None, 10**6, 10**7):
        s = PrimeStream()
        if extent:
            s.extend_to(extent)
        r = call(s)
        groups.append((r.group, r.achieved, r.exact_ratio))
    assert groups[0] == groups[1] == groups[2]


def test_sieve_ceiling_below_the_first_segment_is_honoured():
    # 9277 is past the ceiling, so no group may contain it
    with pytest.raises(SieveCapacityError):
        approx_ray(Fraction(1, 10), Fraction(1, 10**6), stream=PrimeStream(ceiling=1000))
