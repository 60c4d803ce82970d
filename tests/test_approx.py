import dataclasses
import math
from fractions import Fraction

import pytest

from autratio import fixedlog
from autratio.approximate import (
    ApproxConfig,
    approx_in_unit,
    approx_ray,
    choose_two_rank,
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
    for i in group.iter_indices():
        p = stream.nth_prime(i)
        prod *= Fraction(p - 1, p)
    return prod


@pytest.mark.parametrize("exact_cap", [10_000, 3])
def test_unit_result_encloses_the_selection_pair(stream, exact_cap):
    # the result's LogValue is built from the selection's integer pair
    r = approx_in_unit(
        Fraction(3, 10), Fraction(1, 1000), stream=stream,
        config=ApproxConfig(exact_cap=exact_cap),
    )
    assert (r.exact_ratio is None) == (exact_cap == 3)
    lo, hi = r.trace.selection.achieved
    assert r.achieved == LogValue.from_bounds(-hi, -lo, fixedlog.PREC)


def test_unit_exact_one(stream):
    r = approx_in_unit(1, Fraction(1, 10**6), stream=stream)
    assert r.exact_ratio == 1
    assert r.group.two_rank == 0 and r.group.index_count == 0
    assert r.achieved.log_value == 0.0 and r.achieved.abs_error == 0.0


def test_unit_exact_half(stream):
    r = approx_in_unit(Fraction(1, 2), Fraction(1, 10**9), stream=stream)
    assert r.exact_ratio == Fraction(1, 2)
    assert r.group.two_rank == 1 and r.group.index_count == 0


def test_unit_generic_target(stream):
    a, eps = Fraction(3, 10), Fraction(1, 10**3)
    r = approx_in_unit(a, eps, stream=stream)
    P = r.exact_ratio
    assert P is not None
    assert a <= P < a + eps
    assert independent_product(r.group, stream) == P
    assert verify_certificate(r, stream=stream)
    # the exact ratio is kept once, on the result, not again in the trace
    assert r.trace.selection.exact_product is None


def test_unit_rejects_bad_inputs(stream):
    with pytest.raises(ValueError):
        approx_in_unit(Fraction(3, 2), Fraction(1, 10), stream=stream)
    with pytest.raises(ValueError):
        approx_in_unit(Fraction(1, 2), 0, stream=stream)


def test_unit_odd_only_no_two_part(stream):
    r = approx_in_unit(Fraction(2, 3), Fraction(1, 10**6), odd_only=True, stream=stream)
    assert r.group.two_rank == 0
    assert all(lo >= 2 for lo, _ in r.group.odd_prime_ranges)
    assert r.exact_ratio == Fraction(2, 3)  # p = 3 alone hits exactly


def test_below_eps_witness(stream):
    r = approx_in_unit(0, Fraction(1, 10), stream=stream)
    assert r.trace.below_eps_witness
    assert r.exact_ratio is not None and 0 < r.exact_ratio < Fraction(1, 10)
    assert verify_certificate(r, stream=stream)
    # a <= eps routes the same way
    r2 = approx_in_unit(Fraction(1, 100), Fraction(5, 100), stream=stream)
    assert r2.trace.below_eps_witness


def test_choose_two_rank_examples():
    assert choose_two_rank(Fraction(6, 5)) == (2, Fraction(3, 2))
    assert choose_two_rank(2) == (3, Fraction(21))
    assert choose_two_rank(21) == (4, Fraction(1260))
    with pytest.raises(ValueError):
        choose_two_rank(1)


def test_ray_delegates_below_one(stream):
    r = approx_ray(Fraction(7, 10), Fraction(1, 10**6), stream=stream)
    assert r.exact_ratio is not None
    assert Fraction(7, 10) <= r.exact_ratio < Fraction(7, 10) + Fraction(1, 10**6)


def test_ray_exact_two_group_short_circuit(stream):
    # a = f(C2^2) exactly: the odd stage is skipped, the hit is exact
    r = approx_ray(Fraction(3, 2), Fraction(1, 10**9), stream=stream)
    assert r.exact_ratio == Fraction(3, 2)
    assert r.group.two_rank == 2 and r.group.index_count == 0
    assert r.trace.b == Fraction(3, 2) and r.trace.selection is None
    r = approx_ray(21, Fraction(1, 10**9), stream=stream)
    assert r.exact_ratio == 21 and r.group.two_rank == 3


def test_ray_generic_target(stream):
    a, eps = Fraction(2), Fraction(1, 10**3)
    r = approx_ray(a, eps, stream=stream)
    assert r.group.two_rank == 3
    assert r.trace.b == 21 and r.trace.eps_inner == Fraction(1, 21000)
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
    g = r.materialize(stream)
    f = f_exact(g)
    assert abs(f - Fraction(5, 4)) <= Fraction(1, 100)
    if r.exact_ratio is not None:
        assert f == r.exact_ratio


def test_refuses_eps_below_arithmetic_resolution(stream):
    # ln(1 + eps/a) underflows the 192-bit working precision
    with pytest.raises(PrecisionRefusal):
        approx_in_unit(Fraction(1, 3), Fraction(1, 2**200), stream=stream)


def test_ray_capacity_error_carries_partial_trace():
    tiny = PrimeStream(ceiling=2000)
    with pytest.raises(SieveCapacityError) as exc:
        approx_ray(Fraction(1, 50), Fraction(1, 10**6), stream=tiny)
    assert exc.value.partial is not None
    assert exc.value.partial.selection.status in (
        "capacity_exhausted",
        "budget_exhausted",
    )


def test_monotone_resource_use(stream):
    # for fixed a, loosening eps never scans farther into the primes
    for a in [Fraction(3, 10), Fraction(3, 4), Fraction(9, 5)]:
        prev = None
        for eps in [Fraction(1, 10**5), Fraction(1, 10**4), Fraction(1, 10**3)]:
            r = approx_ray(a, eps, stream=stream)
            scanned = 0 if r.trace.selection is None else r.trace.selection.scanned
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
    """Certified (not exact) results on 378k, 41k, 12k and 12k selected
    primes, and a below-eps witness on 607 primes, certified because its
    greedy leaves the exact phase after one prime."""
    out = {}
    for a in ("1.52", "1.8", "2.0", "0.047"):
        out[a] = approx_ray(Fraction(a), EPS, stream=stream)
    out["0"] = approx_in_unit(
        0, Fraction(1, 5), stream=stream, config=ApproxConfig(exact_cap=1)
    )
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
            r = dataclasses.replace(r, target=target)
        else:  # the witness: shrink eps below f(G) instead
            r = dataclasses.replace(r, eps=r.eps / 1000)
    fast = verify_certificate(r, stream=stream)
    assert fast is (shift == 0)
    assert verify_certificate(r, stream=stream, prec=384) is fast


def fast_enclosure_mid(r, stream) -> float:
    g = r.group
    b_lo, b_hi = fixedlog.ln_fraction_bounds(two_rank_ratio(g.two_rank))
    t_lo = t_hi = 0
    for i0, i1 in g.odd_prime_ranges:
        lo, hi = fixedlog.term_block_atanh60(stream.primes_slice(i0, i1))
        t_lo, t_hi = t_lo + lo, t_hi + hi
    return (b_lo + b_hi) / 2 ** (fixedlog.PREC + 1) - (t_lo + t_hi) / 2 ** (
        fixedlog.SCALE_BITS + 1
    )


@pytest.mark.parametrize("end", [1, -1])
def test_straddling_enclosure_falls_back_to_scalar(certified, stream, monkeypatch, end):
    # put an end of (a - eps, a + eps) at the middle of the int64 enclosure,
    # where only the scalar path can decide
    r = certified["1.8"]
    x = Fraction(math.exp(fast_enclosure_mid(r, stream)))
    r = dataclasses.replace(r, target=x - end * EPS)
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


def test_verifier_recomputes_exact_ratio_from_the_group(stream):
    r = approx_ray(Fraction(9, 2), EPS, stream=stream)
    assert r.exact_ratio is not None and r.exact_ratio != r.target
    assert verify_certificate(r, stream=stream)
    # a claimed ratio that is not f(G) is rejected even when it meets the target
    assert not verify_certificate(
        dataclasses.replace(r, exact_ratio=r.target), stream=stream
    )
    # so is a group that is not the one the ratio came from
    fewer = SymbolicGroup(r.group.two_rank, r.group.odd_prime_ranges[:-1])
    assert not verify_certificate(dataclasses.replace(r, group=fewer), stream=stream)


@pytest.mark.parametrize("a, cap", [("0.047", None), ("2.0", None), ("0", 1)])
def test_continuation_encloses_the_unreduced_product(stream, a, cap):
    # runs past the exact cap return the scan's own 60-bit enclosure of the
    # selected sum instead of a product; the result must pass both second
    # passes
    config = ApproxConfig() if cap is None else ApproxConfig(exact_cap=cap)
    eps = Fraction(1, 5) if a == "0" else EPS
    r = approx_ray(Fraction(a), eps, stream=stream, config=config)
    assert r.exact_ratio is None
    assert verify_certificate(r, stream=stream)
    assert verify_certificate(r, stream=stream, prec=384)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: approx_in_unit(0, Fraction(1, 10), stream=s, config=ApproxConfig(exact_cap=1)),
        lambda s: approx_ray(Fraction(38, 25), Fraction(1, 1000), stream=s),
        lambda s: approx_in_unit(Fraction(1, 25), Fraction(1, 1000), stream=s),
    ],
    ids=["below-eps-past-cap", "ray-38/25", "unit-1/25"],
)
def test_selection_does_not_depend_on_sieve_history(call):
    # the greedy stops at the first converged prefix, so how far the
    # stream was sieved before the call cannot move its selection
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
        approx_in_unit(Fraction(1, 10), Fraction(1, 10**6), stream=PrimeStream(ceiling=1000))
