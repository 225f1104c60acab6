import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latval.instances import INTERVAL_SETS, interval_measure, step_integral
from latval.intervals import EMPTY, interval, iset_diff, singleton
from latval.sequences import MonotonicityError, seq_make
from latval.stepfn import ZERO_FN, step_make
from latval.uniformity import (
    OracleContractViolation,
    broken_half,
    dense_approximate,
    dyadic_endpoint_oracle,
    dyadic_half,
    dyadic_holds,
    extract_subsequence,
    is_dyadic_set,
    separation_index,
    uniformity_check,
    weak_conv_check,
)
from test_oag import rationals


def test_dyadic_boundary_cases():
    assert dyadic_holds(3, 0, Fraction(1, 8))
    assert not dyadic_holds(3, 0, Fraction(1, 7))
    for i in (1, 5, 20):
        assert dyadic_holds(i, Fraction(2, 3), Fraction(2, 3))
    assert not dyadic_holds(1, 1, 0)  # order matters
    with pytest.raises(ValueError):
        dyadic_holds(0, 0, 0)


@st.composite
def dyadic_cases(draw):
    """An index, s, and t free or at, just inside, just past or below s's edges."""
    i, s = draw(st.integers(1, 1003)), draw(rationals)
    step, tiny = Fraction(1, 2**i), Fraction(1, 2 ** (i + draw(st.integers(1, 64))))
    kind = draw(st.sampled_from(["free", "same", "edge", "inside", "past", "below"]))
    if kind == "free":
        return kind, i, s, draw(rationals)
    t = {"same": s, "edge": s + step, "inside": s + step - tiny, "past": s + step + tiny,
         "below": s - tiny}[kind]
    return kind, i, s, Fraction(t.numerator, t.denominator)  # a new object


@settings(max_examples=400, deadline=None)
@given(dyadic_cases())
def test_dyadic_holds_matches_fraction_operators(case):
    kind, i, s, t = case
    want = s <= t <= s + Fraction(1, 2**i)
    assert dyadic_holds(i, s, t) is want
    if kind != "free":
        assert want is (kind in ("same", "edge", "inside"))


def test_meet_index_is_max():
    s, t = Fraction(0), Fraction(1, 16)
    k = max(3, 4)
    assert k == 4
    assert dyadic_holds(k, s, t)
    assert dyadic_holds(3, s, t) and dyadic_holds(4, s, t)


def test_separation_at_desk_scale():
    rng = random.Random(12)
    for _ in range(500):
        s = Fraction(rng.randint(-4000, 4000), rng.randint(1, 512))
        t = Fraction(rng.randint(-4000, 4000), rng.randint(1, 512))
        if s == t:
            continue
        lo, hi = min(s, t), max(s, t)
        idx = separation_index(lo, hi)
        assert idx is not None and idx <= 64
        assert not dyadic_holds(idx, lo, hi)


def test_dyadic_uniformity_check_passes():
    report = uniformity_check(dyadic_half, samples=2000, seed=5)
    assert report.ok, report.failing()


def test_broken_half_fails_composition_with_witness():
    report = uniformity_check(broken_half, samples=2000, seed=5)
    assert not report.ok
    bad = report.results["(iii) halving composes"]
    assert bad.failed > 0 and bad.counterexample is not None
    # everything else is untouched by the bad half map
    for name, res in report.results.items():
        if name != "(iii) halving composes":
            assert res.ok, name


def test_limit_properties_against_modulus_sequences():
    producer = lambda n: 1 + Fraction(1, n)

    def modulus(i: int) -> int:
        return 2**i

    report = uniformity_check(
        dyadic_half, samples=50, seed=1,
        modulus_sequences=[(producer, modulus, Fraction(1))],
    )
    assert report.ok, report.failing()


def shrinking_seq():
    return seq_make(
        INTERVAL_SETS,
        "decreasing",
        lambda n: interval(0, 1 + Fraction(1, n)),
        lambda eps: max(1, math.ceil(1 / eps)),
        phi=interval_measure,
    )


def test_dyadic_oracle_contract():
    oracle = dyadic_endpoint_oracle()
    rng = random.Random(3)
    from latval.instances import mu_S, sample_interval_set

    for _ in range(200):
        a = sample_interval_set(rng)
        i = rng.randint(1, 10)
        ell = oracle.witness(a, i)
        assert iset_diff(ell, a).is_empty()  # contained
        assert is_dyadic_set(ell)
        assert mu_S(a) - mu_S(ell) <= Fraction(1, 2**i)


def test_dyadic_witness_keeps_a_grid_point_only_inside_its_piece():
    # one piece at index 1 shrinks to the grid of quarters
    witness = dyadic_endpoint_oracle().witness
    assert witness(interval(Fraction(1, 3), Fraction(2, 3)), 1) == singleton(Fraction(1, 2))
    assert witness(interval(Fraction(1, 3), Fraction(1, 2), True, False), 1) == EMPTY
    assert witness(interval(Fraction(1, 5), Fraction(6, 25)), 1) == EMPTY  # no grid point
    assert witness(EMPTY, 3) == EMPTY


def test_dense_approximate_shrinking_intervals():
    phi = interval_measure
    out, trace = dense_approximate(phi, dyadic_endpoint_oracle(), shrinking_seq(), 4, 30)
    lat = phi.domain
    prev = None
    for n, row in enumerate(trace, start=1):
        a_n = interval(0, 1 + Fraction(1, n))
        atilde = out.producer(n)
        assert lat.leq(atilde, a_n)  # stage-wise below the input
        if prev is not None:
            assert lat.leq(atilde, prev)  # decreasing
        prev = atilde
        assert row["gap"] <= row["bound"] < Fraction(1, 2**5)
        # mu of the approximated stage stays within 1/16 of the target
        assert row["phi_a"] - row["phi_atilde"] <= Fraction(1, 16)


def test_dense_approximate_eps_bound_family():
    phi = interval_measure
    for k in (2, 4, 8):
        _, trace = dense_approximate(phi, dyadic_endpoint_oracle(), shrinking_seq(), k, 30)
        for row in trace:
            assert row["gap"] <= Fraction(1, 2 ** (k + 1))


def test_dense_approximate_constant_dyadic_sequence():
    phi = interval_measure
    const = seq_make(
        INTERVAL_SETS,
        "decreasing",
        lambda n: interval(0, Fraction(3, 4)),
        lambda eps: 1,
        phi=phi,
        constant_from=1,
    )
    out, trace = dense_approximate(phi, dyadic_endpoint_oracle(), const, 3, 5)
    # the oracle may return the element itself: zero loss throughout
    for row in trace:
        assert row["gap"] == 0
    assert out.producer(5) == interval(0, Fraction(3, 4))


def test_dense_approximate_modulus_at_a_power_of_two():
    # a source modulus of 1 leaves the least i with 2^-i <= eps, capped at the depth
    const = seq_make(
        INTERVAL_SETS, "decreasing", lambda n: interval(0, 1), lambda eps: 1,
        phi=interval_measure, constant_from=1,
    )
    out, _ = dense_approximate(interval_measure, dyadic_endpoint_oracle(), const, 2, 12)
    for k in range(1, 12):
        assert out.modulus(Fraction(1, 2**k)) == k
        assert out.modulus(Fraction(3, 2 ** (k + 2))) == k + 1  # 2^-(k+2) < 3/2^(k+2) < 2^-k
    assert out.modulus(Fraction(1, 2**20)) == 12


def test_dense_approximate_rejects_bad_oracle():
    from latval.uniformity import DenseOracle

    bad = DenseOracle(
        witness=lambda a, i: interval(-10, 10),  # not below a
        member=lambda a: True,
    )
    with pytest.raises(OracleContractViolation):
        dense_approximate(interval_measure, bad, shrinking_seq(), 2, 3)


def test_dense_approximate_rejects_a_stage_that_rises():
    # seq_make checks the first two stages only; the third leaves them
    rises = seq_make(
        INTERVAL_SETS,
        "decreasing",
        lambda n: interval(0, 1) if n < 3 else interval(5, 6),
        lambda eps: 1,
        sanity_depth=2,
        phi=interval_measure,
    )
    with pytest.raises(MonotonicityError) as err:
        dense_approximate(interval_measure, dyadic_endpoint_oracle(), rises, 1, 3)
    assert err.value.stage == 3


def test_dense_approximate_single_step():
    phi = interval_measure
    _, trace = dense_approximate(phi, dyadic_endpoint_oracle(), shrinking_seq(), 4, 1)
    assert len(trace) == 1
    assert trace[0]["gap"] <= Fraction(1, 2**7)  # zeta_1 = eps + 3


def traveling_bump(n: int):
    return step_make([((n, n + 1), Fraction(1, n))])


def test_weak_conv_traveling_bump():
    report = weak_conv_check(
        step_integral, traveling_bump, ZERO_FN, rate=lambda i: 2**i, depth=40
    )
    assert report.ok, report.failing()


def test_weak_conv_wrong_rate_fails():
    report = weak_conv_check(
        step_integral, traveling_bump, ZERO_FN, rate=lambda i: 1, depth=8
    )
    bad = report.results["weak convergence at declared rate"]
    assert bad.failed > 0
    # d(f_1, 0) = 1 misses every dyadic tolerance, already at index 1
    assert "n=1" in bad.counterexample


def test_weak_conv_rate_equal_to_the_depth_checks_that_stage():
    # every index declares stage 4, the last one: d(f_4, 0) = 1/4 meets 2^-1
    # and 2^-2 and misses the fourteen tolerances after them
    report = weak_conv_check(
        step_integral, traveling_bump, ZERO_FN, rate=lambda i: 4, depth=4
    )
    got = report.results["weak convergence at declared rate"]
    assert (got.passed, got.failed, got.counterexample) == (2, 14, "i=3 n=4 d=1/4")


def test_weak_conv_falling_rate_fails_monotonicity():
    # rate(i) = 64 - i falls at every index after the first, and lies past the depth
    report = weak_conv_check(
        step_integral, traveling_bump, ZERO_FN, rate=lambda i: 64 - i, depth=8
    )
    assert list(report.results) == ["rate monotone"]
    got = report.results["rate monotone"]
    assert (got.passed, got.failed, got.counterexample) == (1, 15, "rate(2) < rate(1)")


def test_weak_conv_constant_sequence():
    f = step_make([((0, 1), 2)])
    report = weak_conv_check(
        step_integral, lambda n: f, f, rate=lambda i: 1, depth=10
    )
    assert report.ok


def test_extract_subsequence_geometric():
    indices, sums = extract_subsequence(
        step_integral, traveling_bump, ZERO_FN, rate=lambda i: 2**i, count=20
    )
    assert indices == [2 ** (k + 1) for k in range(1, 21)]
    assert sums == sorted(sums)
    assert sums[-1] <= Fraction(1, 2)


def test_extract_subsequence_reindexes_stalled_rate():
    f = step_make([((0, 1), 2)])
    indices, sums = extract_subsequence(
        step_integral, lambda n: f, f, rate=lambda i: 1, count=6
    )
    assert indices == [1, 2, 3, 4, 5, 6]  # j_k = k after re-indexing
    assert sums[-1] == 0


def test_extract_subsequence_quadratic_decay():
    # d(f_n, 0) = 1/n^2; stages 2^((k+1)/2) rounded up satisfy 1/n^2 <= 2^-(k+1)
    producer = lambda n: step_make([((0, 1), Fraction(1, n * n))])
    rate = lambda i: math.isqrt(2**i - 1) + 1
    indices, sums = extract_subsequence(
        step_integral, producer, ZERO_FN, rate=rate, count=15
    )
    assert sums[-1] <= 1
