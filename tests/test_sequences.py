import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from latval.instances import INTERVAL_SETS, interval_measure, step_integral
from latval.intervals import EMPTY, interval, iset_make
from latval.lattice import diamond_m3
from latval.sequences import (
    MonotonicityError,
    ModulusError,
    convergence_theorem_check,
    increment_domination_check,
    limits_finite,
    phi_limits_at_depth,
    rational_square_root_scan,
    seq_make,
    sqrt2_convergents,
    sqrt2_witness,
)
from latval.stepfn import ZERO_FN, indicator, step_scale


def shrinking(n: int):
    return interval(0, 1 + Fraction(1, n))


def ceil_inv(eps: Fraction) -> int:
    return max(1, math.ceil(1 / eps))


def make_shrinking(**kwargs):
    return seq_make(
        INTERVAL_SETS,
        "decreasing",
        shrinking,
        ceil_inv,
        phi=interval_measure,
        lower_bound=interval(0, 1),
        **kwargs,
    )


def test_seq_make_accepts_nested_intervals():
    seq = make_shrinking()
    assert seq.at(3) == interval(0, Fraction(4, 3))


def test_seq_make_rejects_non_monotone():
    with pytest.raises(MonotonicityError) as err:
        seq_make(
            INTERVAL_SETS,
            "decreasing",
            lambda n: interval(0, n),
            lambda eps: 1,
        )
    assert err.value.stage == 2


def test_seq_make_needs_a_sanity_depth():
    # stages are 1-based: a depth of 0 would check no stage at all, and a
    # tail declared from stage 0 or below names a stage that does not exist
    for phi in (None, interval_measure):
        with pytest.raises(ValueError, match="sanity_depth"):
            seq_make(INTERVAL_SETS, "decreasing", shrinking, ceil_inv, sanity_depth=0, phi=phi)
        for constant_from in (0, -3):
            with pytest.raises(ValueError, match="constant_from"):
                seq_make(INTERVAL_SETS, "decreasing", lambda n: interval(0, 1), lambda e: 1,
                         phi=phi, constant_from=constant_from)


def test_seq_make_produces_each_stage_once():
    # and phi once per stage, whatever tail is declared
    for constant_from in (None, 3, 10):
        calls, values = [], []
        producer = lambda n: calls.append(n) or interval(0, 1 + Fraction(1, min(n, 3)))
        phi = replace(interval_measure, fn=lambda a: values.append(a) or interval_measure(a))
        seq_make(INTERVAL_SETS, "decreasing", producer, ceil_inv, phi=phi,
                 constant_from=constant_from)
        assert calls == [*range(1, 9)] and len(values) == 8


def test_seq_make_rejects_bogus_modulus():
    # phi values grow without bound: no modulus exists, so any claimed one
    # is falsified within the sanity window
    with pytest.raises(ModulusError):
        seq_make(
            INTERVAL_SETS,
            "increasing",
            lambda n: interval(0, n),
            lambda eps: 1,
            phi=interval_measure,
        )


def test_seq_make_constant_sequence():
    seq = seq_make(
        INTERVAL_SETS,
        "decreasing",
        lambda n: interval(0, 1),
        lambda eps: 1,
        phi=interval_measure,
        constant_from=1,
    )
    assert seq.constant_from == 1


def test_value_shrinking():
    x = make_shrinking()
    v = x.value(interval_measure, Fraction(1, 100))
    assert Fraction(1) <= v <= Fraction(1) + Fraction(1, 100)


def test_value_constant_exact():
    seq = seq_make(
        INTERVAL_SETS, "decreasing", lambda n: interval(0, 1), lambda eps: 1,
        phi=interval_measure, constant_from=1,
    )
    assert seq.value(interval_measure, Fraction(1, 1000)) == 1


def test_value_respects_modulus_nesting():
    # values at two tolerances can differ by at most the sum of the tolerances
    x = make_shrinking()
    grid = [Fraction(1, 2), Fraction(1, 10), Fraction(1, 64), Fraction(1, 500)]
    for big in grid:
        for small in grid:
            if small >= big:
                continue
            v_small = x.value(interval_measure, small)
            v_big = x.value(interval_measure, big)
            assert abs(v_small - v_big) <= small + big


def test_value_two_piece():
    seq = seq_make(
        INTERVAL_SETS,
        "decreasing",
        lambda n: iset_make([(0, 1), (2, 2 + Fraction(1, n))]),
        ceil_inv,
        phi=interval_measure,
    )
    v = seq.value(interval_measure, Fraction(1, 1000))
    assert abs(v - 1) <= Fraction(1, 1000)


def constant_elem(lo, hi):
    return seq_make(
        INTERVAL_SETS,
        "decreasing",
        lambda n: interval(lo, hi),
        lambda eps: 1,
        phi=interval_measure,
        lower_bound=interval(lo, hi),
        constant_from=1,
    )


def test_combine_meet_against_stage_oracle():
    x = make_shrinking()
    y = constant_elem(Fraction(1, 2), 2)
    m = x.combine("meet", y)
    # stage oracle: intersection at each stage
    for n in range(1, 30):
        assert m.at(n) == interval(Fraction(1, 2), 1 + Fraction(1, n))
    v = m.value(interval_measure, Fraction(1, 1000))
    assert abs(v - Fraction(1, 2)) <= Fraction(1, 1000)


def test_combine_idempotent():
    x = make_shrinking()
    m = x.combine("meet", x)
    for n in (1, 2, 5, 9):
        assert m.at(n) == x.at(n)


def test_combine_join_two_blocks():
    x = make_shrinking()
    y = seq_make(
        INTERVAL_SETS,
        "decreasing",
        lambda n: interval(2 - Fraction(1, n), 3),
        ceil_inv,
        phi=interval_measure,
    )
    j = x.combine("join", y)
    for n in (1, 3, 7):
        assert j.at(n) == iset_make(
            [(0, 1 + Fraction(1, n)), (2 - Fraction(1, n), 3)]
        )
    v = j.value(interval_measure, Fraction(1, 1000))
    assert abs(v - 2) <= Fraction(1, 1000)


def test_combine_modularity_stagewise():
    x = make_shrinking()
    y = constant_elem(Fraction(1, 2), 2)
    m = x.combine("meet", y)
    j = x.combine("join", y)
    mu = interval_measure
    for n in range(1, 51):
        assert mu(m.at(n)) + mu(j.at(n)) == mu(x.at(n)) + mu(y.at(n))


def test_pi_leq_proved_with_constant_target():
    x = make_shrinking()
    y = constant_elem(0, 2)
    verdict = x.leq_at_depth(y, depth=5, certificate="y-constant")
    assert verdict.kind == "proved" and verdict.stage == 1


def test_pi_leq_constant_tail_declared_at_the_depth():
    # y is [0, 4], [0, 3], then [0, 2] from stage 3 on; x_1 = [0, 2]
    y = seq_make(
        INTERVAL_SETS, "decreasing", lambda n: interval(0, 2 + max(0, 3 - n)), lambda eps: 3,
        phi=interval_measure, constant_from=3,
    )
    verdict = make_shrinking().leq_at_depth(y, depth=3, certificate="y-constant")
    assert (verdict.kind, verdict.stage) == ("proved", 3)
    with pytest.raises(ValueError):
        make_shrinking().leq_at_depth(y, depth=2, certificate="y-constant")


def test_pi_leq_refuted_by_probe():
    x = constant_elem(0, 2)
    y = make_shrinking()
    verdict = x.leq_at_depth(y, depth=6)
    assert verdict.kind == "refuted"


def test_pi_leq_unknown_when_truncation_cannot_decide():
    x = make_shrinking()
    y = seq_make(
        INTERVAL_SETS,
        "decreasing",
        lambda n: interval(0, 1 + Fraction(1, 2 * n)),
        lambda eps: max(1, math.ceil(1 / (2 * eps))),
        phi=interval_measure,
        lower_bound=interval(0, 1),
    )
    verdict = x.leq_at_depth(y, depth=10)
    assert verdict.kind == "unknown"


def test_pi_leq_stagewise_certificate():
    x = seq_make(
        INTERVAL_SETS,
        "decreasing",
        lambda n: interval(0, 1 + Fraction(1, 2 * n)),
        lambda eps: max(1, math.ceil(1 / (2 * eps))),
        phi=interval_measure,
    )
    y = make_shrinking()
    verdict = x.leq_at_depth(y, depth=8, certificate="stagewise")
    assert verdict.kind == "proved"


def growing(stage, **kwargs):
    """An increasing sequence of the given stages; phi of stage n is within
    1/n of its limit, so ``ceil_inv`` is its modulus."""
    return seq_make(INTERVAL_SETS, "increasing", stage, ceil_inv, phi=interval_measure, **kwargs)


def test_leq_y_constant_proves_nothing_for_an_increasing_x():
    # x_n = [0, 2 - 1/n] grows to [0, 2): x_1 lies in y = [0, 1], x_2 does not
    x = growing(lambda n: interval(0, 2 - Fraction(1, n)), lower_bound=interval(0, 1))
    y = constant_elem(0, 1)
    assert INTERVAL_SETS.leq(x.at(1), y.at(1)) and not INTERVAL_SETS.leq(x.at(2), y.at(1))
    verdict = x.leq_at_depth(y, depth=5, certificate="y-constant")
    assert (verdict.kind, verdict.stage) == ("unknown", 5)


def test_leq_probe_refutes_nothing_against_an_increasing_y():
    # y_n = [0, 1 - 1/(n+1)] u {1} grows to [0, 1], which contains x = [0, 1];
    # the probe 501/1000 misses y_1 only
    x = constant_elem(0, 1)
    y = growing(lambda n: iset_make([(0, 1 - Fraction(1, n + 1)), (1, 1)]))
    probe = Fraction(501, 1000)
    assert x.lower_bound.contains(probe) and not y.at(1).contains(probe)
    assert all(y.at(n).contains(probe) for n in range(2, 10))
    for certificate in (None, "stagewise"):
        verdict = x.leq_at_depth(y, depth=6, certificate=certificate)
        assert (verdict.kind, verdict.stage) == ("unknown", 6)


def test_combine_needs_one_direction():
    down = make_shrinking()
    up = growing(lambda n: interval(0, 1 - Fraction(1, n + 1)))
    for kind in ("meet", "join"):
        for x, y in ((down, up), (up, down)):
            with pytest.raises(ValueError, match="cannot combine a"):
                x.combine(kind, y)


def test_increasing_combine_and_value_against_stage_oracle():
    # x_n = [0, 1 - 1/(n+1)] and y_n = [1/2, 2 - 1/n] grow to [0, 1) and [1/2, 2)
    x = growing(lambda n: interval(0, 1 - Fraction(1, n + 1)), lower_bound=interval(0, 0))
    y = growing(lambda n: interval(Fraction(1, 2), 2 - Fraction(1, n)),
                lower_bound=interval(Fraction(1, 2), 1))
    m, j = x.combine("meet", y), x.combine("join", y)
    assert m.direction == j.direction == "increasing"
    assert (m.lower_bound, j.lower_bound) == (EMPTY, iset_make([(0, 0), (Fraction(1, 2), 1)]))
    for n in range(1, 30):
        assert m.at(n) == interval(Fraction(1, 2), 1 - Fraction(1, n + 1))
        assert j.at(n) == interval(0, 2 - Fraction(1, n))
    for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000)):
        # each modulus at eps/2 is ceil(2/eps), and so is the larger of the two
        n = math.ceil(2 / eps)
        assert m.stage_for(eps) == j.stage_for(eps) == n
        assert m.value(interval_measure, eps) == Fraction(1, 2) - Fraction(1, n + 1)
        assert j.value(interval_measure, eps) == 2 - Fraction(1, n)
        assert 0 <= 2 - j.value(interval_measure, eps) <= eps


def test_limits_finite_constant():
    lat = diamond_m3()
    ulim, llim, conv = limits_finite(lat, ["a"] * 6, preperiod=0, period=1)
    assert (ulim, llim, conv) == ("a", "a", True)


def test_limits_finite_alternating():
    lat = diamond_m3()
    seq = ["a", "b"] * 4
    ulim, llim, conv = limits_finite(lat, seq, preperiod=0, period=2)
    assert ulim == "1" and llim == "0" and not conv


def test_limits_finite_preperiod_junk():
    lat = diamond_m3()
    seq = ["1", "b", "c"] + ["c"] * 5
    ulim, llim, conv = limits_finite(lat, seq, preperiod=3, period=1)
    assert (ulim, llim, conv) == ("c", "c", True)


def test_limits_finite_accepts_exactly_preperiod_plus_two_periods():
    lat = diamond_m3()
    seq = ["1", "a", "b", "a", "b"]  # preperiod 1 and two periods of 2: five stages
    assert limits_finite(lat, seq, preperiod=1, period=2) == ("1", "0", False)
    with pytest.raises(ValueError, match="need at least preperiod"):
        limits_finite(lat, seq[:-1], preperiod=1, period=2)


def test_limits_finite_requires_declared_period():
    lat = diamond_m3()
    with pytest.raises(ValueError):
        limits_finite(lat, ["a"] * 6, preperiod=0, period=0)
    with pytest.raises(ValueError):
        limits_finite(lat, ["a", "b"] * 3, preperiod=0, period=3)


def test_phi_limits_constant():
    f = indicator(0, 1)
    pulim, pllim, _ = phi_limits_at_depth(step_integral, lambda n: f, 6)
    assert pulim == pllim == 1


def test_limits_at_the_least_depth():
    # stages 1_[0,1] and 1_[0,2]: the tails from stage 1 have join 1_[0,2]
    # and meet 1_[0,1], the tail from stage 2 is 1_[0,2] alone
    producer = lambda n: indicator(0, n)
    pulim, pllim, tails = phi_limits_at_depth(step_integral, producer, 2)
    assert (pulim, pllim, tails) == (2, 2, [(2, 1), (2, 2)])
    for kind in ("fatou", "dct"):
        bounds = (ZERO_FN, indicator(0, 2)) if kind == "dct" else None
        report = convergence_theorem_check(kind, step_integral, producer, 2, 0, bounds)
        assert report.ok and report.results, report.to_dict()
    for depth in (0, 1):
        with pytest.raises(ValueError):
            phi_limits_at_depth(step_integral, producer, depth)
        with pytest.raises(ValueError):
            convergence_theorem_check("fatou", step_integral, producer, depth, 0)


def test_phi_limits_decaying_indicator():
    pulim, pllim, tails = phi_limits_at_depth(
        step_integral, lambda n: step_scale(Fraction(1, n), indicator(0, 1)), 8
    )
    # phi(f_N v ... v f_8) = 1/N and phi(f_N ^ ... ^ f_8) = 1/8; the
    # truncated outer meet is the last tail
    assert pulim == Fraction(1, 8)
    assert pllim == Fraction(1, 8)
    assert tails == [(Fraction(1, n), Fraction(1, 8)) for n in range(1, 9)]


def test_phi_limits_lower_leq_upper_always():
    rng = random.Random(77)
    from latval.instances import sample_step_fn

    for _ in range(40):
        fns = [sample_step_fn(rng) for _ in range(6)]
        pulim, pllim, _ = phi_limits_at_depth(
            step_integral, lambda n: fns[n - 1], len(fns)
        )
        assert pllim <= pulim


def test_fatou_increasing_indicators():
    report = convergence_theorem_check(
        "fatou",
        step_integral,
        lambda n: indicator(0, 1 - Fraction(1, n)),
        depth=12,
        tol=Fraction(1, 1000),
    )
    assert report.ok, report.to_dict()


def test_dct_alternating_shrinking():
    producer = lambda n: step_scale(Fraction((-1) ** n, n), indicator(0, 1))
    report = convergence_theorem_check(
        "dct",
        step_integral,
        producer,
        depth=30,
        tol=Fraction(1, 10),
        bounds=(step_scale(-1, indicator(0, 1)), indicator(0, 1)),
    )
    assert report.ok, report.to_dict()


def test_dct_requires_bounds():
    with pytest.raises(ValueError):
        convergence_theorem_check(
            "dct", step_integral, lambda n: indicator(0, 1), depth=5, tol=1
        )


def test_dct_constant_sequence_exact():
    report = convergence_theorem_check(
        "dct",
        step_integral,
        lambda n: indicator(0, 1),
        depth=6,
        tol=Fraction(0),
        bounds=(step_scale(-1, indicator(0, 1)), step_scale(2, indicator(0, 1))),
    )
    assert report.ok


def test_sqrt2_convergent_families():
    qs, rs = sqrt2_convergents(6)
    assert qs[0] == 1 and qs[1] == Fraction(7, 5) and qs[2] == Fraction(41, 29)
    assert rs[0] == Fraction(1, 2) and rs[1] == Fraction(5, 12)
    for q in qs:
        assert q * q < 2
    for i in range(5):
        assert qs[i] < qs[i + 1]
        assert rs[i] > rs[i + 1]
        assert (rs[i] + 1) ** 2 > 2


def test_sqrt2_convergents_match_the_two_family_recurrence():
    qs, rs = sqrt2_convergents(60)
    want_qs, want_rs = [], []
    for family, (p, s) in ((want_qs, (1, 1)), (want_rs, (3, 2))):
        for _ in range(60):
            family.append((p, s))
            p, s = 3 * p + 4 * s, 2 * p + 3 * s
    got_qs = [(q.numerator, q.denominator) for q in qs]
    got_rs = [(r.numerator + r.denominator, r.denominator) for r in rs]  # r_n + 1
    assert got_qs == want_qs and got_rs == want_rs
    for pairs, sign in ((got_qs, -1), (got_rs, 1)):
        for p, s in pairs:
            assert p * p - 2 * s * s == sign and math.gcd(p, s) == 1


def test_sqrt2_witness_trace():
    trace = sqrt2_witness(8)
    for row in trace:
        assert row["mu_union"] == row["q"]
        assert row["mu_B"] == row["q"] - row["r"]
    assert trace[4]["defect"] <= Fraction(1, 1000)
    defects = [row["defect"] for row in trace]
    assert all(defects[i] > defects[i + 1] for i in range(len(defects) - 1))


def test_sqrt2_no_rational_square_root_nearby():
    trace = sqrt2_witness(12)
    q = trace[-1]["q"]
    assert rational_square_root_scan(q, max_den=12, tol=Fraction(1, 10**6)) == []
    # that window holds no p/q at all; this one holds six, and none squares to 2
    tol = Fraction(1, 20)
    near = {Fraction(p, d) for d in range(1, 13) for p in range(3 * d)
            if abs(Fraction(p, d) - q) <= tol}
    assert len(near) == 6
    assert rational_square_root_scan(q, max_den=12, tol=tol) == []


def test_increment_domination_transfer():
    # x_n = partial sums of 2^-(n+1) dominated by y_n = 1 - 2^-n
    xs = []
    acc = Fraction(0)
    ys = []
    for n in range(1, 30):
        acc += Fraction(1, 2 ** (n + 1))
        xs.append(acc)
        ys.append(1 - Fraction(1, 2**n))

    def y_modulus(eps: Fraction) -> int:
        n = 1
        while Fraction(1, 2**n) > eps:
            n += 1
        return n

    report = increment_domination_check(
        xs, ys, y_modulus, [Fraction(1, 2), Fraction(1, 16), Fraction(1, 256)]
    )
    assert report.ok, report.to_dict()


def test_increment_domination_accepts_equal_increments():
    # x and y move by the same amounts: each increment is dominated, with equality
    xs = ys = [Fraction(0), Fraction(1, 2), Fraction(3, 4)]
    report = increment_domination_check(xs, ys, lambda eps: 1, [Fraction(1)])
    assert report.ok, report.to_dict()
    assert report.results["increments dominated"].passed == 2
