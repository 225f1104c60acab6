import math
import random
from fractions import Fraction

import pytest

from latval import instances
from latval.instances import (
    counting_valuation,
    dimension_valuation,
    interval_measure,
    mu_S,
    pad_with_nulls,
    phi_S,
    sample_interval_set,
    sample_rational,
    sample_step_fn,
    step_integral,
    totient,
    totient_valuation,
)
from latval.intervals import EMPTY, interval, iset_join, iset_make, iset_meet, singleton
from latval.stepfn import indicator, step_from_values, step_make
from latval.valuation import check_valuation


def totient_oracle(n: int) -> int:
    return sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1)


def test_totient_examples():
    assert totient(12) == 4 == totient_oracle(12)
    assert totient(1) == 1
    for p in (2, 3, 5, 7, 11, 13, 541):
        assert totient(p) == p - 1
    with pytest.raises(ValueError):
        totient(0)


def test_totient_matches_coprime_count_oracle():
    for n in range(1, 301):
        assert totient(n) == totient_oracle(n)
    # beyond the sieve cache: trial division path
    assert totient(5000) == totient_oracle(5000)
    assert totient(4097) == totient_oracle(4097)


def test_totient_modular_identity_full_range():
    from latval.instances import totient_range

    tot = totient_range(250000)  # lcm reaches 500 * 499
    for m in range(1, 501):
        for n in range(1, 501):
            g = math.gcd(m, n)
            assert tot[g] * tot[m * n // g] == tot[m] * tot[n]


def test_mu_additive_on_disjoint_samples():
    rng = random.Random(5)
    for _ in range(300):
        a, b = sample_interval_set(rng), sample_interval_set(rng)
        if iset_meet(a, b) == EMPTY:
            assert mu_S(iset_join(a, b)) == mu_S(a) + mu_S(b)
        assert mu_S(iset_meet(a, b)) + mu_S(iset_join(a, b)) == mu_S(a) + mu_S(b)


def test_phi_linear_and_positive():
    from latval.stepfn import step_add, step_leq, step_scale, ZERO_FN

    rng = random.Random(6)
    for _ in range(300):
        f, g = sample_step_fn(rng), sample_step_fn(rng)
        lam = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert phi_S(step_add(f, g)) == phi_S(f) + phi_S(g)
        assert phi_S(step_scale(lam, f)) == lam * phi_S(f)
        if step_leq(ZERO_FN, f):
            assert phi_S(f) >= 0


def test_builtin_valuations_pass_check():
    for phi in (
        interval_measure,
        step_integral,
        counting_valuation(),
        totient_valuation(),
        dimension_valuation(),
    ):
        report = check_valuation(phi, samples=400, seed=13)
        assert report.ok, (phi.name, report.failing())


def test_measure_ignores_boundary_kinds():
    assert mu_S(interval(0, 1, False, False)) == 1 == mu_S(interval(0, 1))
    assert mu_S(singleton(3)) == 0


def test_phi_ignores_point_values():
    f = indicator(0, 1)
    g = step_make([((0, 1, False, False), 1)])
    assert phi_S(f) == phi_S(g) == 1


# --- the samplers against a reference that builds through the readers ------


def reference_rational(rng):
    den = rng.randint(1, 6)
    return Fraction(rng.randint(-8 * den, 8 * den), den)


def reference_interval_set(rng, max_pieces):
    descs = []
    for _ in range(rng.randint(0, max_pieces)):
        a, b = sorted((reference_rational(rng), reference_rational(rng)))
        descs.append({"lo": a, "hi": b, "lo_closed": rng.random() < 0.5,
                      "hi_closed": rng.random() < 0.5})
    if rng.random() < 0.3:
        x = reference_rational(rng)
        descs.append((x, x))
    return iset_make(descs)


def reference_step_fn(rng):
    bps = sorted({reference_rational(rng) for _ in range(rng.randint(0, 5))})
    ovals = [Fraction(rng.randint(-4, 4)) for _ in bps[1:]]
    pvals = [str(rng.randint(-4, 4)) for _ in bps]
    return step_from_values(bps, ovals, pvals)


def reference_pad(rng, a):
    for _ in range(rng.randint(1, 3)):
        a = iset_join(a, singleton(reference_rational(rng)))
    return a


def test_samplers_match_a_reference_built_through_the_readers():
    drawn = {id(v) for v in instances._DRAWS.values()}
    for seed in range(200):
        lib, ref = random.Random(seed), random.Random(seed)
        for _ in range(5):
            for max_pieces in (3, 2):
                a = sample_interval_set(lib, max_pieces)
                assert a == reference_interval_set(ref, max_pieces)
                assert a._breaks == iset_make([a])._breaks
                padded = pad_with_nulls(lib, a)
                assert padded == reference_pad(ref, a)
                assert padded._breaks == iset_make(padded.pieces)._breaks
            f = sample_step_fn(lib)
            assert f == reference_step_fn(ref)
            assert f._breaks == step_from_values(*map(list, (
                f.breakpoints, f.open_values, f.point_values)))._breaks
            assert sample_rational(lib) == reference_rational(ref)
            drawn |= {id(v) for v in instances._DRAWS.values()}
            endpoints = a.endpoints() + padded.endpoints()
            values = f.breakpoints + f.open_values + f.point_values
            assert all(id(v) in drawn for v in endpoints + list(values))
        assert lib.getstate() == ref.getstate()
    # equal draws are one object
    assert sample_rational(random.Random(3)) is sample_rational(random.Random(3))
    seen = {}
    for seed in range(50):
        f = sample_step_fn(random.Random(seed))
        assert all(seen.setdefault(v, v) is v for v in f.open_values + f.point_values)
