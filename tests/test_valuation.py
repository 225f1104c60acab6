import random
from fractions import Fraction

import pytest

from latval.instances import (
    counting_valuation,
    interval_measure,
    pad_step_at_points,
    pad_with_nulls,
    step_integral,
)
from latval.intervals import interval, iset_join, singleton
from latval.lattice import chain_lattice, diamond_m3, finite_lattice_build
from latval.oag import opposite_group, RATIONALS
from latval.stepfn import indicator, step_add, step_make
from latval.valuation import (
    QuotientIllDefined,
    Valuation,
    approx_equal,
    check_congruence,
    check_modular_map_identity,
    check_pseudometric,
    check_valuation,
    dist,
    quotient,
    transform_compose,
    transform_opposite,
    transform_product,
)


def test_dist_examples():
    a, b = interval(0, 2), interval(1, 3)
    assert dist(interval_measure, a, b) == 2  # mu[0,3] - mu[1,2]
    assert dist(interval_measure, a, a) == 0
    f, g = indicator(0, 1), step_make([((0, 1), 2)])
    # for the integral, distance is the L1 norm of the difference
    from latval.stepfn import step_abs, step_sub
    from latval.instances import phi_S

    assert dist(step_integral, f, g) == phi_S(step_abs(step_sub(f, g)))


def test_approx_equal_examples():
    a = interval(0, 1)
    assert approx_equal(interval_measure, a, iset_join(a, singleton(2)))
    assert not approx_equal(interval_measure, a, interval(0, 2))
    f = indicator(0, 1)
    bumped = step_add(f, step_make([], points=[(Fraction(1, 2), 5)]))
    assert approx_equal(step_integral, f, bumped)


def test_check_valuation_counting():
    assert check_valuation(counting_valuation(), 500, 7).ok


def test_negative_control_squared_counting():
    base = counting_valuation()
    broken = Valuation(
        domain=base.domain,
        group=base.group,
        fn=lambda a: Fraction(len(a) ** 2),
        name="size^2",
        sampler=base.sampler,
    )
    report = check_valuation(broken, 500, 7)
    assert not report.ok
    assert report.results["modular"].failed > 0
    assert report.results["modular"].counterexample is not None


def test_negative_control_non_monotone():
    base = counting_valuation()
    broken = Valuation(
        domain=base.domain,
        group=base.group,
        fn=lambda a: Fraction(-len(a)),  # modular (negated), order reversing
        name="-size",
        sampler=base.sampler,
    )
    report = check_valuation(broken, 500, 7)
    assert report.results["modular"].failed == 0
    assert report.results["order preserving"].failed > 0


def test_pseudometric_suites():
    assert check_pseudometric(interval_measure, 300, 11).ok
    assert check_pseudometric(step_integral, 300, 11).ok


def test_congruence_suites():
    assert check_congruence(interval_measure, 200, 3, pad_with_nulls).ok
    assert check_congruence(step_integral, 200, 3, pad_step_at_points).ok


def test_modular_map_identity_suites():
    assert check_modular_map_identity(interval_measure, 200, 23).ok
    assert check_modular_map_identity(step_integral, 200, 23).ok


def _chain_valuation(values):
    lat = chain_lattice(len(values))
    vals = [Fraction(v) for v in values]
    return Valuation(
        domain=lat,
        group=RATIONALS,
        fn=lambda i: vals[i],
        name="chain",
        sampler=lambda rng: rng.randrange(len(vals)),
    )


def test_quotient_two_block_chain():
    # values 0,0,1,1 on a 4-chain collapse to a 2-chain
    qlat, qphi = quotient(_chain_valuation([0, 0, 1, 1]))
    assert len(qlat) == 2
    values = sorted(qphi(c) for c in qlat.carrier)
    assert values == [0, 1]
    # Hausdorff: distinct classes have nonzero distance
    for x in qlat.carrier:
        for y in qlat.carrier:
            if x != y:
                assert dist(qphi, x, y) != 0


def test_quotient_constant_valuation_collapses():
    lat = diamond_m3()
    phi = Valuation(
        domain=lat,
        group=RATIONALS,
        fn=lambda a: Fraction(0),
        name="zero",
        sampler=lambda rng: rng.choice(lat.carrier),
    )
    qlat, _ = quotient(phi)
    assert len(qlat) == 1


def test_quotient_injective_is_isomorphic():
    qlat, qphi = quotient(_chain_valuation([0, 1, 2, 5]))
    assert len(qlat) == 4
    assert check_valuation(qphi, 200, 5).ok


def test_quotient_of_weighted_powerset_is_valuation():
    rng = random.Random(8)
    ground = [1, 2, 3, 4]
    weights = {1: Fraction(0), 2: Fraction(1), 3: Fraction(0), 4: Fraction(2)}
    subsets = [frozenset(s) for s in _powerset(ground)]
    pairs = [(a, b) for a in subsets for b in subsets if a <= b]
    lat = finite_lattice_build(subsets, pairs)
    phi = Valuation(
        domain=lat,
        group=RATIONALS,
        fn=lambda a: sum((weights[x] for x in a), Fraction(0)),
        name="weighted",
        sampler=lambda r: r.choice(subsets),
    )
    qlat, qphi = quotient(phi)
    assert len(qlat) == 4  # distinct achievable weights 0,1,2,3
    assert check_valuation(qphi, 300, 2).ok
    for x in qlat.carrier:
        for y in qlat.carrier:
            if x != y:
                assert dist(qphi, x, y) != 0


def _powerset(items):
    out = [[]]
    for x in items:
        out += [s + [x] for s in out]
    return out


def test_quotient_requires_finite_domain():
    with pytest.raises(TypeError):
        quotient(interval_measure)


def test_quotient_ill_defined_detected():
    # a non-modular map on the diamond: phi(top) breaks the congruence
    lat = diamond_m3()
    vals = {"0": 0, "a": 0, "b": 0, "c": 1, "1": 1}
    phi = Valuation(
        domain=lat,
        group=RATIONALS,
        fn=lambda x: Fraction(vals[x]),
        name="broken",
        sampler=lambda rng: rng.choice(lat.carrier),
    )
    # 0 ~ a ~ b but a join b = 1 while 0 join a = a: classes disagree
    with pytest.raises(QuotientIllDefined):
        quotient(phi)


def test_transform_opposite_is_valuation():
    opp = transform_opposite(interval_measure)
    assert check_valuation(opp, 300, 31).ok
    # double opposite is the original domain again
    assert transform_opposite(opp).domain is interval_measure.domain


def test_transform_product_is_valuation():
    prod = transform_product(interval_measure, step_integral)
    assert check_valuation(prod, 300, 31).ok
    a = (interval(0, 1), indicator(0, 2))
    assert prod(a) == (Fraction(1), Fraction(2))


def test_transform_compose_negate_into_opposite():
    # g = negate is a positive homomorphism into the opposite group
    neg_group = opposite_group(RATIONALS)
    composed = transform_compose(
        interval_measure,
        f_lathom=lambda a: a,
        g_hom=lambda v: -v,
        new_domain=interval_measure.domain,
        new_group=neg_group,
        sampler=interval_measure.sampler,
    )
    report = check_valuation(composed, 300, 9)
    assert report.results["modular"].failed == 0
    # order preserving fails against the original order but holds in the
    # opposite group, which is what the new_group encodes
    assert report.ok
