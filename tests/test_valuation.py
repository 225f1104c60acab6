import copy
import random
from fractions import Fraction

import pytest

from latval.instances import (
    INTERVAL_SETS,
    counting_valuation,
    interval_measure,
    pad_with_nulls,
    sample_rational,
    step_integral,
)
from latval.intervals import interval, iset_join, measure, singleton
from latval.lattice import Lattice, chain_lattice, diamond_m3, finite_lattice_build, opposite
from latval.oag import RATIONALS
from latval.report import CheckReport
from latval.stepfn import indicator, step_add, step_make
from latval.valuation import (
    QuotientIllDefined,
    QuotientLabelClash,
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


def pad_step_at_points(rng, f):
    """Perturb point values only: equal almost everywhere, so approx-equal."""
    pts = [(sample_rational(rng), Fraction(rng.randint(-3, 3)))]
    return step_add(f, step_make([], pts))


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


def reference_check_pseudometric(phi, samples, seed):
    """``check_pseudometric`` with every distance computed from scratch,
    28 lattice operations per sample: the reference for its report."""
    def d(x, y):
        return phi.group.sub(phi(phi.domain.join(x, y)), phi(phi.domain.meet(x, y)))

    rng = random.Random(seed)
    report = CheckReport()
    g, lat = phi.group, phi.domain
    for _ in range(samples):
        a, b, z, w = (phi.sample(rng) for _ in range(4))
        wit = f"a={lat.fmt(a)} b={lat.fmt(b)} z={lat.fmt(z)} w={lat.fmt(w)}"
        dab = d(a, b)
        report.record("d >= 0", g.leq(g.zero(), dab), wit)
        report.record("d(a,a) = 0", g.is_zero(d(a, a)), wit)
        report.record("d symmetric", g.equal(dab, d(b, a)), wit)
        report.record("triangle", g.leq(dab, g.add(d(a, z), d(z, b))), wit)
        contr = g.add(d(lat.meet(a, z), lat.meet(b, z)), d(lat.join(a, z), lat.join(b, z)))
        report.record("contraction", g.leq(contr, dab), wit)
        joint = g.add(d(lat.meet(a, w), lat.meet(b, z)), d(lat.join(a, w), lat.join(b, z)))
        report.record("joint contraction", g.leq(joint, g.add(dab, d(w, z))), wit)
    return report


# The square of a modular measure is not modular: its distance breaks the
# triangle and both contractions, so failing tallies and first witnesses
# are compared too.
squared_measure = Valuation(
    domain=interval_measure.domain,
    group=interval_measure.group,
    fn=lambda a: measure(a) ** 2,
    name="mu_S^2",
    sampler=interval_measure.sampler,
)


@pytest.mark.parametrize(
    "phi", [interval_measure, step_integral, squared_measure], ids=lambda phi: phi.name
)
def test_pseudometric_report_matches_reference(phi):
    for seed in range(8):
        got = check_pseudometric(phi, 30, seed).to_dict()
        assert got == reference_check_pseudometric(phi, 30, seed).to_dict(), seed
    if phi is squared_measure:
        assert {"triangle", "contraction", "joint contraction"} <= set(
            name for name, r in got.items() if r["fail"]
        )


def reference_check_valuation(phi, samples, seed):
    """``check_valuation`` with its witness formatted for every sample."""
    rng = random.Random(seed)
    report = CheckReport()
    g, lat = phi.group, phi.domain
    for _ in range(samples):
        a, b = phi.sample(rng), phi.sample(rng)
        wit = f"a={lat.fmt(a)} b={lat.fmt(b)}"
        at_meet, at_join, at_a = phi(lat.meet(a, b)), phi(lat.join(a, b)), phi(a)
        report.record("modular", g.equal(g.add(at_meet, at_join), g.add(at_a, phi(b))), wit)
        report.record("order preserving", g.leq(at_meet, at_a) and g.leq(at_a, at_join), wit)
    return report


def with_counted_fmt(phi: Valuation, calls: list) -> Valuation:
    """``phi`` on a copy of its lattice whose ``fmt`` records each call."""
    lat = copy.copy(phi.domain)
    lat.fmt = lambda x: calls.append(x) or phi.domain.fmt(x)
    return Valuation(lat, phi.group, phi.fn, phi.name, phi.sampler)


def test_witnesses_are_formatted_for_kept_failures_only():
    calls = []
    phi = with_counted_fmt(interval_measure, calls)
    assert check_valuation(phi, 40, 3).ok and check_pseudometric(phi, 40, 3).ok
    assert check_congruence(phi, 40, 3, pad_with_nulls).ok
    assert check_modular_map_identity(phi, 40, 3).ok
    assert calls == []
    broken = with_counted_fmt(squared_measure, calls)
    for seed in range(4):
        calls.clear()
        report = check_valuation(broken, 60, seed)
        assert report.to_dict() == reference_check_valuation(squared_measure, 60, seed).to_dict()
        assert report.failing() and len(calls) == 2 * len(report.failing())
        calls.clear()
        report = check_pseudometric(broken, 30, seed)
        assert report.to_dict() == reference_check_pseudometric(squared_measure, 30, seed).to_dict()
        assert report.failing() and len(calls) == 4 * len(report.failing())


def test_pseudometric_makes_each_lattice_operation_once():
    ops = []

    def counted(op):
        return lambda x, y: ops.append(op) or op(x, y)

    lat = Lattice("counted", INTERVAL_SETS.member, INTERVAL_SETS.what,
                  counted(INTERVAL_SETS.meet), counted(INTERVAL_SETS.join), INTERVAL_SETS.leq)
    phi = Valuation(lat, RATIONALS, measure, sampler=interval_measure.sampler)
    assert check_pseudometric(phi, 10, 4).ok
    assert len(ops) == 24 * 10


def test_congruence_suites():
    assert check_congruence(interval_measure, 200, 3, pad_with_nulls).ok
    assert check_congruence(step_integral, 200, 3, pad_step_at_points).ok


def test_congruence_records_only_the_pad_property_when_the_pad_leaves_the_class():
    # adding [100, 101], of measure 1, never gives an approx-equal element
    def pad(rng, a):
        return iset_join(a, interval(100, 101))

    report = check_congruence(interval_measure, 30, 3, pad)
    assert list(report.results) == ["pad produces approx-equal elements"]
    got = report.results["pad produces approx-equal elements"]
    assert (got.passed, got.failed) == (0, 30)
    assert got.counterexample.startswith("a1=")


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


def _zero_on_m3():
    lat = diamond_m3()
    return Valuation(
        domain=lat,
        group=RATIONALS,
        fn=lambda a: Fraction(0),
        name="zero",
        sampler=lambda rng: rng.choice(lat.carrier),
    )


def test_quotient_constant_valuation_collapses():
    qlat, _ = quotient(_zero_on_m3())
    assert len(qlat) == 1


def test_quotient_injective_is_isomorphic():
    qlat, qphi = quotient(_chain_valuation([0, 1, 2, 5]))
    assert len(qlat) == 4
    assert check_valuation(qphi, 200, 5).ok


def _weighted_powerset():
    ground = [1, 2, 3, 4]
    weights = {1: Fraction(0), 2: Fraction(1), 3: Fraction(0), 4: Fraction(2)}
    subsets = [frozenset(s) for s in _powerset(ground)]
    pairs = [(a, b) for a in subsets for b in subsets if a <= b]
    lat = finite_lattice_build(subsets, pairs)
    return Valuation(
        domain=lat,
        group=RATIONALS,
        fn=lambda a: sum((weights[x] for x in a), Fraction(0)),
        name="weighted",
        sampler=lambda r: r.choice(subsets),
    )


def test_quotient_of_weighted_powerset_is_valuation():
    qlat, qphi = quotient(_weighted_powerset())
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


def test_quotient_names_a_label_two_classes_share():
    carrier = ["0", "a", "b", "a,b"]
    lat = finite_lattice_build(carrier, zip(carrier, carrier[1:]))
    vals = {"0": 0, "a": 1, "b": 1, "a,b": 2}
    phi = Valuation(lat, RATIONALS, lambda x: Fraction(vals[x]), "commas", None)
    with pytest.raises(QuotientLabelClash, match="two classes share the label {a,b}"):
        quotient(phi)


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


def _system(carrier, pairs, values):
    lat = finite_lattice_build(carrier, pairs)
    return Valuation(
        domain=lat,
        group=RATIONALS,
        fn=lambda a: values[a],
        name="system",
        sampler=lambda rng: rng.choice(lat.carrier),
    )


def _weight(rng, p_positive, top, den):
    return Fraction(rng.randint(1, top), rng.randint(1, den)) if rng.random() < p_positive else 0


def _powerset_system(rng, atoms):
    """The subsets of ``atoms`` atoms, labelled like ``{a,c}``, under a sum
    of atom weights, some of them zero."""
    weights = [_weight(rng, 0.6, 9, 4) for _ in range(atoms)]
    masks = range(1 << atoms)
    names = lambda m: ("abcdef"[i] for i in range(atoms) if m >> i & 1)  # noqa: E731
    label = lambda m: "{" + ",".join(names(m)) + "}"  # noqa: E731
    pairs = [(label(m), label(m | 1 << i)) for m in masks for i in range(atoms)]
    values = {label(m): sum((w for i, w in enumerate(weights) if m >> i & 1), Fraction(0))
              for m in masks}
    return _system(list(values), pairs, values)


def _chain_system(rng, length):
    """A chain whose values rise at some steps and stay put at others."""
    values, v = {}, Fraction(0)
    for i in range(length):
        v += _weight(rng, 0.6, 5, 3)
        values[f"c{i}"] = v
    carrier = list(values)
    return _system(carrier, zip(carrier, carrier[1:]), values)


def _divisor_system(rng, n):
    """The divisors of ``n`` under a weighted count of prime factors."""
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    weights = {p: _weight(rng, 0.7, 6, 3) for p in primes}
    divisors = [k for k in range(1, n + 1) if n % k == 0]

    def value(k):
        total = Fraction(0)
        for p in primes:
            while k % p == 0:
                total, k = total + weights[p], k // p
        return total

    pairs = [(str(k), str(k * p)) for k in divisors for p in primes if n % (k * p) == 0]
    return _system([str(k) for k in divisors], pairs, {str(k): value(k) for k in divisors})


def _oracle_quotient(phi):
    """The quotient built from the order alone: each element's class is
    every element at distance zero from it, and the classes are ordered by
    the images of the original order pairs."""
    lat = phi.domain
    label = {
        x: "{" + ",".join(str(y) for y in lat.carrier if dist(phi, x, y) == 0) + "}"
        for x in lat.carrier
    }
    labels = list(dict.fromkeys(label.values()))
    pairs = {(label[x], label[y]) for x in lat.carrier for y in lat.carrier if lat.leq(x, y)}
    return finite_lattice_build(labels, pairs), label


def test_quotient_tables_match_the_order_oracle():
    rng = random.Random(24)
    systems = [
        _chain_valuation([0, 0, 1, 1]),
        _chain_valuation([0, 1, 2, 5]),
        _zero_on_m3(),
        _weighted_powerset(),
        _powerset_system(rng, 6),
    ]
    for _ in range(8):
        systems += [
            _powerset_system(rng, rng.randint(2, 4)),
            _chain_system(rng, rng.randint(4, 16)),
            _divisor_system(rng, rng.choice((12, 24, 30, 36, 48, 60, 72, 90, 96, 120, 144, 210))),
        ]
    for phi in systems:
        qlat, qphi = quotient(phi)
        oracle, label = _oracle_quotient(phi)
        assert qlat.carrier == oracle.carrier
        for a in qlat.carrier:
            for b in qlat.carrier:
                assert qlat.leq(a, b) == oracle.leq(a, b), (a, b)
                assert qlat.meet(a, b) == oracle.meet(a, b), (a, b)
                assert qlat.join(a, b) == oracle.join(a, b), (a, b)
        for x in phi.domain.carrier:
            assert qphi(label[x]) == phi(x)


def test_transform_opposite_is_valuation():
    opp = transform_opposite(interval_measure)
    assert check_valuation(opp, 300, 31).ok
    # double opposite is the original domain and group again
    assert transform_opposite(opp).domain is interval_measure.domain
    assert transform_opposite(opp).group is interval_measure.group


def test_transform_product_is_valuation():
    prod = transform_product(interval_measure, step_integral)
    assert check_valuation(prod, 300, 31).ok
    a = (interval(0, 1), indicator(0, 2))
    assert prod(a) == (Fraction(1), Fraction(2))


def test_transform_compose_negate_into_opposite():
    # g = negate is a positive homomorphism into the opposite group
    neg_group = opposite(RATIONALS)
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
