from fractions import Fraction

import pytest

from latval.convex import (
    FiniteValuationSystem,
    SandwichWitness,
    WitnessDisagreement,
    WitnessInvalid,
    convex_value,
    convexify_finite,
)
from latval.instances import interval_measure
from latval.intervals import interval, iset_join, singleton
from latval.lattice import chain_lattice, powerset_lattice
from latval.oag import RATIONALS


def test_convex_value_null_padding():
    a = interval(0, 1)
    z = iset_join(a, singleton(Fraction(3, 2)))
    w = SandwichWitness(lower=a, target=z, upper=z)
    assert convex_value(interval_measure, w) == 1


def test_convex_value_degenerate():
    a = interval(0, 2)
    assert convex_value(interval_measure, SandwichWitness(a, a, a)) == 2


def test_convex_value_rejects_each_clause():
    a, b = interval(0, 1), interval(0, 3)
    mid = interval(0, 2)
    with pytest.raises(WitnessInvalid) as err:
        convex_value(interval_measure, SandwichWitness(a, mid, b))
    assert err.value.clause == "phi(lower) = phi(upper)"
    with pytest.raises(WitnessInvalid) as err:
        convex_value(interval_measure, SandwichWitness(mid, a, b))
    assert err.value.clause == "lower <= target"
    with pytest.raises(WitnessInvalid) as err:
        convex_value(interval_measure, SandwichWitness(a, b, mid))
    assert err.value.clause == "target <= upper"


def _weight(z, weights):
    return sum((weights[x] for x in z), Fraction(0))


def test_convexify_gains_nothing_without_null_gaps():
    V = powerset_lattice([1, 2, 3])
    L = (frozenset(), frozenset([1]), frozenset([1, 2, 3]))
    phi = lambda z: Fraction(0) if len(z) <= 1 else Fraction(1)
    bullet, val = convexify_finite(FiniteValuationSystem(V, L, phi, RATIONALS))
    assert set(bullet) == set(L)
    for x in L:
        assert val(x) == phi(x)


def test_convexify_zero_valuation_swallows_everything():
    V = powerset_lattice([1, 2])
    L = (frozenset(), frozenset([1, 2]))
    bullet, val = convexify_finite(
        FiniteValuationSystem(V, L, lambda z: Fraction(0), RATIONALS)
    )
    assert set(bullet) == set(V.carrier)
    assert all(val(z) == 0 for z in bullet)


def test_convexify_injective_chain_stays_put():
    V = chain_lattice(6)
    phi = lambda i: Fraction(i)
    bullet, val = convexify_finite(
        FiniteValuationSystem(V, tuple(V.carrier), phi, RATIONALS)
    )
    assert tuple(bullet) == V.carrier



def test_sub_carrier_labels_follow_the_carrier_label_rule():
    # True == 1 and 1.0 == 1, but neither is the label 1 of the chain (0, 1)
    with pytest.raises(ValueError) as err:
        FiniteValuationSystem(chain_lattice(2), (True, 1.0), lambda z: Fraction(0), RATIONALS)
    assert str(err.value) == "sublattice elements outside the ambient carrier: [True, 1.0]"


def test_convexify_adopts_null_subsets():
    # weights 0 on {1,2}: everything between the empty set and {1,2} joins
    V = powerset_lattice([1, 2, 3])
    weights = {1: Fraction(0), 2: Fraction(0), 3: Fraction(1)}
    L = (frozenset(), frozenset([1, 2]), frozenset([3]), frozenset([1, 2, 3]))
    bullet, val = convexify_finite(
        FiniteValuationSystem(V, L, lambda z: _weight(z, weights), RATIONALS)
    )
    assert set(bullet) == set(V.carrier)
    assert val(frozenset([1])) == 0
    assert val(frozenset([1, 3])) == 1


def test_convexify_extends_and_is_idempotent():
    V = powerset_lattice([1, 2, 3, 4])
    weights = {1: Fraction(0), 2: Fraction(2), 3: Fraction(0), 4: Fraction(1)}
    subs = [frozenset(), frozenset([1]), frozenset([1, 2]), frozenset([1, 2, 3]),
            frozenset([1, 2, 3, 4])]
    # close the chain under meet/join: already a chain, hence a sublattice
    sys1 = FiniteValuationSystem(
        V, tuple(subs), lambda z: _weight(z, weights), RATIONALS
    )
    bullet, val = convexify_finite(sys1)
    for x in subs:
        assert val(x) == _weight(x, weights)
    # monotone on the adopted carrier
    for a in bullet:
        for b in bullet:
            if V.leq(a, b):
                assert val(a) <= val(b)
    sys2 = FiniteValuationSystem(V, bullet, val.fn, RATIONALS)
    bullet2, val2 = convexify_finite(sys2)
    assert bullet2 == bullet
    assert all(val2(z) == val(z) for z in bullet2)


def test_convexify_detects_witness_disagreement():
    # phi not order preserving: conflicting sandwiches force different values
    V = chain_lattice(3)
    vals = {0: Fraction(0), 1: Fraction(1), 2: Fraction(0)}
    with pytest.raises(WitnessDisagreement):
        convexify_finite(
            FiniteValuationSystem(V, (0, 1, 2), lambda i: vals[i], RATIONALS)
        )


def test_sublattice_validated():
    V = powerset_lattice([1, 2])
    not_closed = (frozenset([1]), frozenset([2]))
    with pytest.raises(ValueError):
        FiniteValuationSystem(V, not_closed, lambda z: Fraction(0), RATIONALS)
