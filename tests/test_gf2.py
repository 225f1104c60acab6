"""GF(2) subspaces; meets verified by exhaustive vector enumeration."""

import random

import pytest

from latval.gf2 import (
    AmbientMismatch,
    GF2Subspace,
    gf2_join,
    gf2_leq,
    gf2_meet,
    span,
    unit,
)


def enumerate_meet(u: GF2Subspace, w: GF2Subspace) -> frozenset:
    """Oracle: brute-force common vectors."""
    return frozenset(u.vectors()) & frozenset(w.vectors())


def test_dim_of_unit_span():
    assert span(3, unit(3, 1)).dim == 1


def test_meet_example():
    u = span(3, unit(3, 1), unit(3, 2))
    w = span(3, unit(3, 2), unit(3, 3))
    out = gf2_meet(u, w)
    assert out == span(3, unit(3, 2))
    assert frozenset(out.vectors()) == enumerate_meet(u, w)


def test_join_example():
    out = gf2_join(span(3, unit(3, 1)), span(3, unit(3, 2)))
    assert out.dim == 2
    assert out == span(3, unit(3, 1), unit(3, 2))


def test_rref_is_canonical():
    # different generating sets, same subspace, same representation
    a = GF2Subspace.from_vectors(4, [0b0011, 0b0101])
    b = GF2Subspace.from_vectors(4, [0b0110, 0b0101, 0b0011])
    assert a == b


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        gf2_meet(span(3, 1), span(4, 1))


def test_ambient_cap():
    with pytest.raises(ValueError):
        GF2Subspace.from_vectors(25, [1])


def test_leq_by_membership():
    u = span(4, 0b0011)
    w = span(4, 0b0011, 0b0100)
    assert gf2_leq(u, w) and not gf2_leq(w, u)


def test_meet_against_enumeration_oracle_ambient_up_to_12():
    rng = random.Random(404)
    for ambient in (3, 5, 8, 12):
        for _ in range(60):
            u = GF2Subspace.from_vectors(
                ambient, [rng.randrange(1 << ambient) for _ in range(rng.randint(0, 4))]
            )
            w = GF2Subspace.from_vectors(
                ambient, [rng.randrange(1 << ambient) for _ in range(rng.randint(0, 4))]
            )
            got = gf2_meet(u, w)
            assert frozenset(got.vectors()) == enumerate_meet(u, w)
            # join contains both and is spanned by the union
            j = gf2_join(u, w)
            assert gf2_leq(u, j) and gf2_leq(w, j)
            assert all(j.contains(v) for v in u.vectors() + w.vectors())


def test_dimension_theorem_sampled():
    rng = random.Random(17)
    for _ in range(150):
        u = GF2Subspace.from_vectors(8, [rng.randrange(256) for _ in range(rng.randint(0, 5))])
        w = GF2Subspace.from_vectors(8, [rng.randrange(256) for _ in range(rng.randint(0, 5))])
        assert gf2_meet(u, w).dim + gf2_join(u, w).dim == u.dim + w.dim


def test_nondistributivity_witness_in_dimension_2():
    # w = v1 + v2: <w> meet (<v1> join <v2>) is <w>, but the join of the
    # pairwise meets is the zero space
    v1, v2 = unit(2, 1), unit(2, 2)
    w = v1 ^ v2
    lhs = gf2_meet(span(2, w), gf2_join(span(2, v1), span(2, v2)))
    rhs = gf2_join(gf2_meet(span(2, w), span(2, v1)), gf2_meet(span(2, w), span(2, v2)))
    assert lhs != rhs
    assert lhs == span(2, w) and rhs.dim == 0
