"""Encoding tests; decodes are checked against an independent set-algebra
oracle that builds whole subsets of the truncated space with frozenset
operations instead of pointwise recursion."""

import json
import random
import sys

import pytest

from latval.borel import (
    CodeLeaf,
    CodeNode,
    DecodeMeta,
    MissingCode,
    Stump,
    TruncatedBaire,
    code_assign_from_json,
    decode_set,
    decode_stratified,
    decode_whole_set,
    pair,
    stump_alpha,
    tuple_decode,
    tuple_encode,
    unpair,
)
from latval.oag import ShapeError

SPACE = TruncatedBaire(4, 4)
ALL_POINTS = frozenset(SPACE.points())


def oracle_basic(m: int, n: int) -> frozenset:
    if n > SPACE.depth or m > SPACE.alphabet:
        return frozenset()
    return frozenset(p for p in ALL_POINTS if p[n - 1] == m)


def oracle_sprime(code: int) -> frozenset:
    entries = tuple_decode(code)
    if len(entries) == 3 and entries[0] in (1, 2):
        base = oracle_basic(entries[1], entries[2])
        return base if entries[0] == 2 else ALL_POINTS - base
    return frozenset()


def oracle_scap(code: int) -> frozenset:
    entries = tuple_decode(code)
    if not entries:
        return frozenset()
    out = ALL_POINTS
    for e in entries:
        out &= oracle_sprime(e)
    return out


def oracle_a(code: int) -> frozenset:
    out = frozenset()
    for e in tuple_decode(code):
        out |= oracle_scap(e)
    return out


def test_pair_examples():
    assert pair(1, 1) == 2
    assert unpair(2) == (1, 1)
    with pytest.raises(ValueError):
        unpair(1)
    with pytest.raises(ValueError):
        pair(0, 1)


def test_pair_bijection_exhaustive():
    seen = set()
    for k in range(2, 20000):
        a, b = unpair(k)
        assert pair(a, b) == k
        seen.add((a, b))
    assert len(seen) == 19998


def test_tuple_examples():
    assert tuple_encode([]) == 1
    assert tuple_decode(tuple_encode([3, 1, 4])) == [3, 1, 4]
    assert tuple_decode(pair(5, 1)) == [5]


def test_tuple_roundtrip_random():
    rng = random.Random(2024)
    for _ in range(2000):
        xs = [rng.randint(1, 1000) for _ in range(rng.randint(0, 6))]
        assert tuple_decode(tuple_encode(xs)) == xs


def basic_code(kind: int, m: int, n: int) -> int:
    return tuple_encode([kind, m, n])


def test_decode_sprime_examples():
    point = (2, 3, 1, 1)
    code = basic_code(2, 3, 2)  # B^3_2: point(2) = 3
    assert decode_set(code, "Sprime", SPACE, point)
    assert not decode_set(basic_code(1, 3, 2), "Sprime", SPACE, point)
    # malformed codes decode to the empty set
    assert not decode_set(tuple_encode([7, 7]), "Sprime", SPACE, point)
    assert not decode_set(1, "Sprime", SPACE, point)


def test_decode_out_of_range_flags():
    point = (1, 1, 1, 1)
    meta = DecodeMeta()
    assert not decode_set(basic_code(2, 1, 9), "Sprime", SPACE, point, meta)
    assert decode_set(basic_code(1, 1, 9), "Sprime", SPACE, point, meta)
    assert len(meta.out_of_range_atoms) == 2


def random_code(rng: random.Random) -> int:
    """A-layer code: union of up to 3 intersections of up to 3 atoms."""
    def atom():
        kind = rng.choice([1, 2, 7])  # 7 makes some atoms malformed
        return tuple_encode([kind, rng.randint(1, 5), rng.randint(1, 5)])

    def cap():
        return tuple_encode([atom() for _ in range(rng.randint(1, 3))])

    return tuple_encode([cap() for _ in range(rng.randint(1, 3))])


def test_decode_a_matches_set_algebra_oracle():
    rng = random.Random(99)
    for _ in range(100):
        code = random_code(rng)
        expected = oracle_a(code)
        got = decode_whole_set(code, "A", SPACE)
        assert got == expected


def test_decode_scap_matches_oracle():
    rng = random.Random(7)
    for _ in range(100):
        entries = [tuple_encode([rng.choice([1, 2]), rng.randint(1, 5), rng.randint(1, 5)])
                   for _ in range(rng.randint(1, 3))]
        code = tuple_encode(entries)
        assert decode_whole_set(code, "Scap", SPACE) == oracle_scap(code)


def leaf():
    return Stump.leaf()


def test_stump_alpha_examples():
    assert stump_alpha(leaf()) == 0
    assert stump_alpha(Stump.node([leaf(), leaf()])) == 1
    assert stump_alpha(Stump.node([Stump.node([leaf()])])) == 2
    assert stump_alpha(Stump.node([])) == 1  # implicit leaf children


def alpha_oracle(s: Stump) -> int:
    """Independent recursion: 0 on leaves, else sup over all children of
    rank + 1, with the implicit leaf children contributing 0 + 1."""
    if s.is_leaf:
        return 0
    ranks = [alpha_oracle(c) + 1 for c in s.children]
    ranks.append(1)
    return max(ranks)


def random_stump(rng: random.Random, depth: int) -> Stump:
    if depth == 0 or rng.random() < 0.35:
        return leaf()
    return Stump.node(
        [random_stump(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    )


def test_stump_alpha_matches_oracle():
    rng = random.Random(555)
    for _ in range(80):
        s = random_stump(rng, 4)
        assert stump_alpha(s) == alpha_oracle(s)


def test_stump_alpha_monotone_under_child_insertion():
    rng = random.Random(31)
    for _ in range(60):
        s = random_stump(rng, 3)
        if s.is_leaf:
            continue
        extra = random_stump(rng, 2)
        grown = Stump.node(list(s.children) + [extra])
        assert stump_alpha(grown) >= stump_alpha(s)


def test_stump_json_roundtrip():
    s = Stump.node([leaf(), Stump.node([leaf()])])
    assert Stump.from_json(s.to_json_obj()) == s
    assert Stump.from_json({"node": [{"leaf": True}]}) == Stump.node([leaf()])
    # readers take parsed documents: JSON text, here or nested, is not a stump
    for doc in ('{"node": [{"leaf": true}]}', {"node": ['{"leaf": true}']}, {"node": ""}):
        with pytest.raises(ValueError):
            Stump.from_json(doc)


def test_stump_with_both_keys_and_leaf_false_is_a_node():
    assert Stump.from_json({"leaf": False, "node": []}) == Stump.node([])
    assert Stump.from_json({"leaf": False, "node": [{"leaf": True}]}) == Stump.node([leaf()])


def test_stump_deeper_than_the_recursion_limit():
    depth = 3 * sys.getrecursionlimit()
    doc = {"leaf": True}
    for _ in range(depth):
        doc = {"node": [{"leaf": True}, doc]}
    # a chain of nodes has the rank of its length
    assert stump_alpha(Stump.from_json(doc)) == depth


def test_decode_stratified_leaf_sigma_single_code():
    code = tuple_encode([tuple_encode([basic_code(2, 1, 1)])])  # A-code for B^1_1
    assign = CodeLeaf((code,))
    members = {
        p for p in SPACE.points()
        if decode_stratified(leaf(), assign, "Sigma", SPACE, p, child_cap=3)
    }
    assert members == oracle_a(code)


def test_decode_stratified_depth1_pi_is_empty_intersection():
    # children coding B^1_1 and B^2_1: no point has both values at position 1
    space = TruncatedBaire(2, 2)
    stump = Stump.node([leaf(), leaf()])
    a1 = tuple_encode([tuple_encode([basic_code(2, 1, 1)])])
    a2 = tuple_encode([tuple_encode([basic_code(2, 2, 1)])])
    assign = CodeNode((CodeLeaf((a1,)), CodeLeaf((a2,))), default=None)
    for p in space.points():
        assert not decode_stratified(stump, assign, "Pi", space, p, child_cap=2)
    # Sigma over the same children covers everything when the alphabet is 2
    for p in space.points():
        assert decode_stratified(stump, assign, "Sigma", space, p, child_cap=2)


def test_decode_stratified_leaf_pi_is_finite_intersection():
    space = TruncatedBaire(3, 3)
    codes = tuple(
        tuple_encode([tuple_encode([basic_code(2, 1, n)])]) for n in (1, 2)
    )
    assign = CodeLeaf(codes)
    got = {
        p for p in space.points()
        if decode_stratified(leaf(), assign, "Pi", space, p, child_cap=2)
    }
    expected = {p for p in space.points() if p[0] == 1 and p[1] == 1}
    assert got == expected


def test_decode_stratified_default_children_are_exact():
    # implicit children all decode to one fixed default set
    space = TruncatedBaire(2, 2)
    stump = Stump.node([])  # all children implicit leaves
    assign = CodeNode((), default=CodeLeaf((tuple_encode([tuple_encode([basic_code(2, 2, 1)])]),)))
    meta = DecodeMeta()
    got = {
        p for p in space.points()
        if decode_stratified(stump, assign, "Pi", space, p, child_cap=5, meta=meta)
    }
    # Pi over identical Sigma children = that one set
    expected = {p for p in space.points() if p[0] == 2}
    assert got == expected
    assert any("exact" in note for note in meta.truncations)


def test_decode_stratified_cap_equal_to_the_explicit_children_is_exact():
    # two explicit children and a cap of two: every explicit child is decoded
    space = TruncatedBaire(2, 2)
    codes = [tuple_encode([tuple_encode([basic_code(2, v, 1)])]) for v in (1, 2)]
    assign = CodeNode(tuple(CodeLeaf((c,)) for c in codes), default=None)
    meta = DecodeMeta()
    for p in space.points():
        decode_stratified(Stump.node([leaf(), leaf()]), assign, "Sigma", space, p, 2, meta=meta)
    assert meta.truncations and all("exact (cap 2 covers all 2" in n for n in meta.truncations)
    meta = DecodeMeta()
    decode_stratified(Stump.node([leaf(), leaf()]), assign, "Sigma", space, (1, 1), 1, meta=meta)
    assert meta.truncations == ["path '.': cap 1 below 2 explicit children"]


def test_decode_stratified_missing_code():
    stump = Stump.node([leaf()])
    with pytest.raises(MissingCode):
        decode_stratified(stump, CodeNode((), None), "Pi", SPACE, (1, 1, 1, 1), 2)
    with pytest.raises(MissingCode):
        decode_stratified(leaf(), CodeNode((), None), "Pi", SPACE, (1, 1, 1, 1), 2)


def test_code_assign_json():
    doc = {"children": [{"codes": [5]}], "default": {"codes": [7]}}
    assign = code_assign_from_json(doc)
    assert isinstance(assign, CodeNode)
    assert assign.children[0] == CodeLeaf((5,))
    assert assign.default == CodeLeaf((7,))
    with pytest.raises(TypeError):
        code_assign_from_json(json.dumps(doc))
    for codes in ("57", [5.9], ["5"], [True]):  # not the codes 5 and 7, 5, 5 or 1
        with pytest.raises(TypeError):
            code_assign_from_json({"codes": codes})


@pytest.mark.parametrize(
    "space, fits", [("19x2", True), ("2x1000", True), ("1000000000x1", True),
                    ("20x2", False), ("2x1001", False)],
)
def test_truncated_space_fits_when_it_has_at_most_a_million_points(space, fits):
    depth, alphabet = map(int, space.split("x"))
    if fits:
        TruncatedBaire(depth, alphabet)
    else:
        with pytest.raises(ValueError, match="too large"):
            TruncatedBaire(depth, alphabet)


@pytest.mark.parametrize("depth, alphabet", [(0, 2), (2, 0), (0, 0), (-1, 3)])
def test_truncated_space_needs_a_positive_depth_and_alphabet(depth, alphabet):
    TruncatedBaire(1, 1)
    with pytest.raises(ValueError, match="^depth and alphabet must be positive$"):
        TruncatedBaire(depth, alphabet)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"codes": [3], "junk": 1}, "unknown keys ['junk']"),
        ({"codes": [1], "children": []}, "unknown keys ['children']"),  # no leaf, no node
        ({"children": [], "default": {"code": [7]}}, "missing key 'codes'"),
        ({"children": 5}, "children is not a JSON list: 5"),
        ({"children": [{"codes": [5], "node": 1}]}, "unknown keys ['node']"),
        ({"default": {"codes": [7]}}, "missing key 'children'"),
    ],
)
def test_code_assign_objects_are_checked(doc, message):
    with pytest.raises(ShapeError) as err:
        code_assign_from_json(doc)
    assert str(err.value) == message
