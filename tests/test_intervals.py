"""Interval-set operations against an independent rational-probe oracle.

The oracle never touches the sweep implementation: it evaluates membership
of probe points directly from the operand sets and applies the Boolean
operation pointwise.  Probes follow the fixed convention: every endpoint of
inputs and output, endpoints +/- 1/1000, and all piece midpoints.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latval.intervals import (
    EMPTY,
    IntervalSet,
    Piece,
    _descriptor_breaks,
    _from_breaks,
    _interval_breaks,
    _sweep,
    interval,
    iset_diff,
    iset_join,
    iset_make,
    iset_meet,
    iset_from_json,
    iset_symmdiff,
    measure,
    probe_points,
    singleton,
)
from latval.oag import ShapeError

OPS = {
    "meet": lambda x, y: x and y,
    "join": lambda x, y: x or y,
    "diff": lambda x, y: x and not y,
    "symmdiff": lambda x, y: x != y,
}
FUNCTIONS = {"meet": iset_meet, "join": iset_join, "diff": iset_diff, "symmdiff": iset_symmdiff}


def assert_matches_oracle(kind: str, a: IntervalSet, b: IntervalSet) -> IntervalSet:
    out = FUNCTIONS[kind](a, b)
    boolean = OPS[kind]
    for x in probe_points(a, b, out):
        assert out.contains(x) == boolean(a.contains(x), b.contains(x)), (
            f"{kind} disagrees with the probe oracle at {x}: {a} {b} -> {out}"
        )
    return out


rationals = st.integers(-30, 30).flatmap(
    lambda num: st.integers(1, 8).map(lambda den: Fraction(num, den))
)


@st.composite
def interval_sets(draw):
    n = draw(st.integers(0, 3))
    descs = []
    for _ in range(n):
        a, b = sorted([draw(rationals), draw(rationals)])
        descs.append((a, b, draw(st.booleans()), draw(st.booleans())))
    if draw(st.booleans()):
        x = draw(rationals)
        descs.append((x, x, True, True))
    return iset_make(descs)


def test_make_merges_touching_pieces():
    a = iset_make([(0, 1, True, True), (1, 2, False, False)])
    assert a == interval(0, 2, True, False)


def test_make_open_singleton_is_empty():
    assert iset_make([(0, 0, False, False)]) == EMPTY


def test_make_merges_overlap():
    assert iset_make([(0, 1), (Fraction(1, 2), 3)]) == interval(0, 3)


def test_make_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        iset_make([(1, 0)])


def test_meet_example():
    assert iset_meet(interval(0, 2), interval(1, 3)) == interval(1, 2)


def test_diff_keeps_boundary_point():
    out = iset_diff(interval(0, 2), interval(1, 2, False, False))
    assert out == iset_make([(0, 1), (2, 2)])
    assert out.contains(2) and not out.contains(Fraction(3, 2))


def test_symmdiff_example():
    out = iset_symmdiff(interval(0, 2), interval(1, 3))
    assert out == iset_make([(0, 1, True, False), (2, 3, False, True)])


def test_measure_examples():
    assert measure(iset_make([(0, 1), (2, Fraction(7, 2))])) == Fraction(5, 2)
    assert measure(EMPTY) == 0
    assert measure(singleton(2)) == 0


@pytest.mark.parametrize("lo_closed", [True, False])
@pytest.mark.parametrize("hi_closed", [True, False])
def test_interval_equals_the_checked_piece(lo_closed, hi_closed):
    lo, hi = Fraction(-1, 3), Fraction(5, 2)
    got = interval(str(lo), hi, lo_closed, hi_closed)
    want = IntervalSet((Piece(lo, lo_closed, hi, hi_closed),))
    assert got == want and hash(got) == hash(want)
    assert got.pieces[0].lo_closed is lo_closed and got.pieces[0].hi_closed is hi_closed


def test_interval_still_checks_its_endpoints():
    with pytest.raises(ValueError, match="lo=1 > hi=0"):
        interval(1, 0)
    for lo_closed, hi_closed in [(True, False), (False, True), (False, False)]:
        assert interval(2, 2, lo_closed, hi_closed) is EMPTY
    assert interval(2, 2) == singleton(2)


@pytest.mark.parametrize("n", [0, 1, 2, 40])
def test_measure_is_the_sum_of_widths(n):
    rng = random.Random(n)
    xs = sorted({Fraction(rng.randrange(10**6), rng.randrange(1, 10**6)) for _ in range(2 * n)})
    s = iset_make([(xs[i], xs[i + 1], True, False) for i in range(0, len(xs) - 1, 2)])
    got = measure(s)
    assert type(got) is Fraction
    assert got == sum((p.hi - p.lo for p in s.pieces), Fraction(0))


def test_half_open_pieces_arise_from_difference():
    # the ring closure of closed+open intervals forces half-open pieces
    out = iset_diff(interval(0, 2), interval(1, 2))
    assert out == interval(0, 1, True, False)


def test_json_roundtrip():
    a = iset_make([(0, 1, True, False), (2, 2, True, True)])
    assert iset_from_json(a.to_json_obj()) == a
    with pytest.raises(TypeError):
        iset_from_json(json.dumps(a.to_json_obj()))


def test_canonical_rejects_overlapping_pieces():
    from latval.intervals import Piece

    with pytest.raises(ValueError):
        IntervalSet((Piece(Fraction(0), True, Fraction(2), True),
                     Piece(Fraction(1), True, Fraction(3), True)))


@settings(max_examples=300, deadline=None)
@given(interval_sets(), interval_sets(), st.sampled_from(sorted(OPS)))
def test_ops_match_probe_oracle(a, b, kind):
    assert_matches_oracle(kind, a, b)


@settings(max_examples=200, deadline=None)
@given(interval_sets(), interval_sets())
def test_boolean_algebra_identities(a, b):
    assert iset_join(a, b) == iset_join(b, a)
    assert iset_meet(a, b) == iset_meet(b, a)
    assert iset_join(iset_meet(a, b), iset_symmdiff(a, b)) == iset_join(a, b)
    assert measure(iset_meet(a, b)) + measure(iset_join(a, b)) == measure(a) + measure(b)
    assert iset_diff(a, b) == iset_meet(a, iset_symmdiff(a, b))


@settings(max_examples=200, deadline=None)
@given(interval_sets(), interval_sets())
def test_measure_of_symmdiff_is_distance(a, b):
    # d(a, b) = mu(a join b) - mu(a meet b) = mu of the symmetric difference
    assert measure(iset_join(a, b)) - measure(iset_meet(a, b)) == measure(
        iset_symmdiff(a, b)
    )


def test_randomized_ops_against_oracle_seeded():
    from latval.instances import sample_interval_set

    rng = random.Random(20240)
    for _ in range(300):
        a, b = sample_interval_set(rng), sample_interval_set(rng)
        for kind in OPS:
            assert_matches_oracle(kind, a, b)


# --- the breakpoint sweep on edge cases ------------------------------------


def atom_probes(*sets: IntervalSet) -> list[Fraction]:
    """Every endpoint, every midpoint between consecutive endpoints, and one
    point beyond each end: one probe in each atom of the refinement."""
    ends = sorted({e for s in sets for e in s.endpoints()})
    if not ends:
        return [Fraction(0)]
    mids = [(lo + hi) / 2 for lo, hi in zip(ends, ends[1:])]
    return [ends[0] - 1, *ends, *mids, ends[-1] + 1]


def assert_atoms_match(kind: str, a: IntervalSet, b: IntervalSet) -> IntervalSet:
    out = FUNCTIONS[kind](a, b)
    for x in atom_probes(a, b, out):
        assert out.contains(x) == OPS[kind](a.contains(x), b.contains(x)), (kind, x)
    return out


SHARED_OPEN = iset_make([(0, 1, False, False), (1, 2, False, False)])


@pytest.mark.parametrize(
    "a, b",
    [
        (SHARED_OPEN, singleton(1)),
        (SHARED_OPEN, interval(1, 3, False, True)),
        (SHARED_OPEN, SHARED_OPEN),
        (SHARED_OPEN, iset_make([(-1, 0), (2, 3, False, True)])),
        (singleton(1), interval(0, 1, True, False)),
        (singleton(1), interval(1, 2, False, True)),
        (singleton(1), interval(0, 1)),
        (singleton(1), singleton(1)),
        (singleton(1), singleton(2)),
        (EMPTY, EMPTY),
        (EMPTY, SHARED_OPEN),
        (interval(0, 1), EMPTY),
    ],
)
@pytest.mark.parametrize("kind", sorted(OPS))
def test_sweep_shared_endpoints_singletons_and_empty(a, b, kind):
    assert_atoms_match(kind, a, b)
    assert_atoms_match(kind, b, a)


def test_shared_open_endpoint_examples():
    assert SHARED_OPEN.pieces[0].hi == SHARED_OPEN.pieces[1].lo == 1
    assert iset_join(SHARED_OPEN, singleton(1)) == interval(0, 2, False, False)
    assert iset_diff(interval(0, 2, False, False), singleton(1)) == SHARED_OPEN
    assert iset_join(singleton(1), interval(0, 1, True, False)) == interval(0, 1)
    assert iset_meet(singleton(1), interval(0, 1)) == singleton(1)
    assert iset_symmdiff(SHARED_OPEN, SHARED_OPEN) == EMPTY
    assert iset_join(EMPTY, EMPTY) == EMPTY


def test_make_merges_runs_of_touching_pieces():
    # every inner endpoint is removable: one piece remains
    chain = [(k, k + 1, k == 0, False) for k in range(6)] + [(k, k) for k in range(1, 6)]
    assert iset_make(chain) == interval(0, 6, True, False)
    # open chains keep the shared open endpoints
    opens = iset_make([(k, k + 1, False, False) for k in range(4)])
    assert [(p.lo, p.hi) for p in opens.pieces] == [(k, k + 1) for k in range(4)]
    assert iset_make(reversed(opens.pieces)) == opens


def test_sweep_on_thousand_bit_endpoints():
    from latval.sequences import sqrt2_convergents

    qs, rs = sqrt2_convergents(430)
    qs, rs = qs[400:], rs[400:]  # the last 30 convergents: 1000+ bits each
    assert min(q.denominator.bit_length() for q in qs + rs) > 1000
    ups = iset_make([(qs[k], qs[k + 1], k % 3 == 0, k % 2 == 0) for k in range(0, 29, 2)])
    downs = iset_make([(rs[k + 1], rs[k], k % 2 == 0, True) for k in range(1, 29, 3)])
    shifted = iset_make([(q - 1 + r, q, True, False) for q, r in zip(qs[::4], rs[::4])])
    for a, b in [(ups, downs), (ups, shifted), (downs, shifted), (ups, ups)]:
        for kind in OPS:
            assert_atoms_match(kind, a, b)
        assert measure(iset_meet(a, b)) + measure(iset_join(a, b)) == measure(a) + measure(b)


def reference_sweep(operands, zero):
    """``_sweep``'s stream from a plain merge: the distinct ``x`` sorted as
    ``Fraction``s, each operand's value at and right of each one read
    straight from its own breakpoint list, and the operands with a
    breakpoint at ``x``, in index order."""
    out = []
    for x in sorted({b[0] for op in operands for b in op}):
        at, after, touched = [], [], []
        for i, op in enumerate(operands):
            here = [b for b in op if b[0] == x]
            left = [b for b in op if b[0] < x]
            carry = left[-1][2] if left else zero
            at.append(here[0][1] if here else carry)
            after.append(here[0][2] if here else carry)
            if here:
                touched.append(i)
        out.append((x, at, after, touched))
    return out


# Endpoints that share a 64-bit sort key: each center, alone and shifted by
# less than 2^-64, negatives, and a center whose denominator has 1,100 bits.
SWEEP_CENTERS = [Fraction(0), Fraction(-5, 3), Fraction(7, 2), Fraction(3**700 + 1, 2**1100 + 7)]
SWEEP_CENTERS += [-c for c in SWEEP_CENTERS[1:]]


@st.composite
def sweep_operands(draw):
    near = st.integers(0, 3).map(lambda k: Fraction(1, 2**70 + k))
    offsets = st.one_of(st.just(Fraction(0)), near, near.map(lambda e: -e), st.just(Fraction(1, 2**64)))
    points = st.builds(lambda c, e: c + e, st.sampled_from(SWEEP_CENTERS), offsets)
    operands = []
    for xs in draw(st.lists(st.lists(points, max_size=6), min_size=1, max_size=4)):
        # equal endpoints of different operands are distinct Fraction objects
        operands.append([
            (Fraction(2 * x.numerator, 2 * x.denominator), draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            for x in sorted(set(xs))
        ])
    return operands


@settings(max_examples=300, deadline=None)
@given(sweep_operands())
def test_sweep_matches_plain_fraction_merge(operands):
    got = [(x, list(at), list(after), list(t)) for x, at, after, t in _sweep(operands, 0)]
    assert got == reference_sweep(operands, 0)


def assert_rebuilds_checked(s: IntervalSet) -> None:
    """The unchecked builders' output passes the checked constructors and is
    canonical: rebuilding it, checked or through ``iset_make``, is a no-op."""
    pieces = tuple(Piece(p.lo, p.lo_closed, p.hi, p.hi_closed) for p in s.pieces)
    assert IntervalSet(pieces) == s
    assert iset_make(pieces) == s


@settings(max_examples=200, deadline=None)
@given(interval_sets(), interval_sets())
def test_builder_output_passes_checked_constructors(a, b):
    for s in (a, b, *(f(a, b) for f in FUNCTIONS.values())):
        assert_rebuilds_checked(s)


def test_dict_descriptor_flags_must_be_booleans():
    with pytest.raises(ValueError, match="booleans"):
        iset_make([{"lo": 0, "hi": 1, "lo_closed": "false"}])
    with pytest.raises(ValueError, match="booleans"):
        iset_make([{"lo": 0, "hi": 1, "hi_closed": 0}])
    assert iset_make([{"lo": 0, "hi": 1, "lo_closed": False}]) == interval(0, 1, False, True)
    # list and tuple descriptors take booleans too, and nothing else is a piece
    with pytest.raises(ValueError, match="booleans"):
        iset_make([(0, 1, 0, 1)])
    with pytest.raises(ValueError, match="booleans"):
        iset_make([[0, 1, "false", "false"]])
    assert iset_make([[0, 1, False, True]]) == interval(0, 1, False, True)
    for bad in ("05", (0, 1, True), range(2), {0, 1}):
        with pytest.raises(ValueError, match="descriptor"):
            iset_make([bad])


def _forms(lo, hi, *flags) -> list:
    """The piece ``lo, hi`` with optional ``lo_closed, hi_closed`` as a list,
    a tuple and a dict descriptor."""
    named = dict(zip(("lo_closed", "hi_closed"), flags))
    return [[lo, hi, *flags], (lo, hi, *flags), {"lo": lo, "hi": hi, **named}]


@pytest.mark.parametrize(
    "lo, hi, error, message",
    [
        ("1", "0", ValueError, "interval with lo=1 > hi=0"),
        ("1/2", "1/3", ValueError, "interval with lo=1/2 > hi=1/3"),
        ("abc", "1", ShapeError, "not a rational: 'abc'"),
        ("0", "1/0", ShapeError, "not a rational: '1/0'"),
        (True, 1, ShapeError, "not a rational: True"),
        (None, 1, ShapeError, "not a rational: None"),
    ],
)
def test_bad_endpoints_raise_the_same_error_in_every_form(lo, hi, error, message):
    for d in _forms(lo, hi) + _forms(lo, hi, False, False):
        with pytest.raises(error) as info:
            iset_make([("5", "6"), d])
        assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "d, error, message",
    [
        (["0", "1", "yes", True], ValueError,
         "lo_closed and hi_closed must be booleans: ['0', '1', 'yes', True]"),
        (("0", "1", True, 1), ValueError,
         "lo_closed and hi_closed must be booleans: ('0', '1', True, 1)"),
        ({"lo": "0", "hi": "1", "lo_closed": None}, ValueError,
         "lo_closed and hi_closed must be booleans: ('0', '1', None, True)"),
        # the flags are checked before the endpoints
        ({"lo": "2", "hi": "1", "lo_closed": "x"}, ValueError,
         "lo_closed and hi_closed must be booleans: ('2', '1', 'x', True)"),
        (["0"], ValueError, "bad interval descriptor: ['0']"),
        (("0", "1", True), ValueError, "bad interval descriptor: ('0', '1', True)"),
        ({"lo": "0"}, ShapeError, "missing key 'hi'"),
        ({"lo": "0", "hi": "1", "open": True}, ShapeError, "unknown keys ['open']"),
    ],
)
def test_bad_descriptors_raise_the_same_error(d, error, message):
    with pytest.raises(error) as info:
        iset_make([("5", "6"), d])
    assert type(info.value) is error and str(info.value) == message


def test_open_singleton_is_empty_in_every_form():
    for flags in [(False, True), (True, False), (False, False)]:
        for d in _forms("2", "2", *flags):
            assert iset_make([d]) == EMPTY
            assert iset_make([d, ("0", "1")]) == interval(0, 1)
            assert iset_make([("1", "2", True, False), d]) == interval(1, 2, True, False)
    for d in _forms("2", "2") + _forms("2", "2", True, True):
        assert iset_make([d]) == singleton(2)
        assert iset_make([("1", "2", True, False), d]) == interval(1, 2)


# --- the breakpoints a set keeps --------------------------------------------


def breaks_by_probes(s: IntervalSet) -> list[tuple]:
    """``(x, x in s, s just right of x)`` at each endpoint where membership
    changes, found with ``contains`` alone."""
    xs = sorted(set(s.endpoints()))
    out = []
    for i, x in enumerate(xs):
        before = xs[i - 1] if i else x - 2
        after = xs[i + 1] if i + 1 < len(xs) else x + 2
        left, at, right = (s.contains(y) for y in ((before + x) / 2, x, (x + after) / 2))
        if not left == at == right:
            out.append((x, at, right))
    return out


def test_kept_breakpoints_equal_the_pieces():
    from latval.instances import sample_interval_set

    a = iset_make([(0, 2, False, True), (3, 3), (5, 7, True, False), (7, 8, False, False)])
    b = iset_make([(1, 5, True, False), (6, 9)])
    built = [
        a, b, SHARED_OPEN, interval(1, 4, False, True), interval(2, 2), singleton(6),
        *(f(a, b) for f in FUNCTIONS.values()),
    ]
    constructed = [
        EMPTY,
        IntervalSet((
            Piece(Fraction(0), False, Fraction(1), False),
            Piece(Fraction(1), False, Fraction(2), True),
        )),
    ]
    rng = random.Random(18)
    for _ in range(100):
        c, d = sample_interval_set(rng), sample_interval_set(rng)
        built += [c, d, *(f(c, d) for f in FUNCTIONS.values())]
    for s in built:
        assert "_breaks" in vars(s), f"{s} was built without its breakpoints"
    for s in built + constructed:
        assert isinstance(s._breaks, tuple)
        assert list(s._breaks) == breaks_by_probes(s), s
    assert interval(3, 3, False, False)._breaks == EMPTY._breaks == ()


def test_kept_breakpoints_leave_equality_hash_and_repr_alone():
    built = iset_join(interval(0, 1), interval(2, 3, False, True))
    plain = IntervalSet(tuple(Piece(p.lo, p.lo_closed, p.hi, p.hi_closed) for p in built.pieces))
    assert "_breaks" in vars(built) and "_breaks" not in vars(plain)
    for _ in range(2):  # before and after plain derives its view
        assert built == plain and hash(built) == hash(plain) and repr(built) == repr(plain)
        assert plain._breaks == built._breaks
    assert "_breaks" not in repr(built)
    assert built.to_json_obj() == plain.to_json_obj()


# --- the running count of iset_make against the any-over-operands reader ----


def reference_make(raw) -> IntervalSet:
    """``iset_make`` as it read the sweep before its running count: ``any``
    over every operand at every breakpoint."""
    parts = [_descriptor_breaks(d) for d in raw]
    return _from_breaks((x, any(at), any(after)) for x, at, after, _ in _sweep(parts, False))


def random_descriptors(rng: random.Random, n: int) -> list:
    """``n`` descriptors in every form, with endpoints on the grid k/4, so
    singletons, open singletons, shared endpoints and overlaps are common."""
    out = []
    for _ in range(n):
        lo = Fraction(rng.randint(-8, 8), 4)
        hi = lo + Fraction(rng.choice((0, 0, 1, 2, 5)), 4)
        flags = rng.random() < 0.6, rng.random() < 0.6
        out.append(rng.choice([
            (lo, hi, *flags),
            (str(lo), str(hi)),
            {"lo": str(lo), "hi": str(hi), "lo_closed": flags[0], "hi_closed": flags[1]},
            interval(lo, hi, *flags),
        ]))
    return out


def test_make_keeps_a_running_count_of_operands_in():
    rng = random.Random(23)
    for k in range(400):
        raw = random_descriptors(rng, rng.choice((0, 1, 2, 5, 20, 60)))
        got, want = iset_make(raw), reference_make(raw)
        assert got == want and got._breaks == want._breaks, raw
        for x in probe_points(got, offset=Fraction(1, 8)):
            assert got.contains(x) == any(iset_make([d]).contains(x) for d in raw), (raw, x)


# --- one-part unions and the endpoint check ---------------------------------


@st.composite
def one_descriptor(draw):
    """One interval in every descriptor form: closed, open or half-open, a
    closed singleton, or an open singleton (the empty set); a ``Piece`` only
    where the checked constructor allows one."""
    a, b = sorted([draw(rationals), draw(rationals)])
    if draw(st.booleans()):
        b = a
    lo_closed, hi_closed = draw(st.booleans()), draw(st.booleans())
    forms = [
        [a, b, lo_closed, hi_closed],
        (a, b, lo_closed, hi_closed),
        {"lo": str(a), "hi": str(b), "lo_closed": lo_closed, "hi_closed": hi_closed},
        interval(a, b, lo_closed, hi_closed),
    ]
    if a < b or (lo_closed and hi_closed):
        forms.append(Piece(a, lo_closed, b, hi_closed))
    return draw(st.sampled_from(forms))


@settings(max_examples=300, deadline=None)
@given(st.one_of(one_descriptor(), interval_sets()))
def test_one_part_union_is_the_swept_union(d):
    got, swept = iset_make([d]), iset_make([d, d])
    assert got == swept and got._breaks == swept._breaks
    assert got._breaks == IntervalSet(got.pieces)._breaks


def test_interval_breaks_on_equal_objects_and_long_endpoints():
    lo, hi = Fraction(3, 4), Fraction(6, 8)  # equal, two objects
    assert lo is not hi
    assert _interval_breaks(lo, hi) == ((lo, True, False),)
    assert _interval_breaks(lo, hi, True, False) == _interval_breaks(lo, lo, False, True) == ()
    big = Fraction(3**700 + 1, 2**1100 + 7)
    twin = Fraction(big.numerator, big.denominator)
    tiny = Fraction(1, 2**2300)  # far below the sweep key's 2**-64
    assert big.denominator.bit_length() > 1100 and twin is not big
    assert _interval_breaks(big, twin) == ((big, True, False),)
    assert _interval_breaks(big, big + tiny, False) == ((big, False, True), (big + tiny, True, False))
    for lo, hi in [(big + tiny, big), (Fraction(1, 2), Fraction(1, 3)), (-big, -big - tiny)]:
        with pytest.raises(ValueError) as info:
            _interval_breaks(lo, hi)
        assert str(info.value) == f"interval with lo={lo} > hi={hi}"
