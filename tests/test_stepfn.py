"""Step functions against a pointwise probe oracle."""

import json
import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latval.fubini import RectTerm, partial_integrate, slice_at, step2d_make
from latval.instances import sample_rational, sample_step_fn
from latval.intervals import Piece, _sweep, iset_make
from latval.oag import ShapeError
from latval.stepfn import (
    ZERO,
    ConflictingAssignment,
    StepFn,
    ZERO_FN,
    _pointwise,
    indicator,
    integral,
    step_abs,
    step_add,
    step_from_json,
    step_from_values,
    step_join,
    step_leq,
    step_make,
    step_meet,
    step_scale,
    step_sub,
)


def step_probe_points(*fns, offset=Fraction(1, 1000)):
    """Every breakpoint, each breakpoint +/- offset and each gap midpoint."""
    out = set()
    for f in fns:
        for s in f.breakpoints:
            out.update((s, s - offset, s + offset))
        for i in range(len(f.breakpoints) - 1):
            out.add((f.breakpoints[i] + f.breakpoints[i + 1]) / 2)
    return sorted(out)


POINTWISE = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "meet": min,
    "join": max,
}
FUNCTIONS = {"add": step_add, "sub": step_sub, "meet": step_meet, "join": step_join}


def assert_pointwise(kind, f, g):
    out = FUNCTIONS[kind](f, g)
    for x in step_probe_points(f, g, out):
        assert out(x) == POINTWISE[kind](f(x), g(x)), f"{kind} wrong at {x}"
    return out


rationals = st.integers(-20, 20).flatmap(
    lambda num: st.integers(1, 6).map(lambda den: Fraction(num, den))
)


@st.composite
def step_fns(draw):
    bps = sorted(draw(st.sets(rationals, min_size=0, max_size=5)))
    if not bps:
        return ZERO_FN
    ovals = [Fraction(draw(st.integers(-4, 4))) for _ in range(len(bps) - 1)]
    pvals = [Fraction(draw(st.integers(-4, 4))) for _ in range(len(bps))]
    return step_from_values(bps, ovals, pvals)


def test_make_examples():
    f = step_make([((0, 1, False, False), 2), ((1, 2, False, False), 3)])
    assert f.breakpoints == (0, 1, 2)
    assert integral(f) == 5

    g = indicator(0, 1)
    assert g.breakpoints == (0, 1)
    assert g(0) == 1 and g(1) == 1 and g(Fraction(1, 2)) == 1
    assert integral(g) == 1

    assert step_make([]) == ZERO_FN
    assert step_make([((0, 1), 0)]) == ZERO_FN


def test_point_values_do_not_contribute():
    f = step_make([], points=[(5, 7)])
    assert f(5) == 7 and integral(f) == 0


def test_conflicting_assignment_raises():
    with pytest.raises(ConflictingAssignment):
        step_make([((0, 2), 1), ((1, 3), 2)])
    with pytest.raises(ConflictingAssignment):
        step_make([((0, 1), 1)], points=[(Fraction(1, 2), 5)])
    # agreeing overlap is fine
    f = step_make([((0, 2), 1), ((1, 3), 1)])
    assert f == indicator(0, 3)


def test_group_inverse():
    f = step_make([((0, 1, False, False), 2), ((1, 2, False, False), 3)])
    assert step_add(f, step_scale(-1, f)) == ZERO_FN


def test_abs_sub_example():
    # |1_[0,1] - 1_[1,2]|: 1 away from the overlap point, 0 at it
    out = step_abs(step_sub(indicator(0, 1), indicator(1, 2)))
    assert out(0) == 1 and out(2) == 1 and out(1) == 0
    assert out(Fraction(1, 2)) == 1 and out(Fraction(3, 2)) == 1
    assert integral(out) == 2


def test_meet_example():
    out = step_meet(indicator(0, 2), step_scale(2, indicator(1, 3)))
    assert out == indicator(1, 2)


def test_canonical_removes_redundant_breakpoints():
    f = step_from_values([0, 1, 2], [1, 1], [1, 1, 1])
    assert f.breakpoints == (0, 2)
    assert f == indicator(0, 2)


def test_scale_by_zero():
    assert step_scale(0, indicator(0, 5)) == ZERO_FN


def test_leq_is_pointwise():
    assert step_leq(indicator(0, 1), indicator(0, 2))
    assert not step_leq(indicator(0, 2), indicator(0, 1))
    bump = step_make([], points=[(Fraction(1, 2), -1)])
    assert step_leq(bump, ZERO_FN) and not step_leq(ZERO_FN, bump)


def test_json_roundtrip():
    f = step_make([((0, 1), 2)], points=[(3, 4)])
    assert step_from_json(f.to_json_obj()) == f
    with pytest.raises(TypeError):
        step_from_json(json.dumps(f.to_json_obj()))
    for key in ("open_values", "point_values"):  # not lists of characters
        with pytest.raises(TypeError):
            step_from_json({**f.to_json_obj(), key: "1"})


@settings(max_examples=250, deadline=None)
@given(step_fns(), step_fns(), st.sampled_from(sorted(POINTWISE)))
def test_combine_matches_pointwise_oracle(f, g, kind):
    assert_pointwise(kind, f, g)


@settings(max_examples=200, deadline=None)
@given(step_fns(), step_fns())
def test_riesz_identities(f, g):
    assert step_add(step_meet(f, g), step_join(f, g)) == step_add(f, g)
    assert integral(step_add(f, g)) == integral(f) + integral(g)
    assert step_sub(step_join(f, g), step_meet(f, g)) == step_abs(step_sub(f, g))


@settings(max_examples=150, deadline=None)
@given(step_fns(), st.integers(-5, 5))
def test_scale_linearity(f, lam):
    assert integral(step_scale(lam, f)) == lam * integral(f)


@settings(max_examples=150, deadline=None)
@given(step_fns())
def test_canonical_form_is_minimal(f):
    # no removable breakpoint: some value must change at each one
    for i, s in enumerate(f.breakpoints):
        left = f.open_values[i - 1] if i > 0 else Fraction(0)
        right = f.open_values[i] if i < len(f.breakpoints) - 1 else Fraction(0)
        assert not (left == f.point_values[i] == right)


def test_randomized_against_oracle_seeded():
    rng = random.Random(99)
    for _ in range(300):
        f, g = sample_step_fn(rng), sample_step_fn(rng)
        for kind in POINTWISE:
            assert_pointwise(kind, f, g)


# --- the breakpoint sweep on edge cases ------------------------------------


def raw_value(bps, ovals, pvals, x):
    """Evaluate an uncanonicalised breakpoint description directly."""
    for i, s in enumerate(bps):
        if x == s:
            return pvals[i]
        if i + 1 < len(bps) and s < x < bps[i + 1]:
            return ovals[i]
    return Fraction(0)


def refinement_probes(*fns):
    """One probe in each atom of the common refinement of ``fns``."""
    bps = sorted({s for f in fns for s in f.breakpoints})
    if not bps:
        return [Fraction(0)]
    return [bps[0] - 1, *bps, *((a + b) / 2 for a, b in zip(bps, bps[1:])), bps[-1] + 1]


def test_canonical_drops_runs_of_removable_breakpoints():
    # zero runs at both ends and a run of equal values inside
    f = step_from_values(range(8), [0, 0, 2, 2, 2, 0, 0], [0, 0, 0, 2, 2, 2, 0, 0])
    assert f == step_make([((2, 5, False, True), 2)])
    assert step_from_values(range(5), [3] * 4, [3] * 5) == indicator(0, 4, value=3)
    assert step_from_values(range(4), [0] * 3, [0] * 4) == ZERO_FN
    assert step_from_values([], [], []) == ZERO_FN


@settings(max_examples=200, deadline=None)
@given(
    st.lists(rationals, min_size=0, max_size=8, unique=True).map(sorted),
    st.data(),
)
def test_canonical_keeps_the_function(bps, data):
    values = st.integers(-1, 1).map(Fraction)
    ovals = [data.draw(values) for _ in bps[1:]]
    pvals = [data.draw(values) for _ in bps]
    f = step_from_values(bps, ovals, pvals)
    probes = [*bps, *((a + b) / 2 for a, b in zip(bps, bps[1:]))] or [Fraction(0)]
    for x in [probes[0] - 1, *probes, probes[-1] + 1]:
        assert f(x) == raw_value(bps, ovals, pvals, x), x


@pytest.mark.parametrize(
    "bps, ovals, pvals",
    [
        ([0, 1, 2], [1], [1, 1, 1]),
        ([0, 1], [1, 1, 1], [1, 1]),
        ([0, 1], [1], [1]),
        ([0, 0, 1], [1, 1], [1, 1, 1]),
        ([1, 0], [0], [0, 0]),
    ],
)
def test_from_values_rejects_malformed_input(bps, ovals, pvals):
    with pytest.raises(ValueError):
        step_from_values(bps, ovals, pvals)


def test_ops_with_empty_and_shared_breakpoints():
    f = step_make([((0, 1, False, False), 2)], points=[(1, 5)])
    for g in (ZERO_FN, f, indicator(1, 2), step_make([], points=[(1, -5)])):
        for kind in POINTWISE:
            out = FUNCTIONS[kind](f, g)
            for x in refinement_probes(f, g, out):
                assert out(x) == POINTWISE[kind](f(x), g(x)), (kind, x)
    assert step_add(f, step_make([], points=[(1, -5)])) == step_make([((0, 1, False, False), 2)])
    assert step_leq(ZERO_FN, ZERO_FN) and step_add(ZERO_FN, ZERO_FN) == ZERO_FN


def test_sweep_on_thousand_bit_breakpoints():
    from latval.sequences import sqrt2_convergents

    qs, rs = sqrt2_convergents(430)
    qs, rs = qs[400:], rs[400:]  # the last 30 convergents: 1000+ bits each
    assert min(q.denominator.bit_length() for q in qs + rs) > 1000
    f = step_from_values(qs, [k % 3 - 1 for k in range(29)], [k % 2 for k in range(30)])
    g = step_from_values(
        sorted([*qs[::3], *(q + r - 1 for q, r in zip(qs[1::3], rs[1::3]))]),
        [k % 2 for k in range(19)],
        [-1] * 20,
    )
    for a, b in [(f, g), (g, f), (f, f)]:
        for kind in POINTWISE:
            out = FUNCTIONS[kind](a, b)
            for x in refinement_probes(a, b, out):
                assert out(x) == POINTWISE[kind](a(x), b(x)), (kind, x)
        assert step_leq(a, b) == all(a(x) <= b(x) for x in refinement_probes(a, b))
        assert step_leq(step_meet(a, b), step_join(a, b))


def reference_integral(f: StepFn) -> Fraction:
    """The Fraction loop that the integer-numerator integral replaced."""
    total = Fraction(0)
    for i in range(len(f.open_values)):
        total += f.open_values[i] * (f.breakpoints[i + 1] - f.breakpoints[i])
    return total


def test_integral_matches_fraction_loop():
    rng = random.Random(8)

    def rational(bits):  # zero a quarter of the time, signed otherwise
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits))

    def values(count, bits):  # a fifth equal to the left neighbour, as a new object
        out: list[Fraction] = []
        for _ in range(count):
            v = out[-1] if out and rng.random() < 0.2 else rational(bits)
            out.append(Fraction(v.numerator, v.denominator))
        return tuple(out)

    fns = [ZERO_FN, StepFn((Fraction(3),), (), (Fraction(5),))]
    for k in range(520):
        bps: set[Fraction] = set()
        if k < 400:
            coord_bits, value_bits = (4, 64, 1000)[k % 3], (3, 64)[k % 2]
            n = rng.randint(1, 12)
            while len(bps) < n:
                bps.add(rational(coord_bits))
        else:  # up to 300 breakpoints, every third over one dyadic denominator
            value_bits = (4, 16, 32, 64)[k % 4]
            n = rng.randint(1, 300)
            if k % 3:
                bps.update(rational(value_bits) for _ in range(n))
            else:
                bps.update(Fraction(j, 1 << value_bits) for j in rng.sample(range(-4 * n, 4 * n), n))
        n = len(bps)
        fns.append(StepFn(tuple(sorted(bps)), values(n - 1, value_bits), values(n, value_bits)))
    assert max(f.breakpoints[-1].denominator.bit_length() for f in fns if f.breakpoints) > 990
    assert max(len(f.breakpoints) for f in fns) > 250
    for f in fns:
        assert integral(f) == reference_integral(f)


def reference_call(f: StepFn, x: Fraction) -> Fraction:
    """``f(x)`` located by a bisect over the ``Fraction`` breakpoints."""
    bps = f.breakpoints
    if not bps or x < bps[0] or x > bps[-1]:
        return Fraction(0)
    i = bisect_right(bps, x) - 1
    return f.point_values[i] if bps[i] == x else f.open_values[i]


def test_call_matches_fraction_bisect():
    # a StepFn locates x by its breakpoints' 64-bit keys and compares exactly
    # on a key tie only (the +-2^-300 probes, and the four breakpoints 2^-80
    # apart, which share one key); every value is distinct and nonzero, so a
    # point or gap read at a wrong index shows
    rng = random.Random(18)
    tiny = Fraction(1, 2**300)
    fns = [ZERO_FN, StepFn((Fraction(3),), (), (Fraction(5),))]
    for k in range(300):
        bits, n = (4, 64)[k % 2], rng.randint(1, 12)
        bps: set[Fraction] = set()
        while len(bps) < n:
            bps.add(Fraction(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits)))
        opens, points = map(Fraction, range(1, n)), map(Fraction, range(-n, 0))
        fns.append(StepFn(tuple(sorted(bps)), tuple(opens), tuple(points)))
    assert max(s.denominator.bit_length() for f in fns for s in f.breakpoints) == 64
    close = tuple(Fraction(1, 3) + Fraction(j, 2**80) for j in range(4))
    fns.append(StepFn(close, tuple(map(Fraction, (1, 2, 3))), tuple(map(Fraction, range(-4, 0)))))
    checked = 0
    for f in fns:
        bps = f.breakpoints
        probes = [Fraction(0), Fraction(-7, 3), Fraction(1, 2**64 + 1)]
        if bps:
            probes += [*bps, *((a + b) / 2 for a, b in zip(bps, bps[1:]))]
            probes += [s + e for s in bps for e in (-tiny, tiny)]
            probes += [bps[0] - 1, bps[-1] + 1, bps[0] - tiny * bps[0].denominator]
            probes += [Fraction(rng.randint(-(1 << 65), 1 << 65), 1 << 64) for _ in range(4)]
        for x in probes:
            assert f(x) == reference_call(f, x), (f, x)
            checked += 1
        assert f(str(bps[0]) if bps else "0") == reference_call(f, bps[0] if bps else Fraction(0))
    assert checked > 10_000


@st.composite
def disjoint_parts(draw):
    """``step_make`` input with no conflicting assignment: pieces over
    disjoint intervals, each with its own boundary kinds and value."""
    xs = sorted(draw(st.sets(rationals, max_size=8)))
    return [
        ((lo, hi, draw(st.booleans()), draw(st.booleans())), draw(st.integers(-3, 3)))
        for lo, hi in zip(xs[::2], xs[1::2])
    ]


def assert_rebuilds_checked(f: StepFn) -> None:
    """The unchecked builder's output passes the checked constructor and is
    canonical: rebuilding it, checked or through ``step_from_values``, is a no-op."""
    assert StepFn(f.breakpoints, f.open_values, f.point_values) == f
    assert step_from_values(f.breakpoints, f.open_values, f.point_values) == f


@settings(max_examples=200, deadline=None)
@given(step_fns(), step_fns(), disjoint_parts())
def test_builder_output_passes_checked_constructor(f, g, parts):
    for h in (f, g, step_abs(f), step_make(parts), *(op(f, g) for op in FUNCTIONS.values())):
        assert_rebuilds_checked(h)


# --- the order sweep against min, max and <= on Fractions -------------------


def reference_leq(f: StepFn, g: StepFn) -> bool:
    """``Fraction``'s own ``<=`` on the common refinement."""
    return all(
        at[0] <= at[1] and after[0] <= after[1]
        for _, at, after, _ in _sweep((f._breaks, g._breaks), ZERO)
    )


def fresh(f: StepFn) -> StepFn:
    """``f`` with every value an equal but distinct ``Fraction``."""
    def copy(values):
        return tuple(Fraction(v.numerator, v.denominator) for v in values)

    return StepFn(f.breakpoints, copy(f.open_values), copy(f.point_values))


def assert_order_parity(f: StepFn, g: StepFn) -> None:
    """Meet and join are ``min`` and ``max`` on the common refinement, down to
    the value objects they return (the first operand's on a tie), and
    ``step_leq`` is ``<=``: both ways round, and against equal values held in
    distinct objects."""
    for a, b in ((f, g), (g, f), (f, fresh(f)), (fresh(g), g)):
        for op, pick in ((step_meet, min), (step_join, max)):
            got, want = op(a, b), _pointwise(a, b, pick)
            assert got == want, (op.__name__, a, b)
            values = zip(got.point_values + got.open_values, want.point_values + want.open_values)
            assert all(x is y for x, y in values), (op.__name__, "another value object", a, b)
        assert step_leq(a, b) == reference_leq(a, b), (a, b)
    assert step_leq(step_meet(f, g), fresh(f)) and step_leq(fresh(g), step_join(f, g))


def _random_fn(rng: random.Random, value, n: int) -> StepFn:
    bps = sorted({value() for _ in range(n)})
    return step_from_values(bps, [value() for _ in bps[1:]], [value() for _ in bps])


def _sampled(rng):
    return [(sample_step_fn(rng), sample_step_fn(rng)) for _ in range(150)]


def _wide(rng):
    """64-bit numerators over unrelated 64-bit denominators, and neighbours
    that differ from them by less than 2^-64."""
    def value():
        return Fraction(rng.getrandbits(64) - (1 << 63), rng.getrandbits(64) | 1)

    pairs = []
    for _ in range(40):
        f = _random_fn(rng, value, 6)
        tiny = [Fraction(rng.choice((-1, 1)), (1 << 64) + rng.getrandbits(32)) for _ in f.point_values]
        near = [v + t for v, t in zip(f.point_values, tiny)]
        g = step_from_values(f.breakpoints, f.open_values, near)
        pairs += [(f, _random_fn(rng, value, 6)), (f, g)]
    return pairs


def _negative(rng):
    def value():
        return Fraction(-rng.randint(1, 30), rng.randint(1, 12))

    return [(_random_fn(rng, value, 5), _random_fn(rng, value, 5)) for _ in range(60)]


def _equal_objects(rng):
    """Equal values in distinct objects, everywhere or all but one place."""
    pairs = []
    for _ in range(60):
        f = sample_step_fn(rng)
        if f.is_zero():
            continue
        g = fresh(f)
        pvals, ovals = list(g.point_values), list(g.open_values)
        pvals[rng.randrange(len(pvals))] += rng.choice((-1, 1))
        if ovals:
            ovals[rng.randrange(len(ovals))] += rng.choice((-1, 1))
        pairs += [(f, g), (f, StepFn(g.breakpoints, tuple(ovals), tuple(pvals)))]
    return pairs


def _values_within(rng, bound: int) -> StepFn:
    """A step function drawn as ``sample_step_fn`` draws one, with values in
    ``[-bound, bound]`` in place of its ``[-4, 4]``."""
    bps = sorted({sample_rational(rng) for _ in range(rng.randint(0, 5))})
    if not bps:
        return ZERO_FN
    ovals = [rng.randint(-bound, bound) for _ in bps[1:]]
    return step_from_values(bps, ovals, [rng.randint(-bound, bound) for _ in bps])


def _zero(rng):
    """``ZERO_FN`` against functions that take the value 0 in other objects."""
    f = step_from_values([0, 1, 2, 3], [0, 2, -1], [1, 0, 0, -2])
    return [(ZERO_FN, ZERO_FN), (f, ZERO_FN)] + [
        (_values_within(rng, 1), ZERO_FN) for _ in range(60)
    ]


def _disjoint(rng):
    """Operands whose spans touch at one point or lie apart, with a gap
    between them where both are zero."""
    pairs = []
    for _ in range(60):
        f, g = (_values_within(rng, 2) for _ in range(2))
        if f.is_zero() or g.is_zero():
            continue
        shift = f.breakpoints[-1] - g.breakpoints[0] + rng.choice((0, 1))
        moved = StepFn(tuple(x + shift for x in g.breakpoints), g.open_values, g.point_values)
        pairs.append((f, moved))
    return pairs


ORDER_FAMILIES = {
    "sampler": _sampled,
    "wide": _wide,
    "negative": _negative,
    "equal-objects": _equal_objects,
    "zero": _zero,
    "disjoint": _disjoint,
}


@pytest.mark.parametrize("family", sorted(ORDER_FAMILIES))
def test_order_sweep_matches_min_max_and_leq(family):
    pairs = ORDER_FAMILIES[family](random.Random(family))
    assert len(pairs) >= 2
    for f, g in pairs:
        assert_order_parity(f, g)


# --- the triples a step function keeps --------------------------------------


def breaks_by_calls(f: StepFn) -> list[tuple]:
    """``(x, f(x), f just right of x)`` at each breakpoint, read with
    ``__call__`` at the breakpoint and at a point of the gap right of it."""
    bps = f.breakpoints
    rights = [(a + b) / 2 for a, b in zip(bps, bps[1:])] + [bps[-1] + 1] if bps else []
    return [(x, f(x), f(r)) for x, r in zip(bps, rights)]


def test_kept_triples_equal_the_fields():
    a = step_make([((0, 2, False, True), 3), ((2, 5, False, False), -1)], points=[(7, 4)])
    b = step_from_values([0, 1, 3, 6], [2, 0, 5], [1, 2, 0, 0])
    built = [
        a, b,
        step_make([(iset_make([(0, 1), (2, 3, False, False)]), 2)]),
        step_make([(Piece(Fraction(1), False, Fraction(4), True), Fraction(1, 3))]),
        step_make([({"lo": "1/2", "hi": 3, "hi_closed": False}, 5)], points=[("9/2", -2)]),
        step_make([([1, 2, True, False], 1), ([2, 3], 1)]),
        step_make([], points=[(1, 2), (3, 0)]),
        indicator(0, 1, hi_closed=False, value=-3),
        step_abs(step_sub(a, b)),
        step_scale(0, a), step_scale(Fraction(-2, 3), a), step_scale(5, ZERO_FN),
        *(op(a, b) for op in FUNCTIONS.values()),
        *(op(a, a) for op in FUNCTIONS.values()),
    ]
    rng = random.Random(19)
    for _ in range(100):
        f, g = sample_step_fn(rng), sample_step_fn(rng)
        built += [f, g, step_abs(f), step_scale(rng.randint(-3, 3), f)]
        built += [op(f, g) for op in FUNCTIONS.values()]
    grid = step2d_make([
        RectTerm(Fraction(2), iset_make([(0, 3)]), iset_make([(1, 2, False, True)])),
        RectTerm(Fraction(-1), iset_make([(1, 4, True, False)]), iset_make([(0, 3)])),
    ])
    constructed = [
        ZERO_FN,
        StepFn((Fraction(0), Fraction(1)), (Fraction(2),), (Fraction(2), Fraction(0))),
        slice_at(grid, Fraction(3, 2)), slice_at(grid, 2), slice_at(grid, 5),
        partial_integrate(grid),
    ]
    for f in built:
        assert "_breaks" in vars(f) or f is ZERO_FN, f"{f} was built without its triples"
    for f in built + constructed:
        assert isinstance(f._breaks, tuple)
        assert list(f._breaks) == breaks_by_calls(f), f
        assert f._breaks == tuple(zip(f.breakpoints, f.point_values, f.open_values + (ZERO,)))
    assert step_scale(0, a) is ZERO_FN and ZERO_FN._breaks == ()


def test_kept_triples_leave_equality_hash_and_repr_alone():
    built = step_join(indicator(0, 2), indicator(1, 3, False, True, value=2))
    plain = StepFn(built.breakpoints, built.open_values, built.point_values)
    assert "_breaks" in vars(built) and "_breaks" not in vars(plain)
    for _ in range(2):  # before and after plain derives its triples
        assert built == plain and hash(built) == hash(plain) and repr(built) == repr(plain)
        assert plain._breaks == built._breaks
    assert "_breaks" not in repr(built)
    assert built.to_json_obj() == plain.to_json_obj()


# --- step documents -----------------------------------------------------------


def test_step_document_reads_each_value_string_once():
    doc = {
        "breakpoints": ["0", "1/2", "1", "3/2", "4"],
        "open_values": ["2", "-1/3", "2", "-1/3"],
        "point_values": ["2", "2", 2, "-1/3", "0"],
    }
    f = step_from_json(doc)
    keys = "breakpoints", "open_values", "point_values"
    want = step_from_values(*([Fraction(v) for v in doc[k]] for k in keys))
    assert f == want and f._breaks == want._breaks
    twos = [f.open_values[0], f.open_values[2], f.point_values[0], f.point_values[1]]
    assert all(v is twos[0] for v in twos)
    assert f.open_values[1] is f.open_values[3] is f.point_values[3]
    with pytest.raises(ShapeError):
        step_from_json({"breakpoints": ["0", "1"], "open_values": [1], "point_values": ["1", True]})
