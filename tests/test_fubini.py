import json
import math
import random
import sys
from bisect import bisect_right
from fractions import Fraction

import pytest

from latval import fubini
from latval.fubini import (
    _axis_atoms,
    _canonical_2d,
    ZERO_2D,
    RectTerm,
    StepFn2D,
    double_integral,
    fubini_check,
    mu_XY,
    partial_integrate,
    rect_term,
    rectset_measure,
    sample_step2d,
    sample_ys,
    slice_at,
    step2d_make,
    terms_from_json,
    transpose,
)
from latval.instances import mu_S, phi_S, sample_interval_set
from latval.intervals import EMPTY, IntervalSet, interval, iset_make, iset_meet, singleton
from latval.oag import ShapeError
from latval.stepfn import ZERO_FN, StepFn, indicator, step_add, step_from_values


def test_mu_xy_examples():
    assert mu_XY(interval(0, 2), interval(0, 3)) == 6
    assert mu_XY(EMPTY, interval(0, 5)) == 0
    assert mu_XY(singleton(1), interval(0, 5)) == 0


def test_single_cell():
    f = step2d_make([rect_term(1, [(0, 1)], [(0, 1)])])
    assert len(f.xs) == 2 and len(f.ys) == 2
    assert f(Fraction(1, 2), Fraction(1, 2)) == 1
    assert f(2, 2) == 0


def test_overlapping_terms_add_cellwise():
    f = step2d_make(
        [rect_term(1, [(0, 2)], [(0, 1)]), rect_term(1, [(1, 3)], [(0, 1)])]
    )
    probes = [
        (Fraction(1, 2), Fraction(1, 2), 1),
        (Fraction(3, 2), Fraction(1, 2), 2),
        (Fraction(5, 2), Fraction(1, 2), 1),
    ]
    for x, y, v in probes:
        assert f(x, y) == v


def test_cancelling_terms_vanish():
    f = step2d_make(
        [rect_term(1, [(0, 1)], [(0, 1)]), rect_term(-1, [(0, 1)], [(0, 1)])]
    )
    assert f.is_zero()


def test_partial_integrate_formula():
    f = step2d_make([rect_term(2, [(0, 3)], [(1, 2)])])
    fx = partial_integrate(f)
    # lambda * mu_X(A) * 1_B
    assert fx == step_add(ZERO_FN, indicator(1, 2, value=6))
    assert phi_S(fx) == 6


def test_partial_integrate_zero():
    assert partial_integrate(step2d_make([])) == ZERO_FN


def test_partial_integrate_shared_gridline():
    f = step2d_make(
        [rect_term(1, [(0, 1)], [(0, 1)]), rect_term(1, [(0, 2)], [(1, 2)])]
    )
    fx = partial_integrate(f)
    assert fx(Fraction(1, 2)) == 1
    assert fx(Fraction(3, 2)) == 2
    # on the shared gridline both closed rectangles contribute
    assert fx(1) == phi_S(slice_at(f, 1)) == 3


def test_slice_examples():
    f = step2d_make([rect_term(1, [(0, 1)], [(0, 1)])])
    assert slice_at(f, Fraction(1, 2)) == indicator(0, 1)
    assert slice_at(f, 2) == ZERO_FN


def test_slice_at_gridline_uses_line_values():
    f = step2d_make(
        [rect_term(1, [(0, 1, True, True)], [(0, 1, True, False)]),
         rect_term(3, [(0, 1, True, True)], [(1, 2, False, True)])]
    )
    # at y = 1 neither half-open rectangle contains the line
    assert slice_at(f, 1) == ZERO_FN
    assert slice_at(f, Fraction(1, 2)) == indicator(0, 1)
    assert slice_at(f, Fraction(3, 2)) == indicator(0, 1, value=3)


def test_fubini_check_example():
    f = step2d_make([rect_term(2, [(0, 3)], [(1, 2)])])
    report = fubini_check(f, sampled_y=[1, Fraction(3, 2), 2, 5])
    assert report.ok
    assert double_integral(f) == 6


def test_fubini_zero():
    report = fubini_check(step2d_make([]), sampled_y=[0, 1])
    assert report.ok


def test_fubini_randomized():
    rng = random.Random(123)
    for _ in range(100):
        f = sample_step2d(rng)
        report = fubini_check(f, sampled_y=sample_ys(f, rng, 12))
        assert report.ok, report.to_dict()


def test_partial_integrate_linear():
    rng = random.Random(7)
    for _ in range(60):
        f = sample_step2d(rng, max_terms=4)
        g = sample_step2d(rng, max_terms=4)
        both = step2d_make(
            [RectTerm(c, a, b) for (c, a, b) in _as_terms(f) + _as_terms(g)]
        )
        lhs = partial_integrate(both)
        rhs = step_add(partial_integrate(f), partial_integrate(g))
        assert lhs == rhs


def test_step2d_make_matches_term_sum_oracle():
    # independent oracle: evaluate the sum of coefficient * 1_A(x) * 1_B(y)
    # directly from the terms at a probe grid around all endpoints
    rng = random.Random(61)
    offset = Fraction(1, 1000)
    for _ in range(80):
        terms = []
        for _ in range(rng.randint(1, 6)):
            a = sample_interval_set(rng, 2)
            b = sample_interval_set(rng, 2)
            if a.is_empty() or b.is_empty():
                continue
            terms.append(RectTerm(Fraction(rng.randint(-3, 3)), a, b))
        f = step2d_make(terms)

        def probes(endpoints):
            out = set()
            for e in endpoints:
                out.update((e, e - offset, e + offset))
            return sorted(out) or [Fraction(0)]

        xs = probes({e for t in terms for e in t.base_x.endpoints()})
        ys = probes({e for t in terms for e in t.base_y.endpoints()})
        for x in xs:
            for y in ys:
                expected = sum(
                    (t.coefficient for t in terms
                     if t.base_x.contains(x) and t.base_y.contains(y)),
                    Fraction(0),
                )
                assert f(x, y) == expected, (x, y)


def test_partial_integrate_positive_on_nonnegative():
    rng = random.Random(71)
    from latval.stepfn import ZERO_FN, step_leq

    for _ in range(60):
        f = sample_step2d(rng, max_terms=4)
        nonneg = step2d_make(
            [RectTerm(abs(c), a, b) for (c, a, b) in _as_terms(f) if c != 0]
        )
        fx = partial_integrate(nonneg)
        assert step_leq(ZERO_FN, fx)


def _as_terms(f):
    """Decompose a StepFn2D into rectangle terms, one per nonzero atom."""
    out = []
    for i in range(len(f.xs) - 1):
        for j in range(len(f.ys) - 1):
            if f.cells[i][j]:
                out.append(
                    (f.cells[i][j],
                     interval(f.xs[i], f.xs[i + 1], False, False),
                     interval(f.ys[j], f.ys[j + 1], False, False))
                )
    for i in range(len(f.xs)):
        for j in range(len(f.ys) - 1):
            if f.vlines[i][j]:
                out.append(
                    (f.vlines[i][j], singleton(f.xs[i]),
                     interval(f.ys[j], f.ys[j + 1], False, False))
                )
    for i in range(len(f.xs) - 1):
        for j in range(len(f.ys)):
            if f.hlines[i][j]:
                out.append(
                    (f.hlines[i][j],
                     interval(f.xs[i], f.xs[i + 1], False, False),
                     singleton(f.ys[j]))
                )
    for i in range(len(f.xs)):
        for j in range(len(f.ys)):
            if f.points[i][j]:
                out.append((f.points[i][j], singleton(f.xs[i]), singleton(f.ys[j])))
    return out


def test_rebuild_from_atoms_roundtrips():
    rng = random.Random(31)
    for _ in range(40):
        f = sample_step2d(rng, max_terms=5)
        g = step2d_make([RectTerm(c, a, b) for (c, a, b) in _as_terms(f)])
        assert g == f


def test_transpose_involution():
    rng = random.Random(41)
    for _ in range(40):
        f = sample_step2d(rng, max_terms=5)
        assert transpose(transpose(f)) == f


def test_product_measure_modular_on_rectangle_sets():
    rng = random.Random(27)
    for _ in range(120):
        r1 = [(sample_interval_set(rng, 2), sample_interval_set(rng, 2))
              for _ in range(rng.randint(1, 3))]
        r2 = [(sample_interval_set(rng, 2), sample_interval_set(rng, 2))
              for _ in range(rng.randint(1, 3))]
        r1 = [(a, b) for a, b in r1 if not a.is_empty() and not b.is_empty()]
        r2 = [(a, b) for a, b in r2 if not a.is_empty() and not b.is_empty()]
        union = rectset_measure(r1 + r2)
        inter = rectset_measure(
            [(iset_meet(a1, a2), iset_meet(b1, b2))
             for a1, b1 in r1 for a2, b2 in r2]
        )
        assert rectset_measure(r1) + rectset_measure(r2) == union + inter


def test_rectset_measure_matches_mu_xy_on_rectangles():
    rng = random.Random(53)
    for _ in range(100):
        a, b = sample_interval_set(rng, 2), sample_interval_set(rng, 2)
        assert rectset_measure([(a, b)]) == mu_XY(a, b)


def test_terms_from_json():
    doc = [
        {"coefficient": "2", "base_x": [{"lo": "0", "hi": "3"}], "base_y": [{"lo": "1", "hi": "2"}]}
    ]
    terms = terms_from_json(doc)
    assert terms[0].coefficient == 2
    assert mu_S(terms[0].base_x) == 3
    with pytest.raises(TypeError):
        terms_from_json(json.dumps(doc))


def test_terms_from_json_parses_each_numeral_once():
    piece = {"lo": "1/2", "hi": "3", "lo_closed": False}
    doc = [
        {"coefficient": "1/2", "base_x": [piece], "base_y": [["0", "1/2"]]},
        {"coefficient": "1/2", "base_x": [["3", "4"], piece], "base_y": [("1/2", "3")]},
    ]
    (s, t) = terms_from_json(doc)
    half, three = s.coefficient, s.base_x.pieces[0].hi
    assert half == Fraction(1, 2) and three == 3
    assert t.coefficient is half and s.base_x.pieces[0].lo is half and s.base_y.pieces[0].hi is half
    assert t.base_y.pieces[0].lo is half and t.base_y.pieces[0].hi is three
    assert t.base_x == iset_make([(Fraction(1, 2), 4, False, True)])
    # a second document parses its own numerals
    assert terms_from_json(doc)[0].coefficient is not half


@pytest.mark.parametrize(
    "term, message",
    [
        ({"coefficient": True, "base_x": [["0", "1"]], "base_y": [["0", "1"]]},
         "^rectangle term 1: coefficient: not a rational: True$"),
        ({"coefficient": "1", "base_x": [["0", True]], "base_y": [["0", "1"]]},
         "^rectangle term 1: base_x: not a rational: True$"),
        ({"coefficient": "1", "base_x": [["0", "1"]], "base_y": [{"lo": True, "hi": "1"}]},
         "^rectangle term 1: base_y: not a rational: True$"),
    ],
    ids=["term0", "term1", "term2"],
)
def test_terms_true_after_one_is_no_rational(term, message):
    first = {"coefficient": "1", "base_x": [[1, "1"]], "base_y": [["1", 1]]}
    with pytest.raises(ShapeError, match=message):
        terms_from_json([first, term])


def restart_canonical_2d(xs, ys, cells, vlines, hlines, points) -> StepFn2D:
    """Reference: the grid minimisation that removes one line at a time and
    rescans the whole grid after every removal."""
    ZERO = Fraction(0)
    xs, ys = list(xs), list(ys)
    cells = [list(r) for r in cells]
    vlines = [list(r) for r in vlines]
    hlines = [list(r) for r in hlines]
    points = [list(r) for r in points]

    def col_removable(i: int) -> bool:
        left = cells[i - 1] if i > 0 else [ZERO] * (len(ys) - 1)
        right = cells[i] if i < len(xs) - 1 else [ZERO] * (len(ys) - 1)
        hl_left = hlines[i - 1] if i > 0 else [ZERO] * len(ys)
        hl_right = hlines[i] if i < len(xs) - 1 else [ZERO] * len(ys)
        return vlines[i] == left == right and points[i] == hl_left == hl_right

    def drop_col(i: int) -> None:
        old_nx = len(xs)
        del xs[i], vlines[i], points[i]
        if old_nx >= 2:
            ic = i if i < old_nx - 1 else i - 1  # merged x-cell
            del cells[ic], hlines[ic]

    def row_removable(j: int) -> bool:
        below = [c[j - 1] for c in cells] if j > 0 else [ZERO] * (len(xs) - 1)
        above = [c[j] for c in cells] if j < len(ys) - 1 else [ZERO] * (len(xs) - 1)
        hline = [h[j] for h in hlines]
        vl_below = [v[j - 1] for v in vlines] if j > 0 else [ZERO] * len(xs)
        vl_above = [v[j] for v in vlines] if j < len(ys) - 1 else [ZERO] * len(xs)
        pts = [p[j] for p in points]
        return hline == below == above and pts == vl_below == vl_above

    def drop_row(j: int) -> None:
        old_ny = len(ys)
        del ys[j]
        for p in points:
            del p[j]
        for h in hlines:
            del h[j]
        if old_ny >= 2:
            jc = j if j < old_ny - 1 else j - 1  # merged y-cell
            for c in cells:
                del c[jc]
            for v in vlines:
                del v[jc]

    changed = True
    while changed and xs:
        changed = False
        for i in range(len(xs)):
            if col_removable(i):
                drop_col(i)
                changed = True
                break
        if changed:
            continue
        for j in range(len(ys)):
            if row_removable(j):
                drop_row(j)
                changed = True
                break

    if not xs or not ys:
        return ZERO_2D
    return StepFn2D(
        tuple(xs),
        tuple(ys),
        tuple(tuple(r) for r in cells),
        tuple(tuple(r) for r in vlines),
        tuple(tuple(r) for r in hlines),
        tuple(tuple(r) for r in points),
    )


def random_grid(rng: random.Random):
    """A grid of values 0..2 in which some lines, runs of lines and border
    lines are made removable by copying the neighbouring values onto them."""
    nx, ny = rng.randint(1, 7), rng.randint(1, 7)

    def v():
        return Fraction(rng.choice((0, 0, 1, 2)))

    cells = [[v() for _ in range(ny - 1)] for _ in range(nx - 1)]
    vlines = [[v() for _ in range(ny - 1)] for _ in range(nx)]
    hlines = [[v() for _ in range(ny)] for _ in range(nx - 1)]
    points = [[v() for _ in range(ny)] for _ in range(nx)]
    zero_cells, zero_h = [Fraction(0)] * (ny - 1), [Fraction(0)] * ny
    for i in range(nx):  # columns, left to right so runs form
        if rng.random() < 0.5:
            left = (cells[i - 1], hlines[i - 1]) if i > 0 else (zero_cells, zero_h)
            vlines[i], points[i] = list(left[0]), list(left[1])
            if i < nx - 1:
                cells[i], hlines[i] = list(left[0]), list(left[1])
    for j in range(ny):  # rows, bottom to top
        if rng.random() < 0.4:
            for i in range(nx - 1):
                below = cells[i][j - 1] if j > 0 else Fraction(0)
                hlines[i][j] = below
                if j < ny - 1:
                    cells[i][j] = below
            for i in range(nx):
                below = vlines[i][j - 1] if j > 0 else Fraction(0)
                points[i][j] = below
                if j < ny - 1:
                    vlines[i][j] = below
    xs = sorted(rng.sample(range(-20, 20), nx))
    ys = sorted(rng.sample(range(-20, 20), ny))
    return [Fraction(x) for x in xs], [Fraction(y) for y in ys], cells, vlines, hlines, points


def test_one_pass_canonical_2d_matches_restart_loop():
    from latval.fubini import _canonical_2d

    rng = random.Random(2024)
    dropped = 0
    for _ in range(600):
        xs, ys, cells, vlines, hlines, points = random_grid(rng)
        raw = StepFn2D(
            tuple(xs), tuple(ys),
            *(tuple(map(tuple, m)) for m in (cells, vlines, hlines, points)),
        )
        expected = restart_canonical_2d(xs, ys, cells, vlines, hlines, points)
        assert _canonical_2d(raw) == expected
        dropped += len(xs) + len(ys) - len(expected.xs) - len(expected.ys)
    assert dropped > 1000  # the grids exercise removal, not only the identity


# References: the Fraction loops that the integer-numerator kernels replaced,
# kept as they were.  Every result must be exactly the same rational.


def reference_partial_integrate(f: StepFn2D):
    if f.is_zero():
        return ZERO_FN
    widths = [f.xs[i + 1] - f.xs[i] for i in range(len(f.xs) - 1)]
    ovals = [
        sum((f.cells[i][j] * widths[i] for i in range(len(widths))), Fraction(0))
        for j in range(len(f.ys) - 1)
    ]
    pvals = [
        sum((f.hlines[i][j] * widths[i] for i in range(len(widths))), Fraction(0))
        for j in range(len(f.ys))
    ]
    return step_from_values(f.ys, ovals, pvals)


def reference_double_integral(f: StepFn2D) -> Fraction:
    total = Fraction(0)
    for i in range(len(f.xs) - 1):
        w = f.xs[i + 1] - f.xs[i]
        for j in range(len(f.ys) - 1):
            total += f.cells[i][j] * w * (f.ys[j + 1] - f.ys[j])
    return total


def reference_rectset_measure(rects) -> Fraction:
    if not rects:
        return Fraction(0)
    xs, x_atoms = _axis_atoms(a for a, _ in rects)
    ys, y_atoms = _axis_atoms(b for _, b in rects)
    x_gap, y_gap = x_atoms[1::2], y_atoms[1::2]
    total = Fraction(0)
    for i in range(len(xs) - 1):
        height = sum(
            (ys[j + 1] - ys[j] for j in range(len(ys) - 1) if x_gap[i] & y_gap[j]), Fraction(0)
        )
        total += (xs[i + 1] - xs[i]) * height
    return total


def random_rational(rng: random.Random, bits: int) -> Fraction:
    """Zero a quarter of the time, else a signed rational whose numerator and
    denominator have up to ``bits`` bits."""
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits))


def random_coordinates(rng: random.Random, n: int, bits: int) -> tuple[Fraction, ...]:
    out: set[Fraction] = set()
    while len(out) < n:
        out.add(Fraction(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits)))
    return tuple(sorted(out))


def random_raw_grid(rng: random.Random, coord_bits: int, value_bits: int) -> StepFn2D:
    """A grid with arbitrary values, not canonical: 1 to 8 lines per axis."""
    nx, ny = rng.randint(1, 8), rng.randint(1, 8)

    def mat(rows, cols):
        return tuple(
            tuple(random_rational(rng, value_bits) for _ in range(cols)) for _ in range(rows)
        )

    return StepFn2D(
        random_coordinates(rng, nx, coord_bits),
        random_coordinates(rng, ny, coord_bits),
        mat(nx - 1, ny - 1), mat(nx, ny - 1), mat(nx - 1, ny), mat(nx, ny),
    )


def test_integer_kernels_match_fraction_loops():
    rng = random.Random(5)
    one_column = StepFn2D(
        (Fraction(1, 3),), (Fraction(0), Fraction(2)),
        (), ((Fraction(-5),),), (), ((Fraction(1), Fraction(7, 2)),),
    )
    grids = [ZERO_2D, one_column, transpose(one_column)]
    for k in range(300):
        grids.append(random_raw_grid(rng, (4, 64, 1000)[k % 3], (3, 64)[k % 2]))
    for _ in range(100):  # canonical grids of terms with negative and zero coefficients
        grids.append(sample_step2d(rng))
    assert sum(len(f.xs) == 1 for f in grids) >= 20
    assert max(f.xs[0].denominator.bit_length() for f in grids if f.xs) > 990
    for f in grids:
        for g in (f, transpose(f)):
            assert partial_integrate(g) == reference_partial_integrate(g)
        assert double_integral(f) == reference_double_integral(f)
    assert double_integral(ZERO_2D) == 0 and partial_integrate(one_column) == ZERO_FN


def random_rects(rng: random.Random, bits: int):
    def base():
        coords = random_coordinates(rng, 4, bits)
        pieces = [(coords[0], coords[1], rng.random() < 0.5, rng.random() < 0.5)]
        if rng.random() < 0.5:
            pieces.append((coords[2], coords[3]))
        if rng.random() < 0.2:
            pieces = [(coords[0], coords[0])]  # a point: measure zero
        return iset_make(pieces)

    return [(base(), base()) for _ in range(rng.randint(0, 6))]


def test_rectset_measure_matches_fraction_loop():
    rng = random.Random(6)
    for k in range(300):
        rects = random_rects(rng, (4, 64, 1000)[k % 3])
        assert rectset_measure(rects) == reference_rectset_measure(rects)


# References: the builders as they were before grids were checked once at
# construction, kept as they were.  The Fraction-sum rasteriser and the
# index-loop transpose share no code with the integer mask sums and the zip
# transpose they check.


def reference_transpose(f: StepFn2D) -> StepFn2D:
    if f.is_zero():
        return ZERO_2D
    nx, ny = len(f.xs), len(f.ys)

    def t(mat, rows, cols):
        return tuple(tuple(mat[r][c] for r in range(rows)) for c in range(cols))

    return StepFn2D(
        f.ys, f.xs,
        t(f.cells, nx - 1, ny - 1), t(f.hlines, nx - 1, ny),
        t(f.vlines, nx, ny - 1), t(f.points, nx, ny),
    )


def _drop_columns(f: StepFn2D) -> StepFn2D:
    """Remove every grid column whose vertical line equals the cells, and
    whose points equal the horizontal lines, on both sides (zero outside the
    grid).  Dropping a column joins two equal sides, so no other column's
    test changes and one pass over the public views is exact."""
    zero_cells, zero_h = (Fraction(0),) * max(0, len(f.ys) - 1), (Fraction(0),) * len(f.ys)
    cells, hlines = [zero_cells, *f.cells, zero_cells], [zero_h, *f.hlines, zero_h]
    kept = [
        i for i in range(len(f.xs))
        if not cells[i] == f.vlines[i] == cells[i + 1]
        or not hlines[i] == f.points[i] == hlines[i + 1]
    ]
    if not kept:
        return ZERO_2D
    right = kept[:-1]  # a kept column's cells reach to the next kept one
    return StepFn2D(
        tuple(f.xs[i] for i in kept), f.ys,
        tuple(cells[i + 1] for i in right), tuple(f.vlines[i] for i in kept),
        tuple(hlines[i + 1] for i in right), tuple(f.points[i] for i in kept),
    )


def reference_step2d_make(terms) -> StepFn2D:
    terms = list(terms)
    if not terms:
        return ZERO_2D
    xs, x_atoms = _axis_atoms(t.base_x for t in terms)
    ys, y_atoms = _axis_atoms(t.base_y for t in terms)
    x_at, x_gap, y_at, y_gap = x_atoms[::2], x_atoms[1::2], y_atoms[::2], y_atoms[1::2]
    sums: dict[int, Fraction] = {}

    def value(mask: int) -> Fraction:
        if mask not in sums:
            sums[mask] = sum(
                (t.coefficient for k, t in enumerate(terms) if mask >> k & 1), Fraction(0)
            )
        return sums[mask]

    def grid(x_masks, y_masks):
        return tuple(tuple(value(mx & my) for my in y_masks) for mx in x_masks)

    raw = StepFn2D(
        tuple(xs), tuple(ys),
        grid(x_gap, y_gap), grid(x_at, y_gap), grid(x_gap, y_at), grid(x_at, y_at),
    )
    return reference_transpose(_drop_columns(reference_transpose(_drop_columns(raw))))


def reference_slice_at(f: StepFn2D, y) -> StepFn:
    y = Fraction(y)
    if f.is_zero() or y < f.ys[0] or y > f.ys[-1]:
        return ZERO_FN
    j = bisect_right(f.ys, y) - 1
    if f.ys[j] == y:
        ovals = [f.hlines[i][j] for i in range(len(f.xs) - 1)]
        pvals = [f.points[i][j] for i in range(len(f.xs))]
    else:
        ovals = [f.cells[i][j] for i in range(len(f.xs) - 1)]
        pvals = [f.vlines[i][j] for i in range(len(f.xs))]
    return step_from_values(f.xs, ovals, pvals)


def random_terms(rng: random.Random, bits: int, count: int) -> list[RectTerm]:
    """``count`` terms with signed, zero and ``bits``-bit coefficients; a
    fifth of them is followed by its negation, so some atoms sum to zero."""
    terms = []
    while len(terms) < count:
        a, b = sample_interval_set(rng, 2), sample_interval_set(rng, 2)
        if a.is_empty() or b.is_empty():
            continue
        c = random_rational(rng, bits)
        terms.append(RectTerm(c, a, b))
        if rng.random() < 0.2:
            terms.append(RectTerm(-c, a, b))
    return terms


def test_step2d_make_matches_fraction_sums():
    rng = random.Random(8)
    cancelled = 0
    for k in range(330):
        count, bits = rng.randint(1, 8), (3, 64, 1000)[k % 3]
        if k % 50 == 1:  # masks past 64 bits, with coefficients the reference sums quickly
            count, bits = 70, 64
        terms = random_terms(rng, bits, count)
        f = step2d_make(terms)
        assert f == reference_step2d_make(terms)
        cancelled += f.is_zero()
    assert cancelled > 0
    assert step2d_make([]) == reference_step2d_make([]) == ZERO_2D


def test_slice_at_matches_step_from_values():
    # partial_integrate's step_from_values reference is
    # reference_partial_integrate in test_integer_kernels_match_fraction_loops
    rng = random.Random(9)
    grids = [random_raw_grid(rng, (4, 64, 1000)[k % 3], (3, 64)[k % 2]) for k in range(150)]
    grids += [sample_step2d(rng) for _ in range(100)]
    checked = 0
    for f in grids:
        ys = list(f.ys) + [(a + b) / 2 for a, b in zip(f.ys, f.ys[1:])]
        ys += [f.ys[0] - 1, f.ys[-1] + 1] if f.ys else [Fraction(0)]
        for y in ys:
            assert slice_at(f, y) == reference_slice_at(f, y)
            checked += 1
    assert checked > 2000


def test_slice_integrals_match_phi_of_slice_at():
    # fubini_check locates and integrates each section on the grid's
    # integers; phi_S(slice_at(f, y)) is the path through StepFn, and
    # reference_slice_at locates y by Fraction comparisons
    rng = random.Random(15)
    grids = [sample_step2d(rng) for _ in range(60)]
    grids += [random_raw_grid(rng, 1000, (1000, 64)[k % 2]) for k in range(20)]
    grids.append(ZERO_2D)
    tiny = Fraction(1, 10**300)
    checked = 0
    for f in grids:
        ys = [Fraction(0), Fraction(-7, 3), Fraction(-(10**40), 10**40 + 1)]
        if f.ys:
            lo, hi = f.ys[0], f.ys[-1]
            ys += list(f.ys) + [(a + b) / 2 for a, b in zip(f.ys, f.ys[1:])]
            ys += [lo - tiny, hi + tiny, lo + tiny, hi - tiny, -abs(lo), -abs(hi)]
            ys += [lo + (hi - lo) * Fraction(rng.randrange(1, 2**200), 2**200 + 1) for _ in range(4)]
        report = fubini_check(f, ys)
        assert report.ok and [s[0] for s in report.slices] == ys
        for y, _, along in report.slices:
            assert along == phi_S(slice_at(f, y))
            assert slice_at(f, y) == reference_slice_at(f, y)
            checked += 1
    assert checked > 1500


def test_slice_check_catches_a_wrong_partial_integral(monkeypatch):
    # F_X(f)(y) = phi_X(slice) stays a check: the slice integral does not
    # reuse partial_integrate, so a wrong F_X fails exactly where it is wrong
    true_fx = partial_integrate

    def lines_and_strips_swapped(f):
        fx = true_fx(f)
        if not fx.breakpoints:
            return fx
        bps = fx.breakpoints
        return step_from_values(bps, fx.point_values[:-1], [*fx.open_values, fx.point_values[-1]])

    def one_value_changed(f):
        fx = true_fx(f)
        if not fx.open_values:
            return fx
        opens = list(fx.open_values)
        opens[len(opens) // 2] += 1
        return step_from_values(fx.breakpoints, opens, fx.point_values)

    rng = random.Random(16)
    for wrong in (lines_and_strips_swapped, one_value_changed):
        monkeypatch.setattr(fubini, "partial_integrate", wrong)
        caught = 0
        for _ in range(40):
            f = sample_step2d(rng)
            ys = sample_ys(f, rng, 30)
            report = fubini_check(f, ys)
            bad = [y for y in ys if wrong(f)(y) != true_fx(f)(y)]
            record = report.to_dict()["F_X(f)(y) = phi_X(slice)"]
            assert record["fail"] == len(bad)
            if bad:
                assert record["counterexample"].startswith(f"y={bad[0]} ")
                caught += 1
        assert caught > 10


def _zeros(rows: int, cols: int):
    return ((Fraction(0),) * cols,) * rows


def _grid(xs, ys) -> StepFn2D:
    nx, ny = len(xs), len(ys)
    return StepFn2D(
        tuple(map(Fraction, xs)), tuple(map(Fraction, ys)),
        _zeros(nx - 1, ny - 1), _zeros(nx, ny - 1), _zeros(nx - 1, ny), _zeros(nx, ny),
    )


@pytest.mark.parametrize(
    "xs, ys",
    [
        ((0, 0), (0, 1)),
        ((1, 0), (0, 1)),
        ((0, 1), (2, 2)),
        ((0, 1), (3, 2)),
        ((0, 1, 1), (5,)),
        ((7,), (0, 2, 1)),
    ],
)
def test_grid_coordinates_must_strictly_increase(xs, ys):
    with pytest.raises(ValueError, match="must be strictly increasing"):
        _grid(xs, ys)
    _grid(sorted(set(xs)), sorted(set(ys)))  # the same shape in order is accepted


@pytest.mark.parametrize("xs, ys", [((0,), ()), ((), (0,))], ids=["x-only", "y-only"])
def test_grid_needs_lines_on_both_axes_or_neither(xs, ys):
    with pytest.raises(ValueError, match="lines on both axes or on neither"):
        _grid(xs, ys)


def test_transpose_matches_index_loop_on_thin_grids():
    rng = random.Random(10)

    def values(rows, cols):
        return tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(cols)) for _ in range(rows))

    def raw(nx, ny):
        return StepFn2D(
            tuple(map(Fraction, range(nx))), tuple(map(Fraction, range(ny))),
            values(nx - 1, ny - 1), values(nx, ny - 1), values(nx - 1, ny), values(nx, ny),
        )

    grids = [raw(1, 1), raw(1, 2), raw(1, 6), raw(2, 1), raw(6, 1), ZERO_2D]
    grids += [random_raw_grid(rng, 4, 3) for _ in range(100)]
    for f in grids:
        t = transpose(f)
        assert t == reference_transpose(f)
        assert transpose(t) == f


def reference_value(f: StepFn2D, x: Fraction, y: Fraction) -> Fraction:
    """``f(x, y)`` located by bisects over the ``Fraction`` coordinates."""
    if f.is_zero() or not (f.xs[0] <= x <= f.xs[-1] and f.ys[0] <= y <= f.ys[-1]):
        return Fraction(0)
    i, j = bisect_right(f.xs, x) - 1, bisect_right(f.ys, y) - 1
    if f.xs[i] == x:
        return (f.points if f.ys[j] == y else f.vlines)[i][j]
    return (f.hlines if f.ys[j] == y else f.cells)[i][j]


def test_sections_and_values_on_one_line_grids():
    # with one x line or one y line, cells and one line matrix have no rows,
    # and the row-major matrices are made from them; on the last grid all
    # coordinates of an axis share one 64-bit key, so each is located exactly
    rng = random.Random(19)
    tiny = Fraction(1, 2**200)

    def values(rows, cols, spread):
        return tuple(tuple(Fraction(rng.randint(-spread, spread)) for _ in range(cols))
                     for _ in range(rows))

    def raw(nx, ny, spread):
        xs = tuple(Fraction(rng.randint(-9, 9), 7) + 3 * k for k in range(nx))
        ys = tuple(Fraction(rng.randint(-9, 9), 5) + 4 * k for k in range(ny))
        return StepFn2D(xs, ys, values(nx - 1, ny - 1, spread), values(nx, ny - 1, spread),
                        values(nx - 1, ny, spread), values(nx, ny, spread))

    def probes(cs):
        out = [*cs, *((a + b) / 2 for a, b in zip(cs, cs[1:])), Fraction(0)]
        return out + [c + e for c in (cs[0], cs[-1]) for e in (-1, -tiny, tiny, 1)]

    shapes = [(1, 1), (1, 2), (1, 5), (2, 1), (5, 1), (3, 4)]
    grids = [raw(nx, ny, spread) for nx, ny in shapes for spread in (1, 10**6)]
    close = tuple(Fraction(1, 3) + Fraction(j, 2**80) for j in range(3))
    grids.append(StepFn2D(close, close[:2], values(2, 1, 9), values(3, 1, 9),
                          values(2, 2, 9), values(3, 2, 9)))
    checked = 0
    for f in grids:
        for y in probes(f.ys):
            want = reference_slice_at(f, y)
            assert slice_at(f, y) == want
            kept, atoms = fubini._section_row(f, y)
            assert [f.xs[k] for k in kept] == list(want.breakpoints)
            assert [f._frac[atoms[2 * k]] for k in kept] == list(want.point_values)
            assert [f._frac[atoms[2 * k + 1]] for k in kept[:-1]] == list(want.open_values)
            for x in probes(f.xs):
                assert f(x, y) == reference_value(f, x, y), (x, y)
                checked += 1
        assert transpose(f) == reference_transpose(f)
    assert ZERO_2D(0, 0) == 0 and fubini._section_row(ZERO_2D, Fraction(0)) == ([], ())
    assert checked > 1500


# The integer view: every grid also holds its values as integer numerators
# over one denominator, and the kernels compute on those.


def assert_integer_view(f: StepFn2D) -> None:
    den, atoms, nx, ny = f._den, f._atoms, len(f.xs), len(f.ys)
    assert type(den) is int and den > 0
    assert len(atoms) == max(0, 2 * nx - 1) and all(len(row) == 2 * ny - 1 for row in atoms)
    numerators = [n for row in atoms for n in row]
    assert all(type(n) is int for n in numerators)
    assert math.gcd(den, *numerators) == 1
    # atom 2i of an axis is coordinate i, atom 2i + 1 the open gap right of it
    for name, p, q in (("cells", 1, 1), ("vlines", 0, 1), ("hlines", 1, 0), ("points", 0, 0)):
        view = getattr(f, name)
        assert len(view) == max(0, nx - p) and all(len(row) == ny - q for row in view), name
        assert [list(row) for row in view] == [
            [Fraction(n, den) for n in row[q::2]] for row in atoms[p::2]
        ], name


def test_integer_view_holds_the_values():
    rng = random.Random(12)
    big = Fraction(3**630 + 1, 2**999 + 7)  # 1,000-bit numerator and denominator
    one_line = StepFn2D(  # one grid line along y: no cells, no vertical lines
        (Fraction(0), Fraction(1)), (Fraction(5, 7),),
        ((),), ((), ()), ((big,),), ((-big,), (big / 3,)),
    )
    column = step2d_make([rect_term(big, [(2, 2)], [(0, 1)])])
    grids = [ZERO_2D, one_line, transpose(one_line), column, transpose(column)]
    for k in range(90):
        f = step2d_make(random_terms(rng, (3, 64, 1000)[k % 3], rng.randint(1, 8)))
        grids += [f, transpose(f)]
    for k in range(60):
        raw = random_raw_grid(rng, (4, 64, 1000)[k % 3], (3, 64)[k % 2])
        grids += [raw, transpose(raw), _drop_columns(raw), _canonical_2d(raw)]
    assert len(column.xs) == 1 and sum(len(f.ys) == 1 for f in grids) >= 10
    assert max(abs(v.numerator).bit_length() for f in grids for r in f.cells for v in r) > 990
    for f in grids:
        assert_integer_view(f)


def test_fraction_views_are_the_constructor_matrices():
    # the constructor interleaves its four matrices into one atom matrix, and
    # the views slice them back out: each comes back as it went in
    rng = random.Random(21)
    shapes = [(0, 0), (1, 1), (1, 4), (4, 1)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(40)]
    for nx, ny in shapes:
        mats = [
            tuple(tuple(random_rational(rng, 64) for _ in range(cols)) for _ in range(rows))
            for rows, cols in ((nx - 1, ny - 1), (nx, ny - 1), (nx - 1, ny), (nx, ny))
        ]
        f = StepFn2D(tuple(map(Fraction, range(nx))), tuple(map(Fraction, range(ny))), *mats)
        assert [f.cells, f.vlines, f.hlines, f.points] == mats, (nx, ny)


def test_grids_over_different_denominators_are_equal():
    thirds = [
        rect_term(Fraction(1, 3), [(0, 1)], [(0, 2)]),
        rect_term(Fraction(2, 3), [(0, 1)], [(0, 2)]),
        rect_term(Fraction(5, 6), [(1, 3)], [(1, 2, False, True)]),
        rect_term(Fraction(1, 6), [(1, 3)], [(1, 2, False, True)]),
    ]
    f, g = step2d_make(thirds), reference_step2d_make(thirds)
    assert (f._den, g._den) == (1, 1) and f._atoms == g._atoms
    assert f == g and hash(f) == hash(g) and {f: 1}[g] == 1
    rng = random.Random(13)
    for k in range(30):
        terms = random_terms(rng, (3, 64, 1000)[k % 3], rng.randint(1, 6))
        f, g = step2d_make(terms), reference_step2d_make(terms)
        assert f == g and hash(f) == hash(g)
        assert transpose(f) == transpose(g) and hash(transpose(f)) == hash(transpose(g))


def test_fraction_matrices_are_read_only_views_made_on_demand():
    rng = random.Random(14)
    f = step2d_make(random_terms(rng, 64, 6))
    assert not f.is_zero() and fubini_check(f, sample_ys(f, rng, 20)).ok
    assert not {"cells", "vlines", "hlines", "points"} & set(vars(f))
    assert f.cells is f.cells
    with pytest.raises(AttributeError):
        f.cells = ()


def test_fubini_check_passes_past_the_integer_digit_limit():
    # the passing integrals have 4,401 digits, past the interpreter's default
    # limit of 4,300 for converting an int to a string
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        f = step2d_make([rect_term(Fraction(10**4400 + 1, 3), [(0, 1)], [(0, 2)])])
        report = fubini_check(f, [1])
    finally:
        sys.set_int_max_str_digits(old)
    assert report.ok
    assert report.lhs == report.rhs == report.lhs_y_first == Fraction(2 * (10**4400 + 1), 3)
    assert report.slices == [(1, Fraction(10**4400 + 1, 3), Fraction(10**4400 + 1, 3))]


def test_fubini_check_witnesses_of_failures(monkeypatch):
    f = step2d_make([rect_term(2, [(0, 3)], [(1, 2)])])
    monkeypatch.setattr(fubini, "double_integral", lambda f: Fraction(7))
    monkeypatch.setattr(fubini, "_section_row", lambda f, y: ([], []))  # a zero section
    report = fubini_check(f, sampled_y=[Fraction(3, 2), 5])
    assert report.to_dict() == {
        "phi_Y o F_X = mu_XY": {"pass": 0, "fail": 1, "counterexample": "lhs=6 rhs=7"},
        "y-first order agrees": {"pass": 0, "fail": 1, "counterexample": "lhs=6 rhs=7"},
        "F_X(f)(y) = phi_X(slice)": {
            "pass": 1, "fail": 1, "counterexample": "y=3/2 fx=6 slice-integral=0"
        },
    }


# --- the running mask of _axis_atoms against membership probes --------------


def probed_axis_atoms(sets: list[IntervalSet]) -> tuple[list[Fraction], list[int]]:
    """``_axis_atoms`` from membership alone: the sorted endpoints, and per
    grid point and gap midpoint the sum of ``1 << t`` over the sets ``t``
    that contain it."""
    grid = sorted({e for s in sets for e in s.endpoints()})
    probes = [q for a, b in zip(grid, grid[1:]) for q in (a, (a + b) / 2)] + grid[-1:]
    masks = [sum(1 << t for t, s in enumerate(sets) if s.contains(q)) for q in probes]
    return grid, masks


def test_axis_atoms_match_membership_masks():
    rng = random.Random(17)
    for k in range(300):
        sets = []
        for _ in range(rng.choice((1, 2, 4, 12, 40))):
            pieces = []
            for _ in range(rng.randint(1, 3)):
                lo = Fraction(rng.randint(-6, 6), 3)
                hi = lo + Fraction(rng.choice((0, 1, 2, 4)), 3)
                closed = [rng.random() < 0.5 or lo == hi for _ in range(2)]
                pieces.append((lo, hi, *closed))
            sets.append(iset_make(pieces))
        assert _axis_atoms(sets) == probed_axis_atoms(sets), sets
    assert _axis_atoms([]) == ([], [])
