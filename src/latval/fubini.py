"""The algebraic half of Fubini: rectangle ring, product measure, 2-D step
functions, partial integration, and the exact double-integral identity.

A 2-D step function is stored on the full grid refinement of its rectangle
terms: one value per open cell, plus values on the measure-zero grid lines
and grid points so sections through a grid line stay exact.  Integrals
ignore the line and point values, mirroring the 1-D convention.

Each axis is classified by the sweep kernel of :mod:`latval.intervals`: one
merge of the terms' base-set breakpoints gives the grid and, per grid point,
the bitmasks of the terms containing it and the open gap right of it.  Each
distinct x mask is rastered into a row once per y axis.  The canonical grid
drops a grid line where its values equal the cells on both sides; seen along
one axis, a column is a breakpoint whose values are vectors, so the 1-D
canonicaliser removes all redundant columns in one pass, and then all rows.

A grid stores its values once, as integer numerators over one denominator
whose gcd with all of them is 1, so equal grids have equal state.
The kernels sum, compare and dot integers and make a ``Fraction`` only for
what they return.  A sampled section is located on the integer coordinates,
read from one row of the row-major matrices a grid keeps once made, and
integrated on the integers too.  A grid is checked once, when ``StepFn2D`` is
built from ``Fraction`` matrices; what is made from it is not checked again.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import count
from operator import mul
from typing import Iterable, Sequence

from .instances import mu_S, phi_S, sample_interval_set
from .intervals import IntervalSet, _canonical_breaks, _sweep, _trusted
from .intervals import iset_from_json, iset_make
from .oag import rat
from .report import CheckReport
from .stepfn import StepFn, ZERO_FN, _locate, _over_lcm, _widths

ZERO = Fraction(0)

Matrix = tuple[tuple, ...]


def mu_XY(a: IntervalSet, b: IntervalSet) -> Fraction:
    """Product measure of the rectangle a x b."""
    return mu_S(a) * mu_S(b)


@dataclass(frozen=True)
class RectTerm:
    coefficient: Fraction
    base_x: IntervalSet
    base_y: IntervalSet

    def __post_init__(self):
        if self.base_x.is_empty() or self.base_y.is_empty():
            raise ValueError("rectangle terms need nonempty base sets")


def rect_term(coefficient, xs, ys) -> RectTerm:
    return RectTerm(rat(coefficient), iset_make(xs), iset_make(ys))


def _axis_atoms(sets: Iterable[IntervalSet]) -> tuple[list[Fraction], list[int], list[int]]:
    """The grid of the sets' endpoints and, per grid point, the bitmasks of
    the sets containing the point and the open gap right of it.  Set ``t``
    is swept with its bit ``1 << t`` for in and 0 for out, so a mask is a sum."""
    operands = [[(x, at << t, gap << t) for x, at, gap in s._breaks] for t, s in enumerate(sets)]
    grid, at_masks, gap_masks = [], [], []
    for x, at, after in _sweep(operands, 0):
        grid.append(x)
        at_masks.append(sum(at))
        gap_masks.append(sum(after))
    return grid, at_masks, gap_masks


class _Memo(dict):
    """``fn`` with its results kept: a missing key is computed once."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


# A grid's value matrices as integer numerators over ``den > 0``.
_Ints = namedtuple("_Ints", "den cells vlines hlines points")


def _map(fn, mat: Matrix) -> Matrix:
    """``fn`` of every value of ``mat``, in tuples made from lists (see ``_pick``)."""
    return tuple([tuple([fn(v) for v in row]) for row in mat])


@dataclass(frozen=True, init=False)
class StepFn2D:
    """Grid-canonical 2-D step function.

    ``xs``/``ys`` are the grid coordinates.  ``cells[i][j]`` is the value on
    the open cell, ``vlines[i][j]`` on {xs[i]} x (ys[j], ys[j+1]),
    ``hlines[i][j]`` on (xs[i], xs[i+1]) x {ys[j]}, ``points[i][j]`` at the
    grid point.  Zero outside the bounding box; the grid is minimal.  Only
    ``_ints`` holds the values, so ``==`` and ``hash`` compare integers; the
    four ``Fraction`` matrices are read-only views made on first use.
    """

    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]
    _ints: _Ints

    cells, vlines, hlines, points = (
        cached_property(lambda f, k=k: _map(f._frac.__getitem__, f._ints[k])) for k in range(1, 5)
    )

    def __init__(self, xs, ys, cells: Matrix, vlines: Matrix, hlines: Matrix, points: Matrix):
        """The checked entry point, from ``Fraction`` matrices."""
        nx, ny = len(xs), len(ys)
        if (nx == 0) != (ny == 0):
            raise ValueError(f"a {nx}x{ny} grid needs lines on both axes or on neither")
        mats = cells, vlines, hlines, points
        cx, cy = max(0, nx - 1), max(0, ny - 1)
        shapes = zip(_Ints._fields[1:], mats, (cx, nx, cx, nx), (cy, cy, ny, ny))
        for name, mat, rows, cols in shapes:
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise ValueError(f"inconsistent {name} shape for a {nx}x{ny} grid")
        if any(a >= b for c in (xs, ys) for a, b in zip(c, c[1:])):
            raise ValueError("grid coordinates must be strictly increasing")
        # An lcm of reduced denominators is already canonical.
        den = math.lcm(*{v.denominator for m in mats for row in m for v in row})
        num = _Memo(lambda v: v[0] * (den // v[1])).__getitem__  # Fraction hashes are slow
        ints = [_map(lambda v: num((v.numerator, v.denominator)), m) for m in mats]
        self.__dict__.update(xs=xs, ys=ys, _ints=_Ints(den, *ints))

    @cached_property
    def _frac(self) -> _Memo:
        """``n -> Fraction(n, den)``, each numerator converted once."""
        den = self._ints.den
        return _Memo(lambda n: Fraction(n, den))

    @cached_property
    def _axes(self) -> tuple:
        """``(xn, xd, yn, yd)``: each axis as integer numerators over one denominator."""
        return (*_over_lcm(self.xs), *_over_lcm(self.ys))

    @cached_property
    def _rows(self) -> tuple[Matrix, ...]:
        """The integer matrices row by row: ``cells``, ``hlines``, ``vlines``
        and ``points`` with ``y`` as the first index."""
        return _transposed(self._ints[1:], len(self.ys))

    def __call__(self, x, y) -> Fraction:
        xn, xd, yn, yd = self._axes
        at_x, at_y = _locate(xn, xd, rat(x)), _locate(yn, yd, rat(y))
        if at_x is None or at_y is None:
            return ZERO
        (i, on_x), (j, on_y) = at_x, at_y
        mat = self._ints[1 + on_x + 2 * on_y]  # cells, vlines, hlines or points
        return self._frac[mat[i][j]]

    def is_zero(self) -> bool:
        return not self.xs


ZERO_2D = StepFn2D((), (), (), (), (), ())


def _grid(xs: tuple, ys: tuple, den: int, mats: Sequence[Matrix]) -> StepFn2D:
    """A ``StepFn2D`` made from a checked grid, not checked again, with the
    common factor of ``den`` and the numerators divided out.  The factor is
    a running gcd over the distinct numerators that stops at 1, and each
    distinct numerator is divided once."""
    g = den
    if den > 1:
        for n in {n for m in mats for row in m for n in row}:
            g = math.gcd(g, n)
            if g == 1:
                break
    if g > 1:
        div = _Memo(lambda n: n // g).__getitem__
        mats = [_map(div, m) for m in mats]
    return _trusted(StepFn2D, xs=xs, ys=ys, _ints=_Ints(den // g, *mats))


def _pick(seq: Sequence, indices: Iterable[int]) -> tuple:
    """``seq`` at ``indices``.  The tuple is made from a list: one made from
    an iterator of unknown length is resized as it fills, and small ones made
    so pile up in the interpreter's free lists once freed, a few MB of peak
    memory over many calls."""
    return tuple([seq[i] for i in indices])


def _kept(at: Iterable, right: Iterable, zero) -> list[int]:
    """The indices of the breakpoints ``_canonical_breaks`` keeps, from the
    values at each and right of each but the last (``zero`` follows it)."""
    return [k for k, _, _ in _canonical_breaks(zip(count(), at, [*right, zero]), zero)]


def _kept_columns(mats: Sequence[Matrix], ny: int) -> list[int]:
    """The indices of the columns that are not redundant.  Along x a column
    is a breakpoint with vector values: its line and points at x, its cells
    and horizontal lines right of x."""
    cells, vlines, hlines, points = mats
    return _kept(zip(vlines, points), zip(cells, hlines), ((0,) * (ny - 1), (0,) * ny))


def _columns(mats: Sequence[Matrix], kept: list[int]) -> tuple[Matrix, ...]:
    """The four matrices on the ``kept`` columns.  A dropped column repeats
    the cells left of it, so a kept column's cells and horizontal lines reach
    to the next kept column, and none follow the last."""
    cells, vlines, hlines, points = mats
    cut = kept[:-1]
    return _pick(cells, cut), _pick(vlines, kept), _pick(hlines, cut), _pick(points, kept)


def _transposed(mats: Sequence[Matrix], ny: int) -> tuple[Matrix, ...]:
    """The four matrices of the transposed grid, for a grid of ``ny`` rows."""
    cells, vlines, hlines, points = mats

    def t(mat, cols):  # a matrix with no rows transposes to ``cols`` empty rows
        return tuple(zip(*mat)) or ((),) * cols

    return t(cells, ny - 1), t(hlines, ny), t(vlines, ny - 1), t(points, ny)


def _canonical_2d(f: StepFn2D) -> StepFn2D:
    """The minimal grid of ``f``: redundant columns go, then redundant rows
    (the columns of the transpose).  Dropping a line leaves every other
    line's test as it was, so neither pass needs to look again."""
    xs, ys, mats = f.xs, f.ys, f._ints[1:]
    for _ in "xy":
        kept = _kept_columns(mats, len(ys))
        if not kept:
            return ZERO_2D
        mats = _transposed(_columns(mats, kept), len(ys))
        xs, ys = ys, _pick(xs, kept)
    return _grid(xs, ys, f._ints.den, mats)


def step2d_make(terms: Iterable[RectTerm]) -> StepFn2D:
    """Sum of coefficient times rectangle indicators, on the refined grid.

    Every atom of the union grid of all base-set endpoints gets the sum of
    the coefficients of the terms whose rectangle contains it; cancellations
    fall out of the canonical minimization.
    """
    terms = list(terms)
    xs, x_at, x_gap = _axis_atoms(t.base_x for t in terms)
    ys, y_at, y_gap = _axis_atoms(t.base_y for t in terms)
    nums, den = _over_lcm([t.coefficient for t in terms])

    def mask_sum(mask: int) -> int:
        total = 0
        while mask:
            low = mask & -mask
            total += nums[low.bit_length() - 1]
            mask ^= low
        return total

    value = _Memo(mask_sum).__getitem__
    x_gap, y_gap = x_gap[:-1], y_gap[:-1]  # nothing is right of the last line
    # Each distinct x mask is rastered once per y axis: many masks repeat.
    gap_row = _Memo(lambda mx: tuple(map(value, map(mx.__and__, y_gap))))
    at_row = _Memo(lambda mx: tuple(map(value, map(mx.__and__, y_at))))
    cells, vlines = _pick(gap_row, x_gap), _pick(gap_row, x_at)
    ints = _Ints(den, cells, vlines, _pick(at_row, x_gap), _pick(at_row, x_at))
    return _canonical_2d(_trusted(StepFn2D, xs=tuple(xs), ys=tuple(ys), _ints=ints))


def _section(bps: Sequence[Fraction], kept: list[int], open_value, point_value) -> StepFn:
    """The unchecked step function on ``bps[k]`` for ``k`` in ``kept``, with
    ``point_value(k)`` at and ``open_value(k)`` right of each but the last."""
    if not kept:
        return ZERO_FN
    return _trusted(
        StepFn,
        breakpoints=_pick(bps, kept),  # tuples from lists, as in _pick
        open_values=tuple([open_value(k) for k in kept[:-1]]),
        point_values=tuple([point_value(k) for k in kept]),
    )


def _integrate_across(
    across: Sequence[int], wd: int, along: tuple, strips: Iterable, lines: Iterable, den: int
) -> StepFn:
    """The step function on ``along`` whose value on each open strip and at
    each line is the integral across the coordinates ``across / wd`` of its
    integer values over ``den``: integer dot products with the widths, and a
    ``Fraction`` for each breakpoint kept."""
    if len(across) < 2:  # no measure anywhere
        return ZERO_FN
    widths = _widths(across)
    ovals = [sum(map(mul, strip, widths)) for strip in strips]
    pvals = [sum(map(mul, line, widths)) for line in lines]
    d, kept = den * wd, _kept(pvals, ovals, 0)
    return _section(along, kept, lambda k: Fraction(ovals[k], d), lambda k: Fraction(pvals[k], d))


def partial_integrate(f: StepFn2D) -> StepFn:
    """Integrate out x: a 1-D step function of y, exact.

    On each open y-strip the section in x is a step function with the cell
    values; on each grid line it has the horizontal-line values.  Point and
    vertical-line values carry no x-measure and drop out.
    """
    (xn, xd, _, _), (cells, hlines, _, _) = f._axes, f._rows
    return _integrate_across(xn, xd, f.ys, cells, hlines, f._ints.den)


def _section_row(f: StepFn2D, y: Fraction) -> tuple[list[int], tuple, tuple]:
    """The section x -> f(x, y) on the grid's integers: the columns ``_kept``
    keeps, and the numerators right of and at each column, read from one
    row of the row-major matrices."""
    _, _, yn, yd = f._axes
    where = _locate(yn, yd, y)
    if where is None:  # outside the grid, or no grid
        return [], (), ()
    j, on_line = where
    cells, hlines, vlines, points = f._rows
    opens, at = (hlines[j], points[j]) if on_line else (cells[j], vlines[j])
    return _kept(at, opens, 0), opens, at


def slice_at(f: StepFn2D, y) -> StepFn:
    """The exact section x -> f(x, y)."""
    kept, opens, at = _section_row(f, rat(y))
    return _section(f.xs, kept, lambda k: f._frac[opens[k]], lambda k: f._frac[at[k]])


def double_integral(f: StepFn2D) -> Fraction:
    """Direct cell sum: coefficient times area, lines and points ignored."""
    xn, xd, yn, yd = f._axes
    ints, heights = f._ints, _widths(yn)
    total = sum(w * sum(map(mul, row, heights)) for w, row in zip(_widths(xn), ints.cells))
    return Fraction(total, ints.den * xd * yd)


def sample_ys(f: StepFn2D, rng: random.Random, count: int) -> list[Fraction]:
    """Sampling grid for slice checks: gridlines, strip midpoints, outside."""
    cands: list[Fraction] = []
    if not f.is_zero():
        cands.extend(f.ys)
        cands.extend((f.ys[j] + f.ys[j + 1]) / 2 for j in range(len(f.ys) - 1))
        cands.append(f.ys[0] - 1)
        cands.append(f.ys[-1] + 1)
    else:
        cands.append(ZERO)
    while len(cands) < count:
        cands.append(Fraction(rng.randint(-40, 40), rng.randint(1, 8)))
    rng.shuffle(cands)
    return cands[:count]


@dataclass
class FubiniReport(CheckReport):
    """The identity check's report with the numbers it compared: ``lhs`` is
    phi_Y(F_X(f)), ``lhs_y_first`` the same with y integrated out first,
    ``rhs`` the direct double integral, and ``slices`` holds
    ``(y, F_X(f)(y), phi_X(slice(f, y)))`` per sampled y."""

    lhs: Fraction = ZERO
    rhs: Fraction = ZERO
    lhs_y_first: Fraction = ZERO
    slices: list[tuple[Fraction, Fraction, Fraction]] = field(default_factory=list)


def fubini_check(f: StepFn2D, sampled_y: Iterable | None = None) -> FubiniReport:
    """phi_Y(F_X(f)) against the direct double integral, plus slice checks.

    Exact rational equality is asserted for the double integral identity in
    both integration orders, and F_X(f)(y) = phi_X(slice(f, y)) is verified
    at every sampled y (gridlines included).  Failures are reported, not
    raised.
    """
    fx = partial_integrate(f)
    lhs, rhs = phi_S(fx), double_integral(f)
    ints, (xn, xd, yn, yd) = f._ints, f._axes
    # partial_integrate(transpose(f)), without the transposed matrices
    lhs_y = phi_S(_integrate_across(yn, yd, f.xs, ints.cells, ints.vlines, ints.den))
    report = FubiniReport(lhs=lhs, rhs=rhs, lhs_y_first=lhs_y)
    # A witness is formatted only for a failure: str() of a passing integral
    # may be past the interpreter's limit on integer digits.
    for name, left in (("phi_Y o F_X = mu_XY", lhs), ("y-first order agrees", lhs_y)):
        report.record(name, left == rhs, "" if left == rhs else f"lhs={left} rhs={rhs}")

    # phi_X(slice): kept columns times merged widths, not partial_integrate's sums
    for y in sampled_y or ():
        y = rat(y)
        kept, opens, _ = _section_row(f, y)
        merged = sum(opens[a] * (xn[b] - xn[a]) for a, b in zip(kept, kept[1:]))
        at, along = fx(y), Fraction(merged, ints.den * xd)
        report.slices.append((y, at, along))
        witness = "" if at == along else f"y={y} fx={at} slice-integral={along}"
        report.record("F_X(f)(y) = phi_X(slice)", at == along, witness)
    return report


def transpose(f: StepFn2D) -> StepFn2D:
    return _grid(f.ys, f.xs, f._ints.den, f._rows)


def rectset_measure(rects: Sequence[tuple[IntervalSet, IntervalSet]]) -> Fraction:
    """Measure of a finite union of rectangles by open-cell decomposition.

    Grid lines have measure zero, so the open cells decide the whole measure
    exactly: a cell is in the union when one rectangle's x-set contains its
    x-gap and the same rectangle's y-set its y-gap.
    """
    if not rects:
        return ZERO
    xs, _, x_gap = _axis_atoms(a for a, _ in rects)
    ys, _, y_gap = _axis_atoms(b for _, b in rects)
    (xn, xd), (yn, yd) = _over_lcm(xs), _over_lcm(ys)
    heights = _widths(yn)
    total = 0
    for w, xmask in zip(_widths(xn), x_gap):
        total += w * sum(h for h, ymask in zip(heights, y_gap) if xmask & ymask)
    return Fraction(total, xd * yd)


_TERM_KEYS = frozenset({"coefficient", "base_x", "base_y"})


def terms_from_json(doc: list) -> list[RectTerm]:
    """Terms of a parsed ``[{"coefficient": "2", "base_x": [...], "base_y": [...]}, ...]``."""
    if not isinstance(doc, list):
        raise TypeError(f"expected a list of rectangle terms, got {type(doc).__name__}")
    base = iset_from_json
    terms = [RectTerm(rat(t["coefficient"]), base(t["base_x"]), base(t["base_y"])) for t in doc]
    for t in doc:  # each a dict, since its three keys were read
        if not t.keys() <= _TERM_KEYS:
            raise ValueError(f"unknown keys {sorted(t.keys() - _TERM_KEYS)} in a rectangle term")
    return terms


def sample_step2d(
    rng: random.Random, max_terms: int = 10, max_breaks_per_axis: int = 16
) -> StepFn2D:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        a = sample_interval_set(rng, max_pieces=2)
        b = sample_interval_set(rng, max_pieces=2)
        if a.is_empty() or b.is_empty():
            continue
        terms.append(RectTerm(Fraction(rng.randint(-4, 4)), a, b))
    while True:
        f = step2d_make(terms)
        if len(f.xs) <= max_breaks_per_axis and len(f.ys) <= max_breaks_per_axis:
            return f
        terms = terms[:-1]
