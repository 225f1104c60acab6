"""The algebraic half of Fubini: rectangle ring, product measure, 2-D step
functions, partial integration, and the exact double-integral identity.

A 2-D step function is stored on the full grid refinement of its rectangle
terms: one value per open cell, plus values on the measure-zero grid lines
and grid points so sections through a grid line stay exact.  Integrals
ignore the line and point values, mirroring the 1-D convention.

Each axis is classified by the sweep kernel of :mod:`latval.intervals`: one
merge of the terms' base-set breakpoints gives the grid and, for every term,
the point and open-gap atoms its base set contains.  The canonical grid drops
a grid line where its values equal the cells on both sides; seen along one
axis, a column is a breakpoint whose values are vectors, so the 1-D
canonicaliser removes all redundant columns in one pass, and then all rows.

Sums accumulate in integers: term coefficients, the coordinates of an axis,
and the values along one strip or grid line become numerators over their
least common denominator, so an atom's coefficient sum, or a sum of value
times width, is an integer sum (zero values skipped) that builds one
``Fraction``.  A grid is checked once, when ``StepFn2D`` is built (matrix
shapes, strictly increasing coordinates); its sections and partial integrals
go straight to the 1-D canonicaliser, not parsed or checked again.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .instances import mu_S
from .intervals import IntervalSet, _breaks, _canonical_breaks, _sweep, iset_from_json, iset_make
from .oag import rat
from .report import CheckReport
from .stepfn import StepFn, ZERO_FN, _canonical, _dot, _over_lcm, _widths
from .instances import phi_S

ZERO = Fraction(0)


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
    the sets containing the point and the open gap right of it."""
    grid: list[Fraction] = []
    at_masks: list[int] = []
    gap_masks: list[int] = []
    for x, at, after in _sweep([_breaks(s) for s in sets], False):
        grid.append(x)
        at_masks.append(sum(1 << t for t, x_in in enumerate(at) if x_in))
        gap_masks.append(sum(1 << t for t, gap_in in enumerate(after) if gap_in))
    return grid, at_masks, gap_masks


@dataclass(frozen=True)
class StepFn2D:
    """Grid-canonical 2-D step function.

    ``xs``/``ys`` are the grid coordinates.  ``cells[i][j]`` is the value on
    the open cell, ``vlines[i][j]`` on {xs[i]} x (ys[j], ys[j+1]),
    ``hlines[i][j]`` on (xs[i], xs[i+1]) x {ys[j]}, ``points[i][j]`` at the
    grid point.  Zero outside the bounding box; the grid is minimal.
    """

    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]
    cells: tuple[tuple[Fraction, ...], ...]
    vlines: tuple[tuple[Fraction, ...], ...]
    hlines: tuple[tuple[Fraction, ...], ...]
    points: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        nx, ny = len(self.xs), len(self.ys)
        shapes = {
            "cells": (self.cells, max(0, nx - 1), max(0, ny - 1)),
            "vlines": (self.vlines, nx, max(0, ny - 1)),
            "hlines": (self.hlines, max(0, nx - 1), ny),
            "points": (self.points, nx, ny),
        }
        for name, (mat, rows, cols) in shapes.items():
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise ValueError(f"inconsistent {name} shape for a {nx}x{ny} grid")
        if any(a >= b for c in (self.xs, self.ys) for a, b in zip(c, c[1:])):
            raise ValueError("grid coordinates must be strictly increasing")

    def __call__(self, x, y) -> Fraction:
        x, y = rat(x), rat(y)
        xs, ys = self.xs, self.ys
        if not xs or x < xs[0] or x > xs[-1] or y < ys[0] or y > ys[-1]:
            return ZERO
        from bisect import bisect_right

        i = bisect_right(xs, x) - 1
        j = bisect_right(ys, y) - 1
        on_x = xs[i] == x
        on_y = ys[j] == y
        if on_x and on_y:
            return self.points[i][j]
        if on_x:
            return self.vlines[i][j]
        if on_y:
            return self.hlines[i][j]
        return self.cells[i][j]

    def is_zero(self) -> bool:
        return not self.xs


ZERO_2D = StepFn2D((), (), (), (), (), ())


def _drop_columns(f: StepFn2D) -> StepFn2D:
    """Remove every grid column whose vertical line equals the cells, and
    whose points equal the horizontal lines, on both sides.  Along x a column
    is a breakpoint with vector values: its line and points at x, its cells
    and horizontal lines right of x."""
    if not (f.xs and f.ys):
        return ZERO_2D
    zero = ((ZERO,) * (len(f.ys) - 1), (ZERO,) * len(f.ys))
    right = [*zip(f.cells, f.hlines), zero]
    kept = _canonical_breaks(zip(f.xs, zip(f.vlines, f.points), right), zero)
    if not kept:
        return ZERO_2D
    xs, at, right = zip(*kept)
    vlines, points = zip(*at)
    cells, hlines = zip(*right[:-1]) if len(right) > 1 else ((), ())
    return StepFn2D(xs, f.ys, cells, vlines, hlines, points)


def _canonical_2d(f: StepFn2D) -> StepFn2D:
    """The minimal grid: redundant columns go, then redundant rows (the
    columns of the transpose).  Dropping a line leaves every other line's
    test as it was, so neither pass needs to look again."""
    return transpose(_drop_columns(transpose(_drop_columns(f))))


class _MaskSums(dict):
    """Atom mask -> sum of the coefficients of the terms in the mask, summed
    as integer numerators over the coefficients' least common denominator."""

    def __init__(self, coefficients: Sequence[Fraction]):
        self.nums, self.den = _over_lcm(coefficients)

    def __missing__(self, mask: int) -> Fraction:
        self[mask] = value = Fraction(
            sum(n for k, n in enumerate(self.nums) if mask >> k & 1), self.den
        )
        return value


def step2d_make(terms: Iterable[RectTerm]) -> StepFn2D:
    """Sum of coefficient times rectangle indicators, on the refined grid.

    Every atom of the union grid of all base-set endpoints gets the sum of
    the coefficients of the terms whose rectangle contains it; cancellations
    fall out of the canonical minimization.
    """
    terms = list(terms)
    xs, x_at, x_gap = _axis_atoms(t.base_x for t in terms)
    ys, y_at, y_gap = _axis_atoms(t.base_y for t in terms)
    value = _MaskSums([t.coefficient for t in terms]).__getitem__

    def grid(x_masks, y_masks):
        return tuple(tuple(map(value, map(mx.__and__, y_masks))) for mx in x_masks)

    x_gap, y_gap = x_gap[:-1], y_gap[:-1]  # nothing is right of the last line
    return _canonical_2d(StepFn2D(
        tuple(xs), tuple(ys),
        grid(x_gap, y_gap), grid(x_at, y_gap), grid(x_gap, y_at), grid(x_at, y_at),
    ))


def partial_integrate(f: StepFn2D) -> StepFn:
    """Integrate out x: a 1-D step function of y, exact.

    On each open y-strip the section in x is a step function with the cell
    values; on each grid line it has the horizontal-line values.  Point and
    vertical-line values carry no x-measure and drop out.
    """
    if len(f.xs) < 2:  # no x-measure anywhere
        return ZERO_FN
    widths, xd = _widths(f.xs)
    ovals = [_dot(strip, widths, xd) for strip in zip(*f.cells)]
    pvals = [_dot(line, widths, xd) for line in zip(*f.hlines)]
    return _canonical(f.ys, ovals, pvals)


def slice_at(f: StepFn2D, y) -> StepFn:
    """The exact section x -> f(x, y)."""
    y = rat(y)
    if f.is_zero() or y < f.ys[0] or y > f.ys[-1]:
        return ZERO_FN
    from bisect import bisect_right

    j = bisect_right(f.ys, y) - 1
    opens, at = (f.hlines, f.points) if f.ys[j] == y else (f.cells, f.vlines)
    return _canonical(f.xs, [row[j] for row in opens], [row[j] for row in at])


def double_integral(f: StepFn2D) -> Fraction:
    """Direct cell sum: coefficient times area, lines and points ignored."""
    widths, xd = _widths(f.xs)
    heights, yd = _widths(f.ys)
    return _dot([_dot(strip, heights, yd) for strip in f.cells], widths, xd)


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
    lhs_y = phi_S(partial_integrate(transpose(f)))
    report = FubiniReport(lhs=lhs, rhs=rhs, lhs_y_first=lhs_y)
    report.record("phi_Y o F_X = mu_XY", lhs == rhs, f"lhs={lhs} rhs={rhs}")
    report.record("y-first order agrees", lhs_y == rhs, f"lhs={lhs_y} rhs={rhs}")

    for y in sampled_y or ():
        y = rat(y)
        at, along = fx(y), phi_S(slice_at(f, y))
        report.slices.append((y, at, along))
        report.record(
            "F_X(f)(y) = phi_X(slice)", at == along, f"y={y} fx={at} slice-integral={along}"
        )
    return report


def transpose(f: StepFn2D) -> StepFn2D:
    if f.is_zero():
        return ZERO_2D
    ny = len(f.ys)

    def t(mat, cols):  # a matrix with no rows transposes to ``cols`` empty rows
        return tuple(zip(*mat)) or ((),) * cols

    return StepFn2D(
        f.ys, f.xs, t(f.cells, ny - 1), t(f.hlines, ny), t(f.vlines, ny - 1), t(f.points, ny)
    )


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
    widths, xd = _widths(xs)
    heights, yd = _widths(ys)
    total = 0
    for w, xmask in zip(widths, x_gap):
        total += w * sum(h for h, ymask in zip(heights, y_gap) if xmask & ymask)
    return Fraction(total, xd * yd)


def terms_from_json(doc: str | list) -> list[RectTerm]:
    """Load ``[{"coefficient": "2", "base_x": [...], "base_y": [...]}, ...]``."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, list):
        raise TypeError(f"expected a list of rectangle terms, got {type(doc).__name__}")
    return [
        RectTerm(rat(t["coefficient"]), iset_from_json(t["base_x"]), iset_from_json(t["base_y"]))
        for t in doc
    ]


def sample_step2d(
    rng: random.Random, max_terms: int = 10, max_breaks_per_axis: int = 16
) -> StepFn2D:
    from .instances import sample_interval_set

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
