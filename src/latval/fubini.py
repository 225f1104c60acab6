"""The algebraic half of Fubini: rectangle ring, product measure, 2-D step
functions, partial integration, and the exact double-integral identity.

A 2-D step function is stored on the full grid refinement of its rectangle
terms, over the product of its two axes' atoms.  Atom ``2i`` of an axis is
grid coordinate ``i`` and atom ``2i + 1`` the open gap right of it, so one
matrix holds the open cells (odd x odd), the measure-zero grid lines and the
grid points, and sections through a grid line stay exact.  Integrals read
the gap atoms only, mirroring the 1-D convention.

A terms document is read with each distinct numeral string parsed once, and
a one-piece base set is built from its checked breakpoints without a sweep.
Each axis is classified by the sweep kernel of :mod:`latval.intervals`: one
merge of the terms' base-set breakpoints gives the grid and, per atom, the
bitmask of the terms containing it.  Each distinct x mask is rastered into a
row once.  The canonical grid drops a grid line where its values equal the
cells on both sides; seen along one axis, a column is a breakpoint whose
values are rows of atoms, so the 1-D canonicaliser removes all redundant
columns in one pass, and then, on the transpose, all rows.

A grid stores its values once, as integer numerators over one denominator
whose gcd with all of them is 1, so equal grids have equal state.
The kernels sum, compare and dot integers and make a ``Fraction`` only for
what they return.  A sampled section is located by its axis's sort keys,
read from one row of the transposed matrix a grid keeps once made, and
integrated on the integers.  A grid is checked once, when ``StepFn2D`` is
built from ``Fraction`` matrices; what is made from it is not checked again.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import count
from operator import mul
from typing import Iterable, Sequence

from .instances import mu_S, phi_S, sample_interval_set
from .intervals import IntervalSet, _Memo, _canonical_breaks, _key, _set_from_json, _sums
from .intervals import _trusted, iset_make
from .oag import ShapeError, fields, rat
from .report import CheckReport
from .stepfn import ZERO, ZERO_FN, StepFn, _locate

Matrix = tuple[tuple, ...]


def _over_lcm(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integer numerators of ``values`` over their least common
    denominator, and that denominator."""
    d = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) if v else 0 for v in values], d


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


def _axis_atoms(sets: Iterable[IntervalSet]) -> tuple[list[Fraction], list[int]]:
    """The grid of the sets' endpoints and, per atom of the grid, the bitmask
    of the sets containing it: each grid point, then the open gap right of
    it, and no gap right of the last.  Set ``t`` is swept with its bit
    ``1 << t`` for in and 0 for out, so a mask is a sum."""
    operands = [[(x, at << t, gap << t) for x, at, gap in s._breaks] for t, s in enumerate(sets)]
    grid, atoms = [], []
    for x, at, after in _sums(operands):
        grid.append(x)
        atoms += at, after
    return grid, atoms[:-1]


def _widths(nums: Sequence[int]) -> list[int]:
    """The gaps between consecutive integer coordinates."""
    return [b - a for a, b in zip(nums, nums[1:])]


def _map(fn, mat: Iterable) -> Matrix:
    """``fn`` of every value of ``mat``, in tuples made from lists (see ``_pick``)."""
    return tuple([tuple([fn(v) for v in row]) for row in mat])


def _weave(even: Sequence, odd: Sequence) -> list:
    """``even[0], odd[0], even[1], ...``: an axis' points and gaps in atom order."""
    out = [*even, *odd]
    out[::2], out[1::2] = even, odd
    return out


@dataclass(frozen=True, init=False)
class StepFn2D:
    """Grid-canonical 2-D step function.

    ``xs``/``ys`` are the grid coordinates.  ``_atoms[a][b]`` is the value,
    as a numerator over ``_den``, on x atom ``a`` times y atom ``b``: atom
    ``2i`` of an axis is its coordinate ``i``, atom ``2i + 1`` the open gap
    right of it.  Zero outside the bounding box; the grid is minimal.  Only
    ``_den`` and ``_atoms`` hold the values, so ``==`` and ``hash`` compare
    integers.  ``cells[i][j]`` (the open cell), ``vlines[i][j]`` (on
    {xs[i]} x (ys[j], ys[j+1])), ``hlines[i][j]`` (on (xs[i], xs[i+1]) x
    {ys[j]}) and ``points[i][j]`` are read-only ``Fraction`` views of the
    atoms of parities (1, 1), (0, 1), (1, 0) and (0, 0), made on first use.
    """

    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]
    _den: int
    _atoms: Matrix

    cells, vlines, hlines, points = (
        cached_property(
            lambda f, p=p, q=q: _map(f._frac.__getitem__, [r[q::2] for r in f._atoms[p::2]])
        )
        for p, q in ((1, 1), (0, 1), (1, 0), (0, 0))
    )

    def __init__(self, xs, ys, cells: Matrix, vlines: Matrix, hlines: Matrix, points: Matrix):
        """The checked entry point, from ``Fraction`` matrices."""
        nx, ny = len(xs), len(ys)
        if (nx == 0) != (ny == 0):
            raise ValueError(f"a {nx}x{ny} grid needs lines on both axes or on neither")
        mats = cells, vlines, hlines, points
        cx, cy = max(0, nx - 1), max(0, ny - 1)
        names = "cells", "vlines", "hlines", "points"
        for name, mat, rows, cols in zip(names, mats, (cx, nx, cx, nx), (cy, cy, ny, ny)):
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise ValueError(f"inconsistent {name} shape for a {nx}x{ny} grid")
        if any(a >= b for c in (xs, ys) for a, b in zip(c, c[1:])):
            raise ValueError("grid coordinates must be strictly increasing")
        # An lcm of reduced denominators is already canonical.
        den = math.lcm(*{v.denominator for m in mats for row in m for v in row})
        num = _Memo(lambda v: v[0] * (den // v[1])).__getitem__  # Fraction hashes are slow
        lines, gaps = map(_weave, points, vlines), map(_weave, hlines, cells)
        atoms = _map(lambda v: num((v.numerator, v.denominator)), _weave([*lines], [*gaps]))
        self.__dict__.update(xs=xs, ys=ys, _den=den, _atoms=atoms)

    @cached_property
    def _frac(self) -> _Memo:
        """``n -> Fraction(n, den)``, each numerator converted once."""
        return _Memo(lambda n: Fraction(n, self._den))

    @cached_property
    def _axes(self) -> tuple:
        """``(xn, xd, yn, yd)``: each axis as integer numerators over one denominator."""
        return (*_over_lcm(self.xs), *_over_lcm(self.ys))

    @cached_property
    def _keys(self) -> tuple[list[int], list[int]]:
        """Each axis's ``_key`` values, for ``_locate``."""
        return list(map(_key, self.xs)), list(map(_key, self.ys))

    @cached_property
    def _columns(self) -> Matrix:
        """The atom matrix with ``y`` as the first index."""
        return tuple(zip(*self._atoms))

    def __call__(self, x, y) -> Fraction:
        xk, yk = self._keys
        a, b = _locate(xk, self.xs, rat(x)), _locate(yk, self.ys, rat(y))
        return ZERO if a is None or b is None else self._frac[self._atoms[a][b]]

    def is_zero(self) -> bool:
        return not self.xs


ZERO_2D = StepFn2D((), (), (), (), (), ())


def _grid(xs: tuple, ys: tuple, den: int, atoms: Matrix) -> StepFn2D:
    """A ``StepFn2D`` made from a checked grid, not checked again, with the
    common factor of ``den`` and the numerators divided out.  The factor is
    a running gcd over the distinct numerators that stops at 1, and each
    distinct numerator is divided once."""
    g = den
    if den > 1:
        for n in set().union(*atoms):
            g = math.gcd(g, n)
            if g == 1:
                break
    if g > 1:
        atoms = _map(_Memo(lambda n: n // g).__getitem__, atoms)
    return _trusted(StepFn2D, xs=xs, ys=ys, _den=den // g, _atoms=atoms)


def _pick(seq: Sequence, indices: Iterable[int]) -> tuple:
    """``seq`` at ``indices``.  The tuple is made from a list: one made from
    an iterator of unknown length is resized as it fills, and small ones made
    so pile up in the interpreter's free lists once freed, a few MB of peak
    memory over many calls."""
    return tuple([seq[i] for i in indices])


def _kept(atoms: Sequence, zero) -> list[int]:
    """The indices of the breakpoints ``_canonical_breaks`` keeps, breakpoint
    ``k`` having the value ``atoms[2k]`` at it and ``atoms[2k + 1]`` right of
    it (``zero`` right of the last)."""
    breaks = zip(count(), atoms[::2], [*atoms[1::2], zero])
    return [k for k, _, _ in _canonical_breaks(breaks, zero)]


def _canonical_2d(f: StepFn2D) -> StepFn2D:
    """The minimal grid of ``f``: redundant columns go, then redundant rows
    (the columns of the transpose).  A column is a breakpoint along x whose
    values are rows of atoms; a dropped column repeats the gap left of it, so
    a kept column's gap reaches to the next kept column, and none follows the
    last.  Dropping a line leaves every other line's test as it was, so
    neither pass needs to look again."""
    xs, ys, atoms = f.xs, f.ys, f._atoms
    for _ in "xy":
        kept = _kept(atoms, (0,) * (2 * len(ys) - 1))
        if not kept:
            return ZERO_2D
        rows = [a for k in kept for a in (2 * k, 2 * k + 1)][:-1]  # no gap after the last
        atoms = tuple(zip(*_pick(atoms, rows)))
        xs, ys = ys, _pick(xs, kept)
    return _grid(xs, ys, f._den, atoms)


def step2d_make(terms: Iterable[RectTerm]) -> StepFn2D:
    """Sum of coefficient times rectangle indicators, on the refined grid.

    Every atom of the union grid of all base-set endpoints gets the sum of
    the coefficients of the terms whose rectangle contains it; cancellations
    fall out of the canonical minimization.
    """
    terms = list(terms)
    xs, x_atoms = _axis_atoms(t.base_x for t in terms)
    ys, y_atoms = _axis_atoms(t.base_y for t in terms)
    nums, den = _over_lcm([t.coefficient for t in terms])

    def mask_sum(mask: int) -> int:
        total = 0
        while mask:
            low = mask & -mask
            total += nums[low.bit_length() - 1]
            mask ^= low
        return total

    value = _Memo(mask_sum).__getitem__
    # Each distinct x mask is rastered once: many masks repeat.
    row = _Memo(lambda mx: tuple(map(value, map(mx.__and__, y_atoms))))
    raw = _trusted(StepFn2D, xs=tuple(xs), ys=tuple(ys), _den=den, _atoms=_pick(row, x_atoms))
    return _canonical_2d(raw)


def _section(bps: Sequence[Fraction], kept: list[int], value) -> StepFn:
    """The unchecked step function on ``bps[k]`` for ``k`` in ``kept``, with
    ``value(2k)`` at and ``value(2k + 1)`` right of each but the last."""
    if not kept:
        return ZERO_FN
    return _trusted(
        StepFn,
        breakpoints=_pick(bps, kept),  # tuples from lists, as in _pick
        open_values=tuple([value(2 * k + 1) for k in kept[:-1]]),
        point_values=tuple([value(2 * k) for k in kept]),
    )


def _integrate_across(
    across: Sequence[int], wd: int, along: tuple, rows: Iterable, den: int
) -> StepFn:
    """The step function on ``along`` whose value on each of its atoms is the
    integral across the coordinates ``across / wd`` of that atom's row of
    integer values over ``den``: integer dot products of the row's gap atoms
    with the widths, and a ``Fraction`` for each breakpoint kept."""
    widths = _widths(across)
    sums = [sum(map(mul, row[1::2], widths)) for row in rows]
    d = den * wd
    return _section(along, _kept(sums, 0), lambda a: Fraction(sums[a], d))


def partial_integrate(f: StepFn2D) -> StepFn:
    """Integrate out x: a 1-D step function of y, exact.

    On each open y-strip the section in x is a step function with the cell
    values; on each grid line it has the horizontal-line values.  Point and
    vertical-line values carry no x-measure and drop out.
    """
    xn, xd, _, _ = f._axes
    return _integrate_across(xn, xd, f.ys, f._columns, f._den)


def _section_row(f: StepFn2D, y: Fraction) -> tuple[list[int], tuple]:
    """The section x -> f(x, y) on the grid's integers: the columns ``_kept``
    keeps, and the numerators on the x atoms, one row of ``_columns``."""
    b = _locate(f._keys[1], f.ys, y)
    if b is None:  # outside the grid, or no grid
        return [], ()
    atoms = f._columns[b]
    return _kept(atoms, 0), atoms


def slice_at(f: StepFn2D, y) -> StepFn:
    """The exact section x -> f(x, y)."""
    kept, atoms = _section_row(f, rat(y))
    return _section(f.xs, kept, lambda a: f._frac[atoms[a]])


def double_integral(f: StepFn2D) -> Fraction:
    """Direct cell sum: coefficient times area, lines and points ignored."""
    xn, xd, yn, yd = f._axes
    heights, cells = _widths(yn), f._atoms[1::2]
    total = sum(w * sum(map(mul, row[1::2], heights)) for w, row in zip(_widths(xn), cells))
    return Fraction(total, f._den * xd * yd)


def sample_ys(f: StepFn2D, rng: random.Random, count: int) -> list[Fraction]:
    """Sampling grid for slice checks: gridlines, strip midpoints, outside."""
    cands: list[Fraction] = []
    if not f.is_zero():
        cands.extend(f.ys)
        _, _, yn, yd = f._axes
        cands.extend(Fraction(a + b, 2 * yd) for a, b in zip(yn, yn[1:]))
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
    xn, xd, yn, yd = f._axes
    # partial_integrate(transpose(f)), without the transposed matrix
    lhs_y = phi_S(_integrate_across(yn, yd, f.xs, f._atoms, f._den))
    report = FubiniReport(lhs=lhs, rhs=rhs, lhs_y_first=lhs_y)
    # A witness is formatted only for a failure: str() of a passing integral
    # may be past the interpreter's limit on integer digits.
    for name, left in (("phi_Y o F_X = mu_XY", lhs), ("y-first order agrees", lhs_y)):
        report.record(name, left == rhs, lambda: f"lhs={left} rhs={rhs}")

    # phi_X(slice): kept columns times merged widths, not partial_integrate's sums
    for y in sampled_y or ():
        y = rat(y)
        kept, atoms = _section_row(f, y)
        merged = sum(atoms[2 * a + 1] * (xn[b] - xn[a]) for a, b in zip(kept, kept[1:]))
        at, along = fx(y), Fraction(merged, f._den * xd)
        report.slices.append((y, at, along))
        report.record(
            "F_X(f)(y) = phi_X(slice)", at == along, lambda: f"y={y} fx={at} slice-integral={along}"
        )
    return report


def transpose(f: StepFn2D) -> StepFn2D:
    return _trusted(StepFn2D, xs=f.ys, ys=f.xs, _den=f._den, _atoms=f._columns)


def rectset_measure(rects: Sequence[tuple[IntervalSet, IntervalSet]]) -> Fraction:
    """Measure of a finite union of rectangles by open-cell decomposition.

    Grid lines have measure zero, so the open cells decide the whole measure
    exactly: a cell is in the union when one rectangle's x-set contains its
    x-gap and the same rectangle's y-set its y-gap.
    """
    if not rects:
        return ZERO
    xs, x_atoms = _axis_atoms(a for a, _ in rects)
    ys, y_atoms = _axis_atoms(b for _, b in rects)
    (xn, xd), (yn, yd) = _over_lcm(xs), _over_lcm(ys)
    strips = list(zip(_widths(yn), y_atoms[1::2]))
    total = 0
    for w, xmask in zip(_widths(xn), x_atoms[1::2]):
        total += w * sum(h for h, ymask in strips if xmask & ymask)
    return Fraction(total, xd * yd)


_TERM_KEYS = frozenset({"coefficient", "base_x", "base_y"})


def terms_from_json(doc: list) -> list[RectTerm]:
    """Terms of a parsed ``[{"coefficient": "2", "base_x": [...], "base_y": [...]}, ...]``.
    Each distinct numeral string is parsed once, coefficients and endpoints
    alike, so equal numerals are one object; any other value goes to ``rat``.
    An error keeps its type, prefixed ``rectangle term <i>: ``, and for a bad
    value ``<key>: `` too."""
    if not isinstance(doc, list):
        raise TypeError(f"expected a list of rectangle terms, got {type(doc).__name__}")
    memo = _Memo(rat)
    num = lambda v: memo[v] if type(v) is str else rat(v)
    terms = []
    for i, t in enumerate(doc):
        try:
            fields(t, _TERM_KEYS, _TERM_KEYS)
        except ShapeError as exc:
            exc.args = (f"rectangle term {i}: {exc}",)
            raise
        values = []
        for key in ("coefficient", "base_x", "base_y"):
            try:
                values.append(num(t[key]) if key == "coefficient" else _set_from_json(t[key], num))
                if key != "coefficient" and values[-1].is_empty():
                    raise ValueError("rectangle terms need nonempty base sets")
            except (ValueError, TypeError) as exc:
                exc.args = (f"rectangle term {i}: {key}: {exc}",)
                raise
        terms.append(RectTerm(*values))
    return terms


def sample_step2d(rng: random.Random, max_terms: int = 10) -> StepFn2D:
    """A grid of up to ``max_terms`` rectangle terms, dropping the last term
    until each axis has at most 16 breakpoints."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        a = sample_interval_set(rng, max_pieces=2)
        b = sample_interval_set(rng, max_pieces=2)
        if a.is_empty() or b.is_empty():
            continue
        terms.append(RectTerm(Fraction(rng.randint(-4, 4)), a, b))
    while True:
        f = step2d_make(terms)
        if len(f.xs) <= 16 and len(f.ys) <= 16:
            return f
        terms = terms[:-1]
