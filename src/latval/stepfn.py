"""Exact step functions on the line.

A ``StepFn`` is constant on the open intervals between consecutive
breakpoints, carries an explicit value at every breakpoint, and is zero
outside the breakpoint span.  Point values do not contribute to the
integral, but the lattice order is pointwise, so they are stored and kept
canonical: a breakpoint survives only if the function actually changes
there (value on the left, at the point, and on the right not all equal).

Binary operations, the order and ``step_make`` run on the sweep kernel of
:mod:`latval.intervals`: one merge of the operands' sorted breakpoints gives
each operand's value at every breakpoint of the common refinement and on the
open gap right of it, and one pass drops the breakpoints where nothing
changes.  Meet, join and the order compare each pair of values once in the
sweep loop, on integers (``u <= v`` iff ``u.numerator * v.denominator <=
v.numerator * u.denominator``, as denominators are positive).  One sweep
gives both bounds of a pair: ``step_meet_join`` makes the pointwise ``min``
and ``max`` from one merge and one comparison per pair of values.

A step function keeps the triples ``(x, f(x), value right of x)`` it was
built from (``StepFn._breaks``), as a set keeps its breakpoints: every
builder hands ``_canonical`` one list of triples, and it stores those kept.

The integral is summed by parts, ``sum(x_i * (v_{i-1} - v_i))`` over the
triples with ``v_i`` the value right of ``x_i``, on integer numerator and
denominator pairs added in a balanced tree, so no sum is put over the common
denominator of all the breakpoints.  A step document is read with each
distinct value string parsed once, so equal values are one object and the
sweeps' identity tests catch them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .intervals import _Memo, _canonical_breaks, _descriptor_breaks, _key, _sweep, _trusted
from .oag import fields, rat

ZERO = Fraction(0)


def _check_shape(bps: Sequence, ovals: Sequence, pvals: Sequence) -> None:
    n = len(bps)
    if len(ovals) != max(0, n - 1) or len(pvals) != n:
        raise ValueError(
            f"{n} breakpoints need {max(0, n - 1)} open and {n} point values,"
            f" got {len(ovals)} and {len(pvals)}"
        )
    pairs = zip(bps, bps[1:])
    if any(a.numerator * b.denominator >= b.numerator * a.denominator for a, b in pairs):
        raise ValueError("breakpoints must be strictly increasing")


@dataclass(frozen=True)
class StepFn:
    breakpoints: tuple[Fraction, ...]
    open_values: tuple[Fraction, ...]  # value on (s_i, s_{i+1})
    point_values: tuple[Fraction, ...]  # value at s_i

    def __post_init__(self):
        _check_shape(self.breakpoints, self.open_values, self.point_values)

    @cached_property
    def _breaks(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        """``(x, f(x), value right of x)`` for each breakpoint, zero right of
        the last.  The builders store ``_canonical``'s list here; nothing
        mutates it."""
        return tuple(zip(self.breakpoints, self.point_values, self.open_values + (ZERO,)))

    @cached_property
    def _keys(self) -> list[int]:
        """The breakpoints' ``_key`` values, for ``_locate``."""
        return list(map(_key, self.breakpoints))

    def __call__(self, x) -> Fraction:
        a = _locate(self._keys, self.breakpoints, rat(x))
        return ZERO if a is None else (self.point_values, self.open_values)[a % 2][a // 2]

    def is_zero(self) -> bool:
        return not self.breakpoints

    def __str__(self) -> str:
        if not self.breakpoints:
            return "0"
        parts = []
        for i, s in enumerate(self.breakpoints):
            parts.append(f"{self.point_values[i]}@{{{s}}}")
            if i + 1 < len(self.breakpoints):
                parts.append(
                    f"{self.open_values[i]}@({s},{self.breakpoints[i + 1]})"
                )
        return " ".join(parts)

    def to_json_obj(self) -> dict:
        return {
            "breakpoints": [str(s) for s in self.breakpoints],
            "open_values": [str(v) for v in self.open_values],
            "point_values": [str(v) for v in self.point_values],
        }


ZERO_FN = StepFn((), (), ())


def _same(u: Fraction, v: Fraction) -> bool:
    """``u == v`` on integers: a ``Fraction`` is in lowest terms."""
    return u.numerator == v.numerator and u.denominator == v.denominator


def _canonical(breaks: list[tuple]) -> StepFn:
    """The canonical ``StepFn`` of ``(x, value at x, value right of x)``
    triples, unchecked: ``x`` must be strictly increasing and the last triple
    zero on its right."""
    kept = _canonical_breaks(breaks, ZERO, _same)
    if not kept:
        return ZERO_FN
    bps, pvals, ovals = zip(*kept)
    return _trusted(
        StepFn, breakpoints=bps, open_values=ovals[:-1], point_values=pvals, _breaks=tuple(kept)
    )


def step_from_values(
    bps: Sequence[Fraction], ovals: Sequence[Fraction], pvals: Sequence[Fraction]
) -> StepFn:
    """The canonical ``StepFn`` of three arrays of rationals.  Each distinct
    string among them is parsed once, so equal values read from one document
    are one object; any other value goes to ``rat`` as it is."""
    memo, arrays = _Memo(rat), (bps, ovals, pvals)
    return _from_arrays(*([memo[v] if type(v) is str else rat(v) for v in a] for a in arrays))


def _from_arrays(
    bps: Sequence[Fraction], ovals: Sequence[Fraction], pvals: Sequence[Fraction]
) -> StepFn:
    """The canonical ``StepFn`` of three arrays of ``Fraction``s, its shape
    checked: ``step_from_values`` once it has read them, and the sampler."""
    _check_shape(bps, ovals, pvals)
    return _canonical(list(zip(bps, pvals, [*ovals, ZERO])))


class ConflictingAssignment(ValueError):
    pass


def _assigned(values: Sequence, x: Fraction) -> Fraction:
    """The one value assigned among ``values`` (``None`` is unassigned)."""
    found = None
    for v in values:
        if v is not None:
            if found is not None and found != v:
                raise ConflictingAssignment(f"conflicting values {found} and {v} at {x}")
            found = v
    return ZERO if found is None else found


def step_make(parts: Iterable, points: Iterable = ()) -> StepFn:
    """Build a step function from a piecewise description.

    ``parts`` are ``(interval descriptor, value)`` entries, each descriptor as
    accepted by :func:`latval.intervals.iset_make` (single interval); ``points``
    are extra ``(x, value)`` assignments.  Regions assigned two different
    values raise :class:`ConflictingAssignment`; unassigned regions are zero.
    """
    operands = []
    for desc, value in parts:
        value = rat(value)
        operands.append([
            (x, value if at else None, value if after else None)
            for x, at, after in _descriptor_breaks(desc)
        ])
    operands += [[(rat(x), rat(v), None)] for x, v in points]
    return _canonical([
        (x, _assigned(at, x), _assigned(after, x)) for x, at, after, _ in _sweep(operands, None)
    ])


def indicator(lo, hi, lo_closed: bool = True, hi_closed: bool = True, value=1) -> StepFn:
    return step_make([((lo, hi, lo_closed, hi_closed), value)])


def _pointwise(f: StepFn, g: StepFn, combine) -> StepFn:
    return _canonical([
        (x, combine(*at), combine(*after))
        for x, at, after, _ in _sweep((f._breaks, g._breaks), ZERO)
    ])


def step_add(f: StepFn, g: StepFn) -> StepFn:
    return _pointwise(f, g, lambda x, y: x + y)


def step_sub(f: StepFn, g: StepFn) -> StepFn:
    return _pointwise(f, g, lambda x, y: x - y)


def _extremes(f: StepFn, g: StepFn, low: bool = True, high: bool = True) -> tuple[list, list]:
    """The triples of the pointwise ``min`` of ``f`` and ``g`` if ``low`` and
    of their ``max`` if ``high``, from one sweep.  The sign of one integer
    cross-multiplication per pair of values that are not the same object
    decides both picks; on a tie both keep ``f``'s value object, as ``min``
    and ``max`` give."""
    lows, highs = [], []
    for x, (p, q), (r, s), _ in _sweep((f._breaks, g._breaks), ZERO):
        c = 0 if p is q else p.numerator * q.denominator - q.numerator * p.denominator
        d = 0 if r is s else r.numerator * s.denominator - s.numerator * r.denominator
        if low:
            lows.append((x, q if c > 0 else p, s if d > 0 else r))
        if high:
            highs.append((x, q if c < 0 else p, s if d < 0 else r))
    return lows, highs


def step_meet(f: StepFn, g: StepFn) -> StepFn:
    return _canonical(_extremes(f, g, high=False)[0])


def step_join(f: StepFn, g: StepFn) -> StepFn:
    return _canonical(_extremes(f, g, low=False)[1])


def step_meet_join(f: StepFn, g: StepFn) -> tuple[StepFn, StepFn]:
    """``(f ^ g, f v g)`` from one sweep of the two operands."""
    lows, highs = _extremes(f, g)
    return _canonical(lows), _canonical(highs)


def step_scale(lam, f: StepFn) -> StepFn:
    lam = rat(lam)
    return _canonical([(x, lam * at, lam * after) for x, at, after in f._breaks])


def step_abs(f: StepFn) -> StepFn:
    return _canonical([(x, abs(at), abs(after)) for x, at, after in f._breaks])


def step_leq(f: StepFn, g: StepFn) -> bool:
    """Pointwise order, decided on the common refinement."""
    for _, (p, q), (r, s), _ in _sweep((f._breaks, g._breaks), ZERO):
        if p is not q and p.numerator * q.denominator > q.numerator * p.denominator:
            return False
        if r is not s and r.numerator * s.denominator > s.numerator * r.denominator:
            return False
    return True


def _locate(keys: Sequence[int], bps: Sequence[Fraction], x: Fraction) -> int | None:
    """The atom of the increasing coordinates ``bps`` that holds ``x``: ``2i``
    at coordinate ``i``, ``2i + 1`` on the open gap right of it, ``None``
    outside their span.  ``keys`` are the coordinates' ``_key`` values: a
    smaller key lies left of ``x``, a larger one right, and only a coordinate
    sharing ``x``'s key is compared exactly, on integers."""
    key, p, q = _key(x), x.numerator, x.denominator
    i = bisect_right(keys, key) - 1
    while i >= 0 and keys[i] == key and bps[i].numerator * q > p * bps[i].denominator:
        i -= 1
    if i >= 0 and bps[i].numerator == p and bps[i].denominator == q:
        return 2 * i
    return None if i < 0 or i == len(bps) - 1 else 2 * i + 1


def integral(f: StepFn) -> Fraction:
    """Sum of open-interval value times width; point values are ignored.

    Summed by parts, as ``sum(x_i * (v_{i-1} - v_i))`` with ``v_i`` the
    value right of ``x_i`` and ``v`` zero outside the span: each nonzero
    term an integer ``(numerator, denominator)`` pair, the pairs added in a
    balanced tree, each sum over the lcm of its own two denominators, and
    one ``Fraction`` made at the end.  No term is put over the lcm of all
    the breakpoints, so the cost grows with the size of the pairs a sum
    meets, not with the square of the breakpoint count.
    """
    terms = []
    left = ZERO
    for x, _, right in f._breaks:
        if left is not right:
            p, q = left.numerator, left.denominator
            r, s = right.numerator, right.denominator
            if p * s != r * q:
                terms.append((x.numerator * (p * s - r * q), x.denominator * q * s))
        left = right
    while len(terms) > 1:
        paired = []
        for (a, b), (c, d) in zip(terms[::2], terms[1::2]):
            g = math.gcd(b, d)
            paired.append((a * (d // g) + c * (b // g), b // g * d))
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return Fraction(*terms[0]) if terms else ZERO


_STEP_KEYS = frozenset({"breakpoints", "open_values", "point_values"})


def step_from_json(doc: dict) -> StepFn:
    fields(doc, _STEP_KEYS, _STEP_KEYS)
    arrays = doc["breakpoints"], doc["open_values"], doc["point_values"]
    if not all(isinstance(a, list) for a in arrays):
        raise TypeError("breakpoints, open_values and point_values must be lists")
    return step_from_values(*arrays)
