"""Canonical finite unions of rational-endpoint intervals.

An ``IntervalSet`` is a sorted tuple of pairwise disjoint, non-adjacent
pieces, each with its own boundary kinds, so set equality is plain structural
equality.  Closed, open, half-open pieces and singletons are all stored
natively: the ring generated by closed and open intervals forces half-open
pieces under difference, and canonical forms keep equality decidable.

A set is also a 0/1 step function: a sorted list of breakpoints
``(x, in at x, in just right of x)``, out left of the first.  All operations
run on that view.  ``_sweep`` merges the breakpoint lists of the operands in
one left-to-right pass and gives each operand's value at every breakpoint of
the union and on the open gap right of it, so no gap needs a probe point;
the Boolean operation is applied to both values, ``_canonical_breaks`` drops
the breakpoints where nothing changes, and what is left reassembles into
canonical pieces.  ``stepfn`` and ``fubini`` use the same two functions for
step functions and for the lines of 2-D grids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .oag import rat


@dataclass(frozen=True)
class Piece:
    lo: Fraction
    lo_closed: bool
    hi: Fraction
    hi_closed: bool

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"piece with lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("degenerate piece must be a closed singleton")

    def contains(self, x: Fraction) -> bool:
        if x == self.lo:
            return self.lo_closed if self.lo != self.hi else True
        if x == self.hi:
            return self.hi_closed
        return self.lo < x < self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self) -> str:
        if self.lo == self.hi:
            return f"{{{self.lo}}}"
        lo_b = "[" if self.lo_closed else "("
        hi_b = "]" if self.hi_closed else ")"
        return f"{lo_b}{self.lo}, {self.hi}{hi_b}"


@dataclass(frozen=True)
class IntervalSet:
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        prev = None
        for p in self.pieces:
            if prev is not None:
                gap_ok = prev.hi < p.lo or (
                    prev.hi == p.lo and not prev.hi_closed and not p.lo_closed
                )
                if not gap_ok:
                    raise ValueError(f"pieces {prev} and {p} overlap or are adjacent")
            prev = p

    def contains(self, x) -> bool:
        x = rat(x)
        return any(p.contains(x) for p in self.pieces)

    def is_empty(self) -> bool:
        return not self.pieces

    def endpoints(self) -> list[Fraction]:
        out = []
        for p in self.pieces:
            out.append(p.lo)
            out.append(p.hi)
        return out

    def __str__(self) -> str:
        if not self.pieces:
            return "∅"
        return " ∪ ".join(str(p) for p in self.pieces)

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "lo": str(p.lo),
                "hi": str(p.hi),
                "lo_closed": p.lo_closed,
                "hi_closed": p.hi_closed,
            }
            for p in self.pieces
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


EMPTY = IntervalSet(())


def interval(lo, hi, lo_closed: bool = True, hi_closed: bool = True) -> IntervalSet:
    """One interval as a set; the empty open singleton normalizes to the empty set."""
    lo, hi = rat(lo), rat(hi)
    if lo > hi:
        raise ValueError(f"interval with lo={lo} > hi={hi}")
    if lo == hi and not (lo_closed and hi_closed):
        return EMPTY
    return IntervalSet((Piece(lo, lo_closed, hi, hi_closed),))


def singleton(x) -> IntervalSet:
    x = rat(x)
    return IntervalSet((Piece(x, True, x, True),))


def _sweep(operands: Sequence[Sequence[tuple]], zero) -> Iterator[tuple]:
    """Merge the operands' breakpoint lists in one left-to-right pass.

    An operand is a sorted list of ``(x, value at x, value right of x)`` and
    is ``zero`` left of its first breakpoint.  Yields ``(x, at, after)`` for
    each distinct ``x`` of the union in increasing order: ``at[i]`` and
    ``after[i]`` are operand ``i``'s values at ``x`` and on the open gap
    right of it.  Both lists are reused: read them before advancing.
    """
    events = sorted(
        ((b[0], i, b[1], b[2]) for i, op in enumerate(operands) for b in op),
        key=itemgetter(0),
    )
    at = [zero] * len(operands)
    after = [zero] * len(operands)
    touched: list[int] = []
    x = None
    for ex, i, v_at, v_after in events:
        if touched and ex != x:
            yield x, at, after
            for j in touched:
                at[j] = after[j]
            touched.clear()
        x = ex
        at[i] = v_at
        after[i] = v_after
        touched.append(i)
    if touched:
        yield x, at, after


def _canonical_breaks(breaks: Iterable[tuple], zero) -> list[tuple]:
    """Drop every breakpoint whose left, point and right values are equal.

    ``breaks`` are ``(x, value at x, value right of x)`` in increasing ``x``,
    ``zero`` left of the first and right of the last.  Removing a breakpoint
    joins two gaps of equal value, so it changes no other breakpoint's test
    and one pass is exact.  Values are compared with ``==``.
    """
    kept = []
    left = zero
    for b in breaks:
        if not (left == b[1] == b[2]):
            kept.append(b)
        left = b[2]
    return kept


def _breaks(s: IntervalSet) -> list[tuple[Fraction, bool, bool]]:
    """The set as a 0/1 step function: ``(x, x in s, s just right of x)``."""
    out: list[tuple[Fraction, bool, bool]] = []
    for p in s.pieces:
        if p.lo == p.hi:
            out.append((p.lo, True, False))
            continue
        if out and out[-1][0] == p.lo:  # (., x) u (x, .): one open endpoint
            out[-1] = (p.lo, False, True)
        else:
            out.append((p.lo, p.lo_closed, True))
        out.append((p.hi, p.hi_closed, False))
    return out


def _from_breaks(breaks: Iterable[tuple]) -> IntervalSet:
    """Canonical set of a 0/1 breakpoint list: maximal runs become pieces."""
    pieces: list[Piece] = []
    lo = lo_closed = None
    inside = False
    for x, at, after in _canonical_breaks(breaks, False):
        if inside:  # a piece runs up to x; at and after are not both in
            pieces.append(Piece(lo, lo_closed, x, at))
            lo, lo_closed = x, False
        elif after:
            lo, lo_closed = x, at
        else:  # kept, out on both sides: an isolated point
            pieces.append(Piece(x, True, x, True))
        inside = after
    return IntervalSet(tuple(pieces))


def _combine(a: IntervalSet, b: IntervalSet, keep) -> IntervalSet:
    return _from_breaks(
        (x, keep(*at), keep(*after))
        for x, at, after in _sweep((_breaks(a), _breaks(b)), False)
    )


def iset_meet(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return _combine(a, b, lambda x, y: x and y)


def iset_join(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return _combine(a, b, lambda x, y: x or y)


def iset_diff(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return _combine(a, b, lambda x, y: x and not y)


def iset_symmdiff(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return _combine(a, b, lambda x, y: x != y)


def iset_make(raw: Iterable) -> IntervalSet:
    """Union of interval descriptors, in canonical form.

    Descriptors are ``(lo, hi)``, ``(lo, hi, lo_closed, hi_closed)``, dicts
    with those keys, or ``IntervalSet``/``Piece`` values.  Overlapping and
    adjacent pieces are merged.
    """
    parts = []
    for d in raw:
        if isinstance(d, IntervalSet):
            part = d
        elif isinstance(d, Piece):
            part = IntervalSet((d,))
        elif isinstance(d, dict):
            part = interval(
                rat(d["lo"]),
                rat(d["hi"]),
                bool(d.get("lo_closed", True)),
                bool(d.get("hi_closed", True)),
            )
        else:
            seq = tuple(d)
            if len(seq) == 2:
                part = interval(seq[0], seq[1])
            elif len(seq) == 4:
                part = interval(seq[0], seq[1], bool(seq[2]), bool(seq[3]))
            else:
                raise ValueError(f"bad interval descriptor: {d!r}")
        parts.append(_breaks(part))
    return _from_breaks((x, any(at), any(after)) for x, at, after in _sweep(parts, False))


def iset_from_json(doc: str | list) -> IntervalSet:
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, list):
        raise TypeError(f"expected a list of intervals, got {type(doc).__name__}")
    return iset_make(doc)


def measure(a: IntervalSet) -> Fraction:
    """Total length: sum of hi - lo over pieces; boundary kinds are irrelevant."""
    return sum((p.width() for p in a.pieces), Fraction(0))


def probe_points(*sets: IntervalSet, offset: Fraction = Fraction(1, 1000)) -> list[Fraction]:
    """Membership-probe grid: every endpoint, endpoint +/- offset, piece midpoints."""
    out: set[Fraction] = set()
    for s in sets:
        for p in s.pieces:
            for e in (p.lo, p.hi):
                out.update((e, e - offset, e + offset))
            out.add((p.lo + p.hi) / 2)
    return sorted(out)
