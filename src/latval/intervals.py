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
canonical pieces.  One sweep gives both bounds of a pair: ``iset_meet_join``
applies ``and`` and ``or`` to the same merge.  ``stepfn`` and ``fubini`` use
the same two functions for step functions and for the lines of 2-D grids.  The
sweep also names the operands that have a breakpoint at each ``x``, so the
readers of many operands (``iset_make`` and ``fubini._axis_atoms``, through
``_sums``) keep running totals and take time linear in the breakpoints, not in
breakpoints times operands.  ``_descriptor_breaks`` reads a descriptor
straight into its checked breakpoints for ``iset_make`` and
``stepfn.step_make``, its endpoints parsed by ``rat`` or by the caller's
reader (``fubini`` parses each distinct numeral of a terms document once), and
``_union`` merges such lists into one set, with no sweep for a single list,
which is already canonical; the samplers hand it the breakpoints of their
draws (``_interval_breaks``) and skip the reader.  A set keeps the breakpoints
it was built from (``IntervalSet._breaks``), as a step function keeps its
triples, so operations do not take its pieces apart again; ``_from_breaks``
and ``stepfn._canonical`` are the builders that store them.

The sweep sorts its events by the integer key ``floor(2**64 * x)``, which is
exact and monotone in ``x`` and about 64 bits past ``x``'s integer part
however large the endpoint's numerator and denominator are.  Distinct keys
order events with no ``Fraction`` call; equal keys fall through to ``x``
itself, compared exactly, and then to the operand index.  The builders trust
the sweep: pieces and sets made from its output skip ``__post_init__``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .oag import fields, rat


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

    @cached_property
    def _breaks(self) -> tuple[tuple[Fraction, bool, bool], ...]:
        """The set as a 0/1 step function: ``(x, x in s, s just right of x)``.
        The builders store the sweep's list here; nothing mutates it."""
        out: list[tuple[Fraction, bool, bool]] = []
        for p in self.pieces:
            if p.lo == p.hi:
                out.append((p.lo, True, False))
                continue
            if out and out[-1][0] == p.lo:  # (., x) u (x, .): one open endpoint
                out[-1] = (p.lo, False, True)
            else:
                out.append((p.lo, p.lo_closed, True))
            out.append((p.hi, p.hi_closed, False))
        return tuple(out)

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


EMPTY = IntervalSet(())


def _interval_breaks(lo: Fraction, hi: Fraction, lo_closed=True, hi_closed=True) -> tuple:
    """One interval's breakpoints, checked; an open singleton has none.  The
    order is one identity test or one integer cross-multiplication."""
    c = 0 if lo is hi else lo.numerator * hi.denominator - hi.numerator * lo.denominator
    if c > 0:
        raise ValueError(f"interval with lo={lo} > hi={hi}")
    if c == 0:
        return ((lo, True, False),) if lo_closed and hi_closed else ()
    return (lo, lo_closed, True), (hi, hi_closed, False)


def interval(lo, hi, lo_closed: bool = True, hi_closed: bool = True) -> IntervalSet:
    """One interval as a set; the empty open singleton normalizes to the empty set."""
    breaks = _interval_breaks(rat(lo), rat(hi), lo_closed, hi_closed)
    if not breaks:
        return EMPTY
    (lo, _, _), (hi, _, _) = breaks[0], breaks[-1]
    piece = _trusted(Piece, lo=lo, lo_closed=lo_closed, hi=hi, hi_closed=hi_closed)
    return _trusted(IntervalSet, pieces=(piece,), _breaks=breaks)


def _trusted(cls, **fields):
    """``cls(**fields)`` without ``__post_init__``, for fields already checked
    or built sorted and disjoint by the sweep."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class _Memo(dict):
    """``fn`` with its results kept: a missing key is computed once."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


def singleton(x) -> IntervalSet:
    return interval(x, x)


def _key(x: Fraction) -> int:
    """``floor(2**64 * x)``: a sort key that orders rationals, up to ties."""
    return (x.numerator << 64) // x.denominator


def _sweep(operands: Sequence[Sequence[tuple]], zero) -> Iterator[tuple]:
    """Merge the operands' breakpoint lists in one left-to-right pass.

    An operand is a sorted list of ``(x, value at x, value right of x)`` and
    is ``zero`` left of its first breakpoint.  Yields ``(x, at, after,
    touched)`` for each distinct ``x`` of the union in increasing order:
    ``at[i]`` and ``after[i]`` are operand ``i``'s values at ``x`` and on the
    open gap right of it, and ``touched`` lists the operands with a
    breakpoint at ``x``, in index order, so a caller can keep running totals
    in time linear in the breakpoints.  The lists are reused: read them
    before advancing.
    """
    events = sorted([
        ((x.numerator << 64) // x.denominator, x, i, at, after)  # _key(x), with no call
        for i, op in enumerate(operands)
        for x, at, after in op
    ])
    at = [zero] * len(operands)
    after = [zero] * len(operands)
    touched: list[int] = []
    k = x = None
    for ek, ex, i, v_at, v_after in events:
        if touched and (ek != k or (ex is not x and ex != x)):
            yield x, at, after, touched
            for j in touched:
                at[j] = after[j]
            touched.clear()
        k, x = ek, ex
        at[i] = v_at
        after[i] = v_after
        touched.append(i)
    if touched:
        yield x, at, after, touched


def _sums(operands: Sequence[Sequence[tuple]]) -> Iterator[tuple]:
    """``(x, sum(at), sum(after))`` for each ``x`` of ``_sweep(operands, 0)``,
    from a running sum that only the touched operands move: booleans sum to
    the count of operands in, disjoint bits to a mask."""
    gap = [0] * len(operands)  # each operand's value left of x
    total = 0
    for x, at, after, touched in _sweep(operands, 0):
        here = total
        for j in touched:
            here += at[j] - gap[j]
            total += after[j] - gap[j]
            gap[j] = after[j]
        yield x, here, total


def _canonical_breaks(breaks: Iterable[tuple], zero, eq=operator.eq) -> list[tuple]:
    """Drop every breakpoint whose left, point and right values are equal.

    ``breaks`` are ``(x, value at x, value right of x)`` in increasing ``x``,
    ``zero`` left of the first and right of the last.  Removing a breakpoint
    joins two gaps of equal value, so it changes no other breakpoint's test
    and one pass is exact.  Identity is tested before ``eq`` (``stepfn``'s
    compares integers): the sweep carries a value across other operands'
    breakpoints as the same object.
    """
    kept = []
    left = zero
    for b in breaks:
        _, at, after = b
        if not ((left is at or eq(left, at)) and (at is after or eq(at, after))):
            kept.append(b)
        left = after
    return kept


def _from_breaks(breaks: Iterable[tuple]) -> IntervalSet:
    """Canonical set of a 0/1 breakpoint list: maximal runs become pieces."""
    pieces: list[Piece] = []
    lo = lo_closed = None
    inside = False
    kept = _canonical_breaks(breaks, False)
    for x, at, after in kept:
        if inside:  # a piece runs up to x; at and after are not both in
            pieces.append(_trusted(Piece, lo=lo, lo_closed=lo_closed, hi=x, hi_closed=at))
            lo, lo_closed = x, False
        elif after:
            lo, lo_closed = x, at
        else:  # kept, out on both sides: an isolated point
            pieces.append(_trusted(Piece, lo=x, lo_closed=True, hi=x, hi_closed=True))
        inside = after
    return _trusted(IntervalSet, pieces=tuple(pieces), _breaks=tuple(kept))


def _combine(a: IntervalSet, b: IntervalSet, keep) -> IntervalSet:
    return _from_breaks(
        (x, keep(*at), keep(*after))
        for x, at, after, _ in _sweep((a._breaks, b._breaks), False)
    )


def iset_meet(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return _combine(a, b, operator.and_)


def iset_join(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return _combine(a, b, operator.or_)


def iset_meet_join(a: IntervalSet, b: IntervalSet) -> tuple[IntervalSet, IntervalSet]:
    """``(a ∩ b, a ∪ b)`` from one sweep of the two operands."""
    meet, join = [], []
    for x, (p, q), (r, s), _ in _sweep((a._breaks, b._breaks), False):
        meet.append((x, p & q, r & s))
        join.append((x, p | q, r | s))
    return _from_breaks(meet), _from_breaks(join)


def iset_diff(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return _combine(a, b, operator.gt)


def iset_symmdiff(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return _combine(a, b, operator.ne)


_PIECE_ENDS = frozenset({"lo", "hi"})
_PIECE_KEYS = _PIECE_ENDS | {"lo_closed", "hi_closed"}


def _descriptor_breaks(d, num=rat) -> tuple:
    """The checked breakpoints of one descriptor; ``num`` parses its endpoints."""
    if isinstance(d, IntervalSet):
        return d._breaks
    if isinstance(d, Piece):
        d = d.lo, d.hi, d.lo_closed, d.hi_closed
    elif isinstance(d, dict):
        fields(d, _PIECE_ENDS, _PIECE_KEYS)
        d = d["lo"], d["hi"], d.get("lo_closed", True), d.get("hi_closed", True)
    if not isinstance(d, (list, tuple)) or len(d) not in (2, 4):
        raise ValueError(f"bad interval descriptor: {d!r}")
    if not all(isinstance(f, bool) for f in d[2:]):
        raise ValueError(f"lo_closed and hi_closed must be booleans: {d!r}")
    return _interval_breaks(num(d[0]), num(d[1]), *d[2:])


def iset_make(raw: Iterable) -> IntervalSet:
    """Union of interval descriptors, in canonical form.

    A descriptor is an ``IntervalSet``, a ``Piece``, a dict with keys ``lo``,
    ``hi`` and optional ``lo_closed``/``hi_closed``, or a list or tuple
    ``(lo, hi)`` or ``(lo, hi, lo_closed, hi_closed)``; flags are booleans in
    every form.  Overlapping and adjacent pieces are merged.
    """
    return _union([_descriptor_breaks(d) for d in raw])


def _union(parts: Sequence[Sequence[tuple]]) -> IntervalSet:
    """The canonical union of checked 0/1 breakpoint lists: one sweep, none for one list."""
    if len(parts) == 1:
        return _from_breaks(parts[0])
    return _from_breaks((x, here > 0, after > 0) for x, here, after in _sums(parts))


def iset_from_json(doc: list) -> IntervalSet:
    return _set_from_json(doc, rat)


def _set_from_json(doc: list, num) -> IntervalSet:
    """``iset_from_json`` with the endpoints read by ``num``."""
    if not isinstance(doc, list):
        raise TypeError(f"expected a list of intervals, got {type(doc).__name__}")
    return _union([_descriptor_breaks(d, num) for d in doc])


def measure(a: IntervalSet) -> Fraction:
    """Total length: sum of hi - lo over pieces; boundary kinds are irrelevant."""
    if not a.pieces:
        return Fraction(0)
    first, *rest = a.pieces
    return sum((p.hi - p.lo for p in rest), first.hi - first.lo)


def probe_points(*sets: IntervalSet, offset: Fraction = Fraction(1, 1000)) -> list[Fraction]:
    """Membership-probe grid: every endpoint, endpoint +/- offset, piece midpoints."""
    out: set[Fraction] = set()
    for s in sets:
        for p in s.pieces:
            for e in (p.lo, p.hi):
                out.update((e, e - offset, e + offset))
            out.add((p.lo + p.hi) / 2)
    return sorted(out)
