"""Lattices: one checked table-driven class, explicit finite lattices, and
the opposite and product combinators.

The table has a ``meet_join`` entry besides ``meet`` and ``join``: both
bounds of one pair from one call, so the distance ``phi(a v b) - phi(a ^ b)``
and the modular law read a pair's bounds with one check of the operands, and
the interval-set and step-function tables make both from one sweep.
"""

from __future__ import annotations

import copy
import math
import operator
from typing import Hashable, Iterable, Sequence

MAX_FINITE_CARRIER = 64


class NotAPartialOrder(ValueError):
    pass


class NotALattice(ValueError):
    def __init__(self, message: str, pair: tuple | None = None):
        super().__init__(message)
        self.pair = pair


class ForeignElement(ValueError):
    pass


class Lattice:
    """A lattice of exact elements, given by a membership test and a table.

    The table functions ``meet``, ``join``, ``meet_join`` and ``leq`` assume
    members; the methods of the same names, and ``equal``, check their
    operands once and then call them.  The first operand ``x`` with
    ``member(x)`` false raises ``ForeignElement`` with the message
    ``"<x!r> is not <what>"``.  ``meet_join`` gives ``(a ^ b, a v b)``; by
    default it calls ``meet`` and ``join``, and a table that makes both
    bounds in one pass supplies its own.  ``fmt`` renders an element.
    """

    opposite_of: Lattice | None = None  # set by ``opposite``
    _opposite: Lattice | None = None  # the copy ``opposite`` made of this lattice

    def __init__(self, name: str, member, what: str, meet, join, leq, fmt=str, meet_join=None):
        self.name = name
        self.member = member
        self.what = what
        self._meet, self._join, self._leq = meet, join, leq
        self._meet_join = meet_join or (lambda a, b: (meet(a, b), join(a, b)))
        self.fmt = fmt

    def _check(self, a, b) -> None:
        if not (self.member(a) and self.member(b)):
            foreign = b if self.member(a) else a
            raise ForeignElement(f"{foreign!r} is not {self.what}")

    def meet(self, a, b):
        self._check(a, b)
        return self._meet(a, b)

    def join(self, a, b):
        self._check(a, b)
        return self._join(a, b)

    def meet_join(self, a, b) -> tuple:
        self._check(a, b)
        return self._meet_join(a, b)

    def leq(self, a, b) -> bool:
        self._check(a, b)
        return self._leq(a, b)

    def equal(self, a, b) -> bool:
        self._check(a, b)
        return self._leq(a, b) and self._leq(b, a)


def _label_test(carrier: Sequence[Hashable]):
    """The test of whether a value is one of ``carrier``'s labels: equal to
    one in value and in type, so ``True`` and ``1.0`` are not the label ``1``
    although both equal it; an unhashable value is no label."""
    labels = {a: type(a) for a in carrier}

    def member(a) -> bool:
        try:
            return labels.get(a) is type(a)
        except TypeError:
            return False

    return member


class FiniteLattice(Lattice):
    """Explicit lattice on at most 64 labelled elements.

    The tables ``leq``, ``meet`` and ``join`` map every pair of labels to its
    entry; ``finite_lattice_build`` precomputes them, and fails if the
    relation is not a partial order or some pair lacks a greatest lower /
    least upper bound.
    """

    def __init__(self, carrier: Sequence[Hashable], leq: dict, meet: dict, join: dict):
        self.carrier = tuple(carrier)
        super().__init__(
            "finite", _label_test(self.carrier), "in the carrier",
            lambda a, b: meet[a, b], lambda a, b: join[a, b], lambda a, b: leq[a, b],
            meet_join=lambda a, b: (meet[a, b], join[a, b]),
        )

    def __len__(self) -> int:
        return len(self.carrier)


def finite_lattice_build(
    carrier: Sequence[Hashable], leq_pairs: Iterable[tuple[Hashable, Hashable]]
) -> FiniteLattice:
    """Build a finite lattice from generating order pairs.

    Element ``i`` is its up-set ``up[i]`` and its down-set ``down[i]``, bit
    masks over the carrier indices; the pairs are closed reflexively and
    transitively by Warshall on the up-set rows.  Two elements are order
    equivalent when their up-sets are equal, and the glb of ``i`` and ``j``
    is the element whose down-set is ``down[i] & down[j]`` (the lub likewise
    from the up-sets), so each bound is one lookup.
    """
    elems = list(carrier)
    if len(elems) > MAX_FINITE_CARRIER:
        raise ValueError(f"carrier exceeds {MAX_FINITE_CARRIER} elements")
    if len(set(elems)) != len(elems):
        raise ValueError("carrier has duplicate labels")
    index = {x: i for i, x in enumerate(elems)}
    is_label = _label_test(elems)
    n = len(elems)

    up = [1 << i for i in range(n)]
    for a, b in leq_pairs:
        if not (is_label(a) and is_label(b)):
            raise ForeignElement(f"order pair ({a!r}, {b!r}) mentions a non-carrier label")
        up[index[a]] |= 1 << index[b]
    for k in range(n):
        up = [row | up[k] if row >> k & 1 else row for row in up]
    down = [sum(1 << i for i, row in enumerate(up) if row >> j & 1) for j in range(n)]

    at_up = {}
    for j, row in enumerate(up):
        at_up.setdefault(row, j)
    if len(at_up) < n:  # report the first equivalent pair i < j in row-major order
        i, j = min((at_up[row], j) for j, row in enumerate(up) if at_up[row] != j)
        raise NotAPartialOrder(
            f"antisymmetry fails: {elems[i]!r} and {elems[j]!r} are order equivalent"
        )
    at_down = {row: j for j, row in enumerate(down)}

    leq, meet, join = {}, {}, {}
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            lo, hi = at_down.get(down[i] & down[j]), at_up.get(up[i] & up[j])
            if lo is None or hi is None:
                kind = "greatest lower" if lo is None else "least upper"
                raise NotALattice(f"pair ({a!r}, {b!r}) has no {kind} bound", pair=(a, b))
            leq[a, b], meet[a, b], join[a, b] = bool(up[i] >> j & 1), elems[lo], elems[hi]
    return FiniteLattice(elems, leq, meet, join)


def check_distributive(lat: FiniteLattice):
    """Decide distributivity; returns (True, None) or (False, first bad triple).

    Every finite lattice is sigma-complete and its countable meets and joins
    reduce to finite ones, so for finite lattices this decides
    sigma-distributivity as well.  The counterexample is the
    lexicographically first failing triple in carrier order.
    """
    for a in lat.carrier:
        for b in lat.carrier:
            for c in lat.carrier:
                if lat.meet(a, lat.join(b, c)) != lat.join(lat.meet(a, b), lat.meet(a, c)):
                    return False, (a, b, c)
    return True, None


DIVISIBILITY = Lattice(
    "divisibility",
    lambda a: isinstance(a, int) and not isinstance(a, bool) and a >= 1,
    "a positive integer",
    math.gcd,
    math.lcm,
    lambda a, b: b % a == 0,
)


def finite_subset_lattice(ground: Iterable[Hashable]) -> Lattice:
    """Finite subsets of a fixed ground set, ordered by inclusion."""
    ground = frozenset(ground)
    return Lattice(
        "finite-subsets",
        lambda a: isinstance(a, frozenset) and a <= ground,
        "a subset of the ground set",
        operator.and_,
        operator.or_,
        operator.le,
    )


def opposite(lat: Lattice) -> Lattice:
    """A copy of ``lat`` with its order reversed, so meet and join trade
    places: a group stays a group and a finite lattice keeps its carrier.
    An involution: the opposite of an opposite is the lattice itself, and
    the copy is made once and kept on ``lat``."""
    if lat.opposite_of is not None:
        return lat.opposite_of
    if lat._opposite is not None and lat._opposite.opposite_of is lat:
        return lat._opposite  # kept by this lattice, not by one it was copied from
    inner_leq, inner_meet_join = lat._leq, lat._meet_join
    opp = copy.copy(lat)
    opp.name = f"opposite({lat.name})"
    opp._meet, opp._join = lat._join, lat._meet
    opp._meet_join = lambda a, b: inner_meet_join(a, b)[::-1]
    opp._leq = lambda a, b: inner_leq(b, a)
    opp.opposite_of = lat
    lat._opposite = opp
    return opp


def product_lattice(*factors: Lattice) -> Lattice:
    """Componentwise order on tuples with one entry per factor.

    Its table composes the factors' table functions, so each operand is
    checked once: one member test, for a tuple of members.
    """
    n = len(factors)
    members = [f.member for f in factors]
    meets, joins = [f._meet for f in factors], [f._join for f in factors]
    meet_joins, leqs = [f._meet_join for f in factors], [f._leq for f in factors]
    name = "product(" + ", ".join(f.name for f in factors) + ")"

    def member(a) -> bool:  # a loop, as a generator for ``all`` costs a frame per call
        if not (isinstance(a, tuple) and len(a) == n):
            return False
        for m, x in zip(members, a):
            if not m(x):
                return False
        return True

    def meet_join(a, b):
        bounds = [f(x, y) for f, x, y in zip(meet_joins, a, b)]
        return tuple(m for m, _ in bounds), tuple(j for _, j in bounds)

    return Lattice(
        name,
        member,
        f"a member of {name}",
        lambda a, b: tuple(f(x, y) for f, x, y in zip(meets, a, b)),
        lambda a, b: tuple(f(x, y) for f, x, y in zip(joins, a, b)),
        lambda a, b: all(f(x, y) for f, x, y in zip(leqs, a, b)),
        lambda a: "(" + ", ".join(f.fmt(x) for f, x in zip(factors, a)) + ")",
        meet_join=meet_join,
    )


def chain_lattice(n: int) -> FiniteLattice:
    """The n-element chain 0 < 1 < ... < n-1."""
    return finite_lattice_build(range(n), [(i, i + 1) for i in range(n - 1)])


def diamond_m3() -> FiniteLattice:
    """M3: bottom, three pairwise incomparable atoms, top.  Non-distributive."""
    pairs = [("0", x) for x in "abc"] + [(x, "1") for x in "abc"]
    return finite_lattice_build(["0", "a", "b", "c", "1"], pairs)


def powerset_lattice(ground: Iterable[Hashable]) -> FiniteLattice:
    items = sorted(set(ground), key=repr)
    if 2 ** len(items) > MAX_FINITE_CARRIER:
        raise ValueError("powerset too large for an explicit finite lattice")
    subsets = []
    for mask in range(2 ** len(items)):
        subsets.append(frozenset(x for i, x in enumerate(items) if mask >> i & 1))
    pairs = [(a, b) for a in subsets for b in subsets if a <= b]
    return finite_lattice_build(subsets, pairs)
