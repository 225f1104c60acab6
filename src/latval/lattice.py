"""Lattices: the common interface, explicit finite lattices, and combinators."""

from __future__ import annotations

import math
import operator
from typing import Any, Hashable, Iterable, Sequence

from .oag import rat

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
    """Deterministic meet/join/leq on some carrier of exact elements."""

    name = "lattice"

    def meet(self, a, b):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def equal(self, a, b) -> bool:
        return self.leq(a, b) and self.leq(b, a)

    def fmt(self, a) -> str:
        return str(a)


class CheckedLattice(Lattice):
    """A lattice given by a membership test and its three operations.

    ``meet``, ``join`` and ``leq`` first check their operands: the first
    operand ``x`` with ``member(x)`` false raises ``ForeignElement`` with
    the message ``"<x!r> is not <what>"``.
    """

    def __init__(self, name: str, member, what: str, meet, join, leq):
        self.name = name
        self._member = member
        self._what = what
        self._meet = meet
        self._join = join
        self._leq = leq

    def _check(self, a, b) -> None:
        if not (self._member(a) and self._member(b)):
            foreign = b if self._member(a) else a
            raise ForeignElement(f"{foreign!r} is not {self._what}")

    def meet(self, a, b):
        self._check(a, b)
        return self._meet(a, b)

    def join(self, a, b):
        self._check(a, b)
        return self._join(a, b)

    def leq(self, a, b) -> bool:
        self._check(a, b)
        return self._leq(a, b)


class FiniteLattice(CheckedLattice):
    """Explicit lattice on at most 64 labelled elements.

    Meet and join tables are precomputed at build time; construction fails
    if the relation is not a partial order or some pair lacks a greatest
    lower / least upper bound.
    """

    def __init__(
        self,
        carrier: Sequence[Hashable],
        leq_matrix: dict[tuple[Hashable, Hashable], bool],
        meet_table: dict[tuple[Hashable, Hashable], Hashable],
        join_table: dict[tuple[Hashable, Hashable], Hashable],
    ):
        self.carrier = tuple(carrier)
        super().__init__(
            "finite",
            frozenset(self.carrier).__contains__,
            "in the carrier",
            lambda a, b: meet_table[a, b],
            lambda a, b: join_table[a, b],
            lambda a, b: leq_matrix[a, b],
        )

    def __len__(self) -> int:
        return len(self.carrier)

    def elements(self) -> tuple:
        return self.carrier


def finite_lattice_build(
    carrier: Sequence[Hashable], leq_pairs: Iterable[tuple[Hashable, Hashable]]
) -> FiniteLattice:
    """Build a finite lattice from generating order pairs.

    The pairs are closed reflexively and transitively; antisymmetry and the
    existence of all binary glbs/lubs are then verified.
    """
    elems = list(carrier)
    if len(elems) > MAX_FINITE_CARRIER:
        raise ValueError(f"carrier exceeds {MAX_FINITE_CARRIER} elements")
    if len(set(elems)) != len(elems):
        raise ValueError("carrier has duplicate labels")
    index = {x: i for i, x in enumerate(elems)}
    n = len(elems)

    leq = [[False] * n for _ in range(n)]
    for i in range(n):
        leq[i][i] = True
    for a, b in leq_pairs:
        if a not in index or b not in index:
            raise ForeignElement(f"order pair ({a!r}, {b!r}) mentions a non-carrier label")
        leq[index[a]][index[b]] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                row_k, row_i = leq[k], leq[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True

    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise NotAPartialOrder(
                    f"antisymmetry fails: {elems[i]!r} and {elems[j]!r} are order equivalent"
                )

    def bound(i: int, j: int, lower: bool) -> int:
        if lower:
            cands = [k for k in range(n) if leq[k][i] and leq[k][j]]
        else:
            cands = [k for k in range(n) if leq[i][k] and leq[j][k]]
        best = None
        for k in cands:
            if all((leq[m][k] if lower else leq[k][m]) for m in cands):
                best = k
                break
        if best is None:
            kind = "greatest lower" if lower else "least upper"
            raise NotALattice(
                f"pair ({elems[i]!r}, {elems[j]!r}) has no {kind} bound",
                pair=(elems[i], elems[j]),
            )
        return best

    meet_table: dict[tuple, Any] = {}
    join_table: dict[tuple, Any] = {}
    for i in range(n):
        for j in range(n):
            meet_table[(elems[i], elems[j])] = elems[bound(i, j, lower=True)]
            join_table[(elems[i], elems[j])] = elems[bound(i, j, lower=False)]

    leq_map = {
        (elems[i], elems[j]): leq[i][j] for i in range(n) for j in range(n)
    }
    return FiniteLattice(elems, leq_map, meet_table, join_table)


def finite_lattice_from_json(doc: dict) -> FiniteLattice:
    """Build from a parsed ``{"carrier": [...], "leq": [[a, b], ...]}``."""
    carrier, pairs = doc["carrier"], doc["leq"]
    if not isinstance(carrier, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise ValueError("need a carrier list and a leq list of pairs [a, b]")
    return finite_lattice_build(carrier, [tuple(p) for p in pairs])


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


class RationalChain(Lattice):
    """The rationals as a chain: meet=min, join=max."""

    name = "rational-chain"

    def meet(self, a, b):
        return min(rat(a), rat(b))

    def join(self, a, b):
        return max(rat(a), rat(b))

    def leq(self, a, b) -> bool:
        return rat(a) <= rat(b)


DIVISIBILITY = CheckedLattice(
    "divisibility",
    lambda a: isinstance(a, int) and a >= 1,
    "a positive integer",
    math.gcd,
    math.lcm,
    lambda a, b: b % a == 0,
)


def finite_subset_lattice(ground: Iterable[Hashable]) -> CheckedLattice:
    """Finite subsets of a fixed ground set, ordered by inclusion."""
    ground = frozenset(ground)
    return CheckedLattice(
        "finite-subsets",
        lambda a: isinstance(a, frozenset) and a <= ground,
        "a subset of the ground set",
        operator.and_,
        operator.or_,
        operator.le,
    )


class OppositeLattice(Lattice):
    """Order-reversed view of another lattice; an involution."""

    def __init__(self, inner: Lattice):
        self.inner = inner
        self.name = f"opposite({inner.name})"

    def meet(self, a, b):
        return self.inner.join(a, b)

    def join(self, a, b):
        return self.inner.meet(a, b)

    def leq(self, a, b) -> bool:
        return self.inner.leq(b, a)

    def fmt(self, a) -> str:
        return self.inner.fmt(a)


def opposite(lat: Lattice) -> Lattice:
    if isinstance(lat, OppositeLattice):
        return lat.inner
    return OppositeLattice(lat)


class ProductLattice(Lattice):
    """Componentwise order on pairs."""

    def __init__(self, left: Lattice, right: Lattice):
        self.left = left
        self.right = right
        self.name = f"product({left.name}, {right.name})"

    def meet(self, a, b):
        return (self.left.meet(a[0], b[0]), self.right.meet(a[1], b[1]))

    def join(self, a, b):
        return (self.left.join(a[0], b[0]), self.right.join(a[1], b[1]))

    def leq(self, a, b) -> bool:
        return self.left.leq(a[0], b[0]) and self.right.leq(a[1], b[1])

    def fmt(self, a) -> str:
        return f"({self.left.fmt(a[0])}, {self.right.fmt(a[1])})"


def chain_lattice(n: int) -> FiniteLattice:
    """The n-element chain 0 < 1 < ... < n-1."""
    return finite_lattice_build(range(n), [(i, i + 1) for i in range(n - 1)])


def diamond_m3() -> FiniteLattice:
    """M3: bottom, three pairwise incomparable atoms, top.  Non-distributive."""
    pairs = [("0", x) for x in "abc"] + [(x, "1") for x in "abc"]
    return finite_lattice_build(["0", "a", "b", "c", "1"], pairs)


def pentagon_n5() -> FiniteLattice:
    """N5: the other minimal non-distributive lattice."""
    pairs = [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")]
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
