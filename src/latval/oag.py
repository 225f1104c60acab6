"""Exact ordered Abelian groups and their elements.

Everything is built on ``fractions.Fraction`` so all comparisons and
identities below are exact.  Three concrete groups are provided: the
rationals, the lexicographic plane and the strictly positive rationals under
multiplication ordered by divisibility; ``product_group`` builds finite
products, and ``lattice.opposite`` reverses the order of a group.  Orders
may be partial (products, divisibility), but every group here is lattice
ordered, so a ``Group`` is a ``Lattice`` and ``meet`` and ``join`` are
always defined.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterable

from .lattice import Lattice, product_lattice
from .report import CheckReport


class ShapeError(TypeError, ValueError):
    """Input of the wrong shape: a numeral ``rat`` rejects, or an object ``fields`` rejects."""


def rat(value) -> Fraction:
    """Read a numeral ``[-]p`` or ``[-]p/q``, ``q > 0``, in ASCII digits, an int, or a Fraction."""
    if isinstance(value, str):  # before the Fraction test, an ABC instance check
        # ASCII spaces only: ``strip()`` would also take '\x1c' to '\x1f'; and
        # ``isdigit`` alone would pass digits like '²' that ``int`` rejects
        num, slash, den = value.strip(" \t\n\r\x0b\x0c").partition("/")
        if value.isascii() and num.removeprefix("-").isdigit() and (not slash or den.isdigit()):
            try:
                p, q = int(num), int(den or 1)
            except ValueError:  # more digits than the interpreter's int-string limit
                raise ShapeError(f"not a rational: {len(num.lstrip('-') + den)} digits, over the "
                                 f"limit of {sys.get_int_max_str_digits()}") from None
            if q:
                return Fraction(p, q)
    elif isinstance(value, Fraction):
        return value
    elif isinstance(value, int) and not isinstance(value, bool):  # bool is never a number here
        return Fraction(value)
    raise ShapeError(f"not a rational: {value!r}")


def fields(doc, required: AbstractSet[str], allowed: AbstractSet[str]) -> dict:
    """``doc``, if it is a JSON object that has every key in ``required`` and
    no key outside ``allowed``; the first missing key, in sorted order, is
    named before any unknown key."""
    if isinstance(doc, dict) and required <= doc.keys() <= allowed:
        return doc
    if not isinstance(doc, dict):
        raise ShapeError(f"expected a JSON object, got {type(doc).__name__}")
    if missing := sorted(required - doc.keys()):
        raise ShapeError(f"missing key {missing[0]!r}")
    raise ShapeError(f"unknown keys {sorted(doc.keys() - allowed)}")


@dataclass(frozen=True, order=False)
class LexPair:
    """Point of the lexicographic plane."""

    first: Fraction
    second: Fraction

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"


@dataclass(frozen=True)
class DivPos:
    """A strictly positive rational, stored reduced as ``value``."""

    value: Fraction

    @staticmethod
    def from_fraction(q) -> "DivPos":
        q = rat(q)
        if q <= 0:
            raise ValueError(f"DivPos requires a strictly positive rational, got {q}")
        return DivPos(q)

    def __str__(self) -> str:
        # trial division: each prime lies in the numerator or the denominator
        exps: dict[int, int] = {}
        for n, sign in ((self.value.numerator, 1), (self.value.denominator, -1)):
            d = 2
            while d * d <= n:
                while n % d == 0:
                    exps[d] = exps.get(d, 0) + sign
                    n //= d
                d += 1 if d == 2 else 2
            if n > 1:
                exps[n] = sign
        return "·".join(f"{p}^{exps[p]}" for p in sorted(exps)) or "1"


class Group(Lattice):
    """A lattice-ordered Abelian group of exact elements, given by a table.

    To a ``Lattice`` it adds the table functions ``add`` and ``neg``, which
    assume elements, the identity ``zero`` and ``sample``, which draws an
    element from a ``random.Random``.  The methods ``add``, ``neg`` and
    ``sub`` check their operands as ``meet`` does, and then call the table.
    """

    def __init__(self, name: str, member, what: str, meet, join, leq, add, neg, zero, sample,
                 fmt=str, meet_join=None):
        super().__init__(name, member, what, meet, join, leq, fmt, meet_join)
        self._add, self._neg, self._zero = add, neg, zero
        self.sample = sample

    def add(self, x, y):
        self._check(x, y)
        return self._add(x, y)

    def neg(self, x):
        self._check(x, x)
        return self._neg(x)

    def zero(self):
        return self._zero

    def sub(self, x, y):
        self._check(x, y)
        return self._add(x, self._neg(y))

    def is_zero(self, x) -> bool:
        return self.equal(x, self._zero)


# Ordered on integers (denominators are positive), not through Fraction's
# comparisons; on a tie meet and join give the first operand, as min and max do.
RATIONALS = Group(
    "rational", lambda x: isinstance(x, Fraction), "a Fraction",
    meet=lambda x, y: y if y.numerator * x.denominator < x.numerator * y.denominator else x,
    join=lambda x, y: y if y.numerator * x.denominator > x.numerator * y.denominator else x,
    leq=lambda x, y: x.numerator * y.denominator <= y.numerator * x.denominator,
    add=operator.add, neg=operator.neg, zero=Fraction(0),
    sample=lambda rng: Fraction(rng.randint(-400, 400), rng.randint(1, 40)),
)


def _lex_leq(x: LexPair, y: LexPair) -> bool:
    c = x.first.numerator * y.first.denominator - y.first.numerator * x.first.denominator
    return c < 0 or c == 0 and RATIONALS._leq(x.second, y.second)


# The rational plane under componentwise addition, ordered lexicographically.
# Its components are Fractions: the order reads their integers.
LEX_PLANE = Group(
    "lex-plane", lambda x: isinstance(x, LexPair) and type(x.first) is type(x.second) is Fraction,
    "a LexPair",
    meet=lambda x, y: x if _lex_leq(x, y) else y,
    join=lambda x, y: y if _lex_leq(x, y) else x,
    leq=_lex_leq,
    add=lambda x, y: LexPair(x.first + y.first, x.second + y.second),
    neg=lambda x: LexPair(-x.first, -x.second),
    zero=LexPair(Fraction(0), Fraction(0)),
    sample=lambda rng: LexPair(
        Fraction(rng.randint(-20, 20), rng.randint(1, 8)),
        Fraction(rng.randint(-400, 400), rng.randint(1, 40)),
    ),
)


# The strictly positive rationals under multiplication, q below r when r/q
# is a positive integer.  Each prime of a reduced fraction divides its
# numerator or its denominator, never both, so meet and join (min and max of
# prime exponents) are gcd and lcm on numerators, lcm and gcd on denominators.
# A member holds a positive Fraction, so the table never divides by zero.
DIV_POS = Group(
    "div-pos",
    lambda x: isinstance(x, DivPos) and type(x.value) is Fraction and x.value.numerator > 0,
    "a DivPos",
    meet=lambda x, y: DivPos(Fraction(math.gcd(x.value.numerator, y.value.numerator),
                                      math.lcm(x.value.denominator, y.value.denominator))),
    join=lambda x, y: DivPos(Fraction(math.lcm(x.value.numerator, y.value.numerator),
                                      math.gcd(x.value.denominator, y.value.denominator))),
    leq=lambda x, y: (y.value.numerator % x.value.numerator == 0
                      and x.value.denominator % y.value.denominator == 0),
    add=lambda x, y: DivPos(x.value * y.value),
    neg=lambda x: DivPos(1 / x.value),
    zero=DivPos(Fraction(1)),
    sample=lambda rng: DivPos.from_fraction(rng.randint(1, 500)),
)


def product_group(factors: Iterable[Group]) -> Group:
    """Finite product with componentwise operations and order.

    ``product_lattice`` gives its order and its element check; the group
    table composes the factors' table functions, so each operand is checked
    once.
    """
    factors = tuple(factors)
    lat = product_lattice(*factors)
    adds, negs = [g._add for g in factors], [g._neg for g in factors]
    return Group(
        lat.name, lat.member, lat.what, lat._meet, lat._join, lat._leq,
        add=lambda x, y: tuple(f(a, b) for f, a, b in zip(adds, x, y)),
        neg=lambda x: tuple(f(a) for f, a in zip(negs, x)),
        zero=tuple(g._zero for g in factors),
        sample=lambda rng: tuple(g.sample(rng) for g in factors),
        fmt=lat.fmt, meet_join=lat._meet_join,
    )


GROUPS: dict[str, Group] = {
    "rational": RATIONALS,
    "lex-plane": LEX_PLANE,
    "div-pos": DIV_POS,
    "rational-pair": product_group([RATIONALS, RATIONALS]),
}


def check_group_axioms(group: Group, samples: int, seed: int) -> CheckReport:
    """Sampled checks of the ordered-group laws on a group.

    Covers commutativity/associativity/inverses, translation invariance of
    the order in both directions, order reversal under negation, and the
    meet+join identity a∧b + a∨b = a + b.
    On the divisibility group the meet+join identity is additionally checked
    against integer gcd/lcm on integer samples.
    """
    rng = random.Random(seed)
    report = CheckReport()
    add, neg, leq, zero = group._add, group._neg, group._leq, group.zero()
    equal = lambda a, b: leq(a, b) and leq(b, a)
    for _ in range(samples):
        x, y, w = group.sample(rng), group.sample(rng), group.sample(rng)
        group._check(x, y)
        group._check(w, w)
        wit = lambda: f"x={group.fmt(x)} y={group.fmt(y)} w={group.fmt(w)}"  # for a failure only

        report.record("abelian: x+y = y+x", equal(add(x, y), add(y, x)), wit)
        report.record(
            "associative: (x+y)+w = x+(y+w)", equal(add(add(x, y), w), add(x, add(y, w))), wit
        )
        report.record("identity: x+0 = x", equal(add(x, zero), x), wit)
        report.record("inverse: x+(-x) = 0", equal(add(x, neg(x)), zero), wit)

        report.record(
            "translation: x<=y iff w+x<=w+y", leq(x, y) == leq(add(w, x), add(w, y)), wit
        )
        report.record(
            "negation reverses: x<=y iff -y<=-x", leq(x, y) == leq(neg(y), neg(x)), wit
        )

        lhs = add(*group._meet_join(x, y))
        report.record("meet+join = x+y", equal(lhs, add(x, y)), wit)

    if group is DIV_POS:
        for _ in range(samples):
            m, n = rng.randint(1, 500), rng.randint(1, 500)
            dm, dn = DivPos.from_fraction(m), DivPos.from_fraction(n)
            ok = (
                group.meet(dm, dn).value == math.gcd(m, n)
                and group.join(dm, dn).value == math.lcm(m, n)
                and math.gcd(m, n) * math.lcm(m, n) == m * n
            )
            report.record("divisibility gcd/lcm oracle", ok, f"m={m} n={n}")

    if group is LEX_PLANE:
        # The chain (0,1) <= (0,2) <= ... is bounded above by (1,0), yet any
        # upper bound (x,y) with x > 0 admits the strictly smaller upper
        # bound (x, y-1), so no sampled candidate is a least upper bound.
        bound = LexPair(Fraction(1), Fraction(0))
        chain = [LexPair(Fraction(0), Fraction(k)) for k in range(1, 50)]
        for _ in range(samples):
            n = rng.randint(1, 10**6)
            report.record(
                "chain (0,n) bounded by (1,0)",
                group.leq(LexPair(Fraction(0), Fraction(n)), bound),
                f"n={n}",
            )
            cand = group.sample(rng)
            if all(group.leq(p, cand) for p in chain[:3]) and cand.first > 0:
                smaller = LexPair(cand.first, cand.second - 1)
                still_bound = all(group.leq(p, smaller) for p in chain)
                report.record(
                    "no least upper bound of (0,n)",
                    still_bound and group.leq(smaller, cand) and not group.equal(smaller, cand),
                    lambda: f"candidate={group.fmt(cand)}",
                )

    return report
