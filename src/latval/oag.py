"""Exact ordered Abelian groups and their elements.

Everything is built on ``fractions.Fraction`` so all comparisons and
identities below are exact.  Three concrete groups are provided: the
rationals, the lexicographic plane and the strictly positive rationals under
multiplication ordered by divisibility; ``product_group`` and
``opposite_group`` build finite products and order reversals of groups.
Orders may be partial (products, divisibility), but every group here is
lattice ordered, so ``meet`` and ``join`` are always defined.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .report import CheckReport

class ShapeError(TypeError):
    """Operands of mismatched tag or ambient shape."""


def rat(value) -> Fraction:
    """Parse ``p/q`` strings, ints, or pass Fractions through."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise ShapeError(f"not a rational: {value!r}")


@dataclass(frozen=True, order=False)
class LexPair:
    """Point of the lexicographic plane."""

    first: Fraction
    second: Fraction

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"


@dataclass(frozen=True)
class DivPos:
    """A strictly positive rational stored as its prime factorization.

    ``exponents`` maps primes to nonzero integer exponents; the empty
    mapping is 1.  Meet/join under the divisibility order are componentwise
    min/max of exponents, which keeps gcd/lcm overflow-free.
    """

    exponents: tuple[tuple[int, int], ...]  # sorted (prime, exponent != 0)

    @staticmethod
    def from_exponents(exps: dict[int, int]) -> "DivPos":
        return DivPos(tuple(sorted((p, e) for p, e in exps.items() if e != 0)))

    @staticmethod
    def from_fraction(q) -> "DivPos":
        q = rat(q)
        if q <= 0:
            raise ValueError(f"DivPos requires a strictly positive rational, got {q}")
        exps: dict[int, int] = {}
        for n, sign in ((q.numerator, 1), (q.denominator, -1)):
            for p, e in _factorize(n).items():
                exps[p] = exps.get(p, 0) + sign * e
        return DivPos.from_exponents(exps)

    @staticmethod
    def from_int(n: int) -> "DivPos":
        return DivPos.from_fraction(Fraction(n))

    def as_fraction(self) -> Fraction:
        num, den = 1, 1
        for p, e in self.exponents:
            if e > 0:
                num *= p**e
            else:
                den *= p ** (-e)
        return Fraction(num, den)

    def __str__(self) -> str:
        if not self.exponents:
            return "1"
        return "·".join(f"{p}^{e}" for p, e in self.exponents)


def _factorize(n: int) -> dict[int, int]:
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class Group:
    """A lattice-ordered Abelian group of exact elements, given by a table.

    ``check`` raises ``ShapeError`` on anything that is not an element.  The
    table functions ``add``, ``neg``, ``leq``, ``meet`` and ``join`` assume
    elements; the methods of the same names check their operands and then
    call them.  ``zero`` is the identity, ``sample`` draws an element from a
    ``random.Random`` and ``fmt`` renders one.
    """

    def __init__(self, name: str, check, add, neg, zero, leq, meet, join, sample, fmt=str):
        self.name = name
        self.check_element = check
        self._add, self._neg, self._zero = add, neg, zero
        self._leq, self._meet, self._join = leq, meet, join
        self.sample = sample
        self.fmt = fmt

    def add(self, x, y):
        self.check_element(x), self.check_element(y)
        return self._add(x, y)

    def neg(self, x):
        self.check_element(x)
        return self._neg(x)

    def zero(self):
        return self._zero

    def leq(self, x, y) -> bool:
        self.check_element(x), self.check_element(y)
        return self._leq(x, y)

    def meet(self, x, y):
        self.check_element(x), self.check_element(y)
        return self._meet(x, y)

    def join(self, x, y):
        self.check_element(x), self.check_element(y)
        return self._join(x, y)

    def sub(self, x, y):
        self.check_element(x), self.check_element(y)
        return self._add(x, self._neg(y))

    def equal(self, x, y) -> bool:
        self.check_element(x), self.check_element(y)
        return self._leq(x, y) and self._leq(y, x)

    def is_zero(self, x) -> bool:
        return self.equal(x, self._zero)


def _instances_of(cls) -> Callable[[object], None]:
    """The element check of a group whose elements are the ``cls`` values."""

    def check(x) -> None:
        if not isinstance(x, cls):
            raise ShapeError(f"expected a {cls.__name__}, got {x!r}")

    return check


RATIONALS = Group(
    "rational",
    check=_instances_of(Fraction),
    add=operator.add, neg=operator.neg, zero=Fraction(0),
    leq=operator.le, meet=min, join=max,
    sample=lambda rng: Fraction(rng.randint(-400, 400), rng.randint(1, 40)),
)


def _lex_leq(x: LexPair, y: LexPair) -> bool:
    return x.first < y.first or (x.first == y.first and x.second <= y.second)


# The rational plane under componentwise addition, ordered lexicographically.
LEX_PLANE = Group(
    "lex-plane",
    check=_instances_of(LexPair),
    add=lambda x, y: LexPair(x.first + y.first, x.second + y.second),
    neg=lambda x: LexPair(-x.first, -x.second),
    zero=LexPair(Fraction(0), Fraction(0)),
    leq=_lex_leq,
    meet=lambda x, y: x if _lex_leq(x, y) else y,
    join=lambda x, y: y if _lex_leq(x, y) else x,
    sample=lambda rng: LexPair(
        Fraction(rng.randint(-20, 20), rng.randint(1, 8)),
        Fraction(rng.randint(-400, 400), rng.randint(1, 40)),
    ),
)


def _div_add(x: DivPos, y: DivPos) -> DivPos:
    exps = dict(x.exponents)
    for p, e in y.exponents:
        exps[p] = exps.get(p, 0) + e
    return DivPos.from_exponents(exps)


def _div_leq(x: DivPos, y: DivPos) -> bool:
    ex, ey = dict(x.exponents), dict(y.exponents)
    return all(ex.get(p, 0) <= ey.get(p, 0) for p in set(ex) | set(ey))


def _div_meet(x: DivPos, y: DivPos) -> DivPos:
    ex, ey = dict(x.exponents), dict(y.exponents)
    return DivPos.from_exponents({p: min(ex.get(p, 0), ey.get(p, 0)) for p in set(ex) | set(ey)})


def _div_join(x: DivPos, y: DivPos) -> DivPos:
    ex, ey = dict(x.exponents), dict(y.exponents)
    return DivPos.from_exponents({p: max(ex.get(p, 0), ey.get(p, 0)) for p in set(ex) | set(ey)})


# The strictly positive rationals with multiplication as the group operation:
# q precedes r when r/q is a positive integer, so meet and join are the
# divisibility gcd and lcm (componentwise min/max of prime exponents).
DIV_POS = Group(
    "div-pos",
    check=_instances_of(DivPos),
    add=_div_add,
    neg=lambda x: DivPos.from_exponents({p: -e for p, e in x.exponents}),
    zero=DivPos(()),
    leq=_div_leq, meet=_div_meet, join=_div_join,
    sample=lambda rng: DivPos.from_int(rng.randint(1, 500)),
)


def _componentwise(fns):
    return lambda x, y: tuple(f(a, b) for f, a, b in zip(fns, x, y))


def product_group(factors: Iterable[Group]) -> Group:
    """Finite product with componentwise operations and order.

    Its table composes the factors' table functions, so each operand is
    checked once, by the product's check, which runs the factors' checks.
    """
    factors = tuple(factors)
    checks = [g.check_element for g in factors]
    negs = [g._neg for g in factors]
    leqs = [g._leq for g in factors]

    def check(x) -> None:
        if not isinstance(x, tuple) or len(x) != len(factors):
            raise ShapeError(f"expected a {len(factors)}-tuple, got {x!r}")
        for c, a in zip(checks, x):
            c(a)

    return Group(
        "product(" + ", ".join(g.name for g in factors) + ")",
        check=check,
        add=_componentwise([g._add for g in factors]),
        neg=lambda x: tuple(f(a) for f, a in zip(negs, x)),
        zero=tuple(g._zero for g in factors),
        leq=lambda x, y: all(f(a, b) for f, a, b in zip(leqs, x, y)),
        meet=_componentwise([g._meet for g in factors]),
        join=_componentwise([g._join for g in factors]),
        sample=lambda rng: tuple(g.sample(rng) for g in factors),
        fmt=lambda x: "(" + ", ".join(g.fmt(a) for g, a in zip(factors, x)) + ")",
    )


def opposite_group(inner: Group) -> Group:
    """The same group with its order reversed, so meet and join trade places."""
    inner_leq = inner._leq
    return Group(
        f"opposite({inner.name})",
        check=inner.check_element,
        add=inner._add, neg=inner._neg, zero=inner._zero,
        leq=lambda x, y: inner_leq(y, x), meet=inner._join, join=inner._meet,
        sample=inner.sample, fmt=inner.fmt,
    )


GROUPS: dict[str, Group] = {
    "rational": RATIONALS,
    "lex-plane": LEX_PLANE,
    "div-pos": DIV_POS,
    "rational-pair": product_group([RATIONALS, RATIONALS]),
}


def group_by_name(name: str) -> Group:
    try:
        return GROUPS[name]
    except KeyError:
        raise KeyError(f"unknown group descriptor {name!r}") from None


def check_group_axioms(descriptor: str | Group, samples: int, seed: int) -> CheckReport:
    """Sampled checks of the ordered-group laws on one of the built-in groups.

    Covers commutativity/associativity/inverses, translation invariance of
    the order in both directions, order reversal under negation, and the
    meet+join identity a∧b + a∨b = a + b.
    On the divisibility group the meet+join identity is additionally checked
    against integer gcd/lcm on integer samples.
    """
    group = descriptor if isinstance(descriptor, Group) else group_by_name(descriptor)
    rng = random.Random(seed)
    report = CheckReport()
    zero = group.zero()
    for _ in range(samples):
        x, y, w = group.sample(rng), group.sample(rng), group.sample(rng)
        wit = f"x={group.fmt(x)} y={group.fmt(y)} w={group.fmt(w)}"

        report.record("abelian: x+y = y+x", group.equal(group.add(x, y), group.add(y, x)), wit)
        report.record(
            "associative: (x+y)+w = x+(y+w)",
            group.equal(group.add(group.add(x, y), w), group.add(x, group.add(y, w))),
            wit,
        )
        report.record("identity: x+0 = x", group.equal(group.add(x, zero), x), wit)
        report.record("inverse: x+(-x) = 0", group.is_zero(group.add(x, group.neg(x))), wit)

        report.record(
            "translation: x<=y iff w+x<=w+y",
            group.leq(x, y) == group.leq(group.add(w, x), group.add(w, y)),
            wit,
        )
        report.record(
            "negation reverses: x<=y iff -y<=-x",
            group.leq(x, y) == group.leq(group.neg(y), group.neg(x)),
            wit,
        )

        lhs = group.add(group.meet(x, y), group.join(x, y))
        report.record("meet+join = x+y", group.equal(lhs, group.add(x, y)), wit)

    if group is DIV_POS:
        for _ in range(samples):
            m, n = rng.randint(1, 500), rng.randint(1, 500)
            dm, dn = DivPos.from_int(m), DivPos.from_int(n)
            ok = (
                group.meet(dm, dn).as_fraction() == math.gcd(m, n)
                and group.join(dm, dn).as_fraction() == math.lcm(m, n)
                and math.gcd(m, n) * math.lcm(m, n) == m * n
            )
            report.record("divisibility gcd/lcm oracle", ok, f"m={m} n={n}")

    if group is LEX_PLANE:
        # The chain (0,1) <= (0,2) <= ... is bounded above by (1,0), yet any
        # upper bound (x,y) with x > 0 admits the strictly smaller upper
        # bound (x, y-1), so no sampled candidate is a least upper bound.
        bound = LexPair(Fraction(1), Fraction(0))
        for _ in range(samples):
            n = rng.randint(1, 10**6)
            report.record(
                "chain (0,n) bounded by (1,0)",
                group.leq(LexPair(Fraction(0), Fraction(n)), bound),
                f"n={n}",
            )
            cand = group.sample(rng)
            if all(
                group.leq(LexPair(Fraction(0), Fraction(k)), cand) for k in (1, 2, 3)
            ) and cand.first > 0:
                smaller = LexPair(cand.first, cand.second - 1)
                still_bound = all(
                    group.leq(LexPair(Fraction(0), Fraction(k)), smaller)
                    for k in range(1, 50)
                )
                report.record(
                    "no least upper bound of (0,n)",
                    still_bound and group.leq(smaller, cand) and not group.equal(smaller, cand),
                    f"candidate={group.fmt(cand)}",
                )

    return report
