"""Exact ordered Abelian groups and their elements.

Everything is built on ``fractions.Fraction`` so all comparisons and
identities below are exact.  Three concrete groups are provided besides the
rationals: the lexicographic plane, the strictly positive rationals under
multiplication ordered by divisibility, and finite products.  Orders may be
partial (products, divisibility); ``meet``/``join`` are only available on
lattice-ordered groups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .report import CheckReport

class ShapeError(TypeError):
    """Operands of mismatched tag or ambient shape."""


class UnsupportedOperation(ValueError):
    """Requested meet/join on a group that is not lattice ordered."""


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
    """An ordered Abelian group of exact elements.

    Subclasses fix the element representation and supply ``add``, ``neg``,
    ``leq`` and a seeded ``sample``.  ``meet``/``join`` exist only when
    ``is_lattice`` holds.
    """

    name = "group"
    is_lattice = False
    totally_ordered = False

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def leq(self, x, y) -> bool:
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def equal(self, x, y) -> bool:
        return self.leq(x, y) and self.leq(y, x)

    def is_zero(self, x) -> bool:
        return self.equal(x, self.zero())

    def meet(self, x, y):
        raise UnsupportedOperation(f"{self.name} is not lattice ordered")

    def join(self, x, y):
        raise UnsupportedOperation(f"{self.name} is not lattice ordered")

    def fmt(self, x) -> str:
        return str(x)

    def sample(self, rng: random.Random):
        raise NotImplementedError

    def check_element(self, x) -> None:
        raise NotImplementedError


class RationalGroup(Group):
    name = "rational"
    is_lattice = True
    totally_ordered = True

    def add(self, x, y):
        self.check_element(x), self.check_element(y)
        return x + y

    def neg(self, x):
        self.check_element(x)
        return -x

    def zero(self):
        return Fraction(0)

    def leq(self, x, y) -> bool:
        self.check_element(x), self.check_element(y)
        return x <= y

    def meet(self, x, y):
        return min(x, y)

    def join(self, x, y):
        return max(x, y)

    def sample(self, rng: random.Random):
        return Fraction(rng.randint(-400, 400), rng.randint(1, 40))

    def check_element(self, x) -> None:
        if not isinstance(x, Fraction):
            raise ShapeError(f"expected a Fraction, got {x!r}")


class LexPlaneGroup(Group):
    """Rational plane under componentwise addition, lexicographic order."""

    name = "lex-plane"
    is_lattice = True  # totally ordered, so min/max exist
    totally_ordered = True

    def add(self, x, y):
        self.check_element(x), self.check_element(y)
        return LexPair(x.first + y.first, x.second + y.second)

    def neg(self, x):
        self.check_element(x)
        return LexPair(-x.first, -x.second)

    def zero(self):
        return LexPair(Fraction(0), Fraction(0))

    def leq(self, x, y) -> bool:
        self.check_element(x), self.check_element(y)
        return x.first < y.first or (x.first == y.first and x.second <= y.second)

    def meet(self, x, y):
        return x if self.leq(x, y) else y

    def join(self, x, y):
        return y if self.leq(x, y) else x

    def sample(self, rng: random.Random):
        return LexPair(
            Fraction(rng.randint(-20, 20), rng.randint(1, 8)),
            Fraction(rng.randint(-400, 400), rng.randint(1, 40)),
        )

    def check_element(self, x) -> None:
        if not isinstance(x, LexPair):
            raise ShapeError(f"expected a LexPair, got {x!r}")


class DivPosGroup(Group):
    """Strictly positive rationals, multiplication as the group operation.

    q precedes r when r/q is a positive integer, so meet and join are the
    divisibility gcd and lcm (componentwise min/max of prime exponents).
    """

    name = "div-pos"
    is_lattice = True
    totally_ordered = False

    def add(self, x, y):
        self.check_element(x), self.check_element(y)
        exps = dict(x.exponents)
        for p, e in y.exponents:
            exps[p] = exps.get(p, 0) + e
        return DivPos.from_exponents(exps)

    def neg(self, x):
        self.check_element(x)
        return DivPos.from_exponents({p: -e for p, e in x.exponents})

    def zero(self):
        return DivPos(())

    def leq(self, x, y) -> bool:
        self.check_element(x), self.check_element(y)
        ex, ey = dict(x.exponents), dict(y.exponents)
        return all(ex.get(p, 0) <= ey.get(p, 0) for p in set(ex) | set(ey))

    def meet(self, x, y):
        ex, ey = dict(x.exponents), dict(y.exponents)
        return DivPos.from_exponents(
            {p: min(ex.get(p, 0), ey.get(p, 0)) for p in set(ex) | set(ey)}
        )

    def join(self, x, y):
        ex, ey = dict(x.exponents), dict(y.exponents)
        return DivPos.from_exponents(
            {p: max(ex.get(p, 0), ey.get(p, 0)) for p in set(ex) | set(ey)}
        )

    def sample(self, rng: random.Random):
        return DivPos.from_int(rng.randint(1, 500))

    def check_element(self, x) -> None:
        if not isinstance(x, DivPos):
            raise ShapeError(f"expected a DivPos, got {x!r}")


class ProductGroup(Group):
    """Finite product with componentwise operations and order."""

    def __init__(self, factors: Iterable[Group]):
        self.factors = tuple(factors)
        self.name = "product(" + ", ".join(g.name for g in self.factors) + ")"
        self.is_lattice = all(g.is_lattice for g in self.factors)
        self.totally_ordered = False

    def add(self, x, y):
        self.check_element(x), self.check_element(y)
        return tuple(g.add(a, b) for g, a, b in zip(self.factors, x, y))

    def neg(self, x):
        self.check_element(x)
        return tuple(g.neg(a) for g, a in zip(self.factors, x))

    def zero(self):
        return tuple(g.zero() for g in self.factors)

    def leq(self, x, y) -> bool:
        self.check_element(x), self.check_element(y)
        return all(g.leq(a, b) for g, a, b in zip(self.factors, x, y))

    def meet(self, x, y):
        if not self.is_lattice:
            raise UnsupportedOperation(f"{self.name} is not lattice ordered")
        return tuple(g.meet(a, b) for g, a, b in zip(self.factors, x, y))

    def join(self, x, y):
        if not self.is_lattice:
            raise UnsupportedOperation(f"{self.name} is not lattice ordered")
        return tuple(g.join(a, b) for g, a, b in zip(self.factors, x, y))

    def fmt(self, x) -> str:
        return "(" + ", ".join(g.fmt(a) for g, a in zip(self.factors, x)) + ")"

    def sample(self, rng: random.Random):
        return tuple(g.sample(rng) for g in self.factors)

    def check_element(self, x) -> None:
        if not isinstance(x, tuple) or len(x) != len(self.factors):
            raise ShapeError(f"expected a {len(self.factors)}-tuple, got {x!r}")
        for g, a in zip(self.factors, x):
            g.check_element(a)


class OppositeGroup(Group):
    """Same group structure, reversed order."""

    def __init__(self, inner: Group):
        self.inner = inner
        self.name = f"opposite({inner.name})"
        self.is_lattice = inner.is_lattice
        self.totally_ordered = inner.totally_ordered

    def add(self, x, y):
        return self.inner.add(x, y)

    def neg(self, x):
        return self.inner.neg(x)

    def zero(self):
        return self.inner.zero()

    def leq(self, x, y) -> bool:
        return self.inner.leq(y, x)

    def meet(self, x, y):
        return self.inner.join(x, y)

    def join(self, x, y):
        return self.inner.meet(x, y)

    def fmt(self, x) -> str:
        return self.inner.fmt(x)

    def sample(self, rng: random.Random):
        return self.inner.sample(rng)

    def check_element(self, x) -> None:
        self.inner.check_element(x)


RATIONALS = RationalGroup()
LEX_PLANE = LexPlaneGroup()
DIV_POS = DivPosGroup()

_BUILTIN_GROUPS: dict[str, Callable[[], Group]] = {
    "rational": lambda: RATIONALS,
    "lex-plane": lambda: LEX_PLANE,
    "div-pos": lambda: DIV_POS,
    "rational-pair": lambda: ProductGroup([RATIONALS, RATIONALS]),
}


def group_by_name(name: str) -> Group:
    try:
        return _BUILTIN_GROUPS[name]()
    except KeyError:
        raise KeyError(f"unknown group descriptor {name!r}") from None


def check_group_axioms(descriptor: str | Group, samples: int, seed: int) -> CheckReport:
    """Sampled checks of the ordered-group laws on one of the built-in groups.

    Covers commutativity/associativity/inverses, translation invariance of
    the order in both directions, order reversal under negation, and (on
    lattice-ordered groups) the meet+join identity a∧b + a∨b = a + b.
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

        if group.is_lattice:
            lhs = group.add(group.meet(x, y), group.join(x, y))
            report.record(
                "meet+join = x+y", group.equal(lhs, group.add(x, y)), wit
            )

    if isinstance(group, DivPosGroup):
        import math

        for _ in range(samples):
            m, n = rng.randint(1, 500), rng.randint(1, 500)
            dm, dn = DivPos.from_int(m), DivPos.from_int(n)
            ok = (
                group.meet(dm, dn).as_fraction() == math.gcd(m, n)
                and group.join(dm, dn).as_fraction() == math.lcm(m, n)
                and math.gcd(m, n) * math.lcm(m, n) == m * n
            )
            report.record("divisibility gcd/lcm oracle", ok, f"m={m} n={n}")

    if isinstance(group, LexPlaneGroup):
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
