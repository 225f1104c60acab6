"""Finite-stage completion machinery.

Monotone lattice sequences come with a mandatory convergence modulus: a map
eps -> N promising that the valuation of stage N is within eps of the limit
of the valuation values.  That modulus is the only finitely checkable
witness that the value infimum/supremum exists, so sequences without one
are rejected outright.  Everything here is truncation-honest: order facts a
finite depth cannot establish come back as ``unknown`` verdicts, and limit
values are reported together with the stage that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Any, Callable, Iterable, Sequence

from .instances import INTERVAL_SETS, mu_S
from .intervals import IntervalSet, interval, iset_join, probe_points
from .lattice import FiniteLattice, Lattice
from .oag import rat
from .report import CheckReport
from .valuation import Valuation

Producer = Callable[[int], Any]  # stage index 1, 2, 3, ...
Modulus = Callable[[Fraction], int]


class MonotonicityError(ValueError):
    def __init__(self, stage: int, message: str):
        super().__init__(message)
        self.stage = stage


class ModulusError(ValueError):
    pass


@dataclass(frozen=True)
class Verdict:
    kind: str  # "proved" | "refuted" | "unknown"
    stage: int
    detail: str = ""

    @staticmethod
    def proved(stage: int, detail: str = "") -> "Verdict":
        return Verdict("proved", stage, detail)

    @staticmethod
    def refuted(stage: int, detail: str = "") -> "Verdict":
        return Verdict("refuted", stage, detail)

    @staticmethod
    def unknown(depth: int, detail: str = "") -> "Verdict":
        return Verdict("unknown", depth, detail)


@dataclass(frozen=True)
class MonoSeq:
    """A lazily produced monotone sequence plus its convergence modulus.

    ``lower_bound`` (optional) is an element below every stage; it feeds
    refutation probes.  ``constant_from`` (optional) declares the tail
    constant from that stage on; both are spot-verified at construction.
    """

    lattice: Lattice
    direction: str  # "decreasing" | "increasing"
    producer: Producer
    modulus: Modulus
    lower_bound: Any | None = None
    constant_from: int | None = None

    def at(self, n: int):
        if n < 1:
            raise IndexError("stages are 1-based")
        return self.producer(n)

    def stage_for(self, eps) -> int:
        eps = rat(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        n = self.modulus(eps)
        if n < 1:
            raise ModulusError(f"modulus returned stage {n} < 1")
        return n

    def value(self, phi: Valuation, eps) -> Any:
        """phi at the modulus stage: within eps of the limit by contract."""
        return phi(self.at(self.stage_for(eps)))

    def combine(self, kind: str, other: MonoSeq) -> MonoSeq:
        """Stage-wise meet or join with a sequence of the same direction.

        The modulus eps -> max(Nx(eps/2), Ny(eps/2)) is sound because the
        two-sided contraction inequality bounds the combined stage change by
        the sum of the component changes.
        """
        if kind not in ("meet", "join"):
            raise ValueError(f"unknown combination {kind!r}")
        if self.direction != other.direction:
            raise ValueError(f"cannot combine a {self.direction} and a {other.direction} sequence")
        op = self.lattice.meet if kind == "meet" else self.lattice.join

        def modulus(eps: Fraction) -> int:
            half = rat(eps) / 2
            return max(self.stage_for(half), other.stage_for(half))

        lb = None
        if self.lower_bound is not None and other.lower_bound is not None:
            lb = op(self.lower_bound, other.lower_bound)
        producer = lambda n: op(self.at(n), other.at(n))
        return MonoSeq(self.lattice, self.direction, producer, modulus, lower_bound=lb)

    def leq_at_depth(self, y: MonoSeq, depth: int, certificate: str | None = None) -> Verdict:
        """Three-valued order test of this sequence's limit x against y's,
        at a truncation depth.

        Proof needs finite-stage evidence plus a tail certificate: either
        ``"y-constant"`` (y declared constant from some stage within depth;
        it proves only for a decreasing x, since a stage of an increasing x
        below y does not bound its supremum) or ``"stagewise"`` (x_n <= y_n
        verified for every n <= depth; the caller asserts the pattern
        continues).  Refutation exhibits a probe point inside x's certified
        lower-bound set but outside some y stage; it needs a decreasing y,
        whose limit lies below each of its stages, and a domain with point
        membership.  Everything else is ``unknown``.
        """
        if depth < 1:
            raise ValueError("depth must be >= 1")
        lat = self.lattice

        if certificate == "y-constant":
            k = y.constant_from
            if k is None or k > depth:
                raise ValueError("y has no constant-tail declaration within depth")
            if self.direction == "decreasing":
                target = y.at(k)
                for n in range(1, depth + 1):
                    if lat.leq(self.at(n), target):
                        return Verdict.proved(max(n, k), f"x_{n} <= y_{k} and y constant from {k}")
        elif certificate == "stagewise":
            if all(lat.leq(self.at(n), y.at(n)) for n in range(1, depth + 1)):
                return Verdict.proved(depth, "x_n <= y_n at every checked stage")
        elif certificate is not None:
            raise ValueError(f"unknown certificate {certificate!r}")

        lb = self.lower_bound
        if y.direction == "decreasing" and lat is INTERVAL_SETS and isinstance(lb, IntervalSet):
            stage_sets = [y.at(m) for m in range(1, depth + 1)]
            cand = probe_points(lb, *stage_sets)
            for m, ym in enumerate(stage_sets, start=1):
                for p in cand:
                    if lb.contains(p) and not ym.contains(p):
                        return Verdict.refuted(
                            m, f"probe {p} lies below every x stage but outside y_{m}"
                        )

        return Verdict.unknown(depth, "no certificate applies at this depth")


def seq_make(
    lattice: Lattice,
    direction: str,
    producer: Producer,
    modulus: Modulus,
    sanity_depth: int = 8,
    phi: Valuation | None = None,
    lower_bound: Any | None = None,
    constant_from: int | None = None,
) -> MonoSeq:
    """Construct a MonoSeq, verifying its contracts to ``sanity_depth``.

    Checks monotonicity in the stated direction, modulus monotonicity on a
    few tolerances, the declared lower bound and constant tail, and (when
    ``phi`` is given) the consequence of the modulus contract that is
    finitely falsifiable: for decreasing sequences phi(a_N(eps)) can exceed
    no later stage value by more than eps, dually for increasing ones.
    """
    if direction not in ("decreasing", "increasing"):
        raise ValueError(f"bad direction {direction!r}")
    if sanity_depth < 1:  # a depth of 0 would verify nothing
        raise ValueError("sanity_depth must be >= 1")
    if constant_from is not None and constant_from < 1:
        raise ValueError("constant_from must be >= 1: stages are 1-based")
    down = direction == "decreasing"

    stages: list = []  # each stage to the sanity depth, produced once
    for n in range(1, sanity_depth + 1):
        cur = producer(n)
        if stages and not (lattice.leq(cur, stages[-1]) if down else lattice.leq(stages[-1], cur)):
            raise MonotonicityError(n, f"sequence is not {direction} at stage {n}")
        stages.append(cur)

    if lower_bound is not None:
        for n, cur in enumerate(stages, start=1):
            if not lattice.leq(lower_bound, cur):
                raise ValueError(f"declared lower bound fails at stage {n}")
    if constant_from is not None:
        for n in range(constant_from, sanity_depth + 1):
            if not lattice.equal(stages[n - 1], stages[constant_from - 1]):
                raise ValueError(f"declared constant tail fails at stage {n}")

    eps_grid = [Fraction(1, 2), Fraction(1, 8), Fraction(1, 64)]
    ns = [modulus(e) for e in eps_grid]
    if any(n < 1 for n in ns):
        raise ModulusError("modulus must return stages >= 1")
    if any(ns[i] > ns[i + 1] for i in range(len(ns) - 1)):
        raise ModulusError("modulus must not shrink for smaller eps")

    if phi is not None:
        g = phi.group
        values = [phi(a) for a in stages]
        for eps, n in zip(eps_grid, ns):
            n0 = min(n, sanity_depth)
            v0 = values[n0 - 1]
            for m, vm in enumerate(values[n0 - 1 :], start=n0):
                gap = g.sub(v0, vm) if down else g.sub(vm, v0)
                if not g.leq(gap, eps):
                    raise ModulusError(
                        f"modulus contract falsified: stage {n0} vs {m} differ by more than {eps}"
                    )

    return MonoSeq(
        lattice, direction, producer, modulus, lower_bound=lower_bound, constant_from=constant_from
    )


def limits_finite(
    lat: FiniteLattice, seq: Sequence, preperiod: int, period: int
) -> tuple[Any, Any, bool]:
    """Exact upper/lower limits of an eventually periodic finite-lattice sequence.

    The declared shape ``seq[i + period] == seq[i]`` for ``i >= preperiod``
    is verified on the supplied prefix; tails beyond the preperiod then
    reduce both limits to the join/meet of one period.
    """
    if period < 1:
        raise ValueError("period must be declared (>= 1)")
    if len(seq) < preperiod + 2 * period:
        raise ValueError("need at least preperiod + 2*period explicit stages")
    for i in range(preperiod, len(seq) - period):
        if seq[i + period] != seq[i]:
            raise ValueError(f"sequence is not {period}-periodic at index {i}")

    cycle = seq[preperiod : preperiod + period]
    ulim, llim = reduce(lat.join, cycle), reduce(lat.meet, cycle)
    return ulim, llim, ulim == llim


def _tails(items: Sequence, op) -> list:
    """``op`` folded over every tail, from the right: entry N is ``op`` over
    ``items[N:]``, so each item is combined once."""
    out = [items[-1]]
    for a in reversed(items[:-1]):
        out.append(op(a, out[-1]))
    return out[::-1]


def phi_limits_at_depth(
    phi: Valuation, producer: Producer, depth: int
) -> tuple[Any, Any, list[tuple[Any, Any]]]:
    """Truncated upper/lower phi-limits with phi of every tail.

    Entry N - 1 of the returned list is ``(phi(a_N v ... v a_depth),
    phi(a_N ^ ... ^ a_depth))``.  The upper limit is the meet of the first
    column, the lower limit the join of the second.  Values are exact for the
    truncation and approximations of the true limits.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    lat, g = phi.domain, phi.group
    stages = [producer(n) for n in range(1, depth + 1)]
    ups = [phi(a) for a in _tails(stages, lat.join)]
    downs = [phi(a) for a in _tails(stages, lat.meet)]
    return reduce(g.meet, ups), reduce(g.join, downs), list(zip(ups, downs))


def convergence_theorem_check(
    kind: str,
    phi: Valuation,
    producer: Producer,
    depth: int,
    tol,
    bounds: tuple[Any, Any] | None = None,
) -> CheckReport:
    """Finite-depth instances of the Fatou and dominated-convergence identities.

    ``fatou``: compares phi of the truncated upper-limit element against the
    truncated upper phi-limit.  ``dct``: requires bounds, checks them at
    every stage, and compares the truncated scalar limit of phi values with
    phi of both truncated limit elements.  All differences must be within
    ``tol``; each comparison is reported separately.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    tol = rat(tol)
    lat, g = phi.domain, phi.group
    report = CheckReport()
    stages = [producer(n) for n in range(1, depth + 1)]
    ups, downs = _tails(stages, lat.join), _tails(stages, lat.meet)
    ulim_elem, llim_elem = reduce(lat.meet, ups), reduce(lat.join, downs)
    pulim = reduce(g.meet, map(phi, ups))
    pllim = reduce(g.join, map(phi, downs))

    def close(x, y) -> bool:
        d = g.sub(x, y)
        return g.leq(d, tol) and g.leq(g.neg(tol), d)

    if kind == "fatou":
        report.record(
            "phi(ulim approx) ~ pulim approx",
            close(phi(ulim_elem), pulim),
            f"lhs={g.fmt(phi(ulim_elem))} rhs={g.fmt(pulim)}",
        )
        report.record(
            "pllim <= pulim",
            g.leq(pllim, pulim),
            f"pllim={g.fmt(pllim)} pulim={g.fmt(pulim)}",
        )
    elif kind == "dct":
        if bounds is None:
            raise ValueError("dominated convergence requires explicit bounds")
        lower, upper = bounds
        for n, a in enumerate(stages, start=1):
            report.record(
                "bounds hold stage-wise",
                lat.leq(lower, a) and lat.leq(a, upper),
                f"stage {n}",
            )
        values = [phi(a) for a in stages]
        scal_ulim = reduce(min, _tails(values, max))
        scal_llim = reduce(max, _tails(values, min))
        report.record(
            "scalar limits agree",
            close(scal_ulim, scal_llim),
            f"ulim={g.fmt(scal_ulim)} llim={g.fmt(scal_llim)}",
        )
        report.record(
            "lim phi ~ phi(llim approx)",
            close(scal_llim, phi(llim_elem)),
            f"lim={g.fmt(scal_llim)} phi(llim)={g.fmt(phi(llim_elem))}",
        )
        report.record(
            "phi(llim approx) ~ phi(ulim approx)",
            close(phi(llim_elem), phi(ulim_elem)),
            f"llim={g.fmt(phi(llim_elem))} ulim={g.fmt(phi(ulim_elem))}",
        )
    else:
        raise ValueError(f"unknown convergence theorem {kind!r}")
    return report


def sqrt2_convergents(depth: int) -> tuple[list[Fraction], list[Fraction]]:
    """(q_n increasing toward sqrt(2), r_n decreasing toward sqrt(2) - 1).

    Both come from the continued-fraction convergents p/s of sqrt(2), which
    (p, s) -> (p + 2s, p + s) steps through: they alternate between the lower
    ones, solving p^2 - 2s^2 = -1, and the upper ones, solving p^2 - 2s^2 = +1.
    """
    qs: list[Fraction] = []
    rs: list[Fraction] = []
    p, s = 1, 1
    for _ in range(depth):
        qs.append(Fraction(p, s))
        p, s = p + 2 * s, p + s
        rs.append(Fraction(p - s, s))
        p, s = p + 2 * s, p + s
    return qs, rs


def sqrt2_witness(depth: int) -> list[dict]:
    """Stage trace of the increasing unions whose measures creep up to sqrt(2).

    A_n = [0, r_1] is constant, B_n = [r_n, q_n] grows, the union is
    [0, q_n] exactly, and mu of the union is q_n: a bounded increasing
    sequence of rationals whose supremum is irrational.  Also verifies that
    the defect |q_n^2 - 2| strictly decreases.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    qs, rs = sqrt2_convergents(depth)
    a_const = interval(0, rs[0])
    mu_a = mu_S(a_const)
    trace = []
    prev_defect = None
    for n in range(depth):
        b = interval(rs[n], qs[n])
        union = iset_join(a_const, b)
        defect = abs(qs[n] ** 2 - 2)
        if prev_defect is not None and not defect < prev_defect:
            raise AssertionError(f"defect fails to decrease at stage {n + 1}")
        prev_defect = defect
        trace.append(
            {
                "stage": n + 1,
                "q": qs[n],
                "r": rs[n],
                "mu_A": mu_a,
                "mu_B": mu_S(b),
                "mu_union": mu_S(union),
                "defect": defect,
            }
        )
    return trace


def rational_square_root_scan(target: Fraction, max_den: int, tol: Fraction) -> list[Fraction]:
    """All p/q with q <= max_den within tol of target whose square is exactly 2."""
    hits = []
    for den in range(1, max_den + 1):
        lo_num = (target - tol) * den
        hi_num = (target + tol) * den
        num = -(-lo_num.numerator // lo_num.denominator)  # ceil
        while Fraction(num, den) <= target + tol:
            c = Fraction(num, den)
            if c * c == 2:
                hits.append(c)
            num += 1
    return hits


def increment_domination_check(
    xs: Sequence[Fraction],
    ys: Sequence[Fraction],
    y_modulus: Modulus,
    eps_grid: Iterable,
) -> CheckReport:
    """Transfer of a modulus across increment domination.

    Given increasing rational sequences with x_{n+1} - x_n <= y_{n+1} - y_n
    and a modulus for y, the same stage works for x: beyond it, x moves by
    no more than y does, hence by no more than eps.  Verified on the given
    prefix for each eps.
    """
    report = CheckReport()
    n = min(len(xs), len(ys))
    for i in range(n - 1):
        report.record(
            "increments dominated",
            xs[i + 1] - xs[i] <= ys[i + 1] - ys[i],
            f"i={i + 1}",
        )
        report.record("x increasing", xs[i + 1] >= xs[i], f"i={i + 1}")
        report.record("y increasing", ys[i + 1] >= ys[i], f"i={i + 1}")
    for eps in eps_grid:
        eps = rat(eps)
        start = y_modulus(eps)  # 1-based stage
        if start <= n:
            # xs is increasing, so the widest gap past the stage is to the end
            report.record(
                "derived modulus certifies x Cauchy",
                xs[n - 1] - xs[start - 1] <= eps,
                f"eps={eps} stages {start}..{n}",
            )
    return report
