"""The dyadic fitting uniformity and constructive dense approximation.

Relation i holds between rationals s and t exactly when s <= t <= s + 2^-i.
Indices are natural numbers with meet = max and halving = successor
(``dyadic_half``), so all tolerance arithmetic is exact powers of two.  The
law checker takes the half index as its argument: ``broken_half`` is the
negative control.

``dense_approximate`` runs the constructive content of the lower-density
lemma: pull a witness below every stage at a geometrically tightening
tolerance schedule, take running meets, and certify at each stage that the
accumulated loss telescopes below the requested tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable

from .intervals import IntervalSet, iset_make
from .oag import RATIONALS, rat
from .report import CheckReport
from .sequences import MonoSeq, MonotonicityError
from .valuation import Valuation, dist


def dyadic_holds(i: int, s, t) -> bool:
    """s <= t <= s + 2^-i, exactly."""
    if i < 1:
        raise ValueError("uniformity indices start at 1")
    s, t = rat(s), rat(t)
    gap = t.numerator * s.denominator - s.numerator * t.denominator  # (t - s) * s.den * t.den
    return gap >= 0 and gap << i <= s.denominator * t.denominator


def dyadic_half(i: int) -> int:
    """The dyadic half index: two steps of 2^-(i+1) make one of 2^-i."""
    return i + 1


def broken_half(i: int) -> int:
    """Negative control: a half index that does not halve; fails composition."""
    return i


def separation_index(s, t, limit: int = 64) -> int | None:
    """Smallest index <= limit whose relation separates s < t, if any."""
    for i in range(1, limit + 1):
        if not dyadic_holds(i, s, t):
            return i
    return None


def uniformity_check(
    half_index: Callable[[int], int],
    samples: int,
    seed: int,
    depth: int = 12,
    modulus_sequences: Iterable[tuple[Callable[[int], Any], Callable[[int], int], Any]] = (),
) -> CheckReport:
    """Sampled checks of the dyadic uniformity's laws, with ``half_index`` as
    its halving map and ``max`` as its meet index.

    Covers reflexivity, the meet-index implication, halving composition
    (on dyadic-grid increments, including the boundary step of the half
    index), the order sandwich, separation of sampled strict pairs (within
    max(64, depth + 3) indices), translation invariance and negation.
    The two limit laws quantify over infinite data, so they are exercised
    only against caller-supplied ``(producer, modulus, limit)`` triples of
    decreasing sequences.
    """
    g = RATIONALS
    rng = random.Random(seed)
    report = CheckReport()
    sep_limit = max(64, depth + 3)  # the smallest sampled increment is 2^-(depth + 2)

    def dyadic_increment(i: int) -> Any:
        # an increment the half relation certainly tolerates, plus smaller ones
        k = rng.choice([0, 1, 2])
        return Fraction(1, 2 ** (i + k))

    def composes(i: int, h: int, s, step1, step2) -> tuple[bool, Callable[[], str]]:
        """Whether two half-index steps from ``s`` compose to an index-i step
        (vacuously when they are not both half-index steps), and a witness
        formatted for a failure only."""
        mid, far = g.add(s, step1), g.add(s, g.add(step1, step2))
        ok = not (dyadic_holds(h, s, mid) and dyadic_holds(h, mid, far)) or dyadic_holds(i, s, far)
        return ok, lambda: f"i={i} half={h} r={g.fmt(s)} s={g.fmt(mid)} t={g.fmt(far)}"

    for _ in range(samples):
        s = g.sample(rng)
        i = rng.randint(1, depth)
        j = rng.randint(1, depth)
        # half the samples sit within the index-i tolerance so the guarded
        # implications below are exercised non-vacuously
        if rng.random() < 0.5:
            t = g.add(s, dyadic_increment(max(i, j)))
        else:
            t = g.sample(rng)
        r = g.sample(rng)
        wit = lambda: f"i={i} j={j} s={g.fmt(s)} t={g.fmt(t)} r={g.fmt(r)}"

        report.record("(i) reflexive", dyadic_holds(i, s, s), wit)

        report.record(
            "(ii) meet index implies both",
            not dyadic_holds(max(i, j), s, t) or (dyadic_holds(i, s, t) and dyadic_holds(j, s, t)),
            wit,
        )

        h = half_index(i)
        edge = Fraction(1, 2**h)  # the largest step the half index tolerates
        edge_ok, edge_wit = composes(i, h, s, edge, edge)
        ok, sampled_wit = composes(i, h, s, dyadic_increment(h), dyadic_increment(h))
        wit_iii = sampled_wit if edge_ok else edge_wit
        report.record("(iii) halving composes", edge_ok and ok, wit_iii)

        lo, hi = (s, t) if g.leq(s, t) else (t, s)
        midpoint = (lo + hi) / 2
        report.record(
            "(iv) order sandwich",
            not dyadic_holds(i, lo, hi)
            or (dyadic_holds(i, lo, midpoint) and dyadic_holds(i, midpoint, hi)),
            wit,
        )

        if not g.equal(lo, hi):
            sep = separation_index(lo, hi, sep_limit)
            report.record(
                f"(v) separation within {sep_limit} indices",
                sep is not None,
                lambda: f"s={g.fmt(lo)} t={g.fmt(hi)}",
            )

        related = dyadic_holds(i, s, t)
        report.record(
            "(viii) translation invariant",
            not related or dyadic_holds(i, g.add(r, s), g.add(r, t)),
            wit,
        )
        report.record(
            "(ix) negation reverses", not related or dyadic_holds(i, g.neg(t), g.neg(s)), wit
        )

    for producer, modulus, limit in modulus_sequences:
        # (vi): a decreasing sequence with infimum comes arbitrarily close
        for i in range(1, depth + 1):
            n = modulus(i)
            report.record(
                "(vi) modulus stage close to infimum",
                dyadic_holds(i, limit, producer(n)),
                f"i={i} stage={n}",
            )
        # (vii): the modulus makes the tail self-close, the finite shadow of
        # the bounded-infimum law
        for i in range(1, depth + 1):
            n = modulus(i)
            for m in range(n, n + 4):
                report.record(
                    "(vii) tail self-close at modulus stage",
                    dyadic_holds(i, producer(m), producer(n)),
                    f"i={i} stages {n},{m}",
                )
    return report


@dataclass(frozen=True)
class DenseOracle:
    """Produces sublattice witnesses below a given element at a tolerance index."""

    witness: Callable[[Any, int], Any]
    member: Callable[[Any], bool]  # membership in the declared sublattice


def _floor_scaled(x: Fraction, k: int) -> Fraction:
    scaled = x * 2**k
    return Fraction(scaled.numerator // scaled.denominator, 2**k)


def _ceil_scaled(x: Fraction, k: int) -> Fraction:
    scaled = x * 2**k
    return Fraction(-((-scaled.numerator) // scaled.denominator), 2**k)


def is_dyadic_set(a: IntervalSet) -> bool:
    return all(
        e.denominator & (e.denominator - 1) == 0
        for p in a.pieces
        for e in (p.lo, p.hi)
    )


def dyadic_endpoint_oracle() -> DenseOracle:
    """Shrink each piece inward to the dyadic grid fine enough for the index.

    The returned set is contained in the input and loses at most 2^-i of
    measure in total (two grid steps per piece, pieces that collapse lose
    less than their two steps).
    """

    def witness(a: IntervalSet, i: int) -> IntervalSet:
        k = i + 1
        while 2 * len(a.pieces) * Fraction(1, 2**k) > Fraction(1, 2**i):
            k += 1
        shrunk = [(_ceil_scaled(p.lo, k), _floor_scaled(p.hi, k), p) for p in a.pieces]
        # a piece narrower than the grid (lo > hi) is dropped: loss < 2 steps
        return iset_make(
            (lo, hi, p.contains(lo), p.contains(hi)) for lo, hi, p in shrunk if lo <= hi
        )

    return DenseOracle(witness=witness, member=is_dyadic_set)


class OracleContractViolation(ValueError):
    pass


def dense_approximate(
    phi: Valuation,
    oracle: DenseOracle,
    seq: MonoSeq,
    eps_index: int,
    depth: int,
) -> tuple[MonoSeq, list[dict]]:
    """Approximate a decreasing sequence from below inside a dense sublattice.

    Tolerance schedule: stage k pulls its witness at index eps_index + k + 2,
    so the telescoped loss after any number of stages stays strictly below
    2^-(eps_index + 1).  Output stages are running meets of the witnesses,
    hence decreasing and stage-wise below the input.  Each stage's gap is
    checked exactly against its telescoped budget and against
    2^-(eps_index + 1), and a miss raises; the trace holds every stage's
    values, budget and gap.
    """
    if seq.direction != "decreasing":
        raise ValueError("dense approximation starts from a decreasing sequence")
    if eps_index < 1 or depth < 1:
        raise ValueError("eps_index and depth must be >= 1")
    lat, g = phi.domain, phi.group

    tilde: list[Any] = []
    trace: list[dict] = []
    budget = Fraction(0)
    acc = a_prev = None
    for n in range(1, depth + 1):
        a_n = seq.at(n)
        if a_prev is not None and not lat.leq(a_n, a_prev):
            raise MonotonicityError(n, f"sequence is not decreasing at stage {n}")
        a_prev = a_n
        zeta_index = eps_index + n + 2
        ell = oracle.witness(a_n, zeta_index)
        if not lat.leq(ell, a_n):
            raise OracleContractViolation(
                f"oracle witness at stage {n} is not below the stage element"
            )
        if not oracle.member(ell):
            raise OracleContractViolation(
                f"oracle witness at stage {n} left the declared sublattice"
            )
        gap = g.sub(phi(a_n), phi(ell))
        if not (g.leq(g.zero(), gap) and g.leq(gap, Fraction(1, 2**zeta_index))):
            raise OracleContractViolation(
                f"oracle witness at stage {n} misses its tolerance 2^-{zeta_index}"
            )
        acc = ell if acc is None else lat.meet(acc, ell)
        tilde.append(acc)
        budget += Fraction(1, 2**zeta_index)

        stage_gap = dist(phi, acc, a_n)
        if not (g.leq(stage_gap, budget) and g.leq(stage_gap, Fraction(1, 2 ** (eps_index + 1)))):
            raise AssertionError(
                f"telescoped bound failed at stage {n}: gap {stage_gap} budget {budget}"
            )
        trace.append(
            {
                "stage": n,
                "phi_a": phi(a_n),
                "phi_atilde": phi(acc),
                "bound": budget,
                "gap": stage_gap,
            }
        )

    stages = list(tilde)

    def producer(n: int):
        if n <= len(stages):
            return stages[n - 1]
        raise IndexError(f"approximation computed to depth {len(stages)} only")

    def modulus(eps: Fraction) -> int:
        # Cauchy stage from the source modulus; the 2^-(i+1) padding covers
        # the approximation loss.
        eps = rat(eps)
        i = 1
        while Fraction(1, 2**i) > eps:
            i += 1
        return min(max(i, seq.modulus(Fraction(1, 2 ** (i + 1)))), len(stages))

    return MonoSeq(lat, "decreasing", producer, modulus), trace


def weak_conv_check(
    phi: Valuation,
    producer: Callable[[int], Any],
    target: Any,
    rate: Callable[[int], int],
    depth: int,
) -> CheckReport:
    """Verify a declared weak-convergence rate at truncation depth.

    For each index i <= 16 with rate(i) <= depth, every stage n in
    [rate(i), depth] must satisfy the dyadic relation i between 0 and
    d(a_n, target): d(a_n, target) <= 2^-i.
    """
    g = phi.group
    report = CheckReport()
    prev = None
    for i in range(1, 17):
        n0 = rate(i)
        if prev is not None and n0 < prev:
            report.record("rate monotone", False, f"rate({i}) < rate({i - 1})")
        else:
            report.record("rate monotone", True, f"i={i}")
        prev = n0
        if n0 > depth:
            continue
        for n in range(n0, depth + 1):
            d = dist(phi, producer(n), target)
            report.record(
                "weak convergence at declared rate",
                dyadic_holds(i, g.zero(), d),
                f"i={i} n={n} d={g.fmt(d)}",
            )
    return report


def extract_subsequence(
    phi: Valuation,
    producer: Callable[[int], Any],
    target: Any,
    rate: Callable[[int], int],
    count: int,
) -> tuple[list[int], list[Fraction]]:
    """Select stages far enough out that the distances sum geometrically.

    Picks j_k = rate(k + 1) (re-indexed to strictly increasing by running
    max + 1 when the rate stalls), checks d(target, a_{j_k}) <= 2^-(k+1),
    and returns the indices with the partial sums of the distances, which
    the geometric majorant keeps below 1.
    """
    g = phi.group
    indices: list[int] = []
    partial_sums: list[Fraction] = []
    total = Fraction(0)
    prev = 0
    for k in range(1, count + 1):
        j = rate(k + 1)
        if j <= prev:
            j = prev + 1
        prev = j
        d = dist(phi, producer(j), target)
        if not dyadic_holds(k + 1, g.zero(), d):
            raise AssertionError(
                f"stage {j} misses its 2^-{k + 1} distance bound: d={g.fmt(d)}"
            )
        indices.append(j)
        total += d
        partial_sums.append(total)
    if total > 1:
        raise AssertionError(f"partial sums escaped the geometric majorant: {total}")
    return indices, partial_sums
