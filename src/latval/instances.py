"""The concrete valuations: interval measure, step integral, counting,
Euler's totient on the divisibility lattice, GF(2) subspace dimension."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from . import gf2, intervals, stepfn
from .gf2 import GF2Subspace
from .intervals import IntervalSet
from .lattice import DIVISIBILITY, Lattice, finite_subset_lattice
from .oag import DIV_POS, RATIONALS, DivPos
from .stepfn import StepFn
from .valuation import Valuation


# The operations look their module function up at each call, so a wrapper
# installed on the module (as the traced benchmark run does) sees every call.
INTERVAL_SETS = Lattice(
    "interval-sets",
    lambda a: isinstance(a, IntervalSet),
    "an IntervalSet",
    lambda a, b: intervals.iset_meet(a, b),
    lambda a, b: intervals.iset_join(a, b),
    lambda a, b: intervals.iset_diff(a, b).is_empty(),
    meet_join=lambda a, b: intervals.iset_meet_join(a, b),
)

STEP_FNS = Lattice(
    "step-functions",
    lambda a: isinstance(a, StepFn),
    "a StepFn",
    lambda a, b: stepfn.step_meet(a, b),
    lambda a, b: stepfn.step_join(a, b),
    lambda a, b: stepfn.step_leq(a, b),
    meet_join=lambda a, b: stepfn.step_meet_join(a, b),
)


def gf2_subspace_lattice(ambient: int) -> Lattice:
    """Subspaces of GF(2)^ambient under inclusion."""
    return Lattice(
        "gf2-subspaces",
        lambda a: isinstance(a, GF2Subspace) and a.ambient == ambient,
        f"a subspace of GF(2)^{ambient}",
        lambda a, b: gf2.gf2_meet(a, b),
        lambda a, b: gf2.gf2_join(a, b),
        lambda a, b: gf2.gf2_leq(a, b),
    )


# Each drawn (numerator, denominator) pair is made into a Fraction once, so
# equal draws are one object and pass the sweeps' identity tests.  The
# defaults draw from 342 pairs; step values are the pairs (v, 1).
_DRAWS = intervals._Memo(lambda nd: Fraction(*nd))


def sample_rational(rng: random.Random) -> Fraction:
    """A rational in [-8, 8] with a denominator of at most 6."""
    den = rng.randint(1, 6)
    return _DRAWS[rng.randint(-8 * den, 8 * den), den]


def sample_interval_set(rng: random.Random, max_pieces: int = 3) -> IntervalSet:
    """A union of up to ``max_pieces`` intervals and, three times in ten, a
    singleton.  Each draw goes through ``_interval_breaks``'s checks and the
    pieces are merged by one ``_union``, as ``iset_make`` does after reading."""
    parts = []
    for _ in range(rng.randint(0, max_pieces)):
        a, b = sample_rational(rng), sample_rational(rng)
        if a > b:
            a, b = b, a
        parts.append(intervals._interval_breaks(a, b, rng.random() < 0.5, rng.random() < 0.5))
    if rng.random() < 0.3:
        x = sample_rational(rng)
        parts.append(intervals._interval_breaks(x, x))
    return intervals._union(parts)


def sample_step_fn(rng: random.Random) -> StepFn:
    """Up to five breakpoints with integer values in ``[-4, 4]``, built by
    ``step_from_values``' checked tail."""
    k = rng.randint(0, 5)  # at most five breakpoints
    bps = sorted({sample_rational(rng) for _ in range(k)})
    if not bps:
        return stepfn.ZERO_FN
    ovals = [_DRAWS[rng.randint(-4, 4), 1] for _ in range(len(bps) - 1)]
    pvals = [_DRAWS[rng.randint(-4, 4), 1] for _ in range(len(bps))]
    return stepfn._from_arrays(bps, ovals, pvals)


def mu_S(a: IntervalSet) -> Fraction:
    """The pre-Lebesgue measure: total piece length."""
    return intervals.measure(a)


def phi_S(f: StepFn) -> Fraction:
    """The step integral: open values times widths."""
    return stepfn.integral(f)


interval_measure = Valuation(
    domain=INTERVAL_SETS,
    group=RATIONALS,
    fn=mu_S,
    name="mu_S",
    sampler=sample_interval_set,
)

step_integral = Valuation(
    domain=STEP_FNS,
    group=RATIONALS,
    fn=phi_S,
    name="phi_S",
    sampler=sample_step_fn,
)


def counting_valuation() -> Valuation:
    """Cardinality on the subsets of {1, ..., 20}."""
    ground = range(1, 21)

    def sample(rng: random.Random):
        return frozenset(x for x in ground if rng.random() < 0.35)

    return Valuation(
        domain=finite_subset_lattice(ground),
        group=RATIONALS,
        fn=lambda a: Fraction(len(a)),
        name="counting",
        sampler=sample,
    )


def _sieve(limit: int) -> tuple[int, ...]:
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return tuple(phi)


@lru_cache(maxsize=None)
def _small_table() -> tuple[int, ...]:
    return _sieve(4096)


def totient_range(limit: int) -> tuple[int, ...]:
    """totient(0..limit) in one sieve; index 0 is a placeholder.  Up to 4,096
    it is a prefix of the table ``totient`` caches; above, a fresh sieve."""
    return _small_table()[: limit + 1] if limit <= 4096 else _sieve(limit)


def totient(n: int) -> int:
    """Euler's totient, via a factorization sieve."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"totient needs a positive integer, got {n!r}")
    if n <= 4096:
        return _small_table()[n]
    result = n
    d, m = 2, n
    while d * d <= m:
        if m % d == 0:
            result -= result // d
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        result -= result // m
    return result


def totient_valuation() -> Valuation:
    """n -> totient(n) as a map from divisibility order into the
    multiplicative positive rationals; modularity there reads
    phi(gcd) * phi(lcm) = phi(m) * phi(n)."""
    return Valuation(
        domain=DIVISIBILITY,
        group=DIV_POS,
        fn=lambda n: DivPos.from_fraction(totient(n)),
        name="totient",
        sampler=lambda rng: rng.randint(1, 500),
    )


def dimension_valuation() -> Valuation:
    def sample(rng: random.Random):
        k = rng.randint(0, 8)
        vecs = [rng.randint(0, (1 << 8) - 1) for _ in range(k)]
        return GF2Subspace.from_vectors(8, vecs)

    return Valuation(
        domain=gf2_subspace_lattice(8),
        group=RATIONALS,
        fn=lambda u: Fraction(u.dim),
        name="dim@GF(2)^8",
        sampler=sample,
    )


def pad_with_nulls(rng: random.Random, a: IntervalSet) -> IntervalSet:
    """Adjoin a few zero-measure singletons: an approx-equal representative."""
    nulls = [sample_rational(rng) for _ in range(rng.randint(1, 3))]
    return intervals._union([a._breaks, *(intervals._interval_breaks(x, x) for x in nulls)])
