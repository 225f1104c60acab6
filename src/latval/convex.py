"""Convexity of valuation systems and the finite convexification.

An ambient element is adopted by the convexification when it is sandwiched
between two sublattice elements of equal value; the sandwich forces its
value.  On infinite ambient lattices membership is never decided without an
explicit witness, so only the witness-based evaluation is offered there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .lattice import FiniteLattice
from .oag import Group
from .valuation import Valuation


class WitnessInvalid(ValueError):
    def __init__(self, clause: str):
        super().__init__(f"sandwich witness violates: {clause}")
        self.clause = clause


class WitnessDisagreement(AssertionError):
    """Two sandwiches force different values for the same element.

    Impossible for a genuine valuation; surfaced with both witnesses to aid
    debugging broken inputs.
    """


@dataclass(frozen=True)
class SandwichWitness:
    lower: Any  # in L
    target: Any  # in the ambient lattice V
    upper: Any  # in L


def convex_value(phi: Valuation, w: SandwichWitness):
    """Value forced on the target by its sandwich; every clause is checked."""
    lat = phi.domain
    if not lat.leq(w.lower, w.target):
        raise WitnessInvalid("lower <= target")
    if not lat.leq(w.target, w.upper):
        raise WitnessInvalid("target <= upper")
    if not phi.group.equal(phi(w.lower), phi(w.upper)):
        raise WitnessInvalid("phi(lower) = phi(upper)")
    return phi(w.lower)


@dataclass(frozen=True)
class FiniteValuationSystem:
    """A valuation on a sublattice of an explicit finite ambient lattice."""

    ambient: FiniteLattice
    sub_carrier: tuple
    phi: Callable[[Any], Any]
    group: Group

    def __post_init__(self):
        missing = [x for x in self.sub_carrier if x not in self.ambient.carrier]
        if missing:
            raise ValueError(f"sublattice elements outside the ambient carrier: {missing}")
        sub = set(self.sub_carrier)
        for a in self.sub_carrier:
            for b in self.sub_carrier:
                if self.ambient.meet(a, b) not in sub or self.ambient.join(a, b) not in sub:
                    raise ValueError(f"carrier is not a sublattice: ({a!r}, {b!r})")


def convexify_finite(system: FiniteValuationSystem) -> tuple[tuple, Valuation]:
    """Exhaustive sandwich search on a finite ambient lattice.

    Returns the enlarged carrier and the extended valuation.  Verifies that
    witness values agree for every adopted element, that the result is a
    sublattice, that the extended map is modular and order preserving on it,
    and that the resulting system is convex.
    """
    amb, g = system.ambient, system.group
    sub = list(system.sub_carrier)
    phi = system.phi

    bullet: list = []
    value_of: dict = {}
    witness_of: dict = {}
    for z in amb.carrier:
        for a in sub:
            if not amb.leq(a, z):
                continue
            for b in sub:
                if not amb.leq(z, b):
                    continue
                if not g.equal(phi(a), phi(b)):
                    continue
                if z in value_of:
                    if not g.equal(value_of[z], phi(a)):
                        raise WitnessDisagreement(
                            f"element {z!r}: witnesses {witness_of[z]} and {(a, b)} "
                            f"force {g.fmt(value_of[z])} vs {g.fmt(phi(a))}"
                        )
                else:
                    value_of[z] = phi(a)
                    witness_of[z] = (a, b)
                    bullet.append(z)

    for x in sub:
        if x not in value_of:
            raise AssertionError(f"sublattice element {x!r} missed its trivial sandwich")
        if not g.equal(value_of[x], phi(x)):
            raise WitnessDisagreement(f"extension disagrees with phi on {x!r}")

    bullet_set = set(bullet)
    for a in bullet:
        for b in bullet:
            if amb.meet(a, b) not in bullet_set or amb.join(a, b) not in bullet_set:
                raise AssertionError(f"convexification is not a sublattice at ({a!r}, {b!r})")

    def phi_bullet(z):
        return value_of[z]

    for a in bullet:
        for b in bullet:
            lhs = g.add(*map(phi_bullet, amb.meet_join(a, b)))
            if not g.equal(lhs, g.add(phi_bullet(a), phi_bullet(b))):
                raise AssertionError(f"extended map is not modular at ({a!r}, {b!r})")
            if amb.leq(a, b) and not g.leq(phi_bullet(a), phi_bullet(b)):
                raise AssertionError(f"extended map is not order preserving at ({a!r}, {b!r})")

    # convexity of the output: equal-valued sandwiches in L-bullet trap
    # nothing new
    for a in bullet:
        for b in bullet:
            if amb.leq(a, b) and g.equal(phi_bullet(a), phi_bullet(b)):
                for z in amb.carrier:
                    if amb.leq(a, z) and amb.leq(z, b) and z not in bullet_set:
                        raise AssertionError(
                            f"output not convex: {z!r} sandwiched by ({a!r}, {b!r})"
                        )

    ordered_bullet = tuple(z for z in amb.carrier if z in bullet_set)
    val = Valuation(
        domain=system.ambient,
        group=g,
        fn=phi_bullet,
        name="phi-bullet",
        sampler=None,
    )
    return ordered_bullet, val
