"""Valuations and their calculus.

A valuation is an order-preserving, modular map from a lattice into an
ordered Abelian group.  Construction never verifies the axioms; that is what
:func:`check_valuation` is for, so tests can build deliberately broken maps
as negative controls.  The induced distance

    dist(a, b) = phi(a v b) - phi(a ^ b)

is an exact pseudometric, its kernel an exact congruence, and on finite
domains the quotient lattice is materialized explicitly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from .lattice import FiniteLattice, Lattice, ProductLattice, finite_lattice_build, opposite
from .oag import Group, opposite_group, product_group
from .report import CheckReport


class NoSampler(ValueError):
    pass


class QuotientIllDefined(AssertionError):
    """Induced quotient data disagreed between representatives.

    Cannot occur when the input passes check_valuation; raised as a hard
    assertion because it falsifies the valuation axioms of the input.
    """


@dataclass(frozen=True)
class Valuation:
    domain: Lattice
    group: Group
    fn: Callable[[Any], Any]
    name: str = "phi"
    sampler: Callable[[random.Random], Any] | None = None

    def __call__(self, a):
        return self.fn(a)

    def sample(self, rng: random.Random):
        if self.sampler is None:
            raise NoSampler(f"valuation {self.name} has no element sampler")
        return self.sampler(rng)


def dist(phi: Valuation, a, b):
    """phi(a v b) - phi(a ^ b); nonnegative for genuine valuations."""
    return phi.group.sub(phi(phi.domain.join(a, b)), phi(phi.domain.meet(a, b)))


def approx_equal(phi: Valuation, a, b) -> bool:
    """The congruence induced by phi: distance exactly zero."""
    return phi.group.is_zero(dist(phi, a, b))


def check_valuation(phi: Valuation, samples: int, seed: int) -> CheckReport:
    """Sampled exact checks of modularity and monotonicity, with witnesses."""
    rng = random.Random(seed)
    report = CheckReport()
    g, lat = phi.group, phi.domain
    for _ in range(samples):
        a, b = phi.sample(rng), phi.sample(rng)
        wit = f"a={lat.fmt(a)} b={lat.fmt(b)}"
        at_meet, at_join, at_a = phi(lat.meet(a, b)), phi(lat.join(a, b)), phi(a)
        report.record(
            "modular", g.equal(g.add(at_meet, at_join), g.add(at_a, phi(b))), wit
        )
        report.record(
            "order preserving", g.leq(at_meet, at_a) and g.leq(at_a, at_join), wit
        )
    return report


def check_pseudometric(phi: Valuation, samples: int, seed: int) -> CheckReport:
    """The distance laws plus the one- and two-sided contraction inequalities.

    All comparisons are exact: nonnegativity, vanishing on the diagonal,
    symmetry, the triangle inequality, the contraction

        d(a^z, b^z) + d(a v z, b v z) <= d(a, b),

    and its joint form

        d(a^w, b^z) + d(a v w, b v z) <= d(a, b) + d(w, z).
    """
    rng = random.Random(seed)
    report = CheckReport()
    g, lat = phi.group, phi.domain
    for _ in range(samples):
        a, b, z, w = (phi.sample(rng) for _ in range(4))
        wit = f"a={lat.fmt(a)} b={lat.fmt(b)} z={lat.fmt(z)} w={lat.fmt(w)}"
        dab = dist(phi, a, b)
        report.record("d >= 0", g.leq(g.zero(), dab), wit)
        report.record("d(a,a) = 0", g.is_zero(dist(phi, a, a)), wit)
        report.record("d symmetric", g.equal(dab, dist(phi, b, a)), wit)
        tri = g.add(dist(phi, a, z), dist(phi, z, b))
        report.record("triangle", g.leq(dab, tri), wit)

        contr = g.add(
            dist(phi, lat.meet(a, z), lat.meet(b, z)),
            dist(phi, lat.join(a, z), lat.join(b, z)),
        )
        report.record("contraction", g.leq(contr, dab), wit)

        joint = g.add(
            dist(phi, lat.meet(a, w), lat.meet(b, z)),
            dist(phi, lat.join(a, w), lat.join(b, z)),
        )
        report.record(
            "joint contraction",
            g.leq(joint, g.add(dab, dist(phi, w, z))),
            wit,
        )
    return report


def check_congruence(
    phi: Valuation, samples: int, seed: int, pad: Callable[[random.Random, Any], Any]
) -> CheckReport:
    """The kernel of dist is a congruence.

    ``pad(rng, a)`` must return an element approx-equal to ``a`` (for the
    measure instance: the same set plus a few zero-measure singletons).
    Checks phi-equality on classes, stability of meet/join, and stability of
    the distance itself.
    """
    rng = random.Random(seed)
    report = CheckReport()
    g, lat = phi.group, phi.domain
    for _ in range(samples):
        a1, b1 = phi.sample(rng), phi.sample(rng)
        a2, b2 = pad(rng, a1), pad(rng, b1)
        wit = f"a1={lat.fmt(a1)} a2={lat.fmt(a2)} b1={lat.fmt(b1)} b2={lat.fmt(b2)}"
        if not (approx_equal(phi, a1, a2) and approx_equal(phi, b1, b2)):
            report.record("pad produces approx-equal elements", False, wit)
            continue
        report.record("pad produces approx-equal elements", True, wit)
        report.record("phi constant on classes", g.equal(phi(a1), phi(a2)), wit)
        report.record(
            "meet congruence",
            approx_equal(phi, lat.meet(a1, b1), lat.meet(a2, b2)),
            wit,
        )
        report.record(
            "join congruence",
            approx_equal(phi, lat.join(a1, b1), lat.join(a2, b2)),
            wit,
        )
        report.record(
            "distance constant on classes",
            g.equal(dist(phi, a1, b1), dist(phi, a2, b2)),
            wit,
        )
    return report


def check_modular_map_identity(phi: Valuation, samples: int, seed: int) -> CheckReport:
    """phi(l v (a ^ u)) = phi((l v a) ^ u) for sampled l <= u and any a."""
    rng = random.Random(seed)
    report = CheckReport()
    g, lat = phi.group, phi.domain
    for _ in range(samples):
        x, y, a = phi.sample(rng), phi.sample(rng), phi.sample(rng)
        low, up = lat.meet(x, y), lat.join(x, y)
        lhs = phi(lat.join(low, lat.meet(a, up)))
        rhs = phi(lat.meet(lat.join(low, a), up))
        report.record(
            "modular-map identity",
            g.equal(lhs, rhs),
            f"l={lat.fmt(low)} u={lat.fmt(up)} a={lat.fmt(a)}",
        )
    return report


def quotient(phi: Valuation) -> tuple[FiniteLattice, Valuation]:
    """Collapse a finite-domain valuation by its congruence.

    The carrier of the result is the set of distance-zero classes, meet and
    join are induced through representatives, and the induced valuation is
    Hausdorff.  Well-definedness across representatives is verified
    exhaustively; failure raises :class:`QuotientIllDefined` with both
    witnesses (impossible when the input is a genuine valuation).
    """
    lat = phi.domain
    if not isinstance(lat, FiniteLattice):
        raise TypeError("quotient is only materialized for finite domains")
    g = phi.group

    classes: list[list] = []
    for x in lat.carrier:
        for cls in classes:
            if approx_equal(phi, cls[0], x):
                cls.append(x)
                break
        else:
            classes.append([x])

    rep_of = {}
    label_of = {}
    labels = []
    for cls in classes:
        label = "{" + ",".join(str(x) for x in cls) + "}"
        labels.append(label)
        for x in cls:
            rep_of[x] = cls[0]
            label_of[x] = label
    rep_by_label = {label_of[cls[0]]: cls[0] for cls in classes}

    # Well-definedness: induced data must not depend on the representative.
    for cls in classes:
        for other_cls in classes:
            base = lat.meet(cls[0], other_cls[0])
            base_j = lat.join(cls[0], other_cls[0])
            for x in cls:
                for y in other_cls:
                    if not approx_equal(phi, lat.meet(x, y), base):
                        raise QuotientIllDefined(
                            f"meet of classes differs: ({x}, {y}) vs ({cls[0]}, {other_cls[0]})"
                        )
                    if not approx_equal(phi, lat.join(x, y), base_j):
                        raise QuotientIllDefined(
                            f"join of classes differs: ({x}, {y}) vs ({cls[0]}, {other_cls[0]})"
                        )
        for x in cls:
            if not g.equal(phi(x), phi(cls[0])):
                raise QuotientIllDefined(f"phi differs inside a class: {x} vs {cls[0]}")

    pairs = []
    for la in labels:
        for lb in labels:
            a, b = rep_by_label[la], rep_by_label[lb]
            if label_of[lat.meet(a, b)] == la:
                pairs.append((la, lb))
    qlat = finite_lattice_build(labels, pairs)

    # The built tables must agree with the induced operations.
    for la in labels:
        for lb in labels:
            a, b = rep_by_label[la], rep_by_label[lb]
            if qlat.meet(la, lb) != label_of[lat.meet(a, b)]:
                raise QuotientIllDefined(f"induced meet mismatch at ({la}, {lb})")
            if qlat.join(la, lb) != label_of[lat.join(a, b)]:
                raise QuotientIllDefined(f"induced join mismatch at ({la}, {lb})")

    qphi = Valuation(
        domain=qlat,
        group=g,
        fn=lambda label: phi(rep_by_label[label]),
        name=f"{phi.name}/~",
        sampler=lambda rng: rng.choice(labels),
    )
    return qlat, qphi


def transform_opposite(phi: Valuation) -> Valuation:
    """The same map viewed on the opposite lattice into the opposite group."""
    return Valuation(
        domain=opposite(phi.domain),
        group=opposite_group(phi.group),
        fn=phi.fn,
        name=f"op({phi.name})",
        sampler=phi.sampler,
    )


def transform_product(phi: Valuation, psi: Valuation) -> Valuation:
    """Componentwise valuation on the product lattice into the product group."""

    def fn(pair):
        return (phi(pair[0]), psi(pair[1]))

    sampler = None
    if phi.sampler is not None and psi.sampler is not None:
        sampler = lambda rng: (phi.sample(rng), psi.sample(rng))
    return Valuation(
        domain=ProductLattice(phi.domain, psi.domain),
        group=product_group([phi.group, psi.group]),
        fn=fn,
        name=f"{phi.name} x {psi.name}",
        sampler=sampler,
    )


def transform_compose(
    phi: Valuation,
    f_lathom: Callable[[Any], Any],
    g_hom: Callable[[Any], Any],
    new_domain: Lattice,
    new_group: Group,
    name: str | None = None,
    sampler: Callable[[random.Random], Any] | None = None,
) -> Valuation:
    """g o phi o f: modular when f is a lattice homomorphism and g a group
    homomorphism; a valuation when g is additionally positive."""
    return Valuation(
        domain=new_domain,
        group=new_group,
        fn=lambda a: g_hom(phi(f_lathom(a))),
        name=name or f"compose({phi.name})",
        sampler=sampler,
    )
