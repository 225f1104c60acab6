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

from .lattice import FiniteLattice, Lattice, opposite, product_lattice
from .oag import Group, product_group
from .report import CheckReport


class NoSampler(ValueError):
    pass


class QuotientLabelClash(ValueError):
    """Two quotient classes would print as the same label."""


class QuotientIllDefined(AssertionError):
    """Induced quotient data disagreed between representatives.

    Cannot occur when the input is a valuation, but can when it only passes
    the sampled check_valuation; it falsifies the valuation axioms of the
    input.
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


def _spread(phi: Valuation, join, meet):
    """phi(join) - phi(meet), for a join and meet already computed."""
    return phi.group.sub(phi(join), phi(meet))


def dist(phi: Valuation, a, b):
    """phi(a v b) - phi(a ^ b); nonnegative for genuine valuations."""
    meet, join = phi.domain.meet_join(a, b)
    return _spread(phi, join, meet)


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
        wit = lambda: f"a={lat.fmt(a)} b={lat.fmt(b)}"  # formatted for a failure only
        meet, join = lat.meet_join(a, b)
        at_meet, at_join, at_a = phi(meet), phi(join), phi(a)
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
        wit = lambda: f"a={lat.fmt(a)} b={lat.fmt(b)} z={lat.fmt(z)} w={lat.fmt(w)}"
        dab = dist(phi, a, b)
        report.record("d >= 0", g.leq(g.zero(), dab), wit)
        report.record("d(a,a) = 0", g.is_zero(dist(phi, a, a)), wit)
        report.record("d symmetric", g.equal(dab, dist(phi, b, a)), wit)
        meet_az, join_az = lat.meet_join(a, z)
        meet_bz, join_bz = lat.meet_join(b, z)
        tri = g.add(_spread(phi, join_az, meet_az), dist(phi, z, b))
        report.record("triangle", g.leq(dab, tri), wit)

        contr = g.add(dist(phi, meet_az, meet_bz), dist(phi, join_az, join_bz))
        report.record("contraction", g.leq(contr, dab), wit)

        meet_aw, join_aw = lat.meet_join(a, w)
        joint = g.add(dist(phi, meet_aw, meet_bz), dist(phi, join_aw, join_bz))
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
        wit = lambda: f"a1={lat.fmt(a1)} a2={lat.fmt(a2)} b1={lat.fmt(b1)} b2={lat.fmt(b2)}"
        if not (approx_equal(phi, a1, a2) and approx_equal(phi, b1, b2)):
            report.record("pad produces approx-equal elements", False, wit)
            continue
        report.record("pad produces approx-equal elements", True, wit)
        report.record("phi constant on classes", g.equal(phi(a1), phi(a2)), wit)
        (meet1, join1), (meet2, join2) = lat.meet_join(a1, b1), lat.meet_join(a2, b2)
        report.record("meet congruence", approx_equal(phi, meet1, meet2), wit)
        report.record("join congruence", approx_equal(phi, join1, join2), wit)
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
        low, up = lat.meet_join(x, y)
        lhs = phi(lat.join(low, lat.meet(a, up)))
        rhs = phi(lat.meet(lat.join(low, a), up))
        report.record(
            "modular-map identity",
            g.equal(lhs, rhs),
            lambda: f"l={lat.fmt(low)} u={lat.fmt(up)} a={lat.fmt(a)}",
        )
    return report


def quotient(phi: Valuation) -> tuple[FiniteLattice, Valuation]:
    """Collapse a finite-domain valuation by its congruence.

    The carrier of the result is the set of distance-zero classes, and meet
    and join are read off representatives in one pass that also checks, for
    every pair of elements, that the class of ``x ^ y`` and of ``x v y``
    depends only on the classes of ``x`` and ``y``; failure raises
    :class:`QuotientIllDefined` with both witnesses (impossible when the
    input is a genuine valuation).  That check makes the map onto the
    classes a surjective lattice homomorphism, and the lattice laws are
    identities, which a homomorphic image keeps: so the induced tables are a
    lattice, ordered by ``a <= b`` iff ``a ^ b = a``, with no closure or
    bound search to run.  The induced valuation is Hausdorff.
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

    label_of, rep_by_label = {}, {}
    for cls in classes:
        label = "{" + ",".join(str(x) for x in cls) + "}"
        if label in rep_by_label:  # "{a,b}" is both ["a,b"] and ["a", "b"]
            raise QuotientLabelClash(f"two classes share the label {label}")
        rep_by_label[label] = cls[0]
        label_of.update(dict.fromkeys(cls, label))
    labels = list(rep_by_label)

    meet, join = {}, {}
    for cls in classes:
        for other in classes:
            a, b = cls[0], other[0]
            key = label_of[a], label_of[b]
            m, j = lat.meet_join(a, b)
            want = label_of[m], label_of[j]
            meet[key], join[key] = want
            for x in cls:
                for y in other:
                    m, j = lat.meet_join(x, y)
                    got = label_of[m], label_of[j]
                    if got != want:
                        op = "meet" if got[0] != want[0] else "join"
                        raise QuotientIllDefined(
                            f"{op} of classes differs: ({x}, {y}) vs ({a}, {b})"
                        )
        for x in cls:
            if not g.equal(phi(x), phi(cls[0])):
                raise QuotientIllDefined(f"phi differs inside a class: {x} vs {cls[0]}")
    leq = {key: m == key[0] for key, m in meet.items()}
    qlat = FiniteLattice(labels, leq, meet, join)

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
        group=opposite(phi.group),
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
        domain=product_lattice(phi.domain, psi.domain),
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
    sampler: Callable[[random.Random], Any] | None = None,
) -> Valuation:
    """g o phi o f: modular when f is a lattice homomorphism and g a group
    homomorphism; a valuation when g is additionally positive."""
    return Valuation(
        domain=new_domain,
        group=new_group,
        fn=lambda a: g_hom(phi(f_lathom(a))),
        name=f"compose({phi.name})",
        sampler=sampler,
    )
