import copy
import random
from fractions import Fraction

import pytest

from latval import intervals, stepfn
from latval.gf2 import GF2Subspace
from latval.instances import (
    INTERVAL_SETS,
    STEP_FNS,
    gf2_subspace_lattice,
    sample_interval_set,
    sample_step_fn,
)
from latval.intervals import interval
from latval.lattice import (
    DIVISIBILITY,
    MAX_FINITE_CARRIER,
    FiniteLattice,
    ForeignElement,
    NotALattice,
    NotAPartialOrder,
    chain_lattice,
    check_distributive,
    diamond_m3,
    finite_lattice_build,
    finite_subset_lattice,
    opposite,
    powerset_lattice,
    product_lattice,
)
from latval.oag import (
    DIV_POS,
    GROUPS,
    LEX_PLANE,
    RATIONALS,
    DivPos,
    Group,
    LexPair,
    product_group,
)
from latval.stepfn import indicator, step_from_values, step_join, step_meet, step_meet_join


def pentagon_n5():
    """N5: the other minimal non-distributive lattice."""
    pairs = [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")]
    return finite_lattice_build(["0", "a", "b", "c", "1"], pairs)


def test_two_chain_tables():
    lat = chain_lattice(2)
    assert lat.meet(0, 1) == 0
    assert lat.join(0, 1) == 1
    assert lat.leq(0, 1) and not lat.leq(1, 0)


def test_m3_is_a_lattice_with_exhaustive_bounds():
    lat = diamond_m3()
    # glb/lub recomputed by brute force over the carrier
    for a in lat.carrier:
        for b in lat.carrier:
            lowers = [x for x in lat.carrier if lat.leq(x, a) and lat.leq(x, b)]
            glb = [x for x in lowers if all(lat.leq(y, x) for y in lowers)]
            assert glb == [lat.meet(a, b)]
            uppers = [x for x in lat.carrier if lat.leq(a, x) and lat.leq(b, x)]
            lub = [x for x in uppers if all(lat.leq(x, y) for y in uppers)]
            assert lub == [lat.join(a, b)]
    assert lat.join("a", "b") == "1"


def test_unbounded_pair_is_not_a_lattice():
    with pytest.raises(NotALattice) as err:
        finite_lattice_build(["a", "b"], [])
    assert err.value.pair == ("a", "b")


def test_cycle_is_not_a_partial_order():
    with pytest.raises(NotAPartialOrder):
        finite_lattice_build(["a", "b"], [("a", "b"), ("b", "a")])


def test_foreign_elements_rejected():
    lat = chain_lattice(3)
    with pytest.raises(ForeignElement):
        lat.meet(0, 99)
    with pytest.raises(ForeignElement):
        finite_lattice_build(["a"], [("a", "zzz")])


def test_order_pairs_name_labels_by_value_and_type():
    # True == 1 and 1.0 == 1, but neither is the label 1; a list is no label
    chain = finite_lattice_build([1, 2], [(1, 2)])
    assert chain.leq(1, 2) and not chain.leq(2, 1)
    for pair in [(True, 2), (1, 2.0), (1.0, 2), (["a"], 2), (1, {"a": 2})]:
        with pytest.raises(ForeignElement) as err:
            finite_lattice_build([1, 2], [pair])
        assert str(err.value) == f"order pair {pair!r} mentions a non-carrier label"
        assert not all(map(chain.member, pair))  # the one rule the lattice's operations use


def test_carrier_cap():
    with pytest.raises(ValueError):
        finite_lattice_build(range(65), [(i, i + 1) for i in range(64)])


def reference_finite_lattice_build(carrier, leq_pairs) -> FiniteLattice:
    """Reference: a boolean order matrix closed by Warshall, and each bound
    found by scanning the common lower (upper) bounds for one above (below)
    all the others; same checks, messages and order of errors."""
    elems = list(carrier)
    if len(elems) > MAX_FINITE_CARRIER:
        raise ValueError(f"carrier exceeds {MAX_FINITE_CARRIER} elements")
    if len(set(elems)) != len(elems):
        raise ValueError("carrier has duplicate labels")
    index = {x: i for i, x in enumerate(elems)}
    n = len(elems)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in leq_pairs:
        if a not in index or b not in index:
            raise ForeignElement(f"order pair ({a!r}, {b!r}) mentions a non-carrier label")
        leq[index[a]][index[b]] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    leq[i][j] = leq[i][j] or leq[k][j]
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise NotAPartialOrder(
                    f"antisymmetry fails: {elems[i]!r} and {elems[j]!r} are order equivalent"
                )

    def bound(i, j, lower):
        below = (lambda x, y: leq[x][y]) if lower else (lambda x, y: leq[y][x])
        cands = [k for k in range(n) if below(k, i) and below(k, j)]
        for k in cands:
            if all(below(m, k) for m in cands):
                return elems[k]
        kind = "greatest lower" if lower else "least upper"
        raise NotALattice(
            f"pair ({elems[i]!r}, {elems[j]!r}) has no {kind} bound", pair=(elems[i], elems[j])
        )

    meet, join = {}, {}
    for i in range(n):
        for j in range(n):
            meet[elems[i], elems[j]] = bound(i, j, lower=True)
            join[elems[i], elems[j]] = bound(i, j, lower=False)
    leq_map = {(elems[i], elems[j]): leq[i][j] for i in range(n) for j in range(n)}
    return FiniteLattice(elems, leq_map, meet, join)


def random_relation(rng: random.Random):
    """A carrier of up to 12 labels and generating pairs: a chain, the
    subsets of up to three atoms, or a random DAG, the last sometimes with
    a back edge (a cycle), a foreign pair, a repeated label or an added
    bottom and top."""
    n = rng.randint(0, 12)
    labels = [f"x{i}" for i in range(n)]
    rng.shuffle(labels)
    kind = rng.choice(["chain", "powerset", "dag", "cycle", "foreign", "duplicate"])
    if kind == "chain":
        pairs = list(zip(labels, labels[1:]))
    elif kind == "powerset":
        k = rng.randint(0, 3)
        labels = [frozenset(j for j in range(k) if m >> j & 1) for m in range(2**k)]
        rng.shuffle(labels)
        pairs = [(a, b) for a in labels for b in labels
                 if len(b - a) == 1 or a < b and rng.random() < 0.5]
    else:
        p = rng.random()
        pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:] if rng.random() < p]
        if kind == "cycle" and n >= 2:
            i, j = sorted(rng.sample(range(n), 2))
            pairs.append((labels[j], labels[i]))
        if kind == "foreign":
            pairs.insert(rng.randint(0, len(pairs)), (rng.choice(labels + ["zz"]), "zz"))
        if kind == "duplicate" and n:
            labels.append(rng.choice(labels))
        if rng.random() < 0.5:
            labels = ["bot", *labels, "top"]
            pairs += [("bot", x) for x in labels[1:]] + [(x, "top") for x in labels[:-1]]
    rng.shuffle(pairs)
    return labels, pairs


def test_builder_matches_reference_candidate_search():
    def outcome(build, labels, pairs):
        try:
            lat = build(labels, pairs)
        except ValueError as exc:
            return type(exc), str(exc), getattr(exc, "pair", None)
        c = lat.carrier
        return c, {(a, b): (lat.leq(a, b), lat.meet(a, b), lat.join(a, b)) for a in c for b in c}

    rng = random.Random(30)
    kinds = set()
    for _ in range(1000):
        labels, pairs = random_relation(rng)
        expected = outcome(reference_finite_lattice_build, labels, pairs)
        assert outcome(finite_lattice_build, labels, pairs) == expected, (labels, pairs)
        kinds.add(expected[0] if isinstance(expected[0], type) else FiniteLattice)
    assert kinds == {FiniteLattice, NotALattice, NotAPartialOrder, ForeignElement, ValueError}


def test_distributivity_verdicts():
    ok, _ = check_distributive(powerset_lattice([1, 2]))
    assert ok
    ok, triple = check_distributive(diamond_m3())
    assert not ok
    # lexicographically first failing triple in carrier order 0,a,b,c,1
    assert triple == ("a", "b", "c")
    ok, _ = check_distributive(chain_lattice(7))
    assert ok
    ok, triple = check_distributive(pentagon_n5())
    assert not ok and triple is not None


def test_rational_chain():
    chain = RATIONALS
    assert chain.meet(Fraction(3), Fraction(5)) == 3
    assert chain.join(Fraction(3), Fraction(5)) == 5


def test_opposite_swaps_and_is_involution():
    lat = chain_lattice(2)
    opp = opposite(lat)
    assert opp.meet(0, 1) == 1
    assert opp.join(0, 1) == 0
    assert opp.leq(1, 0) and not opp.leq(0, 1)
    back = opposite(opp)
    assert back is lat
    rng = random.Random(5)
    m3 = diamond_m3()
    dbl = opposite(opposite(m3))
    for _ in range(100):
        a, b = rng.choice(m3.carrier), rng.choice(m3.carrier)
        assert dbl.meet(a, b) == m3.meet(a, b)
        assert dbl.join(a, b) == m3.join(a, b)
        assert dbl.leq(a, b) == m3.leq(a, b)


def test_opposite_keeps_the_kind_of_structure():
    opp = opposite(LEX_PLANE)
    assert isinstance(opp, Group) and opp.name == "opposite(lex-plane)"
    assert opp.leq(LexPair(Fraction(1), Fraction(0)), LexPair(Fraction(0), Fraction(9)))
    for group in GROUPS.values():
        assert opposite(opposite(group)) is group
    chain = chain_lattice(3)
    opp_chain = opposite(chain)
    assert isinstance(opp_chain, FiniteLattice)
    assert opp_chain.carrier == (0, 1, 2) and len(opp_chain) == 3
    assert opp_chain.meet(0, 2) == 2 and opp_chain.join(0, 2) == 0
    assert chain.meet(0, 2) == 0  # the original is untouched


def test_product_lattice_of_three_factors():
    prod = product_lattice(chain_lattice(2), DIVISIBILITY, RATIONALS)
    a, b = (0, 4, Fraction(1)), (1, 6, Fraction(-1))
    assert prod.meet(a, b) == (0, 2, Fraction(-1))
    assert prod.join(a, b) == (1, 12, Fraction(1))
    assert not prod.leq(a, b) and not prod.leq(b, a)
    assert prod.leq(prod.meet(a, b), prod.join(a, b))
    assert prod.fmt(b) == "(1, 6, -1)"


def test_product_lattice_componentwise():
    prod = product_lattice(chain_lattice(3), diamond_m3())
    a, b = (0, "a"), (2, "b")
    assert prod.meet(a, b) == (0, "0")
    assert prod.join(a, b) == (2, "1")
    assert not prod.leq(a, b)
    rng = random.Random(9)
    for _ in range(100):
        x = (rng.randrange(3), rng.choice(diamond_m3().carrier))
        y = (rng.randrange(3), rng.choice(diamond_m3().carrier))
        assert prod.leq(x, y) == (x[0] <= y[0] and diamond_m3().leq(x[1], y[1]))


def test_absorption_on_sampled_pairs():
    rng = random.Random(2)
    for lat, sample in [
        (diamond_m3(), lambda: rng.choice(diamond_m3().carrier)),
        (DIVISIBILITY, lambda: rng.randint(1, 400)),
        (RATIONALS, lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 9))),
    ]:
        for _ in range(200):
            a, b = sample(), sample()
            assert lat.meet(a, lat.join(a, b)) == a
            assert lat.join(a, lat.meet(a, b)) == a


def test_divisibility_lattice():
    lat = DIVISIBILITY
    assert lat.meet(12, 18) == 6
    assert lat.join(4, 6) == 12
    assert lat.leq(3, 12) and not lat.leq(5, 12)
    with pytest.raises(ForeignElement):
        lat.meet(0, 3)


def test_finite_subsets():
    lat = finite_subset_lattice(range(5))
    a, b = frozenset({1, 2}), frozenset({2, 3})
    assert lat.meet(a, b) == {2}
    assert lat.join(a, b) == {1, 2, 3}


ORIGIN = LexPair(Fraction(0), Fraction(0))
LEX_BY_OPP_DIV = product_group([LEX_PLANE, opposite(DIV_POS)])

# Each checked lattice or group, one of its elements, a foreign operand, and
# the <what> of the message "<foreign!r> is not <what>" it raises.
CHECKED = [
    (INTERVAL_SETS, interval(0, 1), indicator(0, 1), "an IntervalSet"),
    (STEP_FNS, indicator(0, 1), interval(0, 1), "a StepFn"),
    (
        gf2_subspace_lattice(4),
        GF2Subspace.from_vectors(4, [1]),
        GF2Subspace.from_vectors(5, [1]),
        "a subspace of GF(2)^4",
    ),
    (DIVISIBILITY, 6, 0, "a positive integer"),
    (DIVISIBILITY, 6, Fraction(1, 2), "a positive integer"),
    (finite_subset_lattice(range(5)), frozenset({1}), frozenset({9}), "a subset of the ground set"),
    (chain_lattice(3), 1, 99, "in the carrier"),
    (RATIONALS, Fraction(1, 2), 0.5, "a Fraction"),
    (opposite(DIVISIBILITY), 6, 0, "a positive integer"),
    (
        product_lattice(chain_lattice(3), diamond_m3()),
        (0, "a"),
        (0, "a", "junk"),
        "a member of product(finite, finite)",
    ),
    (chain_lattice(3), 1, [1], "in the carrier"),
    # equal to a member is not enough: True == 1 and 1.0 == 1, as rat rejects them
    (chain_lattice(3), 2, True, "in the carrier"),
    (chain_lattice(3), 0, 1.0, "in the carrier"),
    (DIVISIBILITY, 4, True, "a positive integer"),
    (
        product_lattice(chain_lattice(2), DIVISIBILITY, RATIONALS),
        (0, 4, Fraction(1)),
        (0, 4),
        "a member of product(finite, divisibility, rational)",
    ),
    (LEX_PLANE, ORIGIN, Fraction(1), "a LexPair"),
    (DIV_POS, DivPos.from_fraction(6), 6, "a DivPos"),
    (
        GROUPS["rational-pair"],
        (Fraction(1), Fraction(2)),
        (Fraction(1),),
        "a member of product(rational, rational)",
    ),
    (opposite(LEX_PLANE), ORIGIN, Fraction(1), "a LexPair"),
    (
        LEX_BY_OPP_DIV,
        (ORIGIN, DivPos.from_fraction(2)),
        (ORIGIN, Fraction(2)),
        "a member of product(lex-plane, opposite(div-pos))",
    ),
    (DIV_POS, DivPos.from_fraction(6), Fraction(6), "a DivPos"),  # the rational it stores is not one
    # a DivPos must hold a positive Fraction: the table divides by its numerator
    (DIV_POS, DivPos.from_fraction(6), DivPos(Fraction(-2)), "a DivPos"),
    (DIV_POS, DivPos.from_fraction(6), DivPos(Fraction(0)), "a DivPos"),
    (DIV_POS, DivPos.from_fraction(6), DivPos(2), "a DivPos"),
    # a LexPair must hold Fractions: the order compares their integers
    (LEX_PLANE, ORIGIN, LexPair(0.5, 1), "a LexPair"),
    (LEX_PLANE, ORIGIN, LexPair(0, 1), "a LexPair"),
    (LEX_PLANE, ORIGIN, LexPair(Fraction(0), 1), "a LexPair"),
]


@pytest.mark.parametrize("lat, good, foreign, what", CHECKED)
@pytest.mark.parametrize("op", ["meet", "join", "leq", "meet_join"])
def test_checked_lattices_reject_foreign_operands(lat, good, foreign, what, op):
    for a, b in [(good, foreign), (foreign, good)]:
        with pytest.raises(ForeignElement) as err:
            getattr(lat, op)(a, b)
        assert str(err.value) == f"{foreign!r} is not {what}"


M3 = diamond_m3()
# Each lattice with a sampler of its elements, for the meet_join tests.
SAMPLED = [
    (INTERVAL_SETS, sample_interval_set),
    (STEP_FNS, sample_step_fn),
    (
        product_lattice(INTERVAL_SETS, STEP_FNS),
        lambda rng: (sample_interval_set(rng), sample_step_fn(rng)),
    ),
    (opposite(INTERVAL_SETS), sample_interval_set),
    (opposite(STEP_FNS), sample_step_fn),
    (M3, lambda rng: rng.choice(M3.carrier)),
    (opposite(M3), lambda rng: rng.choice(M3.carrier)),
    (DIVISIBILITY, lambda rng: rng.randint(1, 400)),
    *((group, group.sample) for group in GROUPS.values()),
    (opposite(DIV_POS), DIV_POS.sample),
]


@pytest.mark.parametrize("lat, sample", SAMPLED, ids=[lat.name for lat, _ in SAMPLED])
def test_meet_join_is_the_pair_of_meet_and_join(lat, sample):
    rng = random.Random(27)
    for _ in range(150):
        a, b = sample(rng), sample(rng)
        assert lat.meet_join(a, b) == (lat.meet(a, b), lat.join(a, b))
        assert lat.meet_join(a, a) == (a, a)


def test_opposite_meet_join_swaps_and_is_an_involution():
    rng = random.Random(4)
    for lat, sample in SAMPLED:
        if lat.opposite_of is None:
            assert opposite(opposite(lat))._meet_join is lat._meet_join
        a, b = sample(rng), sample(rng)
        assert opposite(lat).meet_join(a, b) == lat.meet_join(a, b)[::-1]
        assert opposite(opposite(lat)).meet_join(a, b) == lat.meet_join(a, b)
        # one copy per lattice, on both sides of the involution
        assert opposite(lat) is opposite(lat)
        assert opposite(opposite(lat)) is lat
        assert opposite(opposite(opposite(lat))) is opposite(lat)
        if lat.opposite_of is None:  # a copy gets its own opposite, not lat's
            twin = copy.copy(lat)
            assert opposite(twin) is not opposite(lat) and opposite(opposite(twin)) is twin


def test_step_ties_keep_the_first_operands_value_objects():
    # equal values read from two documents are distinct objects
    f = step_from_values(["0", "1", "2"], ["3/2", "-1"], ["1", "1", "5"])
    g = step_from_values([Fraction(0), Fraction(1), Fraction(2)],
                         [Fraction(3, 2), Fraction(2)], [Fraction(1), Fraction(1), Fraction(5)])
    assert f.open_values[0] is not g.open_values[0]
    low, high = step_meet_join(f, g)
    assert (low, high) == (step_meet(f, g), step_join(f, g))
    assert low.open_values == (Fraction(3, 2), Fraction(-1))
    assert high.open_values == (Fraction(3, 2), Fraction(2))
    for result in (low, high, step_meet(f, g), step_join(f, g)):
        assert result.open_values[0] is f.open_values[0]
        assert all(v is w for v, w in zip(result.point_values, f.point_values))


def test_meet_join_kernels_run_one_sweep(monkeypatch):
    sweeps = []
    for module in (intervals, stepfn):
        sweep = module._sweep
        counted = lambda ops, zero, sweep=sweep: sweeps.append(1) or sweep(ops, zero)
        monkeypatch.setattr(module, "_sweep", counted)
    rng = random.Random(3)
    for lat, sample in SAMPLED[:2]:
        for _ in range(20):
            a, b = sample(rng), sample(rng)
            sweeps.clear()
            lat.meet_join(a, b)
            assert len(sweeps) == 1
