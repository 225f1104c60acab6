import random
from fractions import Fraction

import pytest

from latval.lattice import ForeignElement, opposite
from latval.oag import (
    DIV_POS,
    GROUPS,
    LEX_PLANE,
    RATIONALS,
    DivPos,
    Group,
    LexPair,
    product_group,
    check_group_axioms,
    rat,
)
from test_lattice import CHECKED, LEX_BY_OPP_DIV


def test_rational_add_exact():
    assert RATIONALS.add(Fraction(3, 4), Fraction(1, 4)) == 1


def test_lex_leq_examples():
    a = LexPair(Fraction(0), Fraction(5))
    b = LexPair(Fraction(1), Fraction(-100))
    assert LEX_PLANE.leq(a, b) is True
    assert LEX_PLANE.leq(b, a) is False
    # ties fall through to the second coordinate
    assert LEX_PLANE.leq(LexPair(Fraction(1), Fraction(2)), LexPair(Fraction(1), Fraction(3)))


def test_divpos_meet_join_gcd_lcm():
    four, six = DivPos.from_int(4), DivPos.from_int(6)
    assert DIV_POS.meet(four, six).as_fraction() == 2
    assert DIV_POS.join(four, six).as_fraction() == 12


def test_divpos_roundtrip_and_format():
    q = Fraction(12, 35)
    assert DivPos.from_fraction(q).as_fraction() == q
    assert str(DivPos.from_int(12)) == "2^2·3^1"
    assert str(DivPos(())) == "1"
    with pytest.raises(ValueError):
        DivPos.from_fraction(Fraction(-1, 2))


def test_divpos_order_is_integer_multiplier():
    # q precedes r exactly when r/q is a positive integer
    q, r = DivPos.from_fraction(Fraction(2, 3)), DivPos.from_int(4)
    assert DIV_POS.leq(q, r)  # 4/(2/3) = 6
    assert not DIV_POS.leq(r, q)
    assert not DIV_POS.leq(DivPos.from_int(3), DivPos.from_int(4))


def test_tag_mismatch_rejected():
    with pytest.raises(ForeignElement):
        RATIONALS.add(Fraction(1), LexPair(Fraction(0), Fraction(0)))
    with pytest.raises(ForeignElement):
        LEX_PLANE.leq(LexPair(Fraction(0), Fraction(0)), Fraction(1))


def test_serialization_forms():
    assert RATIONALS.fmt(Fraction(3, 4)) == "3/4"
    assert RATIONALS.fmt(Fraction(5)) == "5"
    assert LEX_PLANE.fmt(LexPair(Fraction(1, 2), Fraction(-2))) == "(1/2, -2)"


@pytest.mark.parametrize(
    "group",
    [pytest.param(GROUPS[name], id=name) for name in GROUPS]
    + [pytest.param(g, id=g.name) for g in (opposite(LEX_PLANE), LEX_BY_OPP_DIV)],
)
def test_group_axioms_all_pass(group):
    report = check_group_axioms(group, samples=300, seed=7)
    assert report.ok, report.failing()


# The groups' rows of the one table of checked structures
FOREIGN = [row for row in CHECKED if isinstance(row[0], Group)]


@pytest.mark.parametrize("op", ["add", "neg", "leq", "meet", "join", "sub", "equal"])
@pytest.mark.parametrize(
    "group, element, foreign, what", FOREIGN, ids=[case[0].name for case in FOREIGN]
)
def test_foreign_operand_rejected(group, element, foreign, what, op):
    calls = [(foreign,)] if op == "neg" else [(element, foreign), (foreign, element)]
    for operands in calls:
        with pytest.raises(ForeignElement) as exc:
            getattr(group, op)(*operands)
        assert str(exc.value) == f"{foreign!r} is not {what}"


def test_opposite_group_reverses_order():
    opp = opposite(RATIONALS)
    assert opp.leq(Fraction(2), Fraction(1))
    assert opp.meet(Fraction(1), Fraction(2)) == 2
    report = check_group_axioms(opp, samples=200, seed=3)
    assert report.ok, report.failing()


def test_product_group_componentwise():
    prod = product_group([RATIONALS, RATIONALS])
    x, y = (Fraction(1), Fraction(5)), (Fraction(2), Fraction(3))
    assert prod.add(x, y) == (Fraction(3), Fraction(8))
    assert not prod.leq(x, y) and not prod.leq(y, x)  # incomparable
    assert prod.meet(x, y) == (Fraction(1), Fraction(3))


def test_lex_chain_has_no_sampled_supremum():
    # (0,1) <= (0,2) <= ... is bounded by (1,0); any upper bound with a
    # positive first coordinate can be strictly lowered and stay above.
    g = LEX_PLANE
    bound = LexPair(Fraction(1), Fraction(0))
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 10**9)
        assert g.leq(LexPair(Fraction(0), Fraction(n)), bound)
    for _ in range(200):
        cand = g.sample(rng)
        if cand.first <= 0:
            continue
        smaller = LexPair(cand.first, cand.second - 1)
        assert g.leq(smaller, cand) and not g.equal(smaller, cand)
        assert all(g.leq(LexPair(Fraction(0), Fraction(k)), smaller) for k in range(1, 100))


BIG = str(3**631)  # 1,001 bits


@pytest.mark.parametrize(
    "text",
    [
        "3/4", " 3/4\n", "\t-5 ", "+3/4", "-0", "-5/3", "007/010", "1_000/3", "0.5", "1e3",
        "١٢/٣", "²", "²/3", "1/-2", "1/0", "-1/0", "", " ", "/", "3/", "/3", "-", "--1", "3 / 4",
        "3/4/5", BIG, f"-{BIG}/{BIG}7", f"{BIG}/0",
    ],
)
def test_rat_parses_strings_as_fraction_does(text):
    try:
        want = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as got:
            rat(text)
        assert str(got.value) == str(exc)
    else:
        got = rat(text)
        assert type(got) is Fraction and got == want
