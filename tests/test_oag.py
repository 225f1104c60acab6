import operator
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latval.lattice import ForeignElement, opposite
from latval.oag import (
    DIV_POS,
    GROUPS,
    LEX_PLANE,
    RATIONALS,
    DivPos,
    Group,
    LexPair,
    ShapeError,
    product_group,
    check_group_axioms,
    fields,
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
    four, six = DivPos.from_fraction(4), DivPos.from_fraction(6)
    assert DIV_POS.meet(four, six).value == 2
    assert DIV_POS.join(four, six).value == 12


def test_divpos_roundtrip_and_format():
    q = Fraction(12, 35)
    assert DivPos.from_fraction(q).value == q
    assert str(DivPos.from_fraction(12)) == "2^2·3^1"
    assert str(DivPos(Fraction(1))) == "1"
    with pytest.raises(ValueError):
        DivPos.from_fraction(Fraction(-1, 2))
    for zero in (0, Fraction(0), "0/5"):  # zero is not strictly positive
        with pytest.raises(ValueError, match="strictly positive rational, got 0$"):
            DivPos.from_fraction(zero)


def _exponents(q: Fraction) -> dict[int, int]:
    """The prime exponents of a positive rational, by trial division."""
    exps: dict[int, int] = {}
    for n, sign in ((q.numerator, 1), (q.denominator, -1)):
        p = 2
        while n > 1:
            while n % p == 0:
                exps[p] = exps.get(p, 0) + sign
                n //= p
            p += 1
    return exps


def _from_exponents(exps: dict[int, int]) -> Fraction:
    out = Fraction(1)
    for p, e in exps.items():
        out *= Fraction(p) ** e
    return out


def test_divpos_table_matches_prime_exponents():
    # an oracle on exponents: meet and join are min and max, the order is
    # componentwise, the group operation adds, and str lists them by prime
    rng = random.Random(7)
    leq_seen = set()
    for _ in range(400):
        q = Fraction(rng.randint(1, 3000), rng.randint(2, 3000))
        r = rng.choice([
            Fraction(rng.randint(1, 3000), rng.randint(1, 3000)),
            q * rng.randint(1, 30),
            q / rng.randint(1, 30),
            q,
        ])
        x, y = DivPos.from_fraction(q), DivPos.from_fraction(r)
        ex, ey = _exponents(q), _exponents(r)
        primes = set(ex) | set(ey)
        lo = {p: min(ex.get(p, 0), ey.get(p, 0)) for p in primes}
        hi = {p: max(ex.get(p, 0), ey.get(p, 0)) for p in primes}
        assert DIV_POS.meet(x, y).value == _from_exponents(lo)
        assert DIV_POS.join(x, y).value == _from_exponents(hi)
        leq = all(ex.get(p, 0) <= ey.get(p, 0) for p in primes)
        assert DIV_POS.leq(x, y) is leq
        leq_seen.add(leq)
        assert DIV_POS.equal(x, y) is (ex == ey)
        total = {p: ex.get(p, 0) + ey.get(p, 0) for p in primes}
        assert DIV_POS.add(x, y).value == _from_exponents(total)
        assert DIV_POS.neg(x).value == _from_exponents({p: -e for p, e in ex.items()})
        diff = {p: ex.get(p, 0) - ey.get(p, 0) for p in primes}
        assert DIV_POS.sub(x, y).value == _from_exponents(diff)
        assert str(x) == ("·".join(f"{p}^{ex[p]}" for p in sorted(ex)) or "1")
    assert leq_seen == {True, False}


def test_divpos_order_is_integer_multiplier():
    # q precedes r exactly when r/q is a positive integer
    q, r = DivPos.from_fraction(Fraction(2, 3)), DivPos.from_fraction(4)
    assert DIV_POS.leq(q, r)  # 4/(2/3) = 6
    assert not DIV_POS.leq(r, q)
    assert not DIV_POS.leq(DivPos.from_fraction(3), DivPos.from_fraction(4))


def test_tag_mismatch_rejected():
    with pytest.raises(ForeignElement):
        RATIONALS.add(Fraction(1), LexPair(Fraction(0), Fraction(0)))
    with pytest.raises(ForeignElement):
        LEX_PLANE.leq(LexPair(Fraction(0), Fraction(0)), Fraction(1))


def test_serialization_forms():
    assert RATIONALS.fmt(Fraction(3, 4)) == "3/4"
    assert RATIONALS.fmt(Fraction(5)) == "5"
    assert LEX_PLANE.fmt(LexPair(Fraction(1, 2), Fraction(-2))) == "(1/2, -2)"


AXIOM_GROUPS = [pytest.param(GROUPS[name], id=name) for name in GROUPS] + [
    pytest.param(g, id=g.name) for g in (opposite(LEX_PLANE), LEX_BY_OPP_DIV)
]


@pytest.mark.parametrize("group", AXIOM_GROUPS)
def test_group_axioms_all_pass(group):
    report = check_group_axioms(group, samples=300, seed=7)
    assert report.ok, report.failing()


@pytest.mark.parametrize("group", AXIOM_GROUPS)
def test_group_table_is_closed(group):
    """The law checks call the table on sampled members without checking
    what it returns: sums, negatives, both bounds and the identity are members."""
    rng = random.Random(7)
    assert group.member(group._zero)
    for _ in range(200):
        x, y = group.sample(rng), group.sample(rng)
        assert group.member(x) and group.member(y)
        for z in (group._add(x, y), group._neg(x), *group._meet_join(x, y)):
            assert group.member(z), (group.fmt(x), group.fmt(y))


# The groups' rows of the one table of checked structures
FOREIGN = [row for row in CHECKED if isinstance(row[0], Group)]
# a case is named by its group, and a group's later cases by their foreign type too
FOREIGN_IDS = [
    g.name + (f"-{type(f).__name__}" if any(row[0] is g for row in FOREIGN[:i]) else "")
    for i, (g, _, f, _) in enumerate(FOREIGN)
]


@pytest.mark.parametrize("op", ["add", "neg", "leq", "meet", "join", "sub", "equal"])
@pytest.mark.parametrize("group, element, foreign, what", FOREIGN, ids=FOREIGN_IDS)
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
    """Within the numeral grammar ``rat`` gives ``Fraction``'s value; every
    other string, though ``Fraction`` reads ``0.5`` or ``+3/4``, and every
    zero denominator is rejected."""
    assert_reads_the_numeral_grammar(text)


# The numeral grammar, written apart from ``rat``: ASCII digits, an optional
# leading minus, an optional ``/q`` and ASCII whitespace around.
NUMERAL = re.compile(r"[ \t\n\r\x0b\x0c]*(-?[0-9]+)(?:/([0-9]+))?[ \t\n\r\x0b\x0c]*")


def assert_reads_the_numeral_grammar(text):
    m = NUMERAL.fullmatch(text)
    if m is None or m[2] is not None and int(m[2]) == 0:  # no numeral, or q = 0
        with pytest.raises(ShapeError) as err:
            rat(text)
        assert str(err.value) == f"not a rational: {text!r}"
    else:
        got = rat(text)
        assert type(got) is Fraction and got == Fraction(int(m[1]), int(m[2] or 1))
        assert got == Fraction(text.strip())


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.text(alphabet="0123456789-+/._e \t\n\x0b\x0c\x1c\xa0\u0661\xb2", max_size=8),
    st.from_regex(NUMERAL, fullmatch=True),
))
@example("\x1c3")  # spaces that ``str.strip`` takes: ASCII separators
@example("3\x1f")
@example(" 3\xa0")  # and non-ASCII spaces
def test_rat_reads_exactly_the_numeral_grammar(text):
    assert_reads_the_numeral_grammar(text)


class _FractionKind(Fraction):
    pass


def test_rat_reads_by_type():
    q, sub = Fraction(241, 12), _FractionKind(1, 2)
    assert rat(q) is q and rat(sub) is sub
    for n in (0, -7, 2**1000):
        got = rat(n)
        assert type(got) is Fraction and got == n
    assert rat("241/12") == q and rat(" -241/12 ") == -q
    for bad in (True, False, None, 0.5, Decimal("0.5"), [1], b"1", (1, 2)):
        with pytest.raises(ShapeError) as err:
            rat(bad)
        assert str(err.value) == f"not a rational: {bad!r}"


@pytest.mark.parametrize(
    "text, digits", [("1" * 5000, 5000), (f"-{'7' * 4301}/3", 4302), (f"1/{'9' * 6000}", 6001)]
)
def test_rat_past_the_int_digit_limit_is_a_shape_error(text, digits):
    # outside cli.main the interpreter's limit on int strings holds
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ShapeError) as err:
            rat(text)
        assert str(err.value) == f"not a rational: {digits} digits, over the limit of 4300"
        sys.set_int_max_str_digits(0)
        assert rat(text) == Fraction(text)
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "expected a JSON object, got list"),
        ("lo", "expected a JSON object, got str"),
        (None, "expected a JSON object, got NoneType"),
        ({}, "missing key 'hi'"),  # the first in sorted order
        ({"hi": "1", "open": True}, "missing key 'lo'"),  # before any unknown key
        ({"lo": "0", "hi": "1", "b": 1, "a": 2}, "unknown keys ['a', 'b']"),
    ],
)
def test_fields_names_the_first_fault(doc, message):
    with pytest.raises(ShapeError) as err:
        fields(doc, frozenset({"lo", "hi"}), frozenset({"lo", "hi", "lo_closed"}))
    assert str(err.value) == message


def test_fields_returns_the_object_it_accepts():
    for doc in ({"lo": "0", "hi": "1"}, {"lo": "0", "hi": "1", "lo_closed": False}):
        assert fields(doc, frozenset({"lo", "hi"}), frozenset({"lo", "hi", "lo_closed"})) is doc
    assert fields({}, frozenset(), frozenset()) == {}


# numerators and denominators of a few bits or up to 1,000, of either sign
rationals = st.builds(
    Fraction,
    st.one_of(st.integers(-50, 50), st.integers(-(2**1000), 2**1000)),
    st.one_of(st.integers(1, 50), st.integers(1, 2**1000)),
)


@st.composite
def rational_pairs(draw):
    """Two rationals; half the time the second equals the first in a new object."""
    x = draw(rationals)
    return x, Fraction(x.numerator, x.denominator) if draw(st.booleans()) else draw(rationals)


@settings(max_examples=400, deadline=None)
@given(rational_pairs())
def test_rational_order_matches_fraction_operators(pair):
    x, y = pair
    for a, b in ((x, y), (y, x)):
        assert RATIONALS.leq(a, b) is operator.le(a, b)
        # the same object as min and max choose, the first operand on a tie
        assert RATIONALS.meet(a, b) is min(a, b)
        assert RATIONALS.join(a, b) is max(a, b)
        lo, hi = RATIONALS.meet_join(a, b)
        assert lo is min(a, b) and hi is max(a, b)
    if x == y:
        assert y is not x
        assert RATIONALS.meet(x, y) is x and RATIONALS.join(x, y) is x


@settings(max_examples=400, deadline=None)
@given(rational_pairs(), rational_pairs())
def test_lex_order_matches_tuple_order(firsts, seconds):
    x, y = LexPair(firsts[0], seconds[0]), LexPair(firsts[1], seconds[1])
    for a, b in ((x, y), (y, x)):
        below = (a.first, a.second) <= (b.first, b.second)
        assert LEX_PLANE.leq(a, b) is below
        assert LEX_PLANE.meet(a, b) is (a if below else b)
        assert LEX_PLANE.join(a, b) is (b if below else a)
