from fractions import Fraction

import pytest

from latval.intervals import interval, iset_make
from latval.oag import ShapeError
from latval.seqdsl import (
    parse_affine,
    parse_interval_template,
    parse_step_template,
    producer_from_json,
)


def test_affine_terms():
    e = parse_affine("1 + 1/n")
    assert e.at(4) == Fraction(5, 4)
    assert parse_affine("2 - 1/n").at(2) == Fraction(3, 2)
    assert parse_affine("n + 1").at(3) == 4
    assert parse_affine("3/2*n").at(2) == 3
    assert parse_affine("-1/2").at(9) == Fraction(-1, 2)
    assert parse_affine("1/2/n").at(2) == Fraction(1, 4)
    assert parse_affine(" -n + 3/2 * n ").at(4) == 2


@pytest.mark.parametrize(
    "template",
    [
        "[ , 1]",  # an empty endpoint is not 0
        "[+, 1]",
        "[0, 1 2]",  # not 12
        "[0, 1++2]",  # not 3
        "[0, 1 + /n]",
        "[0, 2n]",
        "[0, 1e3]",  # numerals are p/q: not 1000
        "[0, 0.5]",  # not 1/2
        "[0, 1e-3]",
        "[0, 1_000]",
        "[0, 1 / 2]",
    ],
)
def test_malformed_interval_template_rejected(template):
    with pytest.raises(ValueError):
        parse_interval_template(template)


@pytest.mark.parametrize(
    "template",
    [
        "(1)*1_[0, 1] - (2)*1_[0, 1]",  # terms are joined by "+"; negate a coefficient
        "(1)*1_[0, 1] + (5)*1_[0, 1",  # an unclosed trailing term
        "junk (1)*1_[0, 1]",
        "(1)*1_[0, 1] (2)*1_[0, 1]",
        "(1 2)*1_[0, 1]",
    ],
)
def test_malformed_step_template_rejected(template):
    with pytest.raises(ValueError):
        parse_step_template(template)


def test_step_template_sums_terms():
    f = parse_step_template(" (1)*1_[0, 1] + (-2) * 1_[1/2, n] ")(3)
    assert f(Fraction(1, 4)) == 1 and f(Fraction(3, 4)) == -1 and f(2) == -2


def test_interval_template():
    producer, kind = producer_from_json({"kind": "interval", "template": "[0, 1 + 1/n]"})
    assert kind == "interval"
    assert producer(4) == interval(0, Fraction(5, 4))


def test_interval_union_template():
    producer, _ = producer_from_json(
        {"kind": "interval", "template": "[0, 1] u [2 - 1/n, 3]"}
    )
    assert producer(2) == iset_make([(0, 1), (Fraction(3, 2), 3)])


def test_step_template():
    producer, kind = producer_from_json({"kind": "step", "template": "(1/n)*1_[n, n+1]"})
    assert kind == "step"
    f = producer(3)
    assert f(Fraction(7, 2)) == Fraction(1, 3)
    assert f(10) == 0


def test_explicit_stage_list():
    producer, _ = producer_from_json(
        {
            "kind": "interval-list",
            "stages": [[{"lo": "0", "hi": "2"}], [{"lo": "0", "hi": "1"}]],
            "tail": "constant",
        }
    )
    assert producer(1) == interval(0, 2)
    assert producer(5) == interval(0, 1)


def test_explicit_stage_list_without_tail_errors_past_end():
    producer, _ = producer_from_json(
        {"kind": "interval-list", "stages": [[{"lo": "0", "hi": "2"}]]}
    )
    with pytest.raises(ShapeError, match="explicit stage list has 1 stages"):
        producer(2)


def test_unknown_kind():
    with pytest.raises(ValueError):
        producer_from_json({"kind": "nope"})
