"""Tiny JSON DSL for declaring stage sequences.

Templates are strings over a fixed affine grammar: each coordinate is a sum
of terms ``p/q``, ``p/q/n``, ``p/q*n`` or ``n``, so a coordinate evaluates
to c0 + cinv/n + clin*n at stage n.  A numeral is ``p`` or ``p/q`` in
decimal digits, as ``oag.rat`` reads it; ``0.5`` and ``1e3`` are not.  Interval
templates are unions of ``[lo, hi]`` pairs separated by ``u`` (or the union
sign); step templates are terms ``(coef)*1_[lo, hi]`` joined by ``+``.  A
template must match the grammar as a whole.  Explicit per-stage lists are
also accepted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .intervals import IntervalSet, iset_from_json, iset_make
from .oag import ShapeError, fields, rat
from .stepfn import ZERO_FN, StepFn, step_add, step_make


@dataclass(frozen=True)
class AffineExpr:
    const: Fraction
    inv: Fraction  # coefficient of 1/n
    lin: Fraction  # coefficient of n

    def at(self, n: int) -> Fraction:
        return self.const + self.inv / n + self.lin * n


# One term: a numeral ``p`` or ``p/q`` in ASCII digits, alone, over ``n`` or
# times ``n``, or a bare ``n``.  The sign is the ``+`` or ``-`` before it.
_TERM = re.compile(r"\s*(?:([0-9]+(?:/[0-9]+)?)(?:\s*([/*])\s*n)?|n)\s*")


def parse_affine(text: str) -> AffineExpr:
    """Read terms ``p/q``, ``p/q/n``, ``p/q*n`` or ``n`` joined by ``+`` or
    ``-``, the first with an optional sign; any other text, an empty term or
    a numeral such as ``0.5`` or ``1e3`` among it, is a ``ValueError``."""
    parts = re.split(r"([+-])", text)
    if len(parts) > 1 and not parts[0].strip():  # a leading sign
        del parts[0]
    else:
        parts.insert(0, "+")
    const = inv = lin = Fraction(0)
    for sign, term in zip(parts[0::2], parts[1::2]):
        m = _TERM.fullmatch(term)
        if m is None:
            raise ValueError(f"bad term {term.strip()!r} in {text!r}")
        num, op = m.groups()
        value = rat(num or "1") * (-1 if sign == "-" else 1)
        if op == "/":
            inv += value
        elif op or num is None:  # ``p/q*n`` or a bare ``n``
            lin += value
        else:
            const += value
    return AffineExpr(const, inv, lin)


def parse_interval_template(text: str) -> Callable[[int], IntervalSet]:
    """Unions of ``[lo, hi]`` with affine endpoints."""
    parts = re.split(r"\s*(?:∪|u)\s*", text.strip())
    pairs = []
    for part in parts:
        m = re.match(r"^\[(?P<lo>[^,]+),(?P<hi>[^\]]+)\]$", part.strip())
        if not m:
            raise ValueError(f"bad interval template piece {part!r}")
        pairs.append((parse_affine(m.group("lo")), parse_affine(m.group("hi"))))

    def producer(n: int) -> IntervalSet:
        return iset_make([(lo.at(n), hi.at(n)) for lo, hi in pairs])

    return producer


def parse_step_template(text: str) -> Callable[[int], StepFn]:
    """Terms ``(coef)*1_[lo, hi]`` joined by ``+``, with affine fields."""
    term = r"\s*\(([^)]+)\)\s*\*\s*1_\[([^,\]]+),([^\]]+)\]\s*"
    if not re.fullmatch(rf"{term}(?:\+{term})*", text):
        raise ValueError(f"bad step template {text!r}")
    terms = re.findall(term, text)
    parsed = [(parse_affine(c), parse_affine(lo), parse_affine(hi)) for c, lo, hi in terms]

    def producer(n: int) -> StepFn:
        out = ZERO_FN
        for c, lo, hi in parsed:
            out = step_add(out, step_make([((lo.at(n), hi.at(n)), c.at(n))]))
        return out

    return producer


_TEMPLATE_KEYS = frozenset({"kind", "template"})
_LIST_KEYS = frozenset({"kind", "stages", "tail"})


def producer_from_json(doc: dict):
    """Build a stage producer from a parsed DSL document.

    ``{"kind": "interval", "template": "[0, 1 + 1/n]"}``
    ``{"kind": "step", "template": "(1/n)*1_[n, n+1]"}``
    ``{"kind": "interval-list", "stages": [[...descriptors...], ...]}``, one
    stage or more, with ``"tail": "constant"`` to repeat the last stage.
    Returns ``(producer, kind)``.
    """
    kind = fields(doc, {"kind"}, _TEMPLATE_KEYS | _LIST_KEYS)["kind"]
    if kind not in ("interval", "step", "interval-list"):
        raise ValueError(f"unknown sequence kind {kind!r}")
    if kind != "interval-list":
        template = fields(doc, _TEMPLATE_KEYS, _TEMPLATE_KEYS)["template"]
        if not isinstance(template, str):
            raise TypeError(f"template is {type(template).__name__}, not a string")
        parse = parse_interval_template if kind == "interval" else parse_step_template
        return parse(template), kind
    stages = fields(doc, _LIST_KEYS - {"tail"}, _LIST_KEYS)["stages"]
    if doc.get("tail", "constant") != "constant":
        raise ValueError(f"tail is {doc['tail']!r}, not 'constant'")
    if not isinstance(stages, list) or not stages:
        raise ShapeError("stages must be a nonempty list")
    stages = [iset_from_json(s) for s in stages]

    def producer(n: int) -> IntervalSet:
        if n <= len(stages):
            return stages[n - 1]
        if "tail" in doc:
            return stages[-1]
        raise ShapeError(f"explicit stage list has {len(stages)} stages")

    return producer, "interval"
