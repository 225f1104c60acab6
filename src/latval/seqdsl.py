"""Tiny JSON DSL for declaring stage sequences.

Templates are strings over a fixed affine grammar: each coordinate is a sum
of terms ``p/q``, ``p/q/n``, ``p/q*n`` or ``n``, so a coordinate evaluates
to c0 + cinv/n + clin*n at stage n.  Interval templates are unions of
``[lo, hi]`` pairs separated by ``u`` (or the union sign); step templates
are ``(coef)*1_[lo, hi]``.  Explicit per-stage lists are also accepted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .intervals import IntervalSet, iset_from_json, iset_make
from .oag import rat
from .stepfn import ZERO_FN, StepFn, step_add, step_make


@dataclass(frozen=True)
class AffineExpr:
    const: Fraction
    inv: Fraction  # coefficient of 1/n
    lin: Fraction  # coefficient of n

    def at(self, n: int) -> Fraction:
        return self.const + self.inv / n + self.lin * n


def parse_affine(text: str) -> AffineExpr:
    chunks = re.findall(r"[+-]?[^+-]+", text.replace(" ", ""))
    const = inv = lin = Fraction(0)
    for chunk in chunks:
        sign = Fraction(1)
        if chunk[0] in "+-":
            sign = Fraction(-1) if chunk[0] == "-" else Fraction(1)
            chunk = chunk[1:]
        var = None
        if chunk.endswith("/n"):
            var, chunk = "inv", chunk[:-2]
        elif chunk.endswith("*n"):
            var, chunk = "lin", chunk[:-2]
        elif chunk == "n":
            var, chunk = "lin", ""
        coef = rat(chunk) if chunk else Fraction(1)
        if var == "inv":
            inv += sign * coef
        elif var == "lin":
            lin += sign * coef
        else:
            const += sign * coef
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
    """Sums of ``(coef)*1_[lo, hi]`` with affine fields."""
    terms = re.findall(r"\((?P<c>[^)]+)\)\s*\*\s*1_\[(?P<lo>[^,]+),(?P<hi>[^\]]+)\]", text)
    if not terms:
        raise ValueError(f"bad step template {text!r}")
    parsed = [(parse_affine(c), parse_affine(lo), parse_affine(hi)) for c, lo, hi in terms]

    def producer(n: int) -> StepFn:
        out = ZERO_FN
        for c, lo, hi in parsed:
            out = step_add(out, step_make([((lo.at(n), hi.at(n)), c.at(n))]))
        return out

    return producer


def producer_from_json(doc: dict):
    """Build a stage producer from a parsed DSL document.

    ``{"kind": "interval", "template": "[0, 1 + 1/n]"}``
    ``{"kind": "step", "template": "(1/n)*1_[n, n+1]"}``
    ``{"kind": "interval-list", "stages": [[...descriptors...], ...]}``, with
    ``"tail": "constant"`` to repeat the last stage.  Returns ``(producer, kind)``.
    """
    kind = doc["kind"]
    if kind not in ("interval", "step", "interval-list"):
        raise ValueError(f"unknown sequence kind {kind!r}")
    allowed = {"kind", "stages", "tail"} if kind == "interval-list" else {"kind", "template"}
    if not doc.keys() <= allowed:
        raise ValueError(f"unknown keys {sorted(doc.keys() - allowed)} in a {kind} sequence")
    if kind != "interval-list":
        template = doc["template"]
        if not isinstance(template, str):
            raise TypeError(f"template is {type(template).__name__}, not a string")
        parse = parse_interval_template if kind == "interval" else parse_step_template
        return parse(template), kind
    if doc.get("tail", "constant") != "constant":
        raise ValueError(f"tail is {doc['tail']!r}, not 'constant'")
    stages = [iset_from_json(s) for s in doc["stages"]]

    def producer(n: int) -> IntervalSet:
        if n <= len(stages):
            return stages[n - 1]
        if "tail" in doc:
            return stages[-1]
        raise IndexError(f"explicit stage list has {len(stages)} stages")

    return producer, "interval"
