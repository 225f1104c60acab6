"""Layer spans for the traced benchmark run, installed from outside latval.

``Tracer.install`` replaces the public functions and methods of every
``latval`` module with wrappers that record one span per call: layer (the
module), function name, the job it belongs to, its parent span, start and
end.  A function bound into another latval namespace by ``from ... import``
is replaced there too.  Per-point helpers (``IntervalSet.contains``,
``StepFn.__call__``, ``rat`` and the like) are left alone, so their cost
stays in the caller's self time.

Spans are kept in memory in flat arrays.  A span's self time is its
duration minus the time its child spans cover.  Work counters
(``intervals.atoms``, ``stepfn.refined_bps``, bit lengths, ...) are computed
from each call's operands and result; the time spent computing them is
charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from array import array
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import latval
from latval import seqdsl
from latval.intervals import IntervalSet
from latval.oag import LexPair
from latval.stepfn import StepFn

# Called once per point or element, or trivial accessors: not layer boundaries.
PER_POINT = {
    "rat", "contains", "contains_point", "width", "endpoints", "is_empty",
    "is_zero", "value", "check_element", "flag_atom", "flag_truncation",
}
# Public names whose outermost call counts as building a value from input.
BUILD = {
    "intervals": {"iset_make", "iset_from_json"},
    "stepfn": {"step_from_json", "step_from_values", "step_make", "indicator"},
    "fubini": {"step2d_make"},
}
ISET_OPS = {"iset_meet", "iset_join", "iset_diff", "iset_symmdiff"}
# Valuation evaluation and sampling run the concrete valuations' code, so
# their spans belong to the instances layer.
RENAMED = {
    ("valuation", "Valuation.__call__"): ("instances", "eval"),
    ("valuation", "Valuation.sample"): ("instances", "sample"),
}


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.names: list[str] = []
        self._name_ids: dict[tuple[str, str], int] = {}
        # span i: parent span (-1 for none), job, name id, start and end on
        # a clock that stands still while counters are computed
        self.parent = array("i")
        self.job_of = array("i")
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.job = -1
        self.paused = 0.0  # seconds spent computing counters so far
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.layers.append(layer)
            self.names.append(name)
        return self._name_ids[key]

    def _count(self, count, args, result) -> None:
        c0 = perf_counter()
        count(self, args, result)
        self.paused += perf_counter() - c0

    def wrap(self, layer: str, name: str, fn, count=None):
        tracer, nid = self, self._name_id(layer, name)
        parent_arr, job_arr, name_arr = self.parent, self.job_of, self.name_of
        start_arr, end_arr, stack = self.start, self.end, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start_arr)
            parent_arr.append(stack[-1] if stack else -1)
            job_arr.append(tracer.job)
            name_arr.append(nid)
            stack.append(sid)
            start_arr.append(perf_counter() - tracer.paused)
            end_arr.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end_arr[sid] = perf_counter() - tracer.paused
                stack.pop()
            if count is not None:
                tracer._count(count, args, result)
            return result

        return traced

    def hook(self, fn, count):
        """A counting wrapper that records no span (for private helpers)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(count, args, result)
            return result

        return counted

    # --- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [latval] + [
            importlib.import_module(f"latval.{m.name}")
            for m in pkgutil.iter_modules(latval.__path__)
        ]
        replaced: dict[int, object] = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if name.startswith("_") or name in PER_POINT:
                        continue
                    wrapper = self.wrap(layer, name, obj, COUNTERS.get((layer, name)))
                    replaced[id(obj)] = wrapper
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        for (layer, name), count in HOOKS.items():
            fn = getattr(importlib.import_module(f"latval.{layer}"), name)
            replaced[id(fn)] = self.hook(fn, count)
        # rebind every module-level name that refers to a replaced function,
        # in its own module and wherever it was imported by name
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._patch(mod, name, replaced[id(obj)])

        # stage producers are closures made per document: wrap each one made
        producer_from_json = seqdsl.producer_from_json

        def traced_producers(doc):
            producer, kind = producer_from_json(doc)
            return self.wrap("seqdsl", "stage", producer), kind

        self._patch(seqdsl, "producer_from_json", traced_producers)

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            label = f"{cls.__name__}.{name}"
            span_layer, span_name = RENAMED.get((layer, label), (layer, label))
            if (name.startswith("_") or name in PER_POINT) and (layer, label) not in RENAMED:
                continue
            count = COUNTERS.get((span_layer, span_name))
            if layer == "oag" and count is None:
                count = _count_oag_bits
            if isinstance(attr, staticmethod):
                wrapped = staticmethod(self.wrap(span_layer, span_name, attr.__func__, count))
            elif inspect.isfunction(attr):
                wrapped = self.wrap(span_layer, span_name, attr, count)
            else:
                continue
            self._patch(cls, name, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- summaries -------------------------------------------------------

    def per_function(self) -> dict[tuple[str, str], list[float]]:
        """(layer, name) -> [calls, inclusive s, self s, outermost build s].

        The last column sums only calls of a build function not nested in
        another build call of the same layer.
        """
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        build_ids = {
            nid for nid, (layer, name) in enumerate(zip(self.layers, self.names))
            if name in BUILD.get(layer, ())
        }
        out: dict[tuple[str, str], list[float]] = {}
        for i in range(n):
            nid = self.name_of[i]
            row = out.setdefault((self.layers[nid], self.names[nid]), [0, 0.0, 0.0, 0.0])
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - covered[i]
            if nid in build_ids:
                p = self.parent[i]
                while p >= 0 and not (self.name_of[p] in build_ids
                                      and self.layers[self.name_of[p]] == self.layers[nid]):
                    p = self.parent[p]
                if p < 0:
                    row[3] += dur
        return out


# --- computed counters -----------------------------------------------------


def _bits(tracer: Tracer, values) -> None:
    num = tracer.maxima["oag.num_bits_max"]
    den = tracer.maxima["oag.den_bits_max"]
    for q in values:
        if isinstance(q, Fraction):
            num = max(num, abs(q.numerator).bit_length())
            den = max(den, q.denominator.bit_length())
    tracer.maxima["oag.num_bits_max"] = num
    tracer.maxima["oag.den_bits_max"] = den


def _fractions_in(obj):
    """The rationals an operand or result is made of (shallow)."""
    if isinstance(obj, Fraction):
        return (obj,)
    if isinstance(obj, IntervalSet):
        return [e for p in obj.pieces for e in (p.lo, p.hi)]
    if isinstance(obj, StepFn):
        return obj.breakpoints + obj.open_values + obj.point_values
    if isinstance(obj, LexPair):
        return (obj.first, obj.second)
    if isinstance(obj, tuple) and len(obj) <= 8:
        return [q for x in obj for q in _fractions_in(x)]
    return ()


def _count_result_bits(tracer, args, result) -> None:
    _bits(tracer, _fractions_in(result))


def _count_oag_bits(tracer, args, result) -> None:
    for x in args[1:]:  # args[0] is the group itself
        _bits(tracer, _fractions_in(x))
    _bits(tracer, _fractions_in(result))


def _count_iset_op(tracer, args, result) -> None:
    a, b = args[0], args[1]
    points = len(set(a.endpoints()) | set(b.endpoints()))
    if points:
        tracer.counts["intervals.atoms"] += 2 * points - 1
    tracer.maxima["intervals.pieces_max"] = max(
        tracer.maxima["intervals.pieces_max"], len(a.pieces), len(b.pieces), len(result.pieces)
    )
    _count_result_bits(tracer, args, result)


def _count_iset_build(tracer, args, result) -> None:
    tracer.maxima["intervals.pieces_max"] = max(
        tracer.maxima["intervals.pieces_max"], len(result.pieces)
    )
    _count_result_bits(tracer, args, result)


def _count_canonical(tracer, args, result) -> None:
    tracer.counts["stepfn.refined_bps"] += len(args[0])
    tracer.counts["stepfn.kept_bps"] += len(result.breakpoints)


def _count_step2d(tracer, args, result) -> None:
    terms = list(args[0])
    nx = len({e for t in terms for e in t.base_x.endpoints()})
    ny = len({e for t in terms for e in t.base_y.endpoints()})
    if nx and ny:
        tracer.counts["fubini.raster_cells"] += (2 * nx - 1) * (2 * ny - 1)
    tracer.counts["fubini.grid_lines"] += nx + ny
    tracer.counts["fubini.kept_lines"] += len(result.xs) + len(result.ys)
    _bits(tracer, result.xs + result.ys)


COUNTERS = {("intervals", op): _count_iset_op for op in ISET_OPS}
COUNTERS.update({
    ("instances", "eval"): _count_result_bits,
    ("intervals", "iset_make"): _count_iset_build,
    ("intervals", "iset_from_json"): _count_iset_build,
    ("intervals", "measure"): _count_result_bits,
    ("fubini", "step2d_make"): _count_step2d,
    **{("stepfn", op): _count_result_bits
       for op in ("step_add", "step_sub", "step_meet", "step_join", "step_scale", "integral")},
})
HOOKS = {("stepfn", "_canonical"): _count_canonical}
