"""Batch command-line front end.

Every subcommand reads JSON, runs one operation or one named property
suite, and emits a JSON document on one line (``converge-trace`` can emit
CSV).  Output is deterministic for fixed inputs and flags.  Exit codes: 0
success, 1 property failure (report still emitted), 2 input error.

Every subcommand takes ``--out``.  The other shared flags go only where
the command reads them: ``--seed`` and ``--samples`` on ``quotient``,
``fubini-check`` and ``check``; ``--depth`` on ``check``,
``converge-trace``, ``sqrt2-witness`` and ``dense-approx``; ``--format``
on ``converge-trace``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import random
import sys
from fractions import Fraction

from . import borel, fubini, seqdsl, sequences, uniformity
from .instances import (
    counting_valuation,
    dimension_valuation,
    interval_measure,
    pad_with_nulls,
    step_integral,
    totient,
    totient_valuation,
)
from .intervals import iset_from_json
from .lattice import MAX_FINITE_CARRIER, check_distributive, diamond_m3, finite_lattice_from_json
from .oag import GROUPS, RATIONALS, check_group_axioms, rat
from .report import CheckReport
from .stepfn import step_from_json
from .valuation import (
    QuotientIllDefined,
    Valuation,
    check_congruence,
    check_modular_map_identity,
    check_pseudometric,
    check_valuation,
    dist,
    quotient,
    transform_product,
)


class InputError(Exception):
    """Bad input; ``pointer`` names the flag or field it came from."""

    def __init__(self, pointer: str, message: str):
        super().__init__(message)
        self.pointer = pointer


def _load_json(path: str, pointer: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(pointer, f"file not found: {path}")
    except OSError as exc:
        raise InputError(pointer, f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise InputError(pointer, f"not UTF-8 text: {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(pointer, f"invalid JSON in {path}: {exc}")
    except RecursionError:
        raise InputError(pointer, f"document nested too deeply: {path}")


def _load_doc(path: str, pointer: str, what: str, parse):
    """``parse`` applied to the JSON document at ``path``; a document it
    rejects is an input error at ``pointer``."""
    doc = _load_json(path, pointer)
    try:
        return parse(doc)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(pointer, f"bad {what}: {exc}")
    except RecursionError:
        raise InputError(pointer, f"bad {what}: document nested too deeply")


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError("--out", f"cannot write {args.out}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _encode(obj) -> str:
    """Rationals are emitted as exact ``p/q`` strings."""
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"cannot emit {type(obj).__name__} as JSON")


def _dump(args, obj) -> None:
    """One line of compact JSON: without ``indent``, ``json`` runs its C
    encoder, and ``_encode`` is its only hook."""
    _emit(args, json.dumps(obj, separators=(",", ":"), default=_encode) + "\n")


def _report_exit(args, report: CheckReport, extra: dict | None = None) -> int:
    doc = dict(extra or {})
    doc["report"] = report.to_dict()
    doc["ok"] = report.ok
    _dump(args, doc)
    return 0 if report.ok else 1


# The largest value each flag that sets the amount of work accepts, so that
# every run ends.  On a 2-CPU VM, check --suite pseudometric at the samples
# ceiling took 24 s, a step-function converge-trace at the depth ceiling 9 s,
# and totient-table at its ceiling 1 s.
_CEILINGS = {"samples": 10_000, "depth": 1_000, "eps_index": 1_000, "max": 100_000}


def _at_least_one(args, dest: str, need: str) -> int:
    """An integer flag that must be at least 1, and at most its ceiling if it
    has one: zero samples would check nothing, and depths, indices and codes
    count from 1."""
    value, flag = getattr(args, dest), "--" + dest.replace("_", "-")
    if value < 1:
        raise InputError(flag, f"need {need}, got {value}")
    if value > _CEILINGS.get(dest, value):
        raise InputError(flag, f"need at most {_CEILINGS[dest]}, got {value}")
    return value


def _samples(args) -> int:
    return _at_least_one(args, "samples", "at least one sample")


def _depth(args) -> int:
    return _at_least_one(args, "depth", "a depth of at least 1")


# The valuation of each element kind (--kind, and the kind of a sequence).
_VALUATIONS = {"interval": interval_measure, "step": step_integral}


def _read_element(kind: str, path: str, pointer: str):
    if kind == "interval":
        return _load_doc(path, pointer, "interval-set document", iset_from_json)
    return _load_doc(path, pointer, "step-function document", step_from_json)


def cmd_measure(args) -> int:
    a = _read_element("interval", args.set, "--set")
    _dump(args, {"value": interval_measure(a)})
    return 0


def cmd_integrate(args) -> int:
    f = _read_element("step", args.step, "--step")
    _dump(args, {"value": step_integral(f)})
    return 0


def _distance_pair(args):
    a = _read_element(args.kind, args.a, "--a")
    b = _read_element(args.kind, args.b, "--b")
    return _VALUATIONS[args.kind], a, b


def cmd_distance(args) -> int:
    phi, a, b = _distance_pair(args)
    _dump(args, {"distance": dist(phi, a, b)})
    return 0


def cmd_approx_eq(args) -> int:
    phi, a, b = _distance_pair(args)
    d = dist(phi, a, b)
    _dump(args, {"equal": d == 0, "distance": d})
    return 0


def cmd_quotient(args) -> int:
    samples = _samples(args)
    doc = _load_json(args.system, "--system")
    if not isinstance(doc, dict):
        raise InputError("--system", "expected a JSON object")
    for key in ("carrier", "leq", "phi"):
        if key not in doc:
            raise InputError(f"--system:{key}", "missing field")
    carrier = doc["carrier"]
    if not isinstance(carrier, list) or not 1 <= len(carrier) <= MAX_FINITE_CARRIER:
        raise InputError(
            "--system:carrier", f"expected a JSON list of 1 to {MAX_FINITE_CARRIER} labels"
        )
    try:  # labels key the lattice tables, and their strings key phi
        distinct = len(frozenset(carrier)) == len({str(a) for a in carrier}) == len(carrier)
    except TypeError as exc:
        raise InputError("--system:carrier", f"labels must be strings or numbers: {exc}")
    if not distinct:
        raise InputError("--system:carrier", "labels must be distinct, and so must their strings")
    try:
        lat = finite_lattice_from_json(doc)
    except (ValueError, TypeError) as exc:
        raise InputError("--system:leq", str(exc))
    if not isinstance(doc["phi"], dict):
        raise InputError("--system:phi", "expected a JSON object")
    values = {}
    for label in lat.carrier:
        if str(label) not in doc["phi"]:
            raise InputError(f"--system:phi:{label}", "missing valuation value")
        try:
            values[label] = rat(doc["phi"][str(label)])
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise InputError(f"--system:phi:{label}", f"not a rational: {exc}")
    phi = Valuation(
        domain=lat,
        group=RATIONALS,
        fn=lambda a: values[a],
        name="phi",
        sampler=lambda rng: rng.choice(lat.carrier),
    )
    vrep = check_valuation(phi, samples, args.seed)
    if vrep.ok:
        try:
            qlat, qphi = quotient(phi)
        except QuotientIllDefined as exc:  # a failure the samples missed
            vrep.record("quotient well-defined", False, str(exc))
    if not vrep.ok:
        return _report_exit(args, vrep, {"error": "input is not a valuation"})
    hausdorff = all(
        dist(qphi, x, y) != 0
        for x in qlat.carrier
        for y in qlat.carrier
        if x != y
    )
    _dump(
        args,
        {
            "classes": list(qlat.carrier),
            "leq": [[a, b] for a in qlat.carrier for b in qlat.carrier if qlat.leq(a, b)],
            "phi": {a: qphi(a) for a in qlat.carrier},
            "hausdorff": hausdorff,
        },
    )
    return 0


def _read_sequence(args):
    """The stage producer and kind of the ``--seq`` document; a stage the
    document cannot produce is an input error at ``--seq``."""
    producer, kind = _load_doc(
        args.seq, "--seq", "sequence document", seqdsl.producer_from_json
    )

    def stage(n: int):
        try:
            return producer(n)
        except (IndexError, ValueError) as exc:
            raise InputError("--seq", f"bad sequence document: stage {n}: {exc}")

    return stage, kind


def cmd_converge_trace(args) -> int:
    depth = _depth(args)
    producer, kind = _read_sequence(args)
    phi = _VALUATIONS[kind]
    lat = phi.domain
    rows = []
    run_meet = run_join = None
    for n in range(1, depth + 1):
        a = producer(n)
        run_meet = a if run_meet is None else lat.meet(run_meet, a)
        run_join = a if run_join is None else lat.join(run_join, a)
        rows.append(
            {
                "stage": n,
                "phi": phi(a),
                "phi_running_meet": phi(run_meet),
                "phi_running_join": phi(run_join),
            }
        )
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=["stage", "phi", "phi_running_meet", "phi_running_join"]
        )
        writer.writeheader()
        writer.writerows(rows)
        _emit(args, buf.getvalue())
    else:
        _dump(args, rows)
    return 0


def cmd_sqrt2_witness(args) -> int:
    _dump(args, sequences.sqrt2_witness(_depth(args)))
    return 0


_DENSE_APPROX_KEYS = ("stage", "phi_a", "phi_atilde", "bound")


def cmd_dense_approx(args) -> int:
    depth = _depth(args)
    eps_index = _at_least_one(args, "eps_index", "an index of at least 1")
    producer, kind = _read_sequence(args)
    if kind != "interval":
        raise InputError("--seq", "dense approximation runs on interval sequences")
    phi = interval_measure
    try:
        seq = sequences.seq_make(
            phi.domain,
            "decreasing",
            producer,
            modulus=lambda eps: max(1, int(1 / eps) + 1),
            sanity_depth=min(depth, 8),
            phi=phi,
        )
        # seq_make checks the first eight stages; dense_approximate checks the rest
        _, trace = uniformity.dense_approximate(
            phi, uniformity.dyadic_endpoint_oracle(), seq, eps_index, depth
        )
    except (sequences.ModulusError, sequences.MonotonicityError) as exc:
        raise InputError("--seq", f"sequence does not fit the modulus 1/eps + 1: {exc}")
    _dump(args, [{key: row[key] for key in _DENSE_APPROX_KEYS} for row in trace])
    return 0


def cmd_fubini_check(args) -> int:
    samples = _samples(args)
    terms = _load_doc(args.terms, "--terms", "rectangle terms", fubini.terms_from_json)
    f = fubini.step2d_make(terms)
    report = fubini.fubini_check(f, fubini.sample_ys(f, random.Random(args.seed), samples))
    slices = [{"y": y, "fx": at, "slice_integral": along} for y, at, along in report.slices]
    _dump(
        args,
        {
            "lhs": report.lhs,
            "rhs": report.rhs,
            "lhs_y_first": report.lhs_y_first,
            "equal": report.ok,
            "sampled_slices": slices,
        },
    )
    return 0 if report.ok else 1


def cmd_stump_alpha(args) -> int:
    stump = _load_doc(args.tree, "--tree", "stump document", borel.Stump.from_json)
    _dump(args, {"alpha": borel.stump_alpha(stump)})
    return 0


def cmd_borel_decode(args) -> int:
    code = _at_least_one(args, "code", "a positive code")
    try:
        d_str, m_str = args.space.lower().split("x")
        space = borel.TruncatedBaire(int(d_str), int(m_str))
    except ValueError as exc:
        raise InputError("--space", f"expected DxM, got {args.space!r}: {exc}")
    try:
        point = tuple(int(x) for x in args.point.split(","))
    except ValueError:
        raise InputError("--point", f"expected comma-separated integers, got {args.point!r}")
    if len(point) != space.depth or any(not 1 <= v <= space.alphabet for v in point):
        raise InputError("--point", "point does not lie in the declared space")
    meta = borel.DecodeMeta()
    member = borel.decode_set(code, args.kind, space, point, meta)
    _dump(args, {"member": member, "meta": meta.to_dict()})
    return 0


def cmd_totient_table(args) -> int:
    bound = _at_least_one(args, "max", "a bound of at least 1")
    rows = [{"n": n, "totient": totient(n)} for n in range(1, bound + 1)]
    _dump(args, rows)
    return 0


def _negative_distributive_m3(samples: int, seed: int, depth: int) -> CheckReport:
    report = CheckReport()
    ok, triple = check_distributive(diamond_m3())
    report.record("distributive law holds", ok, f"witness triple {triple}")
    return report


# Suite name -> report builder, called with (samples, seed, depth).  The
# builders look the checkers up by name when called, not when defined, so a
# wrapper installed on a checker later (the benchmark's traced run) is used.
_SUITES = {
    "pseudometric": lambda n, seed, depth: check_pseudometric(
        interval_measure, n, seed
    ).merged_with(check_pseudometric(step_integral, n, seed)),
    "modularity-mu": lambda n, seed, depth: check_valuation(interval_measure, n, seed),
    "modularity-phi": lambda n, seed, depth: check_valuation(step_integral, n, seed),
    "modularity-counting": lambda n, seed, depth: check_valuation(counting_valuation(), n, seed),
    "modularity-totient": lambda n, seed, depth: check_valuation(totient_valuation(), n, seed),
    "modularity-dim": lambda n, seed, depth: check_valuation(dimension_valuation(), n, seed),
    "modularity-product": lambda n, seed, depth: check_valuation(
        transform_product(interval_measure, step_integral), n, seed
    ),
    "congruence": lambda n, seed, depth: check_congruence(
        interval_measure, n, seed, pad_with_nulls
    ),
    "modular-map": lambda n, seed, depth: check_modular_map_identity(
        interval_measure, n, seed
    ).merged_with(check_modular_map_identity(step_integral, n, seed)),
    **{
        f"group-axioms-{name}": (
            lambda n, seed, depth, group=group: check_group_axioms(group, n, seed)
        )
        for name, group in GROUPS.items()
    },
    "uniformity-dyadic": lambda n, seed, depth: uniformity.uniformity_check(
        uniformity.DYADIC, n, seed, depth
    ),
    "negative-broken-half": lambda n, seed, depth: uniformity.uniformity_check(
        uniformity.broken_half_uniformity(), n, seed, depth
    ),
    "negative-distributive-m3": _negative_distributive_m3,
}


def cmd_check(args) -> int:
    samples, depth = _samples(args), _depth(args)
    if args.suite not in _SUITES:
        raise InputError("--suite", f"unknown suite {args.suite!r}")
    report = _SUITES[args.suite](samples, args.seed, depth)
    return _report_exit(args, report, {"suite": args.suite, "seed": args.seed})


# Flags that more than one subcommand reads, with their defaults.
_SHARED_FLAGS = {
    "--seed": {"type": int, "default": 0},
    "--samples": {"type": int, "default": 20},
    "--depth": {"type": int, "default": 12},
    "--format": {"choices": ["json", "csv"], "default": "json"},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="latval", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help, *shared):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the document here instead of stdout")
        for flag in shared:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    p = add("measure", cmd_measure, "measure of an interval set")
    p.add_argument("--set", required=True)

    p = add("integrate", cmd_integrate, "integral of a step function")
    p.add_argument("--step", required=True)

    for name, fn, help in [
        ("distance", cmd_distance, "valuation distance between two elements"),
        ("approx-eq", cmd_approx_eq, "distance-zero equivalence test"),
    ]:
        p = add(name, fn, help)
        p.add_argument("--kind", choices=sorted(_VALUATIONS), required=True)
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)

    p = add(
        "quotient", cmd_quotient, "quotient of a finite valuation system", "--seed", "--samples"
    )
    p.add_argument("--system", required=True)

    p = add(
        "converge-trace", cmd_converge_trace, "per-stage valuation trace", "--depth", "--format"
    )
    p.add_argument("--seq", required=True)

    add("sqrt2-witness", cmd_sqrt2_witness, "increasing unions with irrational supremum", "--depth")

    p = add("dense-approx", cmd_dense_approx, "constructive dense under-approximation", "--depth")
    p.add_argument("--seq", required=True)
    p.add_argument("--eps-index", type=int, required=True)

    p = add(
        "fubini-check", cmd_fubini_check, "double-integral identity check", "--seed", "--samples"
    )
    p.add_argument("--terms", required=True)

    p = add("stump-alpha", cmd_stump_alpha, "ordinal rank of a stump")
    p.add_argument("--tree", required=True)

    p = add("borel-decode", cmd_borel_decode, "membership of a coded set")
    p.add_argument("--code", type=int, required=True)
    p.add_argument("--space", required=True, help="DxM")
    p.add_argument("--point", required=True, help="comma-separated values")
    p.add_argument("--kind", choices=["Sprime", "Scap", "A"], default="A")

    p = add("totient-table", cmd_totient_table, "totient values up to a bound")
    p.add_argument("--max", type=int, required=True)

    p = add("check", cmd_check, "run a named property suite", "--seed", "--samples", "--depth")
    p.add_argument("--suite", required=True)

    return parser


def main(argv=None) -> int:
    # Rationals are exact at any size: lift Python's limit on converting
    # long integers to and from strings for this run only, so in-process
    # callers keep their own setting.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"input error at {exc.pointer}: {exc}\n")
        return 2
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
