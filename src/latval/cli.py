"""Batch command-line front end.

Every subcommand reads JSON, runs one operation or one named property
suite, and emits a JSON document on one line (``converge-trace`` can emit
CSV).  Output is deterministic for fixed inputs and flags.  Exit codes: 0
success, 1 property failure (report still emitted), 2 input error, 3
internal error (one line on stderr, no traceback).

One table drives the command line: ``_COMMANDS`` names the flags each
subcommand reads.  ``main`` parses them, checks the integer flags
(``_COUNTS``), reads the document flags (``_DOCUMENTS``) and calls
``cmd_<name>`` with the parsed values.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
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
    totient_range,
    totient_valuation,
)
from .intervals import iset_from_json
from .lattice import MAX_FINITE_CARRIER, check_distributive, diamond_m3, finite_lattice_build
from .oag import GROUPS, RATIONALS, check_group_axioms, fields, rat
from .report import CheckReport
from .stepfn import step_from_json
from .valuation import (
    QuotientIllDefined,
    QuotientLabelClash,
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


# What the library raises on input it cannot read; only ``_within`` catches
# them.  Any other exception is a fault in latval (exit 3).
_INPUT_ERRORS = (ValueError, TypeError, RecursionError)


def _within(pointer: str, read, *args, about: str = ""):
    """``read(*args)``; a library error it raises is an input error at
    ``pointer``, its message prefixed by ``about``."""
    try:
        return read(*args)
    except _INPUT_ERRORS as exc:
        raise InputError(pointer, f"{about}{exc}")


def _finite(text: str) -> float:
    """A JSON number read as a float, or a constant ``json`` reads beyond
    JSON (``NaN``, ``Infinity``): only a finite value is a number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text}")
    return value


def _load_json(path: str, pointer: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_finite, parse_float=_finite)
    except FileNotFoundError:
        raise InputError(pointer, f"file not found: {path}")
    except OSError as exc:
        raise InputError(pointer, f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise InputError(pointer, f"not UTF-8 text: {path}: {exc}")
    except ValueError as exc:  # a json.JSONDecodeError, or a number _finite rejects
        raise InputError(pointer, f"invalid JSON in {path}: {exc}")
    except RecursionError:
        raise InputError(pointer, f"document nested too deeply: {path}")


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
    # no cycle check: the output is a tree, and a cycle would be a latval bug (exit 3)
    text = json.dumps(obj, separators=(",", ":"), default=_encode, check_circular=False)
    _emit(args, text + "\n")


def _report_exit(args, report: CheckReport, extra: dict | None = None) -> int:
    _dump(args, {**(extra or {}), "report": report.to_dict(), "ok": report.ok})
    return 0 if report.ok else 1


_SYSTEM_KEYS = frozenset({"carrier", "leq", "phi"})


def _read_system(doc) -> Valuation:
    """The valuation a ``--system`` document describes; each fault is an
    input error at the field it is in."""
    _within("--system", fields, doc, _SYSTEM_KEYS, _SYSTEM_KEYS)
    carrier = doc["carrier"]
    if not isinstance(carrier, list) or not 1 <= len(carrier) <= MAX_FINITE_CARRIER:
        raise InputError(
            "--system:carrier", f"expected a JSON list of 1 to {MAX_FINITE_CARRIER} labels"
        )
    if not all(isinstance(a, (str, int, float)) and not isinstance(a, bool) for a in carrier):
        raise InputError("--system:carrier", "labels must be JSON strings or numbers")
    # labels key the lattice tables, and their strings key phi
    names = {str(a) for a in carrier}
    if not len(frozenset(carrier)) == len(names) == len(carrier):
        raise InputError("--system:carrier", "labels must be distinct, and so must their strings")
    leq = doc["leq"]
    if not (isinstance(leq, list) and all(isinstance(p, list) and len(p) == 2 for p in leq)):
        raise InputError("--system:leq", "expected a JSON list of two-element lists [a, b]")
    lat = _within("--system:leq", finite_lattice_build, carrier, [tuple(p) for p in leq])
    phi = _within("--system:phi", fields, doc["phi"], names, names)
    values = {a: _within(f"--system:phi:{a}", rat, phi[str(a)]) for a in lat.carrier}
    return Valuation(
        domain=lat,
        group=RATIONALS,
        fn=lambda a: values[a],
        name="phi",
        sampler=lambda rng: rng.choice(lat.carrier),
    )


def _read_sequence(doc):
    """The stage producer and kind of a ``--seq`` document; a stage the
    document cannot produce is an input error at ``--seq``."""
    producer, kind = seqdsl.producer_from_json(doc)
    stage = lambda n: _within("--seq", producer, n, about=f"bad sequence document: stage {n}: ")
    return stage, kind


# --- the command table ----------------------------------------------------

# Element kind (--kind, and the kind of a sequence) -> its valuation, and the
# document flag whose reader reads it.
_KINDS = {"interval": (interval_measure, "set"), "step": (step_integral, "step")}

# Document flag -> its name in errors, and its reader.  Like the suites, the
# readers look the library's functions up when called, not when defined, so
# a wrapper installed on one later (the benchmark's traced run) is used.
# --a and --b are read by the reader of their --kind.
_DOCUMENTS = {
    "set": ("interval-set document", lambda doc: iset_from_json(doc)),
    "step": ("step-function document", lambda doc: step_from_json(doc)),
    "system": ("finite valuation system", _read_system),
    "seq": ("sequence document", _read_sequence),
    "terms": ("rectangle terms", lambda doc: fubini.terms_from_json(doc)),
    "tree": ("stump document", lambda doc: borel.Stump.from_json(doc)),
}

# Integer flag -> what it needs, and its ceiling.  Each is at least 1: zero
# samples would check nothing, and depths, indices and codes count from 1.
# The ceilings make every run end: on a shared 2-CPU VM with Python 3.11,
# check --suite pseudometric at the samples ceiling took about 6.5 s, the
# slowest suite, and uniformity-dyadic at both ceilings 3.5 s; a step-function
# converge-trace at the depth ceiling 9 s, and totient-table at its ceiling 0.14 s.
_COUNTS = {
    "samples": ("at least one sample", 10_000),
    "depth": ("a depth of at least 1", 1_000),
    "eps_index": ("an index of at least 1", 1_000),
    "max": ("a bound of at least 1", 100_000),
    "code": ("a positive code", None),
}

# Flag -> its argparse spec.
_FLAGS = {
    "--out": {"help": "write the document here instead of stdout"},
    "--seed": {"type": int, "default": 0},
    "--samples": {"type": int, "default": 20},
    "--depth": {"type": int, "default": 12},
    "--format": {"choices": ["json", "csv"], "default": "json"},
    "--kind": {"choices": sorted(_KINDS), "required": True},
    **{flag: {"required": True} for flag in
       ("--set", "--step", "--a", "--b", "--system", "--seq", "--terms", "--tree", "--suite")},
    **{flag: {"type": int, "required": True} for flag in ("--eps-index", "--max", "--code")},
    "--space": {"required": True, "help": "DxM"},
    "--point": {"required": True, "help": "comma-separated values"},
}

# Subcommand -> its help and the flags it reads besides --out, and
# optionally specs that replace _FLAGS' for this subcommand.
_COMMANDS = {
    "measure": ("measure of an interval set", "--set"),
    "integrate": ("integral of a step function", "--step"),
    "distance": ("valuation distance between two elements", "--kind --a --b"),
    "approx-eq": ("distance-zero equivalence test", "--kind --a --b"),
    "quotient": ("quotient of a finite valuation system", "--seed --samples --system"),
    "converge-trace": ("per-stage valuation trace", "--depth --format --seq"),
    "sqrt2-witness": ("increasing unions with irrational supremum", "--depth"),
    "dense-approx": ("constructive dense under-approximation", "--depth --seq --eps-index"),
    "fubini-check": ("double-integral identity check", "--seed --samples --terms"),
    "stump-alpha": ("ordinal rank of a stump", "--tree"),
    "borel-decode": (
        "membership of a coded set",
        "--code --space --point --kind",
        {"--kind": {"choices": ["Sprime", "Scap", "A"], "default": "A"}},
    ),
    "totient-table": ("totient values up to a bound", "--max"),
    "check": ("run a named property suite", "--seed --samples --depth --suite"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process from ``_COMMANDS``."""
    parser = argparse.ArgumentParser(prog="latval", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, flags, *own) in _COMMANDS.items():
        specs = _FLAGS | (own[0] if own else {})
        p = sub.add_parser(name, help=help)
        for flag in ["--out", *flags.split()]:
            p.add_argument(flag, **specs[flag])
    return parser


def _check_counts(args) -> None:
    for dest, (need, ceiling) in _COUNTS.items():
        value, flag = vars(args).get(dest), "--" + dest.replace("_", "-")
        if value is None:
            continue
        if value < 1:
            raise InputError(flag, f"need {need}, got {value}")
        if ceiling is not None and value > ceiling:
            raise InputError(flag, f"need at most {ceiling}, got {value}")


def _read_documents(args) -> None:
    """Replace the path of each document flag by the document it names, read."""
    for dest, path in list(vars(args).items()):
        key = _KINDS[args.kind][1] if dest in ("a", "b") else dest
        if key in _DOCUMENTS:
            what, reader = _DOCUMENTS[key]
            doc = _load_json(path, "--" + dest)
            setattr(args, dest, _within("--" + dest, reader, doc, about=f"bad {what}: "))


# --- handlers: each gets the parsed values of its flags --------------------


def cmd_measure(args) -> int:
    _dump(args, {"value": interval_measure(args.set)})
    return 0


def cmd_integrate(args) -> int:
    _dump(args, {"value": step_integral(args.step)})
    return 0


def cmd_distance(args) -> int:
    _dump(args, {"distance": dist(_KINDS[args.kind][0], args.a, args.b)})
    return 0


def cmd_approx_eq(args) -> int:
    d = dist(_KINDS[args.kind][0], args.a, args.b)
    _dump(args, {"equal": d == 0, "distance": d})
    return 0


def cmd_quotient(args) -> int:
    vrep = check_valuation(args.system, args.samples, args.seed)
    if vrep.ok:
        try:
            qlat, qphi = quotient(args.system)
        except QuotientIllDefined as exc:  # a failure the samples missed
            vrep.record("quotient well-defined", False, str(exc))
        except QuotientLabelClash as exc:
            raise InputError("--system:carrier", str(exc))
    if not vrep.ok:
        return _report_exit(args, vrep, {"error": "input is not a valuation"})
    # the distance is symmetric: one call per unordered pair of classes
    hausdorff = all(dist(qphi, x, y) != 0 for x, y in itertools.combinations(qlat.carrier, 2))
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


def cmd_converge_trace(args) -> int:
    producer, kind = args.seq
    phi = _KINDS[kind][0]
    lat = phi.domain
    rows = []
    run_meet = run_join = None
    for n in range(1, args.depth + 1):
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
    _dump(args, sequences.sqrt2_witness(args.depth))
    return 0


_DENSE_APPROX_KEYS = ("stage", "phi_a", "phi_atilde", "bound")


def cmd_dense_approx(args) -> int:
    producer, kind = args.seq
    if kind != "interval":
        raise InputError("--seq", "dense approximation runs on interval sequences")
    phi = interval_measure
    try:
        seq = sequences.seq_make(
            phi.domain,
            "decreasing",
            producer,
            modulus=lambda eps: max(1, int(1 / eps) + 1),
            sanity_depth=min(args.depth, 8),
            phi=phi,
        )
        # seq_make checks the first eight stages; dense_approximate checks the rest
        _, trace = uniformity.dense_approximate(
            phi, uniformity.dyadic_endpoint_oracle(), seq, args.eps_index, args.depth
        )
    except (sequences.MonotonicityError, sequences.ModulusError) as exc:
        raise InputError("--seq", f"sequence does not fit the modulus 1/eps + 1: {exc}")
    _dump(args, [{key: row[key] for key in _DENSE_APPROX_KEYS} for row in trace])
    return 0


def cmd_fubini_check(args) -> int:
    f = fubini.step2d_make(args.terms)
    report = fubini.fubini_check(f, fubini.sample_ys(f, random.Random(args.seed), args.samples))
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
    _dump(args, {"alpha": borel.stump_alpha(args.tree)})
    return 0


def cmd_borel_decode(args) -> int:
    digits = lambda text: text.isascii() and text.isdigit()  # int() also reads '+1', '1_0', '٣'
    about = f"expected DxM, got {args.space!r}: "
    depth, _, alphabet = args.space.lower().partition("x")
    if not (digits(depth) and digits(alphabet)):
        raise InputError("--space", about + "D and M are decimal digits")
    space = _within("--space", borel.TruncatedBaire, int(depth), int(alphabet), about=about)
    entries = args.point.split(",")
    if not all(map(digits, entries)):
        raise InputError("--point", f"expected comma-separated decimal digits, got {args.point!r}")
    point = tuple(map(int, entries))
    if len(point) != space.depth or any(not 1 <= v <= space.alphabet for v in point):
        raise InputError("--point", "point does not lie in the declared space")
    meta = borel.DecodeMeta()
    member = borel.decode_set(args.code, args.kind, space, point, meta)
    _dump(args, {"member": member, "meta": meta.to_dict()})
    return 0


def cmd_totient_table(args) -> int:
    _dump(args, [{"n": n, "totient": t} for n, t in enumerate(totient_range(args.max)) if n])
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
        uniformity.dyadic_half, n, seed, depth
    ),
    "negative-broken-half": lambda n, seed, depth: uniformity.uniformity_check(
        uniformity.broken_half, n, seed, depth
    ),
    "negative-distributive-m3": _negative_distributive_m3,
}


def cmd_check(args) -> int:
    if args.suite not in _SUITES:
        raise InputError("--suite", f"unknown suite {args.suite!r}")
    report = _SUITES[args.suite](args.samples, args.seed, args.depth)
    return _report_exit(args, report, {"suite": args.suite, "seed": args.seed})


def main(argv=None) -> int:
    # Rationals are exact at any size: lift Python's limit on converting
    # long integers to and from strings for this run only, so in-process
    # callers keep their own setting.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        _check_counts(args)  # before any file is read
        _read_documents(args)
        # looked up when called, as the suites' checkers are
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except InputError as exc:
        sys.stderr.write(f"input error at {exc.pointer}: {exc}\n")
        return 2
    except Exception as exc:  # a fault in latval, not in the input
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
