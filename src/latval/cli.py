"""Batch command-line front end.

Every subcommand reads JSON, runs one operation or one named property
suite, and emits a JSON (or CSV) document.  Output is deterministic for
fixed inputs, flags, and seed.  Exit codes: 0 success, 1 property failure
(report still emitted), 2 input error.
"""

from __future__ import annotations

import argparse
import csv
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
from .lattice import check_distributive, diamond_m3, finite_lattice_build
from .oag import RATIONALS, check_group_axioms, rat
from .report import CheckReport
from .stepfn import step_from_json
from .valuation import (
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
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(pointer, f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(pointer, f"invalid JSON in {path}: {exc}")


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(args, obj) -> None:
    _emit(args, json.dumps(obj, indent=2) + "\n")


def _fr(x: Fraction) -> str:
    return str(x)


def _report_exit(args, report: CheckReport, extra: dict | None = None) -> int:
    doc = dict(extra or {})
    doc["report"] = report.to_dict()
    doc["ok"] = report.ok
    _dump(args, doc)
    return 0 if report.ok else 1


def _samples(args) -> int:
    """The sample count of a sampled check: zero samples would check nothing."""
    if args.samples < 1:
        raise InputError("--samples", f"need at least one sample, got {args.samples}")
    return args.samples


def _parse_interval_file(path: str, pointer: str):
    doc = _load_json(path, pointer)
    try:
        return iset_from_json(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(pointer, f"bad interval-set document: {exc}")


def _parse_step_file(path: str, pointer: str):
    doc = _load_json(path, pointer)
    try:
        return step_from_json(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(pointer, f"bad step-function document: {exc}")


def cmd_measure(args) -> int:
    a = _parse_interval_file(args.set, "--set")
    _dump(args, {"value": _fr(interval_measure(a))})
    return 0


def cmd_integrate(args) -> int:
    f = _parse_step_file(args.step, "--step")
    _dump(args, {"value": _fr(step_integral(f))})
    return 0


def _distance_pair(args):
    if args.kind == "interval":
        a = _parse_interval_file(args.a, "--a")
        b = _parse_interval_file(args.b, "--b")
        return interval_measure, a, b
    if args.kind == "step":
        return step_integral, _parse_step_file(args.a, "--a"), _parse_step_file(args.b, "--b")
    raise InputError("--kind", f"unknown kind {args.kind!r}")


def cmd_distance(args) -> int:
    phi, a, b = _distance_pair(args)
    _dump(args, {"distance": _fr(dist(phi, a, b))})
    return 0


def cmd_approx_eq(args) -> int:
    phi, a, b = _distance_pair(args)
    d = dist(phi, a, b)
    _dump(args, {"equal": d == 0, "distance": _fr(d)})
    return 0


def cmd_quotient(args) -> int:
    doc = _load_json(args.system, "--system")
    for key in ("carrier", "leq", "phi"):
        if key not in doc:
            raise InputError(f"--system:{key}", "missing field")
    try:
        lat = finite_lattice_build(doc["carrier"], [tuple(p) for p in doc["leq"]])
    except ValueError as exc:
        raise InputError("--system:leq", str(exc))
    values = {}
    for label in lat.carrier:
        if str(label) not in doc["phi"]:
            raise InputError(f"--system:phi:{label}", "missing valuation value")
        values[label] = rat(doc["phi"][str(label)])
    phi = Valuation(
        domain=lat,
        group=RATIONALS,
        fn=lambda a: values[a],
        name="phi",
        sampler=lambda rng: rng.choice(lat.carrier),
    )
    vrep = check_valuation(phi, _samples(args), args.seed)
    if not vrep.ok:
        return _report_exit(args, vrep, {"error": "input is not a valuation"})
    qlat, qphi = quotient(phi)
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
            "phi": {a: _fr(qphi(a)) for a in qlat.carrier},
            "hausdorff": hausdorff,
        },
    )
    return 0


def _phi_for(kind: str):
    if kind == "interval":
        return interval_measure
    if kind == "step":
        return step_integral
    raise InputError("--seq", f"no valuation for sequence kind {kind!r}")


def cmd_converge_trace(args) -> int:
    doc = _load_json(args.seq, "--seq")
    try:
        producer, kind = seqdsl.producer_from_json(doc)
    except (KeyError, ValueError) as exc:
        raise InputError("--seq", str(exc))
    phi = _phi_for(kind)
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
                "phi": _fr(phi(a)),
                "phi_running_meet": _fr(phi(run_meet)),
                "phi_running_join": _fr(phi(run_join)),
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
    trace = sequences.sqrt2_witness(args.depth)
    _dump(
        args,
        [
            {
                "stage": row["stage"],
                "q": _fr(row["q"]),
                "r": _fr(row["r"]),
                "mu_A": _fr(row["mu_A"]),
                "mu_B": _fr(row["mu_B"]),
                "mu_union": _fr(row["mu_union"]),
                "defect": _fr(row["defect"]),
            }
            for row in trace
        ],
    )
    return 0


def cmd_dense_approx(args) -> int:
    doc = _load_json(args.seq, "--seq")
    try:
        producer, kind = seqdsl.producer_from_json(doc)
    except (KeyError, ValueError) as exc:
        raise InputError("--seq", str(exc))
    if kind != "interval":
        raise InputError("--seq", "dense approximation runs on interval sequences")
    if args.oracle != "dyadic-endpoints":
        raise InputError("--oracle", f"unknown oracle {args.oracle!r}")
    phi = interval_measure
    seq = sequences.seq_make(
        phi.domain,
        "decreasing",
        producer,
        modulus=lambda eps: max(1, int(1 / eps) + 1),
        sanity_depth=min(args.depth, 8),
        phi=phi,
    )
    _, trace = uniformity.dense_approximate(
        phi, uniformity.dyadic_endpoint_oracle(), seq, args.eps_index, args.depth
    )
    _dump(
        args,
        [
            {
                "stage": row["stage"],
                "phi_a": _fr(row["phi_a"]),
                "phi_atilde": _fr(row["phi_atilde"]),
                "bound": _fr(row["bound"]),
            }
            for row in trace
        ],
    )
    return 0


def cmd_fubini_check(args) -> int:
    doc = _load_json(args.terms, "--terms")
    try:
        terms = fubini.terms_from_json(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError("--terms", f"bad rectangle terms: {exc}")
    f = fubini.step2d_make(terms)
    rng = random.Random(args.seed)
    ys = fubini.sample_ys(f, rng, args.samples)
    fx = fubini.partial_integrate(f)
    lhs = step_integral(fx)
    rhs = fubini.double_integral(f)
    slices = [
        {
            "y": _fr(y),
            "fx": _fr(fx(y)),
            "slice_integral": _fr(step_integral(fubini.slice_at(f, y))),
        }
        for y in ys
    ]
    equal = lhs == rhs and all(s["fx"] == s["slice_integral"] for s in slices)
    _dump(
        args,
        {"lhs": _fr(lhs), "rhs": _fr(rhs), "equal": equal, "sampled_slices": slices},
    )
    return 0 if equal else 1


def cmd_stump_alpha(args) -> int:
    doc = _load_json(args.tree, "--tree")
    try:
        stump = borel.Stump.from_json(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError("--tree", f"bad stump document: {exc}")
    _dump(args, {"alpha": borel.stump_alpha(stump)})
    return 0


def cmd_borel_decode(args) -> int:
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
    member = borel.decode_set(args.code, args.kind, space, point, meta)
    _dump(args, {"member": member, "meta": meta.to_dict()})
    return 0


def cmd_totient_table(args) -> int:
    rows = [{"n": n, "totient": totient(n)} for n in range(1, args.max + 1)]
    _dump(args, rows)
    return 0


def _suite_report(name: str, samples: int, seed: int, depth: int) -> CheckReport:
    if name == "pseudometric":
        return check_pseudometric(interval_measure, samples, seed).merged_with(
            check_pseudometric(step_integral, samples, seed)
        )
    if name == "modularity-mu":
        return check_valuation(interval_measure, samples, seed)
    if name == "modularity-phi":
        return check_valuation(step_integral, samples, seed)
    if name == "modularity-counting":
        return check_valuation(counting_valuation(), samples, seed)
    if name == "modularity-totient":
        return check_valuation(totient_valuation(), samples, seed)
    if name == "modularity-dim":
        return check_valuation(dimension_valuation(), samples, seed)
    if name == "modularity-product":
        return check_valuation(
            transform_product(interval_measure, step_integral), samples, seed
        )
    if name == "congruence":
        return check_congruence(interval_measure, samples, seed, pad_with_nulls)
    if name == "modular-map":
        return check_modular_map_identity(interval_measure, samples, seed).merged_with(
            check_modular_map_identity(step_integral, samples, seed)
        )
    if name.startswith("group-axioms-"):
        return check_group_axioms(name.removeprefix("group-axioms-"), samples, seed)
    if name == "uniformity-dyadic":
        return uniformity.uniformity_check(uniformity.DYADIC, samples, seed, depth)
    if name == "negative-broken-half":
        return uniformity.uniformity_check(
            uniformity.broken_half_uniformity(), samples, seed, depth
        )
    if name == "negative-distributive-m3":
        report = CheckReport()
        ok, triple = check_distributive(diamond_m3())
        report.record("distributive law holds", ok, f"witness triple {triple}")
        return report
    raise InputError("--suite", f"unknown suite {name!r}")


def cmd_check(args) -> int:
    report = _suite_report(args.suite, _samples(args), args.seed, args.depth)
    return _report_exit(args, report, {"suite": args.suite, "seed": args.seed})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="latval", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the document here instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=20)
        p.add_argument("--depth", type=int, default=12)
        p.add_argument("--tol", default="1/1000")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        return p

    p = add("measure", cmd_measure, help="measure of an interval set")
    p.add_argument("--set", required=True)

    p = add("integrate", cmd_integrate, help="integral of a step function")
    p.add_argument("--step", required=True)

    p = add("distance", cmd_distance, help="valuation distance between two elements")
    p.add_argument("--kind", choices=["interval", "step"], required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("approx-eq", cmd_approx_eq, help="distance-zero equivalence test")
    p.add_argument("--kind", choices=["interval", "step"], required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("quotient", cmd_quotient, help="quotient of a finite valuation system")
    p.add_argument("--system", required=True)

    p = add("converge-trace", cmd_converge_trace, help="per-stage valuation trace")
    p.add_argument("--seq", required=True)

    add("sqrt2-witness", cmd_sqrt2_witness, help="increasing unions with irrational supremum")

    p = add("dense-approx", cmd_dense_approx, help="constructive dense under-approximation")
    p.add_argument("--seq", required=True)
    p.add_argument("--oracle", default="dyadic-endpoints")
    p.add_argument("--eps-index", type=int, required=True)

    p = add("fubini-check", cmd_fubini_check, help="double-integral identity check")
    p.add_argument("--terms", required=True)

    p = add("stump-alpha", cmd_stump_alpha, help="ordinal rank of a stump")
    p.add_argument("--tree", required=True)

    p = add("borel-decode", cmd_borel_decode, help="membership of a coded set")
    p.add_argument("--code", type=int, required=True)
    p.add_argument("--space", required=True, help="DxM")
    p.add_argument("--point", required=True, help="comma-separated values")
    p.add_argument("--kind", choices=["Sprime", "Scap", "A"], default="A")

    p = add("totient-table", cmd_totient_table, help="totient values up to a bound")
    p.add_argument("--max", type=int, required=True)

    p = add("check", cmd_check, help="run a named property suite")
    p.add_argument("--suite", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"input error at {exc.pointer}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
