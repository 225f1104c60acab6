import argparse
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from latval import cli, seqdsl, stepfn
from latval.cli import _SUITES, _dump, build_parser, main

STEP_DOC = {
    "breakpoints": ["0", "1", "2"],
    "open_values": ["2", "3"],
    "point_values": ["0", "0", "0"],
}
SET_DOC = [{"lo": "0", "hi": "1"}, {"lo": "2", "hi": "7/2"}]
TERMS_DOC = [
    {
        "coefficient": "2",
        "base_x": [{"lo": "0", "hi": "3"}],
        "base_y": [{"lo": "1", "hi": "2"}],
    }
]


@pytest.fixture
def files(tmp_path: Path):
    paths = {}
    for name, doc in [
        ("step", STEP_DOC),
        ("set", SET_DOC),
        ("terms", TERMS_DOC),
        ("seq", {"kind": "interval", "template": "[0, 1 + 1/n]"}),
        ("stump", {"node": [{"leaf": True}, {"node": [{"leaf": True}]}]}),
        (
            "system",
            {
                "carrier": ["bot", "a", "b", "top"],
                "leq": [["bot", "a"], ["a", "b"], ["b", "top"]],
                "phi": {"bot": "0", "a": "0", "b": "1", "top": "1"},
            },
        ),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def run_cli(args, tmp_path: Path):
    out = tmp_path / "out.json"
    code = main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_integrate(files, tmp_path):
    code, text = run_cli(["integrate", "--step", files["step"]], tmp_path)
    assert code == 0
    assert json.loads(text) == {"value": "5"}


def test_measure(files, tmp_path):
    code, text = run_cli(["measure", "--set", files["set"]], tmp_path)
    assert code == 0
    assert json.loads(text) == {"value": "5/2"}


def test_distance_and_approx_eq(files, tmp_path):
    code, text = run_cli(
        ["distance", "--kind", "interval", "--a", files["set"], "--b", files["set"]],
        tmp_path,
    )
    assert code == 0 and json.loads(text)["distance"] == "0"
    code, text = run_cli(
        ["approx-eq", "--kind", "interval", "--a", files["set"], "--b", files["set"]],
        tmp_path,
    )
    assert code == 0 and json.loads(text)["equal"] is True


def test_quotient(files, tmp_path):
    code, text = run_cli(["quotient", "--system", files["system"]], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert len(doc["classes"]) == 2
    assert doc["hausdorff"] is True
    assert sorted(doc["phi"].values()) == ["0", "1"]
    # bot ^ a = bot and bot v a = a are one class; the chain's order reaches top from bot
    assert doc["classes"] == ["{bot,a}", "{b,top}"]
    assert doc["leq"] == [["{bot,a}", "{bot,a}"], ["{bot,a}", "{b,top}"], ["{b,top}", "{b,top}"]]


@pytest.mark.parametrize(
    "carrier, leq, message",
    [
        # True == 1 and 1.0 == 1, but neither is the label 1
        ([1, 2], [[True, 2]], "order pair (True, 2) mentions a non-carrier label"),
        ([1, 2], [[1.0, 2]], "order pair (1.0, 2) mentions a non-carrier label"),
        (["a", "b"], [[["a"], "b"]], "order pair (['a'], 'b') mentions a non-carrier label"),
        ([1, 2], 5, "expected a JSON list of two-element lists [a, b]"),
        ([1, 2], [[1, 2, 2]], "expected a JSON list of two-element lists [a, b]"),
    ],
)
def test_system_leq_names_carrier_labels(carrier, leq, message, tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"carrier": carrier, "leq": leq,
                                "phi": {str(a): str(i) for i, a in enumerate(carrier)}}))
    assert main(["quotient", "--system", str(path)]) == 2
    assert capsys.readouterr() == ("", f"input error at --system:leq: {message}\n")


def test_quotient_hausdorff_asks_dist_once_per_unordered_pair(tmp_path, capsys, monkeypatch):
    # a 64-label chain with phi(i) = i has 64 classes: 64 * 63 / 2 distances
    labels = [f"c{i}" for i in range(64)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "carrier": labels,
        "leq": [[a, b] for a, b in zip(labels, labels[1:])],
        "phi": {a: str(i) for i, a in enumerate(labels)},
    }))
    calls, real = [], cli.dist
    monkeypatch.setattr(cli, "dist", lambda phi, x, y: calls.append({x, y}) or real(phi, x, y))
    assert main(["quotient", "--system", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["classes"]) == 64 and doc["hausdorff"] is True
    assert len(calls) == 64 * 63 // 2
    assert len(set(map(frozenset, calls))) == len(calls) and all(len(c) == 2 for c in calls)


def test_quotient_of_a_non_valuation_the_samples_miss(tmp_path, capsys):
    # modularity fails only at (a, b), which one sample at seed 1 does not draw
    path = tmp_path / "system.json"
    path.write_text(json.dumps({
        "carrier": ["0", "a", "b", "1"],
        "leq": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
        "phi": {"0": "0", "a": "0", "b": "1", "1": "5"},
    }))
    assert main(["quotient", "--system", str(path), "--samples", "1", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    assert doc["error"] == "input is not a valuation" and doc["ok"] is False
    assert doc["report"]["quotient well-defined"] == {
        "pass": 0, "fail": 1, "counterexample": "join of classes differs: (a, b) vs (0, b)"
    }


def test_fubini_check(files, tmp_path):
    code, text = run_cli(
        ["fubini-check", "--terms", files["terms"], "--samples", "6", "--seed", "1"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["lhs"] == "6" and doc["rhs"] == "6" and doc["equal"] is True
    assert len(doc["sampled_slices"]) == 6
    for s in doc["sampled_slices"]:
        assert s["fx"] == s["slice_integral"]


def test_fubini_check_reports_y_first_order(files, tmp_path):
    code, text = run_cli(["fubini-check", "--terms", files["terms"]], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert list(doc) == ["lhs", "rhs", "lhs_y_first", "equal", "sampled_slices"]
    assert doc["lhs_y_first"] == doc["rhs"] == "6"


def test_sqrt2_witness(files, tmp_path):
    code, text = run_cli(["sqrt2-witness", "--depth", "4"], tmp_path)
    assert code == 0
    rows = json.loads(text)
    assert rows[0]["q"] == "1" and rows[1]["q"] == "7/5"
    assert all(r["mu_union"] == r["q"] for r in rows)


def test_converge_trace_csv(files, tmp_path):
    code, text = run_cli(
        ["converge-trace", "--seq", files["seq"], "--depth", "3", "--format", "csv"],
        tmp_path,
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "stage,phi,phi_running_meet,phi_running_join"
    assert lines[1].startswith("1,2,")
    assert lines[3].startswith("3,4/3,4/3,2")


def test_dense_approx(files, tmp_path):
    code, text = run_cli(
        ["dense-approx", "--seq", files["seq"], "--eps-index", "4", "--depth", "5"],
        tmp_path,
    )
    assert code == 0
    rows = json.loads(text)
    assert len(rows) == 5
    assert all(set(r) == {"stage", "phi_a", "phi_atilde", "bound"} for r in rows)


def test_stump_alpha(files, tmp_path):
    code, text = run_cli(["stump-alpha", "--tree", files["stump"]], tmp_path)
    assert code == 0
    assert json.loads(text) == {"alpha": 2}


def test_borel_decode(files, tmp_path):
    from latval.borel import tuple_encode

    code_b11 = tuple_encode([2, 1, 1])
    code, text = run_cli(
        [
            "borel-decode",
            "--code",
            str(code_b11),
            "--space",
            "3x3",
            "--point",
            "1,2,3",
            "--kind",
            "Sprime",
        ],
        tmp_path,
    )
    assert code == 0
    assert json.loads(text)["member"] is True


def test_oversize_space_is_rejected_without_its_size(capsys):
    # the size 3**4000000 is never computed, so the refusal comes at once
    t0 = time.perf_counter()
    assert main(["borel-decode", "--code", "9", "--space", "4000000x3", "--point", "1"]) == 2
    assert time.perf_counter() - t0 < 0.05
    assert capsys.readouterr().err == (
        "input error at --space: expected DxM, got '4000000x3': "
        "truncated space too large to enumerate\n"
    )


@pytest.mark.parametrize(
    "space, point, line",
    [
        ("3x3x3", "1,2,3", "--space: expected DxM, got '3x3x3': D and M are decimal digits"),
        ("x3", "1", "--space: expected DxM, got 'x3': D and M are decimal digits"),
        ("+3x3", "1,2,3", "--space: expected DxM, got '+3x3': D and M are decimal digits"),
        ("1_0x3", "1", "--space: expected DxM, got '1_0x3': D and M are decimal digits"),
        ("\u0663x3", "1,2,3", "--space: expected DxM, got '\u0663x3': D and M are decimal digits"),
        ("0x3", "1", "--space: expected DxM, got '0x3': depth and alphabet must be positive"),
        ("3x0", "1,1,1", "--space: expected DxM, got '3x0': depth and alphabet must be positive"),
        ("3x3", "+1,2,3", "--point: expected comma-separated decimal digits, got '+1,2,3'"),
        ("3x3", "1,2,", "--point: expected comma-separated decimal digits, got '1,2,'"),
        ("3x3", "1,\u0662,3", "--point: expected comma-separated decimal digits, got '1,\u0662,3'"),
        ("3x3", "1,2,4", "--point: point does not lie in the declared space"),
    ],
)
def test_borel_decode_flags_take_ascii_digits(space, point, line, capsys):
    # int() reads '+3', '1_0' and the Arabic-Indic digit three; these flags do not
    argv = ["borel-decode", "--code", "9", f"--space={space}", f"--point={point}"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"input error at {line}\n")


def test_totient_table(files, tmp_path):
    code, text = run_cli(["totient-table", "--max", "12"], tmp_path)
    assert code == 0
    rows = json.loads(text)
    assert rows[11] == {"n": 12, "totient": 4}


def test_check_suite_pass(files, tmp_path):
    code, text = run_cli(
        ["check", "--suite", "pseudometric", "--samples", "50", "--seed", "7"],
        tmp_path,
    )
    assert code == 0
    assert json.loads(text)["ok"] is True


@pytest.mark.parametrize("depth, bound", [("61", 64), ("1000", 1003)])
def test_check_uniformity_separates_at_any_depth(depth, bound, tmp_path):
    # sampled pairs may be 2^-(depth + 2) apart: law (v) searches past that
    code, text = run_cli(
        ["check", "--suite", "uniformity-dyadic", "--samples", "50", "--seed", "1",
         "--depth", depth],
        tmp_path,
    )
    report = json.loads(text)["report"]
    assert code == 0
    assert report[f"(v) separation within {bound} indices"]["fail"] == 0


def test_check_suite_negative_control(files, tmp_path):
    code, text = run_cli(
        ["check", "--suite", "negative-broken-half", "--samples", "300", "--seed", "7"],
        tmp_path,
    )
    assert code == 1
    doc = json.loads(text)
    assert doc["ok"] is False
    assert doc["report"]["(iii) halving composes"]["counterexample"]


def test_negative_broken_half_fails_on_every_sample(tmp_path):
    # each sample also checks composition at the boundary step of the half index
    for seed in range(60):
        argv = ["check", "--suite", "negative-broken-half", "--samples", "1", "--seed", str(seed)]
        code, text = run_cli(argv, tmp_path)
        assert code == 1, seed
        assert json.loads(text)["report"]["(iii) halving composes"]["fail"] == 1, seed


def test_negative_broken_half_witness_replays(tmp_path):
    argv = ["check", "--suite", "negative-broken-half", "--samples", "20", "--seed", "11"]
    code, text = run_cli(argv, tmp_path)
    assert code == 1
    composes = json.loads(text)["report"]["(iii) halving composes"]
    assert composes == {
        "pass": 0, "fail": 20, "counterexample": "i=8 half=8 r=7/4 s=449/256 t=225/128"
    }


@pytest.mark.parametrize("suite", sorted(_SUITES))
def test_every_suite_runs(suite, tmp_path):
    code, text = run_cli(["check", "--suite", suite, "--samples", "5"], tmp_path)
    negative = suite.startswith("negative-")
    assert code == (1 if negative else 0)
    assert json.loads(text)["ok"] is not negative


def test_input_error_exit_code(files, tmp_path, capsys):
    assert main(["measure", "--set", "/nonexistent.json"]) == 2
    err = capsys.readouterr().err
    assert "--set" in err


def test_input_error_names_pointer_once(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"breakpoints": ["0"]}')
    assert main(["integrate", "--step", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "input error at --step: bad step-function document: missing key 'open_values'\n"
    )


@pytest.mark.parametrize(
    "doc",
    [
        # too few open values for three breakpoints
        {"breakpoints": ["0", "1", "2"], "open_values": ["1"], "point_values": ["1", "1", "1"]},
        # too many open values for two breakpoints
        {"breakpoints": ["0", "1"], "open_values": ["1", "1", "1"], "point_values": ["1", "1"]},
        # a repeated breakpoint the canonical form would drop
        {"breakpoints": ["0", "0", "1"], "open_values": ["1", "1"], "point_values": ["1", "1", "1"]},
        {"breakpoints": ["1", "0"], "open_values": ["0"], "point_values": ["0", "0"]},
    ],
)
def test_malformed_step_document_is_input_error(doc, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, text = run_cli(["integrate", "--step", str(bad)], tmp_path)
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("input error at --step: bad step-function document: ")
    assert "Traceback" not in err


# each document kind that holds a rational -> (argv, document with the numeral in
# one place, the prefix of its error line)
RATIONAL_SLOTS = {
    "set-endpoint": (["measure", "--set"], lambda v: [["0", v]],
                     "--set: bad interval-set document"),
    "step-value": (["integrate", "--step"],
                   lambda v: {"breakpoints": ["0", "1"], "open_values": [v], "point_values": ["0", "0"]},
                   "--step: bad step-function document"),
    "term-coefficient": (["fubini-check", "--terms"],
                         lambda v: [{"coefficient": v, "base_x": [["0", "1"]], "base_y": [["0", "1"]]}],
                         "--terms: bad rectangle terms: rectangle term 0: coefficient"),
    "phi-value": (["quotient", "--system"],
                  lambda v: {"carrier": ["a", "b"], "leq": [["a", "b"]], "phi": {"a": "0", "b": v}},
                  "--system:phi:b"),
    "stage-endpoint": (["converge-trace", "--seq"],
                       lambda v: {"kind": "interval-list", "stages": [[["0", v]]], "tail": "constant"},
                       "--seq: bad sequence document"),
}


@pytest.mark.parametrize("form", ["0.5", "1e3", "+3", "1_000", "\u0661", "1/0"])
@pytest.mark.parametrize("slot", sorted(RATIONAL_SLOTS))
def test_numeral_outside_the_grammar_is_input_error(slot, form, tmp_path, capsys):
    argv, doc, prefix = RATIONAL_SLOTS[slot]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc(form)))
    code, text = run_cli([*argv, str(path)], tmp_path)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"input error at {prefix}: not a rational: {form!r}\n"
    path.write_text(json.dumps(doc(" 3/4\n")))  # the same slot reads a numeral
    assert run_cli([*argv, str(path)], tmp_path)[0] in (0, 1)


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["integrate", "--step"], [1, 2], "--step: bad step-function document"),
        (["converge-trace", "--seq"], [], "--seq: bad sequence document"),
    ],
    ids=["step", "seq"],
)
def test_non_object_document_is_named(argv, doc, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, text = run_cli([*argv, str(path)], tmp_path)
    assert code == 2 and text == ""
    got = capsys.readouterr().err
    assert got == f"input error at {message}: expected a JSON object, got list\n"


_TERM = TERMS_DOC[0]


@pytest.mark.parametrize(
    "doc, message",
    [
        (["x"], "rectangle term 0: expected a JSON object, got str"),
        ([1], "rectangle term 0: expected a JSON object, got int"),
        ([_TERM, None], "rectangle term 1: expected a JSON object, got NoneType"),
        ([_TERM, [_TERM]], "rectangle term 1: expected a JSON object, got list"),
        ([{"base_x": _TERM["base_x"], "base_y": _TERM["base_y"]}],
         "rectangle term 0: missing key 'coefficient'"),
        ([_TERM, {"coefficient": "1", "base_y": _TERM["base_y"]}],
         "rectangle term 1: missing key 'base_x'"),
        ([{"coefficient": "1", "base_x": _TERM["base_x"]}], "rectangle term 0: missing key 'base_y'"),
        ([{}], "rectangle term 0: missing key 'base_x'"),
        ([{**_TERM, "coeficient": "1"}], "rectangle term 0: unknown keys ['coeficient']"),
        # a misspelt key in place of a required one: the required one is named
        ([{"coeficient": "1", "base_x": [], "base_y": []}],
         "rectangle term 0: missing key 'coefficient'"),
        ([_TERM, {**_TERM, "extra": 1, "more": 2}], "rectangle term 1: unknown keys ['extra', 'more']"),
        # a bad value names its term and key, and keeps its exception type
        ([_TERM, {**_TERM, "base_x": []}],
         "rectangle term 1: base_x: rectangle terms need nonempty base sets"),
        ([{**_TERM, "base_y": [["1", "0"]]}], "rectangle term 0: base_y: interval with lo=1 > hi=0"),
        ([{**_TERM, "base_x": [["x", "1"]]}], "rectangle term 0: base_x: not a rational: 'x'"),
        ([_TERM, {**_TERM, "coefficient": "1/0"}],
         "rectangle term 1: coefficient: not a rational: '1/0'"),
        ([_TERM, {**_TERM, "base_x": {"lo": "0", "hi": "1"}}],
         "rectangle term 1: base_x: expected a list of intervals, got dict"),
    ],
)
def test_malformed_term_names_its_index_and_key(doc, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, text = run_cli(["fubini-check", "--terms", str(bad)], tmp_path)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"input error at --terms: bad rectangle terms: {message}\n"


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["measure", "--set"], [{"hi": "1"}], "--set: bad interval-set document: missing key 'lo'"),
        (["converge-trace", "--seq"], {"template": "[0,1]"},
         "--seq: bad sequence document: missing key 'kind'"),
        (["converge-trace", "--seq"], {"kind": "interval", "template": "[0,1]", "tail": "constant"},
         "--seq: bad sequence document: unknown keys ['tail']"),
        (["stump-alpha", "--tree"], {"node": [{"leaf": True, "x": 1}]},
         "--tree: bad stump document: unknown keys ['x']"),
        (["stump-alpha", "--tree"], {"node": [5]},
         "--tree: bad stump document: expected a JSON object, got int"),
        (["quotient", "--system"], {"carrier": ["a"], "leq": [], "phi": {"a": "0"}, "junk": 1},
         "--system: unknown keys ['junk']"),
        (["quotient", "--system"], {"carrier": ["a"], "leq": []}, "--system: missing key 'phi'"),
        (["quotient", "--system"], {"carrier": ["a", "b"], "leq": [["a", "b"]], "phi": {"a": "0"}},
         "--system:phi: missing key 'b'"),
        (["quotient", "--system"], {"carrier": ["a"], "leq": [], "phi": {"a": "0", "leaf": "1"}},
         "--system:phi: unknown keys ['leaf']"),
    ],
    ids=["set-lo", "seq-kind", "seq-tail", "tree-key", "tree-child", "system-junk", "system-phi",
         "phi-missing", "phi-unknown"],
)
def test_reader_fault_is_one_named_line(argv, doc, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, text = run_cli([*argv, str(path)], tmp_path)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"input error at {message}\n"


@pytest.mark.parametrize("stages", [[], 5], ids=["empty", "number"])
@pytest.mark.parametrize(
    "argv", [["converge-trace"], ["dense-approx", "--eps-index", "2"]], ids=["trace", "dense"]
)
def test_stage_list_must_be_nonempty(argv, stages, tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"kind": "interval-list", "stages": stages, "tail": "constant"}))
    code, text = run_cli([*argv, "--seq", str(path)], tmp_path)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        "input error at --seq: bad sequence document: stages must be a nonempty list\n"
    )


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_check_rejects_zero_samples(samples, tmp_path, capsys):
    code, text = run_cli(
        ["check", "--suite", "modularity-mu", "--samples", samples], tmp_path
    )
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        f"input error at --samples: need at least one sample, got {samples}\n"
    )


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sqrt2-witness", "--depth", "0"], "--depth"),
        (["converge-trace", "--seq", "SEQ", "--depth", "0"], "--depth"),
        (["dense-approx", "--seq", "SEQ", "--eps-index", "4", "--depth", "0"], "--depth"),
        (["dense-approx", "--seq", "SEQ", "--eps-index", "0"], "--eps-index"),
        (["check", "--suite", "uniformity-dyadic", "--depth", "0"], "--depth"),
        (["check", "--suite", "negative-broken-half", "--depth", "0"], "--depth"),
        (["borel-decode", "--code", "0", "--space", "3x3", "--point", "1,2,3"], "--code"),
        (["borel-decode", "--code", "-5", "--space", "3x3", "--point", "1,2,3"], "--code"),
        (["fubini-check", "--terms", "TERMS", "--samples", "0"], "--samples"),
        (["totient-table", "--max", "0"], "--max"),
        (["totient-table", "--max", "-5"], "--max"),
    ],
)
def test_integer_below_one_is_input_error(argv, flag, files, capsys):
    argv = [{"SEQ": files["seq"], "TERMS": files["terms"]}.get(a, a) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"input error at {flag}: need ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag, ceiling",
    [
        (["sqrt2-witness", "--depth", "1001"], "--depth", 1000),
        (["converge-trace", "--seq", "SEQ", "--depth", "1001"], "--depth", 1000),
        (["dense-approx", "--seq", "SEQ", "--eps-index", "4", "--depth", "1001"], "--depth", 1000),
        (["dense-approx", "--seq", "SEQ", "--eps-index", "1001"], "--eps-index", 1000),
        (["check", "--suite", "uniformity-dyadic", "--depth", "1001"], "--depth", 1000),
        (["check", "--suite", "pseudometric", "--samples", "10001"], "--samples", 10000),
        (["quotient", "--system", "SYSTEM", "--samples", "10001"], "--samples", 10000),
        (["fubini-check", "--terms", "TERMS", "--samples", "10001"], "--samples", 10000),
        (["totient-table", "--max", "100001"], "--max", 100000),
    ],
)
def test_integer_above_its_ceiling_is_input_error(argv, flag, ceiling, files, capsys, monkeypatch):
    # one past the ceiling exits 2 before any work: every worker refuses to start
    def work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    for name in ("_load_json", "totient_range"):
        monkeypatch.setattr(cli, name, work)
    monkeypatch.setattr(cli.sequences, "sqrt2_witness", work)
    monkeypatch.setattr(cli, "_SUITES", dict.fromkeys(_SUITES, work))
    argv = [{"SEQ": files["seq"], "TERMS": files["terms"], "SYSTEM": files["system"]}.get(a, a)
            for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error at {flag}: need at most {ceiling}, got {ceiling + 1}\n"



@pytest.mark.parametrize("text", ["\u0661\u0662", "1_2", "+12", "\u0663"])
def test_integer_flag_reads_ascii_digits_only(text, capsys):
    # int() reads each of these as 12 or 3: they fail in argparse, as --max abc does
    with pytest.raises(SystemExit) as exc:
        main(["totient-table", "--max", text])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "usage: latval totient-table [-h] [--out OUT] --max MAX\n"
        f"latval totient-table: error: argument --max: invalid int value: {text!r}\n"
    )


BAD_DOCS = {
    "empty-tree": [],
    "phi-abc": {"carrier": ["a", "b"], "leq": [["a", "b"]], "phi": {"a": "0", "b": "abc"}},
    "list-labels": {"carrier": [["x"], ["y"]], "leq": [], "phi": {}},
    "two-stages": {"kind": "interval-list", "stages": [[["0", "1"]], [["0", "1/2"]]]},
    "lo-above-hi": {"kind": "interval", "template": "[n, 1]"},
    "slow-modulus": {"kind": "interval", "template": "[0, 1 + 5/n]"},
    "increasing": {"kind": "interval", "template": "[0, n]"},
    "unit-set": [{"lo": "0", "hi": "1"}],
    "zero-den-set": [{"lo": "0", "hi": "1/0"}],
    "zero-den-step": {"breakpoints": ["0", "1"], "open_values": ["1/0"], "point_values": ["0", "0"]},
    "zero-den-terms": [
        {"coefficient": "2/0", "base_x": [{"lo": "0", "hi": "1"}], "base_y": [{"lo": "0", "hi": "1"}]}
    ],
    "zero-den-template": {"kind": "interval", "template": "[0, 1/0]"},
    "zero-den-stages": {"kind": "interval-list", "stages": [[{"lo": "0", "hi": "1/0"}]]},
    "leq-not-pairs": {"carrier": ["a", "b"], "leq": [1], "phi": {"a": "0", "b": "1"}},
    "empty-carrier": {"carrier": [], "leq": [], "phi": {}},
    "number": 5,
    "null": None,
    "string": "carrier",
    "phi-number": {"carrier": ["a"], "leq": [], "phi": 5},
    "phi-string": {"carrier": ["a"], "leq": [], "phi": "a"},
    "empty-object": {},
    # iterated as its keys, this object would read as the interval [0, 1]
    "keys-01": {"01": True},
    "object-base-terms": [
        {"coefficient": "1", "base_x": {"01": True}, "base_y": [{"lo": "0", "hi": "1"}]}
    ],
    # a base set is a JSON list, not a string to be parsed again
    "string-base-terms": [{"coefficient": "2", "base_x": "[[0,1]]", "base_y": "[[0,3]]"}],
    # JSON booleans are not numbers, and a piece's flags are not strings or numbers
    "bool-endpoint-set": [{"lo": True, "hi": 2}],
    "string-flag-set": [{"lo": "0", "hi": "1", "lo_closed": "false", "hi_closed": 0}],
    "bool-phi": {"carrier": ["a"], "leq": [], "phi": {"a": False}},
    # iterated as its characters, this string would read as the carrier {a, b}
    "string-carrier": {"carrier": "ab", "leq": [["a", "b"]], "phi": {"a": "0", "b": "1"}},
    "number-interval-template": {"kind": "interval", "template": 5},
    "list-step-template": {"kind": "step", "template": ["(1)*1_[0, 1]"]},
    # step terms are joined by "+", so this is no sum with phi -1
    "minus-step-template": {"kind": "step", "template": "(1)*1_[0, 1] - (2)*1_[0, 1]"},
    # template numerals are p/q, never decimals or exponents
    "exponent-template": {"kind": "interval", "template": "[0, 1e3]"},
    "decimal-template": {"kind": "interval", "template": "[0, 0.5]"},
    "negative-exponent-template": {"kind": "interval", "template": "[0, 1e-3]"},
    # nested values are JSON values, never JSON text or lists of characters
    "string-child-tree": {"node": ['{"node": [{"node": []}]}']},
    "string-piece-set": ["05"],
    "string-flags-set": [[0, 1, "false", "false"]],
    "string-values-step": {"breakpoints": ["0", "1"], "open_values": "1", "point_values": "00"},
    # a JSON true is no rational, even after a value 1 read from the same document
    "true-after-one-step": {
        "breakpoints": [0, "1"], "open_values": [1], "point_values": ["1", True]
    },
    "string-pair-leq": {"carrier": ["a", "b"], "leq": ["ab"], "phi": {"a": "0", "b": "1"}},
    # decreasing over the eight stages seq_make checks, then not
    "rises-at-nine": {"kind": "interval-list", "stages": [[[0, 1]]] * 8 + [[[5, 6]]]},
    # both labels would read phi["1"]
    "same-str-labels": {"carrier": [1, "1"], "leq": [[1, "1"]], "phi": {"1": "2"}},
    "carrier-65": {"carrier": [f"c{i}" for i in range(65)], "leq": [], "phi": {}},
    # a leaf flag is a JSON boolean, never a truthy or falsy string or number
    "string-leaf-tree": {"leaf": "false", "node": [{"node": []}]},
    "zero-leaf-tree": {"leaf": 0, "node": [{"node": []}]},
    # a key a reader does not know is an error, never ignored
    "typo-key-set": [{"lo": "0", "hi": "1", "typo_closed": False}],
    "extra-key-tree": {"leaf": True, "extra": 5},
    "junk-key-step": {**STEP_DOC, "junk": 1},
    "extra-key-terms": [{**TERMS_DOC[0], "extra": 1}],
    "typo-key-terms": [{**TERMS_DOC[0], "base_x": [{"lo": "0", "hi": "3", "typo_closed": False}]}],
    "modulus-seq": {"kind": "interval", "template": "[0, 1 + 1/n]", "modulus": "1/eps"},
    "stages-seq": {"kind": "interval", "template": "[0, 1 + 1/n]", "stages": []},
    "repeat-tail": {"kind": "interval-list", "stages": [[["0", "1"]]], "tail": "repeat"},
    "typo-key-stages": {"kind": "interval-list", "stages": [[{"lo": "0", "hi": "1", "x": 1}]]},
    "junk-key-system": {"carrier": ["a"], "leq": [], "phi": {"a": "0"}, "junk": 1},
    "extra-key-phi": {
        "carrier": ["a", 1], "leq": [["a", 1]], "phi": {"a": "0", "1": "1", "leaf": True}
    },
    # a stump is a leaf or a node, never both
    "leaf-empty-node-tree": {"leaf": True, "node": []},
    "leaf-child-tree": {"leaf": True, "node": [5]},
    # labels are JSON strings or numbers, never null or booleans
    "null-label": {"carrier": [None], "leq": [], "phi": {"None": "0"}},
    "true-label": {"carrier": [True], "leq": [], "phi": {"True": "0"}},
    "false-label": {"carrier": ["a", False], "leq": [], "phi": {"a": "0", "False": "1"}},
    # json.dumps writes these floats as NaN and Infinity, which are no JSON numbers
    "nan-label": {
        "carrier": [float("nan"), 1], "leq": [[float("nan"), 1]], "phi": {"nan": "0", "1": "1"}
    },
    "infinity-label": {
        "carrier": [float("inf"), 1], "leq": [[float("inf"), 1]], "phi": {"inf": "0", "1": "1"}
    },
    # the classes ["a", "b"] and ["a,b"] would both print as {a,b}
    "comma-label-classes": {
        "carrier": ["0", "a", "b", "a,b"],
        "leq": [["0", "a"], ["a", "b"], ["b", "a,b"]],
        "phi": {"0": "0", "a": "1", "b": "1", "a,b": "2"},
    },
}
# Documents written as raw bytes: not UTF-8, or a number no float can hold.
RAW_DOCS = {
    "not-utf8": b'[{"lo": "0", "hi": "1\xff"}]',
    "1e400-label": b'{"carrier": [1e400, 1], "leq": [[1e400, 1]], "phi": {"inf": "0", "1": "1"}}',
    "1e400-endpoint-set": b'[{"lo": "0", "hi": 1e400}]',
}


@pytest.mark.parametrize(
    "argv, pointer",
    [
        (["stump-alpha", "--tree", "empty-tree"], "--tree"),
        (["quotient", "--system", "phi-abc"], "--system:phi:b"),
        (["quotient", "--system", "list-labels"], "--system:carrier"),
        (["check", "--suite", "group-axioms-foo"], "--suite"),
        (["converge-trace", "--seq", "two-stages", "--depth", "5"], "--seq"),
        (["converge-trace", "--seq", "lo-above-hi", "--depth", "3"], "--seq"),
        (["dense-approx", "--seq", "slow-modulus", "--eps-index", "2"], "--seq"),
        (["dense-approx", "--seq", "increasing", "--eps-index", "2"], "--seq"),
        (["measure", "--set", "zero-den-set"], "--set"),
        (["integrate", "--step", "zero-den-step"], "--step"),
        (["distance", "--kind", "interval", "--a", "unit-set", "--b", "zero-den-set"], "--b"),
        (["approx-eq", "--kind", "step", "--a", "zero-den-step", "--b", "zero-den-step"], "--a"),
        (["fubini-check", "--terms", "zero-den-terms"], "--terms"),
        (["converge-trace", "--seq", "zero-den-template"], "--seq"),
        (["dense-approx", "--seq", "zero-den-stages", "--eps-index", "2"], "--seq"),
        (["quotient", "--system", "leq-not-pairs"], "--system:leq"),
        (["quotient", "--system", "empty-carrier"], "--system:carrier"),
        (["measure", "--set", "not-utf8"], "--set"),
        (["stump-alpha", "--tree", "a-directory"], "--tree"),
        (["measure", "--set", "unit-set", "--out", "missing-dir/out.json"], "--out"),
        (["measure", "--set", "unit-set", "--out", "a-directory"], "--out"),
        (["quotient", "--system", "number"], "--system"),
        (["quotient", "--system", "null"], "--system"),
        (["quotient", "--system", "empty-tree"], "--system"),
        (["quotient", "--system", "string"], "--system"),
        (["quotient", "--system", "phi-number"], "--system:phi"),
        (["quotient", "--system", "phi-string"], "--system:phi"),
        (["measure", "--set", "empty-object"], "--set"),
        (["measure", "--set", "keys-01"], "--set"),
        (["distance", "--kind", "interval", "--a", "empty-object", "--b", "unit-set"], "--a"),
        (["fubini-check", "--terms", "empty-object"], "--terms"),
        (["fubini-check", "--terms", "object-base-terms"], "--terms"),
        (["measure", "--set", "bool-endpoint-set"], "--set"),
        (["measure", "--set", "string-flag-set"], "--set"),
        (["quotient", "--system", "bool-phi"], "--system:phi:a"),
        (["quotient", "--system", "string-carrier"], "--system:carrier"),
        (["converge-trace", "--seq", "number-interval-template"], "--seq"),
        (["dense-approx", "--seq", "number-interval-template", "--eps-index", "2"], "--seq"),
        (["converge-trace", "--seq", "list-step-template"], "--seq"),
        (["dense-approx", "--seq", "list-step-template", "--eps-index", "2"], "--seq"),
        (["fubini-check", "--terms", "string-base-terms"], "--terms"),
        (["stump-alpha", "--tree", "string-child-tree"], "--tree"),
        (["measure", "--set", "string-piece-set"], "--set"),
        (["measure", "--set", "string-flags-set"], "--set"),
        (["integrate", "--step", "string-values-step"], "--step"),
        (["quotient", "--system", "string-pair-leq"], "--system:leq"),
        (["dense-approx", "--seq", "rises-at-nine", "--depth", "9", "--eps-index", "1"], "--seq"),
        (["quotient", "--system", "same-str-labels"], "--system:carrier"),
        (["quotient", "--system", "carrier-65"], "--system:carrier"),
        (["stump-alpha", "--tree", "string-leaf-tree"], "--tree"),
        (["stump-alpha", "--tree", "zero-leaf-tree"], "--tree"),
        (["measure", "--set", "typo-key-set"], "--set"),
        (["stump-alpha", "--tree", "extra-key-tree"], "--tree"),
        (["integrate", "--step", "junk-key-step"], "--step"),
        (["approx-eq", "--kind", "step", "--a", "junk-key-step", "--b", "junk-key-step"], "--a"),
        (["fubini-check", "--terms", "extra-key-terms"], "--terms"),
        (["fubini-check", "--terms", "typo-key-terms"], "--terms"),
        (["converge-trace", "--seq", "modulus-seq"], "--seq"),
        (["dense-approx", "--seq", "modulus-seq", "--eps-index", "2"], "--seq"),
        (["converge-trace", "--seq", "stages-seq"], "--seq"),
        (["converge-trace", "--seq", "repeat-tail", "--depth", "1"], "--seq"),
        (["converge-trace", "--seq", "typo-key-stages", "--depth", "1"], "--seq"),
        (["quotient", "--system", "junk-key-system"], "--system"),
        (["quotient", "--system", "extra-key-phi"], "--system:phi"),
        (["stump-alpha", "--tree", "leaf-empty-node-tree"], "--tree"),
        (["stump-alpha", "--tree", "leaf-child-tree"], "--tree"),
        (["quotient", "--system", "null-label"], "--system:carrier"),
        (["quotient", "--system", "true-label"], "--system:carrier"),
        (["quotient", "--system", "false-label"], "--system:carrier"),
        (["quotient", "--system", "nan-label"], "--system"),
        (["quotient", "--system", "infinity-label"], "--system"),
        (["quotient", "--system", "1e400-label"], "--system"),
        (["measure", "--set", "1e400-endpoint-set"], "--set"),
        (["converge-trace", "--seq", "minus-step-template", "--depth", "1"], "--seq"),
        (["integrate", "--step", "true-after-one-step"], "--step"),
        (["converge-trace", "--seq", "exponent-template", "--depth", "1"], "--seq"),
        (["converge-trace", "--seq", "decimal-template", "--depth", "1"], "--seq"),
        (["converge-trace", "--seq", "negative-exponent-template", "--depth", "1"], "--seq"),
        (["quotient", "--system", "comma-label-classes"], "--system:carrier"),
    ],
)
def test_bad_document_is_input_error(argv, pointer, tmp_path, capsys):
    paths = {"a-directory": tmp_path, "missing-dir/out.json": tmp_path / "missing" / "out.json"}
    for name, doc in BAD_DOCS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    for name, raw in RAW_DOCS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_bytes(raw)
    assert main([str(paths.get(a, a)) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"input error at {pointer}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def _nested_stump(depth: int) -> str:
    return '{"node": [' * depth + '{"leaf": true}' + "]}" * depth


def _nested_list(depth: int) -> str:
    return "[" * depth + "]" * depth


LIMIT = sys.getrecursionlimit()


@pytest.mark.parametrize(
    "argv, text, message",
    [
        # deeper than the recursion limit: the JSON reader gives up
        (["stump-alpha", "--tree"], _nested_stump(LIMIT),
         "input error at --tree: document nested too deeply: "),
        (["measure", "--set"], _nested_list(2 * LIMIT),
         "input error at --set: document nested too deeply: "),
        # JSON reads it, so the stump is parsed and ranked: a chain of
        # nodes has the rank of its length
        (["stump-alpha", "--tree"], _nested_stump(LIMIT * 2 // 5),
         {"alpha": LIMIT * 2 // 5}),
    ],
    ids=["tree-json", "set-json", "tree-parser"],
)
def test_deeply_nested_document_is_input_error(argv, text, message, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code = main([*argv, str(path)])
    out, err = capsys.readouterr()
    if isinstance(message, dict):
        assert code == 0 and err == ""
        assert json.loads(out) == message
        return
    assert code == 2
    assert out == ""
    assert err.startswith(message)
    assert err.count("\n") == 1
    assert "Traceback" not in err


# The exact flags each subcommand accepts (help excluded): the shared
# --seed, --samples, --depth and --format appear only where they are read.
FLAGS = {
    "measure": {"--out", "--set"},
    "integrate": {"--out", "--step"},
    "distance": {"--out", "--kind", "--a", "--b"},
    "approx-eq": {"--out", "--kind", "--a", "--b"},
    "quotient": {"--out", "--system", "--seed", "--samples"},
    "converge-trace": {"--out", "--seq", "--depth", "--format"},
    "sqrt2-witness": {"--out", "--depth"},
    "dense-approx": {"--out", "--seq", "--eps-index", "--depth"},
    "fubini-check": {"--out", "--terms", "--seed", "--samples"},
    "stump-alpha": {"--out", "--tree"},
    "borel-decode": {"--out", "--code", "--space", "--point", "--kind"},
    "totient-table": {"--out", "--max"},
    "check": {"--out", "--suite", "--seed", "--samples", "--depth"},
}


def test_each_subcommand_accepts_exactly_the_flags_it_reads():
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    accepted = {
        name: {opt for a in p._actions if a.dest != "help" for opt in a.option_strings}
        for name, p in sub.choices.items()
    }
    assert accepted == FLAGS
    assert sum(len(flags) for flags in accepted.values()) == 44


@pytest.mark.parametrize("extra", [["--tol", "1"], ["--format", "csv"]])
def test_flag_a_command_does_not_read_is_rejected(extra, files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--set", files["set"], *extra])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _readme_cli_section() -> str:
    text = (Path(__file__).parent.parent / "README.md").read_text()
    return text[text.index("## CLI"):text.index("### Input schemas")]


def test_readme_flag_table_matches_the_command_table():
    # each row of the shared-flag table: flag, default, range, subcommands
    rows = {}
    for line in _readme_cli_section().splitlines():
        if line.startswith("| `--"):
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            flag = cells[0].strip("`").split()[0]
            commands = set(re.findall(r"`([a-z0-9-]+)`", cells[3]))
            rows[flag] = cells[1].strip("`"), cells[2], commands
    assert set(rows) == {flag for flag, spec in cli._FLAGS.items() if "default" in spec}
    for flag, (default, values, commands) in rows.items():
        assert default == str(cli._FLAGS[flag]["default"]), flag
        assert commands == {name for name, (_, flags, *_) in cli._COMMANDS.items()
                            if flag in flags.split()}, flag
        dest = flag[2:].replace("-", "_")
        if values == "any integer":
            assert cli._FLAGS[flag]["type"] is cli._integer and dest not in cli._COUNTS
        elif values:
            assert values == f"1 to {cli._COUNTS[dest][1]:,}", flag
        else:
            assert "choices" in cli._FLAGS[flag], flag
    # the ranges of the two flags that one subcommand each reads
    ranges = re.findall(
        r"`(--[a-z-]+)` of\s+`([a-z0-9-]+)` \(1 to ([\d,]+)\)", _readme_cli_section()
    )
    assert {flag for flag, _, _ in ranges} == {"--eps-index", "--max"}
    for flag, command, ceiling in ranges:
        assert flag in cli._COMMANDS[command][1].split()
        assert f"{cli._COUNTS[flag[2:].replace('-', '_')][1]:,}" == ceiling
    assert "`--code` must be at least 1 and has no ceiling" in _readme_cli_section()
    assert cli._COUNTS["code"][1] is None


def test_internal_error_is_exit_3_on_one_line(monkeypatch, capsys):
    def broken(n):
        raise RuntimeError("totient table corrupted")

    monkeypatch.setattr(cli, "totient_range", broken)
    assert main(["totient-table", "--max", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: RuntimeError: totient table corrupted\n"


def test_fault_in_dense_approximation_is_not_a_misfit_sequence(files, monkeypatch, capsys):
    def broken(*args):
        raise TypeError("witness table corrupted")

    monkeypatch.setattr(cli.uniformity, "dense_approximate", broken)
    assert main(["dense-approx", "--seq", files["seq"], "--eps-index", "2", "--depth", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: TypeError: witness table corrupted\n"


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["integrate", "--step", "STEP"], stepfn, "step_from_values"),
        (["converge-trace", "--seq", "SEQ", "--depth", "3"], seqdsl, "iset_make"),
    ],
    ids=["step-reader", "stage-producer"],
)
def test_fault_inside_a_reader_is_exit_3(argv, module, name, files, monkeypatch, capsys):
    # a KeyError raised by latval's own code is a fault, not bad input
    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr(module, name, broken)
    assert main([{"STEP": files["step"], "SEQ": files["seq"]}.get(a, a) for a in argv]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: KeyError: 'internal'\n"


def test_dump_encodes_fractions_only(tmp_path):
    args = argparse.Namespace(out=str(tmp_path / "out.json"))
    _dump(args, {"q": Fraction(-3, 4), "n": 2, "rows": [{"x": Fraction(5)}]})
    assert json.loads((tmp_path / "out.json").read_text()) == {
        "q": "-3/4",
        "n": 2,
        "rows": [{"x": "5"}],
    }
    with pytest.raises(TypeError):
        _dump(args, {"x": object()})


# A 10,000-digit numerator, past Python's default limit of 4,300 digits
# on converting integers to and from strings; it is not a multiple of 3.
BIG = "7" * 10_000
BIG_Q = f"{BIG}/3"
BIG_SET = [{"lo": "0", "hi": BIG_Q}]


@pytest.mark.parametrize(
    "argv, docs, value",
    [
        (["measure", "--set", "A"], {"A": BIG_SET}, BIG_Q),
        (
            ["integrate", "--step", "A"],
            {"A": {"breakpoints": ["0", "1"], "open_values": [BIG_Q], "point_values": ["0", "0"]}},
            BIG_Q,
        ),
        (
            ["distance", "--kind", "interval", "--a", "A", "--b", "B"],
            {"A": BIG_SET, "B": [{"lo": "0", "hi": "1"}]},
            "7" * 9_999 + "4/3",  # BIG/3 - 1
        ),
        (
            ["fubini-check", "--terms", "A", "--samples", "2"],
            {"A": [{"coefficient": BIG_Q, "base_x": [{"lo": "0", "hi": "1"}],
                    "base_y": [{"lo": "0", "hi": "1"}]}]},
            BIG_Q,
        ),
        (
            ["converge-trace", "--seq", "A", "--depth", "1"],
            {"A": {"kind": "interval", "template": f"[0, {BIG_Q} + 1/n]"}},
            "7" * 9_998 + "80/3",  # BIG/3 + 1
        ),
        (
            ["quotient", "--system", "A", "--samples", "5"],
            {"A": {"carrier": ["bot", "top"], "leq": [["bot", "top"]],
                   "phi": {"bot": "0", "top": BIG_Q}}},
            BIG_Q,
        ),
    ],
    ids=["set", "step", "a-b", "terms", "seq", "system"],
)
def test_rationals_of_any_size_are_read_and_written(argv, docs, value, tmp_path, capsys):
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert main([str(tmp_path / a) if a in docs else a for a in argv]) == 0
    assert f'"{value}"' in capsys.readouterr().out


def test_long_integer_literal_is_read(tmp_path, capsys):
    path = tmp_path / "set.json"
    for end in ["1" * 5_000, json.dumps("1" * 5_000)]:  # a JSON integer and a numeral string
        path.write_text(f"[[0, {end}]]")
        assert main(["measure", "--set", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"value": "1" * 5_000}


def test_int_digit_limit_is_restored(files, capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5_000)
    try:
        assert main(["measure", "--set", files["set"]]) == 0
        assert sys.get_int_max_str_digits() == 5_000
        assert main(["measure", "--set", "/nonexistent.json"]) == 2
        assert sys.get_int_max_str_digits() == 5_000
        with pytest.raises(SystemExit):
            main(["measure"])
        assert sys.get_int_max_str_digits() == 5_000
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--set", "SET"],
        ["integrate", "--step", "STEP"],
        ["distance", "--kind", "interval", "--a", "SET", "--b", "SET"],
        ["approx-eq", "--kind", "step", "--a", "STEP", "--b", "STEP"],
        ["quotient", "--system", "SYSTEM"],
        ["converge-trace", "--seq", "SEQ", "--depth", "3"],
        ["sqrt2-witness", "--depth", "3"],
        ["dense-approx", "--seq", "SEQ", "--eps-index", "2", "--depth", "3"],
        ["fubini-check", "--terms", "TERMS", "--samples", "3"],
        ["stump-alpha", "--tree", "STUMP"],
        ["borel-decode", "--code", "9", "--space", "3x3", "--point", "1,2,3"],
        ["totient-table", "--max", "5"],
        ["check", "--suite", "modularity-mu", "--samples", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_document_is_one_compact_line(argv, files, tmp_path, capsys):
    placeholders = {name.upper(): path for name, path in files.items()}
    argv = [placeholders.get(a, a) for a in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n"
    path = tmp_path / "out.json"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()


def test_schema_error_points_at_field(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"carrier": ["a"], "leq": []}')
    assert main(["quotient", "--system", str(bad)]) == 2
    assert "phi" in capsys.readouterr().err


def test_deterministic_output(files, tmp_path):
    _, first = run_cli(
        ["check", "--suite", "modularity-mu", "--samples", "40", "--seed", "5"], tmp_path
    )
    _, second = run_cli(
        ["check", "--suite", "modularity-mu", "--samples", "40", "--seed", "5"], tmp_path
    )
    assert first == second


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "latval.cli", "sqrt2-witness", "--depth", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["q"] == "1"
