import argparse
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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


def test_check_suite_negative_control(files, tmp_path):
    code, text = run_cli(
        ["check", "--suite", "negative-broken-half", "--samples", "300", "--seed", "7"],
        tmp_path,
    )
    assert code == 1
    doc = json.loads(text)
    assert doc["ok"] is False
    assert doc["report"]["(iii) halving composes"]["counterexample"]


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
        "input error at --step: bad step-function document: 'open_values'\n"
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
    ],
)
def test_bad_document_is_input_error(argv, pointer, tmp_path, capsys):
    paths = {"a-directory": tmp_path, "missing-dir/out.json": tmp_path / "missing" / "out.json"}
    for name, doc in BAD_DOCS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    paths["not-utf8"] = tmp_path / "not-utf8.json"
    paths["not-utf8"].write_bytes(b'[{"lo": "0", "hi": "1\xff"}]')
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
    path = tmp_path / "leaf.json"
    path.write_text('{"leaf": ' + "1" * 5_000 + "}")
    assert main(["stump-alpha", "--tree", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"alpha": 0}


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
