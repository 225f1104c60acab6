"""Fuzzing of the CLI's documents.

Each ``Input schemas`` example in README.md is read back, mutated one to
three times (a value replaced from a fixed pool, a key or element deleted,
an unknown key added, a value wrapped in a list) and run through every
subcommand that reads its kind.  A ``hypothesis`` fuzzer also draws
documents of every kind from the readers' schemas, with keys dropped or
unknown, values of the wrong JSON type, zero denominators, 5,000-digit
numerals and empty or nested lists, and a third draws the text of
``borel-decode``'s ``--space`` and ``--point``.  Whatever the input, a run
ends in exit 0, 1 or 2 as documented: never exit 3 and never a traceback.
"""

import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latval.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# The subcommands that read each kind of document, the main one first.  Every
# work-setting flag is far below its ceiling, so the runs stay fast.
RUNS = {
    "set": [
        ["measure", "--set", "{}"],
        ["distance", "--kind", "interval", "--a", "{}", "--b", "{}"],
        ["approx-eq", "--kind", "interval", "--a", "{}", "--b", "{}"],
    ],
    "step": [
        ["integrate", "--step", "{}"],
        ["distance", "--kind", "step", "--a", "{}", "--b", "{}"],
        ["approx-eq", "--kind", "step", "--a", "{}", "--b", "{}"],
    ],
    "terms": [["fubini-check", "--terms", "{}", "--samples", "3"]],
    "system": [["quotient", "--system", "{}", "--samples", "3"]],
    "seq": [
        ["converge-trace", "--seq", "{}", "--depth", "4"],
        ["dense-approx", "--seq", "{}", "--depth", "4", "--eps-index", "2"],
    ],
    "tree": [["stump-alpha", "--tree", "{}"]],
}

# Replacement values, as JSON text so each use is a fresh object.
POOL = [
    "null", "true", "false", "0", str(2**70), "0.5", '""', '"1/0"', '"x"', "[]", "{}",
    '"[0,1]"', '"[n, 1]"',
]


def readme_examples() -> list[tuple[str, object]]:
    """``(kind, document)`` for each example of the README's input schemas:
    the ```json blocks in order (the sequence block holds one document per
    line) and the inline stump."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    assert len(blocks) == 5, "the README's input schemas changed"
    *single, sequences = blocks
    kinds = "set", "step", "terms", "system"
    examples = [(kind, json.loads(block)) for kind, block in zip(kinds, single)]
    examples += [("seq", json.loads(line)) for line in sequences.splitlines() if line.strip()]
    stump = re.search(r"Stump \(`stump-alpha`\): `([^`]+)`", text)
    return examples + [("tree", json.loads(stump.group(1)))]


def _nodes(doc, path=()):
    """``(path, value)`` of the document and of every value nested in it."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(value, path + (key,))


def mutate(doc, rng: random.Random):
    """A copy of ``doc`` with one to three seeded mutations."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 3)):
        nodes = list(_nodes(doc))
        path, value = rng.choice(nodes)
        how = rng.choice(("replace", "delete", "add-key", "wrap"))
        if how == "add-key":
            objects = [v for _, v in nodes if isinstance(v, dict)]
            if objects:
                rng.choice(objects)["unknown"] = json.loads(rng.choice(POOL))
            continue
        new = [value] if how == "wrap" else json.loads(rng.choice(POOL))
        if not path:  # the whole document, which nothing holds to delete it from
            doc = doc if how == "delete" else new
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if how == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return doc


def run(argv, path, capsys) -> tuple[int, str, str]:
    code = main([str(path) if a == "{}" else a for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def test_readme_examples_run(tmp_path, capsys):
    examples = readme_examples()
    assert sorted({kind for kind, _ in examples}) == sorted(RUNS)
    for n, (kind, doc) in enumerate(examples):
        path = tmp_path / f"example-{n}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(RUNS[kind][0], path, capsys)
        assert (code, err) == (0, ""), (kind, doc)
        json.loads(out)


def run_as_documented(argv, path, doc, capsys) -> int:
    """The exit code of one run, checked: 0 or 1 with a JSON document on
    stdout, or 2 with one ``input error at --`` line on stderr."""
    code, out, err = run(argv, path, capsys)
    assert code in (0, 1, 2), (argv, doc, err)
    assert "Traceback" not in out + err, (argv, doc)
    if code == 2:
        assert out == "" and err.startswith("input error at --"), (argv, doc, err)
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, doc, err)
    else:
        json.loads(out)
    return code


def test_mutated_documents_end_as_documented(tmp_path, capsys):
    rng = random.Random(20)
    examples = readme_examples()
    path = tmp_path / "doc.json"
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(125):
        for kind, seed in examples:
            doc = mutate(seed, rng)
            path.write_text(json.dumps(doc))
            for argv in RUNS[kind]:
                codes[run_as_documented(argv, path, doc, capsys)] += 1
    # the readers reject most mutations, but some runs get past them
    assert codes[0] > 50 and codes[2] > 1000


# --- documents drawn from the readers' schemas -----------------------------

# numerals in increasing order of value, drawn by index; L stands for 5,000 digits
NUMERAL_TEXTS = [text.replace("L", "3" * 5000) for text in ["-1/2", "0", "1/L", "1", " 2 ", "7/3", "L"]]
INDICES = st.integers(0, len(NUMERAL_TEXTS) - 1)
NUMERALS = INDICES.map(NUMERAL_TEXTS.__getitem__)
NOT_NUMERALS = st.sampled_from(["1/0", "-3/0", "L/0", "0.5", "1e3", "x", ""]).map(
    lambda text: text.replace("L", "3" * 5000)
)
# any JSON value: what a reader may find in place of what it wants
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.just(2**70) | st.just(0.5) | NUMERALS
    | NOT_NUMERALS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["lo", "x"]), inner,
                                                                max_size=2),
    max_leaves=6,
)


def objects(**schema):
    """JSON objects with the keys of ``schema`` and values from their
    strategies, as drawn or with one fault: a key dropped, a value of any
    JSON type, or an unknown key."""
    return st.fixed_dictionaries(schema).flatmap(lambda doc: st.just(doc) | st.one_of(
        st.sampled_from(sorted(doc)).map(lambda key: {k: v for k, v in doc.items() if k != key}),
        st.tuples(st.sampled_from(sorted(doc)), JUNK).map(lambda kv: {**doc, kv[0]: kv[1]}),
        JUNK.map(lambda value: {**doc, "junk": value}),
    ))


def lists(elements, max_size=3):
    """Lists of up to ``max_size`` elements, or any JSON value."""
    return st.lists(elements, max_size=max_size) | JUNK


def ascending(min_size, max_size, unique=False):
    """Lists of numerals in increasing order, strictly if ``unique``."""
    return st.lists(INDICES, min_size=min_size, max_size=max_size, unique=unique).map(
        lambda indices: [NUMERAL_TEXTS[i] for i in sorted(indices)]
    )


PIECES = st.one_of(
    st.lists(NUMERALS, min_size=2, max_size=2),  # in either order
    ascending(2, 2),
    ascending(2, 2).map(lambda ends: [*ends, False, True]),
    ascending(2, 2).flatmap(lambda ends: objects(lo=st.just(ends[0]), hi=st.just(ends[1]),
                                                  lo_closed=st.booleans(), hi_closed=st.booleans())),
)
SETS = lists(PIECES)
# increasing breakpoints with one open value fewer and as many point values
STEPS = ascending(0, 3, unique=True).flatmap(lambda bps: objects(
    breakpoints=st.just(bps),
    open_values=st.lists(NUMERALS, min_size=max(len(bps) - 1, 0), max_size=max(len(bps) - 1, 0)),
    point_values=st.lists(NUMERALS, min_size=len(bps), max_size=len(bps)),
))
LABELS = st.sampled_from(["a", "b", 0, 1])
# values equal to a label or unhashable, none of them a label
NOT_LABELS = st.sampled_from([True, False, 1.0, ["a"], {"a": "b"}])


def orders(carrier):
    """The chain's pairs; or with a pair, or one end of a pair, that is no
    label; or a ``leq`` that is not a list."""
    chain = [[a, b] for a, b in zip(carrier, carrier[1:])]
    return st.one_of(
        st.just(chain),
        st.tuples(NOT_LABELS, st.sampled_from(carrier)).flatmap(st.permutations).map(
            lambda pair: chain + [pair]
        ),
        NOT_LABELS.map(lambda odd: [odd, *chain]),
        st.sampled_from([5, "ab", None, {"a": "b"}]),
    )


# chains over distinct labels, valued at every label
SYSTEMS = st.lists(LABELS, min_size=1, max_size=3, unique_by=str).flatmap(lambda carrier: objects(
    carrier=st.just(carrier),
    leq=orders(carrier),
    phi=st.fixed_dictionaries({str(a): NUMERALS for a in carrier}),
))
STUMPS = st.recursive(
    objects(leaf=st.just(True)),
    lambda inner: objects(node=st.lists(inner, max_size=3))
    | objects(leaf=st.just(False), node=st.lists(inner, max_size=3)),
    max_leaves=5,
)
SEQS = st.one_of(
    objects(kind=st.just("interval"),
            template=st.sampled_from(["[0, 1 + 1/n]", "[n, 1]", "[0, 1/0]", "[0, 1] u [2, 2 + 1/n]"])),
    objects(kind=st.just("step"), template=st.sampled_from(["(1/n)*1_[0, n]", "(1)*1_[1, 0]"])),
    objects(kind=st.just("interval-list"), stages=lists(SETS, max_size=2), tail=st.just("constant")),
)
DOCS = {
    "set": SETS,
    "step": STEPS,
    "terms": lists(objects(coefficient=NUMERALS, base_x=SETS, base_y=SETS), max_size=2),
    "system": SYSTEMS,
    "seq": SEQS,
    "tree": STUMPS | JUNK,
}


def test_drawn_documents_cover_every_kind():
    assert sorted(DOCS) == sorted(RUNS)


@pytest.mark.parametrize("kind", sorted(DOCS))
@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_drawn_documents_end_as_documented(kind, tmp_path, capsys, data):
    doc = data.draw(DOCS[kind])
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in RUNS[kind]:
        run_as_documented(argv, path, doc, capsys)


# what a --space or --point half may hold: digits, or text int() reads and these flags do not
DIGIT_TEXTS = st.sampled_from(["1", "2", "3", "0", "", "+1", "-1", "1_0", "\u0663", " 2", "2x2"])
SPACE_TEXTS = st.tuples(DIGIT_TEXTS, st.sampled_from(["x", "X", "xx"]), DIGIT_TEXTS).map("".join)
POINT_TEXTS = st.lists(DIGIT_TEXTS, min_size=1, max_size=4).map(",".join)


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(space=SPACE_TEXTS, point=POINT_TEXTS)
def test_drawn_borel_decode_flags_end_as_documented(space, point, capsys):
    # the "=" form keeps argparse from reading a leading "-" as a flag
    argv = ["borel-decode", "--code", "9", f"--space={space}", f"--point={point}"]
    if run_as_documented(argv, None, (space, point), capsys) == 0:
        assert re.fullmatch("[0-9]+[xX][0-9]+", space) and re.fullmatch("[0-9]+(,[0-9]+)*", point)
