"""Mutation fuzzing of the CLI's documents, seeded with the README's examples.

Each ``Input schemas`` example in README.md is read back, mutated one to
three times (a value replaced from a fixed pool, a key or element deleted,
an unknown key added, a value wrapped in a list) and run through every
subcommand that reads its kind.  Whatever the document, a run ends in exit
0, 1 or 2 as documented: never exit 3 and never a traceback.
"""

import json
import random
import re
from pathlib import Path

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
                code, out, err = run(argv, path, capsys)
                assert code in codes, (argv, doc, err)
                assert "Traceback" not in out + err, (argv, doc)
                if code == 2:
                    assert out == "" and err.startswith("input error at --"), (argv, doc, err)
                    assert err.count("\n") == 1 and err.endswith("\n"), (argv, doc, err)
                else:
                    json.loads(out)
                codes[code] += 1
    # the readers reject most mutations, but some runs get past them
    assert codes[0] > 50 and codes[2] > 1000
