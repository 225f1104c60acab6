"""The benchmark's jobs, checked by its latval-free oracle.

``bench/gen.py`` generates each workload's input files, command lines and
oracle checks; ``bench/oracle.py`` computes the expected values without
importing latval.  Running every job takes seconds, so this runs one job per
(subcommand, size class) of each workload through ``cli.main`` in process,
and checks its exit code and its output against the oracle.  A report with
zero property records is a failure, as it is in ``bench/run.py``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from latval.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 5
# flags that pick values, not sizes: jobs differing only in these are alike
VALUE_FLAGS = {"--seed", "--point"}
BITS_64 = (64).bit_length()  # the size class of 64- and 65-bit denominators


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")  # gen imports it under this name
gen = _load("gen")


def _rationals(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for x in doc:
            yield from _rationals(x)
    elif isinstance(doc, str):
        with contextlib.suppress(ValueError):
            yield Fraction(doc)


def size_class(argv: list[str]) -> tuple:
    """The subcommand, its flags and their sizes, in powers of two: counts
    (flag values, input document lengths) by their bit length, operands
    (codes, an input's largest denominator) by the bit length of their bit
    length."""
    key = [argv[0]]
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag in VALUE_FLAGS:
            continue
        if value.isdigit():
            bits = int(value).bit_length()
            value = bits.bit_length() if flag == "--code" else bits
        elif Path(value).is_file():
            doc = json.loads(Path(value).read_text())
            den_bits = max((q.denominator.bit_length() for q in _rationals(doc)), default=0)
            value = (len(doc).bit_length(), den_bits.bit_length())
        key.append((flag, value))
    return tuple(key)


def run_job(job) -> str | None:
    """None if the job ends as the oracle expects, else what went wrong."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(job.argv)
    if code != job.exit_code:
        return f"exit code {code}, expected {job.exit_code}: {err.getvalue()[:200]}"
    try:
        records = job.check(json.loads(out.getvalue()))
    except oracle.Mismatch as exc:
        return str(exc)
    if records == 0:
        return "report with zero property records"
    return None


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_one_job_per_size_class_matches_the_oracle(workload, tmp_path):
    wl = gen.generate(workload, SEED, tmp_path)
    chosen: dict[tuple, object] = {}
    for job in wl.jobs:
        chosen.setdefault(size_class(job.argv), job)
    assert len(chosen) >= 8
    failures = [(job.argv, why) for job in chosen.values() if (why := run_job(job))]
    assert failures == []
    if workload == "large-operands":  # the largest operands are among them
        argvs = [job.argv for job in chosen.values()]
        assert ["sqrt2-witness", "--depth", "440"] in argvs
        step_pairs = [k for k in chosen if k[:2] == ("distance", ("--kind", "step"))]
        assert any(BITS_64 in (a[1][1], b[1][1]) for _, _, a, b in step_pairs)
