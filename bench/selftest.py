"""Self-test of the benchmark's failure accounting.

    python3 bench/selftest.py

Feeds the benchmark client jobs that must be counted as failures (a wrong
expected value, a report with zero property records, a wrong exit code, a
crash) next to jobs that must pass, and checks ``failed_frac``.  Exits 0
when every case is classified as expected.
"""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction

import gen
import oracle as O
import run


def main() -> int:
    if not (run.SRC / "latval" / "__init__.py").is_file():
        print(f"no latval sources under {run.SRC}", file=sys.stderr)
        return 2
    cli = run._import_latval()
    workdir = run.WORK / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        files = gen._Files(workdir)
        rng = random.Random(0)
        doc = gen.interval_doc(rng, 6, 8, messy=True)
        right = O.union_measure(gen._spans(doc))
        path = files.put(doc)
        cases = [
            ("right measure", True,
             gen.Job(["measure", "--set", path], 0, gen._value_check(right))),
            ("wrong expected value", False,
             gen.Job(["measure", "--set", path], 0, gen._value_check(right + Fraction(1, 3)))),
            ("report with records", True, gen.check_job("modularity-mu", 3, 1)),
            ("report with zero records", False, gen.check_job("modularity-mu", 0, 1)),
            ("negative control", True, gen.negative_job("negative-distributive-m3", 5, 1)),
            ("wrong exit code", False,
             gen.Job(gen.check_job("modularity-mu", 3, 1).argv, 1, lambda doc: 1)),
            ("crash", False, gen.Job(["sqrt2-witness", "--depth", "0"], 0, lambda doc: None)),
        ]
        bad = []
        for label, should_pass, job in cases:
            client = run.Client(cli)
            passes = run.run_passes(client, [job], 0)
            failed_frac = dict((r[0], r[1]) for r in run.end_to_end(client, passes, [(0.0, 0.0)]))["failed_frac"]
            passed = failed_frac == 0
            status = "ok" if passed == should_pass else "WRONG"
            print(f"{status}: {label}: failed_frac={failed_frac:g}"
                  + (f" ({client.failures[0][-80:]})" if client.failures else ""))
            if passed != should_pass:
                bad.append(label)
    finally:
        run._remove_workdir(workdir)
    print("self-test " + ("failed: " + ", ".join(bad) if bad else "passed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
