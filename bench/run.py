"""The latval benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; latval is imported from ``src/``
(nothing is installed).  One client calls ``latval.cli.main(argv)``
in-process, in a closed loop, over the workload's generated input files
(``gen.py``), and checks every output against an independent oracle
(``oracle.py``).  It runs whole passes over the job list until the next pass
would end after ``--seconds``, and at least three; a job's time is the
median of its runs.  Set-up time is measured on fresh interpreters that only
set up.  Every time is divided by the machine's slowdown at the moment it was
taken, measured with a fixed yardstick computation timed before every job
and after every set-up (see ``Client.normalized``); the raw figures are
printed next to them.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run with tracing wrappers installed (``spans.py``), after an
untraced phase that gives the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_RUNS = 5  # fresh processes timed for setup_s
MIN_PASSES = 3  # each job's time is the median of at least this many runs
MIN_JOBS = 100  # distinct jobs per pass: at least 10 lie beyond p90
YARDSTICK_NEAREST = 5  # yardstick runs a job run is compared with
# The yardstick's usual time on a 2-CPU Xeon VM with Python 3.11; times are
# reported as if the machine ran the yardstick this fast.
YARDSTICK_S = 0.006
FAILURES_SHOWN = 5

sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from oracle import Mismatch  # noqa: E402


def _import_latval():
    """Import latval from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import latval
    import latval.cli

    if Path(latval.__file__).resolve().parent != SRC / "latval":
        raise ImportError(f"latval was imported from {latval.__file__}, not {SRC}")
    return latval.cli


def yardstick() -> None:
    """A fixed computation that does not use latval: sorting and summing
    Fractions, the kind of work latval's own jobs do."""
    sum(sorted(Fraction(k * 7919 % 1000, k) for k in range(1, 900)), Fraction(0))


def yardstick_time() -> float:
    t0 = time.perf_counter()
    yardstick()
    return time.perf_counter() - t0


class Client:
    """Runs jobs through ``cli.main`` and checks them; one job at a time."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.times: list[float] = []
        self.starts: list[float] = []  # when each job run began
        self.yardstick_runs: list[tuple[float, float]] = []  # (began, seconds)
        self.check_time = 0.0
        self.records = 0
        self.out_bytes = 0
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, job: gen.Job) -> None:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.job = self.attempted
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(job.argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        except Exception as exc:  # the program crashed: a failed job
            code, error = None, f"raised {exc!r}"
        dt = time.perf_counter() - t0
        self.attempted += 1
        self.times.append(dt)
        self.starts.append(t0)
        text = out.getvalue()
        self.out_bytes += len(text)
        try:
            if error:
                raise Mismatch(error)
            if code != job.exit_code:
                raise Mismatch(f"exit code {code}, expected {job.exit_code}: {err.getvalue()[:200]}")
            records = job.check(json.loads(text))
            if records is not None:
                if records == 0:
                    raise Mismatch("report with zero property records")
                self.records += records
                self.check_time += dt
        except (Mismatch, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            self.failures.append(f"{' '.join(job.argv)[:160]}: {exc}")

    def run_yardstick(self) -> None:
        self.yardstick_runs.append((time.perf_counter(), yardstick_time()))

    def normalized(self) -> list[float]:
        """Each job run's time as if the machine ran at its usual speed.

        Shared hosts slow a whole process down by 2x and more, in phases
        from under a second to minutes long, so one correction for a run
        over- or under-shoots.  The yardstick runs before every job; each
        job run is divided by the mean time of the ``YARDSTICK_NEAREST``
        yardstick runs nearest it, over the yardstick's usual time.
        """
        began = [t for t, _ in self.yardstick_runs]
        out = []
        for t0, dt in zip(self.starts, self.times):
            lo = max(0, bisect.bisect(began, t0) - YARDSTICK_NEAREST // 2)
            hi = min(len(began), lo + YARDSTICK_NEAREST)
            lo = max(0, hi - YARDSTICK_NEAREST)
            near = statistics.mean(d for _, d in self.yardstick_runs[lo:hi])
            out.append(dt * YARDSTICK_S / near)
        return out

    def slowdown(self) -> float:
        """The run's overall slowdown: raw over normalized job time."""
        return sum(self.times) / sum(self.normalized())


def run_passes(client: Client, jobs: list[gen.Job], seconds: float) -> int:
    """Whole passes until the next one would end after ``seconds``, but at
    least ``MIN_PASSES``."""
    start = time.perf_counter()
    passes = 0
    while True:
        for job in jobs:
            client.run_yardstick()
            client.run(job)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed + elapsed / passes > seconds:
            client.run_yardstick()  # the last job's later neighbour
            return passes


def job_times(times: list[float], jobs: int) -> list[float]:
    """Each job's median run over the passes, which are spaced a pass apart:
    one run that the yardstick mis-corrects does not move it."""
    return [statistics.median(times[i::jobs]) for i in range(jobs)]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


# --- set-up --------------------------------------------------------------


def setup(workload: str, seed: int, workdir: Path):
    """Import latval, generate the inputs and run one untimed warm-up job."""
    cli = _import_latval()
    workdir.mkdir(parents=True, exist_ok=True)
    wl = gen.generate(workload, seed, workdir)
    warm = Client(cli)
    warm.run(wl.warmup)
    if warm.failures:
        raise RuntimeError(f"warm-up job failed: {warm.failures[0]}")
    return cli, wl


def _remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):  # still in use by another run
        WORK.rmdir()


def setup_probe(args) -> int:
    """Set up, then time the yardstick, whose runs the caller takes off the
    probe's wall time and uses to gauge the machine's speed."""
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        setup(args.workload, args.seed, workdir)
    finally:
        _remove_workdir(workdir)
    print(json.dumps([yardstick_time() for _ in range(YARDSTICK_NEAREST)]))
    return 0


def time_setups(args) -> list[tuple[float, float]]:
    """Wall time of fresh interpreters that only set up, one after another:
    (raw, at the usual speed), the latter divided by the slowdown the
    yardstick shows in each interpreter right after its set-up."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        runs = json.loads(proc.stdout.strip().splitlines()[-1])
        dt = wall - sum(runs)
        times.append((dt, dt * YARDSTICK_S / statistics.median(runs)))
    return times


# --- provenance ----------------------------------------------------------


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "latval").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # exported checkouts have only the hash
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seed": seed,
        "latval_commit": commit,
        "latval_source_sha256": digest.hexdigest()[:16],
    }


# --- metrics ---------------------------------------------------------------


def end_to_end(client: Client, passes: int, setup_times: list[tuple[float, float]]) -> list[tuple]:
    n_jobs = len(client.times) // passes
    raw = job_times(client.times, n_jobs)
    jobs = job_times(client.normalized(), n_jobs)
    p90 = percentile(jobs, 90)
    beyond = sum(t > p90 for t in jobs)
    basis = f"{len(jobs)} jobs, each the median of {passes} runs"
    rows = [
        ("setup_s", statistics.median(t for _, t in setup_times), "s",
         f"median of {len(setup_times)} fresh processes; "
         f"raw {statistics.median(t for t, _ in setup_times):.4g}"),
        ("jobs_per_s", len(jobs) / sum(jobs), "1/s", f"{basis}; raw {len(raw) / sum(raw):.4g}"),
        ("job_ms_p50", 1000 * percentile(jobs, 50), "ms",
         f"{basis}; raw {1000 * percentile(raw, 50):.4g}"),
        ("job_ms_p90", 1000 * p90, "ms",
         f"{basis}, {beyond} beyond p90; raw {1000 * percentile(raw, 90):.4g}"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
    ]
    if client.check_time:
        rows.append(("checks_per_s", client.records * client.slowdown() / client.check_time, "1/s",
                     "property records per second of check-job time (not in BENCHMARK.json)"))
    rows.append(("failed_frac", len(client.failures) / client.attempted, "frac",
                 f"{len(client.failures)} of {client.attempted} jobs (not in BENCHMARK.json: 0 when correct)"))
    return rows


def per_layer(tracer, fns: dict, traced: Client, traced_passes: int, untraced: Client) -> list[tuple]:
    n_jobs = len(traced.times) // traced_passes
    per = 1.0 / traced_passes
    sec = per / traced.slowdown()  # seconds per pass at the usual speed
    wall = sum(traced.times)

    def layer_sum(layer: str, col: int, names=None) -> float:
        return sum(row[col] for (lay, name), row in fns.items()
                   if lay == layer and (names is None or name in names))

    def count(key: str) -> float:
        return tracer.counts.get(key, 0.0)

    def ratio(kept: float, total: float) -> float:
        return kept / total if total else 0.0

    rows = []
    for layer in ("intervals", "stepfn", "fubini", "valuation", "report", "oag", "lattice",
                  "gf2", "borel", "sequences", "uniformity", "cli"):
        if layer not in ("report", "sequences", "uniformity"):
            rows.append((f"{layer}.calls", per * layer_sum(layer, 0), "count", "per pass"))
        rows.append((f"{layer}.self_s", sec * layer_sum(layer, 2), "s", "per pass"))
    rows += [
        ("intervals.build_s", sec * layer_sum("intervals", 3), "s", "per pass, outermost builds"),
        ("intervals.atoms", per * count("intervals.atoms"), "count", "per pass (computed)"),
        ("intervals.pieces_max", tracer.maxima["intervals.pieces_max"], "count", "(computed)"),
        ("stepfn.build_s", sec * layer_sum("stepfn", 3), "s", "per pass, outermost builds"),
        ("stepfn.refined_bps", per * count("stepfn.refined_bps"), "count", "per pass (computed)"),
        ("stepfn.keep_ratio", ratio(count("stepfn.kept_bps"), count("stepfn.refined_bps")),
         "frac", "canonical over refined breakpoints (computed)"),
        ("fubini.make_s", sec * layer_sum("fubini", 1, {"step2d_make"}), "s", "per pass"),
        ("fubini.raster_cells", per * count("fubini.raster_cells"), "count",
         "per pass, refined grid atoms (computed)"),
        ("fubini.keep_ratio", ratio(count("fubini.kept_lines"), count("fubini.grid_lines")),
         "frac", "canonical over refined gridlines (computed)"),
        ("valuation.dist_calls", per * layer_sum("valuation", 0, {"dist"}), "count", "per pass"),
        ("report.records", per * layer_sum("report", 0, {"CheckReport.record"}), "count", "per pass"),
        ("instances.sample_s", sec * layer_sum("instances", 1, {"sample"}), "s", "per pass"),
        ("instances.eval_calls", per * layer_sum("instances", 0, {"eval"}), "count", "per pass"),
        ("instances.eval_s", sec * layer_sum("instances", 1, {"eval"}), "s", "per pass"),
        ("oag.num_bits_max", tracer.maxima["oag.num_bits_max"], "bits", "(computed)"),
        ("oag.den_bits_max", tracer.maxima["oag.den_bits_max"], "bits", "(computed)"),
        ("seqdsl.stage_s", sec * layer_sum("seqdsl", 1, {"stage"}), "s", "per pass"),
        ("cli.out_bytes", per * traced.out_bytes, "count", "per pass (computed)"),
        ("trace.wall_s", sec * wall, "s", "per pass, traced job time"),
        ("trace.overhead_frac",
         sum(job_times(traced.normalized(), n_jobs)) / sum(job_times(untraced.normalized(), n_jobs))
         - 1, "frac",
         "untraced over traced jobs_per_s, minus one"),
    ]
    return rows


def top_functions(fns: dict, passes: int, n: int = 12) -> list[str]:
    fns = sorted(fns.items(), key=lambda kv: -kv[1][2])[:n]
    return [f"#   {layer}.{name}: {row[0] / passes:.0f} calls, self {row[2] / passes:.4f} s, "
            f"incl {row[1] / passes:.4f} s per pass" for (layer, name), row in fns]


# --- main --------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "latval" / "__init__.py").is_file():
        print(f"no latval sources under {SRC}: run from a latval checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    setup_times = [] if args.trace else time_setups(args)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli, wl = setup(args.workload, args.seed, workdir)
        if len(wl.jobs) < MIN_JOBS:
            raise RuntimeError(f"{args.workload} has {len(wl.jobs)} jobs, fewer than {MIN_JOBS}")
        print(f"# latval benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"# env {json.dumps(provenance(args.seed))}")
        print(f"# inputs {json.dumps(wl.stats.summary())}")
        print(f"# client: 1, closed loop, {len(wl.jobs)} jobs per pass")
        if args.trace:
            from spans import Tracer

            untraced = Client(cli)
            run_passes(untraced, wl.jobs, 0.4 * args.seconds)
            tracer = Tracer()
            tracer.install()
            client = Client(cli, tracer)
            passes = run_passes(client, wl.jobs, 0.6 * args.seconds)
            tracer.uninstall()
            client.failures += untraced.failures
            client.attempted += untraced.attempted
            fns = tracer.per_function()
            rows = per_layer(tracer, fns, client, passes, untraced)
            print(f"# traced passes: {passes}, spans: {len(tracer.start)}; top self time:")
            print("\n".join(top_functions(fns, passes)))
        else:
            client = Client(cli)
            passes = run_passes(client, wl.jobs, args.seconds)
            rows = end_to_end(client, passes, setup_times)
        print(f"# machine slowdown {client.slowdown():.4f}: raw over normalized job time; the "
              f"yardstick's usual time is {1000 * YARDSTICK_S:g} ms")
    finally:
        _remove_workdir(workdir)

    for name, value, unit, note in rows:
        print(f"{name} {value:.6g} {unit}" + (f"  # {note}" if note else ""))
    for failure in client.failures[:FAILURES_SHOWN]:
        print(f"FAILED {failure}", file=sys.stderr)
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"]: m["unit"]
                    for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows if name in declared}
    wrong = [n for n, unit in declared.items() if metrics.get(n, {}).get("unit") != unit]
    if wrong:
        raise RuntimeError(f"metrics missing or in other units than BENCHMARK.json: {wrong}")
    result = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
