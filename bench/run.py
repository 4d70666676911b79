"""Benchmark of the fuzzykripke command line.

One job is one CLI subcommand: ``fuzzykripke.cli.main(argv)`` runs in this
process on generated model files, with stdout captured, and is timed from
the call to its complete output.  One client runs the jobs of a workload
as a closed loop: one untimed warm-up round, whose outputs are checked
after the loop, then timed rounds, each in a seeded shuffled order, until
``--seconds`` have passed and every job has run MIN_REPEATS times.

The host's speed drifts by up to a factor of two over seconds to minutes,
so each job runs right after the fixed probe of ``speed.py`` and every
time is reported in normalised seconds: scaled to a machine on which the
probe takes a millisecond (see ``speed.normalise``).  ``job_p50_s`` and
``job_p90_s`` are the median and 90th percentile of the normalised times
of all timed runs, ``jobs_per_s`` is their number over their sum, and
``setup_s`` is the normalised time to import ``fuzzykripke.cli`` in a
fresh interpreter.  The report line gives the same figures in wall-clock
seconds and the probe times, so that the drift can be seen.

Run from the root of a checkout:

    python3 bench/run.py --workload dense --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
loop, then one more round with every library layer wrapped (see
``tracing.py``) and reports the per-layer totals of that round, in
wall-clock seconds, and ``trace.overhead_ratio`` from normalised times.
The last line of stdout is the result object; the line before it is a
report with the environment, the input properties and any failures.

    python3 bench/run.py --record-reference

re-records the output digests of every workload on the default seed, which
later runs on that seed must reproduce exactly.  Only do this when a
change of the answers is intended.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from speed import normalise, probe
from tracing import Tracer
from workloads import (
    BUNDLED, DEFAULT_SEED, SIZES, WORKLOADS, JobFailure, build, output_properties,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
MIN_JOBS = 100  # timed runs at least, so that ten lie beyond job_p90_s
MIN_REPEATS = 2  # timed runs of every job
MAX_LOOP_S = 100  # a slow build stops early instead of running for many minutes
SETUP_REPEATS = 8
# import time first, while the interpreter is fresh; then the probe, whose
# median over a few runs gives the machine's speed at that moment
_IMPORT_TIMER = (
    "import statistics, sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
    "import fuzzykripke.cli; t = time.perf_counter() - t; from speed import probe; "
    "print(t, statistics.median(probe() for _ in range(15)))"
)


def digest(code, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:24]


def run_job(main, argv: list[str]) -> tuple[float, int | None, str]:
    """Seconds, exit code and stdout of one CLI call; a crash has code None."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crashing job is a failed job, not a failed benchmark
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


def run_round(jobs, main, tracer=None) -> list[tuple[float, int | None, str]]:
    results = []
    for job in jobs:
        results.append(run_job(main, job.argv))
        if tracer is not None:
            tracer.end_job()
    return results


def timed_loop(jobs, main, seconds: float, seed: int):
    """Timed runs of every job, in shuffled rounds, each right after a probe,
    until ``seconds`` have passed and each job has MIN_REPEATS runs.

    Returns the job index, seconds and probe seconds of every run, each
    job's output digests and the wall time of the loop.
    """
    runs, digests = [], [[] for _ in jobs]
    order = list(range(len(jobs)))
    shuffle = random.Random(f"order:{seed}").shuffle
    start = time.perf_counter()
    while True:
        shuffle(order)
        for i in order:
            probe_s = probe()
            seconds_taken, code, out = run_job(main, jobs[i].argv)
            runs.append((i, seconds_taken, probe_s))
            digests[i].append(digest(code, out))
            wall = time.perf_counter() - start
            if wall >= MAX_LOOP_S or (
                wall >= seconds and len(runs) >= MIN_JOBS
                and min(map(len, digests)) >= MIN_REPEATS
            ):
                return runs, digests, wall


def verify(workload, outputs, reference) -> dict[int, str]:
    """Failure reasons of the jobs whose output in ``outputs`` is wrong."""
    failures = {}
    for i, (job, (_, code, out)) in enumerate(zip(workload.jobs, outputs)):
        if code is None:
            failures[i] = f"raised {out}"
            continue
        try:
            job.check(code, out)
        except JobFailure as exc:
            failures[i] = str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            failures[i] = f"malformed output: {exc!r}"
        if reference and job.name in reference and reference[job.name] != digest(code, out):
            failures.setdefault(i, "output digest differs from the reference")
    return failures


def count_failed(failures: dict[int, str], digests: list[list[str]], expected: list[str]) -> int:
    """Runs that failed a check or whose output differs from the warm-up's."""
    return sum(
        i in failures or d != expected[i] for i, runs in enumerate(digests) for d in runs
    )


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """Seconds to import fuzzykripke.cli, each in a fresh interpreter, with
    the probe time measured in that interpreter right after."""
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, probe_s = map(float, done.stdout.split()[-2:])
        samples.append((seconds, probe_s))
    return samples


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` inside the checkout only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def input_properties(workload, outputs) -> dict:
    ns = [n for p in workload.pairs for n in p["n"]]
    universes = [p["universe"] for p in workload.pairs]
    return {
        "pairs": len(workload.pairs),
        "n": sorted(set(ns)),
        "universe_max": max(universes),
        "universe_mean": round(statistics.fmean(universes), 2),
        "density_mean": round(statistics.fmean(p["density"] for p in workload.pairs), 4),
        **output_properties([(code, out) for _, code, out in outputs]),
    }


def load_reference(name: str, scale: str, seed: int):
    """Reference digests that apply to this run: every job's on the default
    seed, and on other seeds those of the jobs on bundled pairs, which no
    seed changes."""
    if not REFERENCE.is_file():
        return None
    reference = json.loads(REFERENCE.read_text()).get(f"{name}@{scale}")
    if reference is None or seed == DEFAULT_SEED:
        return reference
    return {job: d for job, d in reference.items() if job.split("/")[0] in BUNDLED}


def run(name: str, seed: int, seconds: float, trace: bool, scale: str, workdir: Path) -> dict:
    # half the set-up samples before the loop and half after it, so that a
    # slow or fast spell of the machine does not decide the median alone
    setup = [] if trace else measure_setup(SETUP_REPEATS // 2)

    import fuzzykripke.cli as cli

    workload = build(name, seed, scale, workdir, SRC)
    warmup = run_round(workload.jobs, cli.main)
    expected = [digest(code, out) for _, code, out in warmup]
    # the inputs and the warm-up outputs stay alive through the loop; a CLI
    # process would not carry them, so the collector is kept off them
    gc.collect()
    gc.freeze()
    runs, digests, wall = timed_loop(workload.jobs, cli.main, seconds, seed)
    gc.unfreeze()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not trace:
        setup += measure_setup(SETUP_REPEATS - len(setup))

    seconds_taken = [t for _, t, _ in runs]
    probes = [p for _, _, p in runs]
    normalised = normalise(seconds_taken, probes)

    if trace:
        tracer, traced = Tracer(), []
        with tracer.installed():
            main = tracer.span("cli.main", cli.main)
            for job in workload.jobs:
                probe_s = probe()
                traced.append((probe_s, *run_job(main, job.argv)))
                tracer.end_job()
        for i, (_, _, code, out) in enumerate(traced):
            digests[i].append(digest(code, out))
        metrics, absent = tracer.metrics()
        by_job = [[] for _ in workload.jobs]
        for (i, _, _), t in zip(runs, normalised):
            by_job[i].append(t)
        traced_times = normalise([t for _, t, _, _ in traced], [p for p, _, _, _ in traced])
        # per job, against its own untraced runs, so that neither the mix of
        # jobs nor the machine's speed enters the ratio
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(t / statistics.median(ts) for t, ts in zip(traced_times, by_job)),
            "unit": "ratio",
        }
    else:
        absent = []
        metrics = {
            "job_p50_s": {"value": statistics.median(normalised), "unit": "s"},
            "job_p90_s": {"value": statistics.quantiles(normalised, n=10)[-1], "unit": "s"},
            "jobs_per_s": {"value": len(normalised) / sum(normalised), "unit": "1/s"},
            "setup_s": {"value": statistics.median(normalise(*zip(*setup))), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    failures = verify(workload, warmup, load_reference(name, scale, seed))
    failed = count_failed(failures, digests, expected) + len(failures)
    attempted = sum(map(len, digests)) + len(warmup)
    report = {
        "workload": name,
        "scale": scale,
        "trace": int(trace),
        "environment": environment(seed),
        "inputs": input_properties(workload, warmup),
        "jobs_per_round": len(workload.jobs),
        "samples": len(runs),
        "loop_s": round(wall, 3),
        "wall_clock": {
            "job_p50_s": statistics.median(seconds_taken),
            "job_p90_s": statistics.quantiles(seconds_taken, n=10)[-1],
            "jobs_per_s": len(runs) / wall,
            "setup_s": statistics.median(t for t, _ in setup) if setup else None,
        },
        "probe_s": {"median": statistics.median(probes), "min": min(probes), "max": max(probes)},
        "error_rate": failed / attempted,
        "failures": [
            {"job": workload.jobs[i].name, "reason": reason} for i, reason in sorted(failures.items())
        ][:10],
        "absent_metrics": absent,
    }
    return {
        "report": report,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }


def record_reference(workdir: Path) -> int:
    import fuzzykripke.cli as cli

    reference = {}
    for name in SIZES:
        for scale in SIZES[name]:
            sub = workdir / f"{name}-{scale}"
            sub.mkdir()
            workload = build(name, DEFAULT_SEED, scale, sub, SRC)
            first = run_round(workload.jobs, cli.main)
            failures = verify(workload, first, None)
            if failures:
                print(f"error: {name}@{scale} fails its checks: {failures}", file=sys.stderr)
                return 1
            reference[f"{name}@{scale}"] = {
                job.name: digest(code, out) for job, (_, code, out) in zip(workload.jobs, first)
            }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, reference.values()))} digests to {REFERENCE.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "fuzzykripke" / "cli.py").is_file():
        print(f"error: no fuzzykripke sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".bench_work" / f"{args.workload or 'reference'}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_reference:
            return record_reference(workdir)
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
