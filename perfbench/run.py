"""Closed-loop benchmark of topoleak: one single-threaded client runs jobs
of one workload back to back for a fixed time and checks their outputs.

    python3 perfbench/run.py --workload sweep10 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half with every layer wrapped, and prints the per-layer
metrics. The last line of standard output is one JSON object. The full
result (environment, seeds, job times, checks) and, for traced runs, the
spans are written under ``.bench_work/results/`` of the checkout. See
README.md in this directory.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # setup_s counts from here: before any other import

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("sweep10", "gat30", "cli50")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
QUALITY_JOBS = 5  # quality metrics use jobs 0..4 only, so they repeat bit-exactly
TRACE_PHASE_MIN_JOBS = 2
# setup_s is the median of this process's set-up and that of fresh processes
# that stop once set up: over ten seeds one sample spread 0.19-0.37 of its median.
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "cells_per_s": "cells/s",
    "job_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "fraction",
    "auc_mean": "1",
    "best_f1_mean": "1",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up time in seconds and exit")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def load_program():
    """Import topoleak from this checkout's src/, never from elsewhere."""
    if not (SRC / "topoleak" / "__init__.py").is_file():
        raise SystemExit(f"error: no topoleak sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import topoleak

    if Path(topoleak.__file__).resolve().parent != SRC / "topoleak":
        raise SystemExit(f"error: imported topoleak from {topoleak.__file__}, not {SRC}")


def make_workload(name: str, seed: int, workdir: Path):
    import workloads

    if name == "sweep10":
        return workloads.Sweep10(seed)
    if name == "gat30":
        return workloads.Gat30(seed)
    return workloads.Cli50(seed, workdir)


@dataclass
class Job:
    index: int
    seed: int
    wall: float
    traced: bool
    result: object  # workloads.JobResult


def run_job(workload, k: int, workdir: Path, tracer=None) -> Job:
    """One job: ``run`` is timed; reading back and checking is not."""
    from workloads import JobResult

    seed = workload.job_input(k)
    jobdir = workdir / f"job{k}"
    scope = tracer.job_scope(k) if tracer is not None else nullcontext()
    t0 = time.perf_counter()
    try:
        with scope:
            raw = workload.run(seed, jobdir)
        wall = time.perf_counter() - t0
        result = workload.finish(raw, jobdir)
    except Exception as exc:  # job boundary: the failure is counted and reported
        wall = time.perf_counter() - t0
        result = JobResult(workload.cells_per_job, 0, problems=[f"{type(exc).__name__}: {exc}"])
    shutil.rmtree(jobdir, ignore_errors=True)
    return Job(k, seed, wall, tracer is not None, result)


def run_phase(workload, first: int, seconds: float, min_jobs: int, workdir: Path, tracer=None):
    jobs = []
    t0 = time.perf_counter()
    while len(jobs) < min_jobs or time.perf_counter() - t0 < seconds:
        jobs.append(run_job(workload, first + len(jobs), workdir, tracer))
    return jobs


def setup_samples(args, own: float) -> list[float]:
    """``own`` and the set-up times of fresh ``--setup-only`` processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample exited {proc.returncode}: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def _git(*cmd) -> str | None:
    try:
        proc = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain") if commit else None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
    }


def end_to_end(jobs: list[Job], setup_s: float) -> dict:
    attempted = sum(j.result.cells for j in jobs)
    failed = sum(j.result.failed for j in jobs)
    evals = [ev for j in jobs[:QUALITY_JOBS] for ev in j.result.evals]

    def mean(key):
        return statistics.fmean(ev[key] for ev in evals) if evals else 0.0

    return {
        "cells_per_s": (attempted - failed) / sum(j.wall for j in jobs),
        "job_p50_s": statistics.median(j.wall for j in jobs),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": (attempted - failed) / attempted,
        "auc_mean": mean("auc"),
        "best_f1_mean": mean("best_f1"),
        # varies too much between seeds on cli50 to carry a bound; reported only
        "f1_05_mean": mean("f1_05"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads BLAS; this process and its children only
    load_program()
    import layers
    from tracer import Tracer

    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workload = make_workload(args.workload, args.seed, workdir)
    # Job inputs, job 0's included, are generated untimed in run_job: sweep10's
    # seed screen costs a seed-dependent amount and would make setup_s noisy.
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        print(repr(setup_s))
        return 0

    tracer = None
    if args.trace:
        plain = run_phase(workload, 0, args.seconds / 2, TRACE_PHASE_MIN_JOBS, workdir)
        tracer = Tracer()
        with layers.install(tracer):
            traced = run_phase(
                workload, len(plain), args.seconds / 2, TRACE_PHASE_MIN_JOBS, workdir, tracer
            )
        jobs = plain + traced
    else:
        jobs = run_phase(workload, 0, args.seconds, QUALITY_JOBS, workdir)

    rerun = run_job(workload, 0, workdir)
    if rerun.result.fingerprint != jobs[0].result.fingerprint or rerun.result.problems:
        jobs[0].result.problems.append("job 0 rerun: outputs are not bit-identical")

    # set-up is reported with tracing off only
    setups = [setup_s] if args.trace else setup_samples(args, setup_s)
    shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(j.result.cells for j in jobs)
    failed = sum(j.result.failed for j in jobs)
    problems = [f"job {j.index}: {p}" for j in jobs for p in j.result.problems]
    if args.trace:
        overhead = (
            statistics.median(j.wall for j in traced) / statistics.median(j.wall for j in plain) - 1
        )
        values = layers.per_layer_metrics(tracer.spans, tracer.counts, len(traced), overhead)
        units = dict(layers.PER_LAYER)
    else:
        values = end_to_end(jobs, statistics.median(setups))
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    unregistered = {name: v for name, v in values.items() if name not in units}

    env = environment()
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "job_seeds": [j.seed for j in jobs],
        "skipped_seeds": getattr(workload, "skipped_seeds", []),
        "jobs": [
            {"index": j.index, "seed": j.seed, "wall_s": j.wall, "traced": j.traced,
             **asdict(j.result)}
            for j in jobs
        ],
        "setup_samples_s": setups,
        "missing_spans": tracer.missing if tracer else [],
        "problems": problems,
        "metrics": metrics,
        "unregistered_metrics": unregistered,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if tracer is not None:
        with gzip.open(results / f"{stem}.spans.jsonl.gz", "wt") as fh:
            for s in tracer.spans:
                fh.write(json.dumps({"workload": args.workload, **asdict(s)}) + "\n")

    walls = [j.wall for j in jobs]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  jobs {len(jobs)}"
          f"  job wall s min/median/max {min(walls):.3f}/{statistics.median(walls):.3f}"
          f"/{max(walls):.3f}")
    print("environment " + json.dumps(env))
    print("job seeds " + json.dumps([j.seed for j in jobs]))
    if tracer is not None and tracer.missing:
        print("missing spans " + ", ".join(tracer.missing))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for name, v in unregistered.items():
        print(f"  {name:34s} {v:.6g} (not in BENCHMARK.json)")
    print(f"  error_rate {failed / attempted:.6g} ({failed} failed of {attempted} cells)")
    verdict = "PASS" if not problems and not failed else "FAIL"
    print(f"output checks: {verdict}")
    for p in problems[:20]:
        print(f"  {p}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
