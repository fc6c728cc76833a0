"""Benchmark of the qutrit-qkd package, one workload per run.

    python3 perfbench/run.py --workload keygen_pipeline --seed 1 --seconds 20 --trace 0

Paths are resolved from this file, so the working directory does not
matter.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of BENCHMARK.json with ``--trace 0``, every per-layer metric with
``--trace 1``.  The lines before it describe the machine and give the
workload's own figures by name, each with its unit.  Exits 2 without a
result when the package source is missing.  README.md describes the
workloads and metrics.
"""

import os

# Before numpy loads: one thread in this process and in its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracer import Trace, Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"          # temporary job directories and saved traces
SETUP_REPEATS = 5
SETUP_IMPORT = "import qutrit_qkd, qutrit_qkd.cli"


def import_seconds(probe: SpeedProbe) -> float:
    """Median time, at reference speed, of a fresh interpreter importing the
    package and its CLI: what every CLI invocation pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_IMPORT], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        t1 = perf_counter()
        if proc.returncode != 0:
            raise SystemExit(f"error: cannot import the package from {SRC}:\n{proc.stderr}")
        times.append((t1 - t0) * probe.speed(t0, t1))
    return statistics.median(times)


def prepare(workload_cls, seed: int, workdir: str, smoke: bool = False):
    """Set up a workload and time the set-up: fresh-interpreter imports, then
    input generation (exact reference values included) and warm-up.
    Returns (workload, set-up seconds at reference speed)."""
    with SpeedProbe("interpreter") as probe:
        imports = import_seconds(probe)
        t0 = perf_counter()
        workload = workload_cls(seed, workdir, smoke)
        try:
            workload.warm_up()
        except Exception:  # the jobs will fail too, and be counted
            traceback.print_exc(file=sys.stderr)
        t1 = perf_counter()
    return workload, imports + (t1 - t0) * probe.speed(t0, t1)


def measure(workload, seconds: float, min_jobs: int = 1) -> list:
    """Run jobs from job 0 until ``seconds`` have passed and at least
    ``min_jobs`` have run; set each job's speed."""
    jobs = []
    with SpeedProbe(workload.probe_kernel) as probe:
        t0 = perf_counter()
        while len(jobs) < min_jobs or perf_counter() - t0 < seconds:
            jobs.append(workload.run_job(len(jobs)))
    for job in jobs:
        job.speed = probe.speed(job.began, job.ended)
    return jobs


def traced_run(workload, seconds: float):
    """Trace the workload's first ``trace_jobs`` jobs, then measure untraced
    for the rest of the time, from the same jobs on, for the overhead.
    Returns (all jobs, untraced jobs, per-layer metrics)."""
    t0 = perf_counter()
    n = workload.trace_jobs
    tracer = Tracer()
    tracer.install()
    try:
        traced = [workload.run_job(j, tracer.span) for j in range(n)]
    finally:
        tracer.uninstall()
    untraced = measure(workload, seconds - (perf_counter() - t0), min_jobs=n)
    overhead = sum(j.seconds for j in traced) / sum(j.seconds for j in untraced[:n])
    facts = {}
    for job in traced:
        for key, value in job.facts.items():
            facts[key] = facts.get(key, 0) + value
    metrics = layer_metrics(Trace(tracer), n, facts, overhead)
    tracer.save(OUT / f"trace-{workload.name}.npz")
    return traced + untraced, untraced, metrics


def git_revision() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def peak_rss_mb() -> float:
    """High-water resident memory of this process.  VmHWM starts afresh at
    exec; ru_maxrss would also count the launching process's memory."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(workload, seconds: float, trace: bool, setup_s: float) -> tuple[list, dict]:
    """Measure a prepared workload; return (report lines, result object)."""
    if trace:
        jobs, timed, layers = traced_run(workload, seconds)
    else:
        jobs = timed = measure(workload, seconds)
    attempted = len(jobs) * len(workload.operations)
    failed = sum(len(j.failed) for j in jobs) + workload.finish(jobs)

    end_to_end = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "job_norm_p50_ms": (1e3 * statistics.median(j.seconds * j.speed for j in timed), "ms"),
    }
    shown = {
        **end_to_end,
        "job_p50_ms": (1e3 * statistics.median(j.seconds for j in timed), "ms"),
        "speed": (statistics.median(j.speed for j in timed), "ratio"),
        **workload.report(timed),
        "fail_ratio": (failed / attempted, "ratio"),
    }
    lines = [
        f"# workload {workload.name}, seed {workload.seed}, {len(timed)} timed jobs of "
        f"{len(workload.operations)} operations, one caller, closed loop, trace {int(trace)}",
        f"# machine: nproc {os.cpu_count()}, cpu {cpu_model()}, python "
        f"{platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}, "
        f"git {git_revision()}",
        f"# single-threaded (BLAS/OpenMP threads = 1), so no layer waits on another; "
        f"speed probe: {workload.probe_kernel} kernel",
        *(f"# {line}" for line in workload.lines(timed)),
        *(f"metric {name} {float(value)!r} {unit}" for name, (value, unit) in shown.items()),
    ]
    if trace:
        lines += [f"layer {name} {float(value)!r} {unit}"
                  for name, (value, unit) in layers.items()]
    metrics = layers if trace else end_to_end
    return lines, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qutrit_qkd" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    imported = Path(sys.modules["qutrit_qkd"].__file__).resolve()
    if not imported.is_relative_to(SRC):
        print(f"error: imported {imported}, not the source under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload, setup_s = prepare(WORKLOADS[args.workload], args.seed, workdir)
        lines, result = run(workload, args.seconds, bool(args.trace), setup_s)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
