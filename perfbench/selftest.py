"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a reduced size, in process, with tracing off and on,
and checks that every metric of BENCHMARK.json comes out with its unit, that
each workload prints its own figures with units, that the per-session and
per-evaluation counts hold, and that a deliberately wrong reference value
makes fail_ratio > 0.  Then runs run.py as a program, in the repository and
in a directory holding only BENCHMARK.json and perfbench/, where it must
exit nonzero without a result.  Exits 1 and lists the failures if any check
fails.
"""

import json
import shutil
import subprocess
import sys
import tempfile

import run

SECONDS = 0.5
SEED = 7
OWN_FIGURES = {
    "keygen_pipeline": ("simulate_s", "sift_s", "keygen_s"),
    "long_session": ("session_rounds_per_s",),
    "verdict_sweep": ("sessions_per_s", "session_p50_ms", "session_p99_ms"),
    "bell_optimize": ("optimize_unitary_s", "bell_phase_s", "gamma_opt_s"),
}
COUNTS = {  # per-layer counts that hold exactly at reduced size too
    "keygen_pipeline": {"protocol.tables_per_session": 9.0,
                        "protocol.mask_passes_per_session": 6.0,
                        "linalg.validations_per_session": 36.0},
    "long_session": {"protocol.tables_per_session": 9.0,
                     "protocol.mask_passes_per_session": 6.0,
                     "linalg.validations_per_session": 24.0},
    "verdict_sweep": {"protocol.tables_per_session": 9.0,
                      "protocol.mask_passes_per_session": 6.0,
                      "linalg.validations_per_session": 24.25},
    "bell_optimize": {"linalg.validations_per_s3_unitary": 16.0},
}


def check_metrics(where, metrics, expected, problems):
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        problems.append(f"{where}: metrics {sorted(got.items())} != {sorted(expected.items())}")


def in_process(problems):
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {trace: {m["name"]: m["unit"] for m in bench[key]}
                for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    if set(WORKLOADS) != {w["name"] for w in bench["workloads"]}:
        problems.append("BENCHMARK.json and workloads.py name different workloads")
    run.SETUP_REPEATS = 1
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for name, cls in WORKLOADS.items():
            for trace in (False, True):
                where = f"{name} trace {int(trace)}"
                workload, setup_s = run.prepare(cls, SEED, workdir, smoke=True)
                lines, result = run.run(workload, SECONDS, trace, setup_s)
                print(f"{where}: {result['attempted']} operations, {result['failed']} failed")
                if result["failed"] or not result["correct"]:
                    problems.append(f"{where}: {result['failed']} operations failed")
                check_metrics(where, result["metrics"], expected[trace], problems)
                shown = {line.split()[1]: line.split()[3] for line in lines
                         if line.startswith("metric ") and len(line.split()) == 4}
                for figure in (*OWN_FIGURES[name], "fail_ratio"):
                    if not shown.get(figure):
                        problems.append(f"{where}: {figure} not printed with a unit")
                if trace:
                    for metric, count in COUNTS[name].items():
                        value = result["metrics"][metric]["value"]
                        if value != count:
                            problems.append(f"{where}: {metric} = {value}, expected {count}")

            workload, setup_s = run.prepare(cls, SEED, workdir, smoke=True)
            workload.refs = {key: value + 1.0 for key, value in workload.refs.items()}
            lines, result = run.run(workload, SECONDS, False, setup_s)
            ratio = next(float(line.split()[2]) for line in lines
                         if line.startswith("metric fail_ratio "))
            print(f"{name} with a wrong reference: fail_ratio {ratio}")
            if not ratio > 0 or result["correct"]:
                problems.append(f"{name}: a wrong reference value still passes")


def as_program(problems):
    argv = [sys.executable, "perfbench/run.py", "--workload", "verdict_sweep",
            "--seed", str(SEED), "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        problems.append(f"run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    else:
        result = json.loads(last)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"run.py result keys {sorted(result)}")
        print(f"run.py as a program: {last}")

    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench", ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
        print(f"run.py without the package: exit {proc.returncode}, "
              f"{proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else ''}")
        if proc.returncode == 0 or "{" in proc.stdout:
            problems.append("run.py without the package did not fail cleanly")


def main() -> int:
    problems = []
    in_process(problems)
    as_program(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
