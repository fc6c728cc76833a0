"""The benchmark's four workloads.

Each workload turns the run seed into its inputs and runs jobs one at a time
(closed loop, one caller that waits for each result).  A job is a fixed
sequence of operations; an operation is one CLI command, session or solve.
It fails on a nonzero exit code, an exception or a failed correctness check.
Each workload puts a different layer on the critical path; README.md gives
the reasons and the per-layer metric each one is meant to move.
"""

from __future__ import annotations

import io
import os
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from qutrit_qkd import bell, cli, protocol

ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ "
MESSAGE_CHARS = 300
MEASURED_COEFFICIENTS = "0.642,0.546,0.539"
# Closed forms, kept apart from the package's own constants.
QUANTUM_MAX = 4.0 / (6.0 * np.sqrt(3.0) - 9.0)
NONMAX_QUANTUM_MAX = 1.0 + np.sqrt(11.0 / 3.0)


def job_seed(seed: int, j: int) -> int:
    """Seed of job ``j`` of a run: the same run seed gives the same jobs."""
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def no_span(name: str):
    return nullcontext()


class OperationFailed(Exception):
    """An operation ended with a nonzero exit code; the job cannot go on."""


def machine_block(out: str) -> dict:
    """The ``name value`` lines after the CLI's machine-readable marker."""
    lines = out.splitlines()
    start = lines.index("-- machine readable --")
    return dict(line.partition(" ")[::2] for line in lines[start + 1:])


def read_digits(path) -> np.ndarray:
    """Trits of a key file, parsed here rather than by the program under test."""
    with open(path) as fh:
        text = "".join(line.strip() for line in fh if not line.startswith("#"))
    return np.frombuffer(text.encode(), dtype=np.uint8).astype(np.int64) - ord("0")


def decode(trits: np.ndarray) -> str:
    groups = trits.reshape(-1, 3)
    return "".join(ALPHABET[i] for i in groups[:, 0] * 9 + groups[:, 1] * 3 + groups[:, 2])


@dataclass
class Job:
    """Timings and outcomes of one job."""

    span: object = no_span
    stages: dict = field(default_factory=dict)    # operation -> seconds
    failed: set = field(default_factory=set)      # operations that failed
    facts: dict = field(default_factory=dict)     # numbers summed over traced jobs
    outcome: dict = field(default_factory=dict)   # results the workload checks at the end
    began: float = 0.0
    ended: float = 0.0
    speed: float = 1.0                            # probe's reference time / its time during the job

    @property
    def seconds(self) -> float:
        return sum(self.stages.values())

    def timed(self, stage: str, fn, *args, span: str | None = None, **kwargs):
        with self.span(span or f"bench.{stage}"):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            self.stages[stage] = perf_counter() - t0
        return result

    def cli(self, stage: str, argv: list) -> dict:
        """Run one CLI command in process and return its machine-readable block."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.timed(stage, cli.main, argv)
        if code != 0:
            self.failed.add(stage)
            raise OperationFailed(f"{stage}: exit code {code}: {err.getvalue().strip()}")
        return machine_block(out.getvalue())

    def check(self, stage: str, ok: bool) -> None:
        if not ok:
            self.failed.add(stage)


class Workload:
    name = ""
    operations: tuple = ()
    trace_jobs = 1                  # jobs the traced run records
    probe_kernel = "interpreter"    # speed.KERNELS entry most like the critical path

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.refs: dict = {}        # exact values the checks compare against

    def run_job(self, j: int, span=no_span) -> Job:
        job = Job(span, began=perf_counter())
        try:
            self.job(j, job)
        except OperationFailed as exc:
            print(f"{self.name} job {j}: {exc}", file=sys.stderr)
        except Exception:  # the run goes on; the failure counts in fail_ratio
            print(f"{self.name} job {j} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        job.ended = perf_counter()
        job.failed.update(op for op in self.operations if op not in job.stages)
        return job

    def job(self, j: int, job: Job) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """First calls before the jobs (timed as set-up), so lazy imports and
        caches are ready."""

    def finish(self, jobs: list) -> int:
        """Checks over the whole run; returns the number of operations they fail."""
        return 0

    def report(self, jobs: list) -> dict:
        """The workload's own end-to-end figures: name -> (value, unit)."""
        return {}

    def lines(self, jobs: list) -> list:
        return []


def _median_stage(jobs, stage):
    times = [j.stages[stage] for j in jobs if stage in j.stages]
    return statistics.median(times) if times else float("nan")


class KeygenPipeline(Workload):
    """simulate -> sift -> reconcile -> encrypt -> decrypt through the CLI."""

    name = "keygen_pipeline"
    operations = ("simulate", "sift", "reconcile", "encrypt", "decrypt")

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir)
        self.rounds = 30_000 if smoke else 250_000
        rng = np.random.default_rng(seed)
        self.message = "".join(rng.choice(list(ALPHABET), size=MESSAGE_CHARS))
        visibility, crosstalk = protocol.calibrate_noise()
        source = protocol.SourceConfig(
            coefficients=protocol.REFERENCE_COEFFICIENTS, visibility=visibility,
            key_crosstalk=crosstalk, detection_efficiency=1.0)
        self.refs = {"s3": protocol.exact_session_s3(source)}

    def _chain(self, job: Job, seed: int, rounds: int, message: str, out: str) -> None:
        # --detection 1 is explicit: the profile's detection default could change.
        sim = job.cli("simulate", ["simulate", "--profile", "reference", "--detection", "1",
                                   "--rounds", str(rounds), "--seed", str(seed), "--out", out])
        job.facts["rounds"] = rounds
        job.facts["transcript_bytes"] = os.path.getsize(sim["transcript"])
        sift = job.cli("sift", ["sift", "--transcript", sim["transcript"],
                                "--out", os.path.join(out, "sift")])
        rec = job.cli("reconcile", ["reconcile", sift["key_a"], sift["key_b"],
                                    "--out", os.path.join(out, "reconciled")])
        enc = job.cli("encrypt", ["encrypt", message, "--key-file", rec["out_a"]])
        dec = job.cli("decrypt", ["decrypt", enc["cipher"], "--key-file", rec["out_b"]])

        job.check("sift", all(sim[k] == sift[k]
                              for k in ("s3_estimate", "s3_sigma", "qter", "key_length")))
        job.check("simulate", abs(float(sim["s3_estimate"]) - self.refs["s3"])
                  <= 5 * float(sim["s3_sigma"]))
        job.check("reconcile", int(rec["output_length"]) == 2 * int(rec["kept_blocks"]))
        n = 3 * len(message)
        cipher = np.array([int(c) for c in enc["cipher"]])
        key_a, key_b = read_digits(rec["out_a"])[:n], read_digits(rec["out_b"])[:n]
        job.check("encrypt", decode((cipher - key_a) % 3) == message)
        # B's reconciled key may still differ from A's; where a character's
        # three key trits agree, B must recover that character.
        agree = np.all(key_a.reshape(-1, 3) == key_b.reshape(-1, 3), axis=1)
        text = dec["text"]
        job.check("decrypt", len(text) == len(message)
                  and all(t == m for t, m, ok in zip(text, message, agree) if ok))
        job.facts["kept_blocks"] = int(rec["kept_blocks"])
        job.facts["discarded_blocks"] = int(rec["discarded_blocks"])

    def job(self, j, job):
        out = tempfile.mkdtemp(dir=self.workdir)
        try:
            self._chain(job, job_seed(self.seed, j), self.rounds, self.message, out)
        finally:
            shutil.rmtree(out)

    def warm_up(self):
        out = tempfile.mkdtemp(dir=self.workdir)
        try:
            self._chain(Job(), 0, 3_000, "WARM UP", out)
        finally:
            shutil.rmtree(out)

    def report(self, jobs):
        return {
            "simulate_s": (_median_stage(jobs, "simulate"), "s"),
            "sift_s": (_median_stage(jobs, "sift"), "s"),
            "keygen_s": (statistics.median(j.seconds for j in jobs), "s"),
        }


class LongSession(Workload):
    """One large in-memory session through the library, noisy source."""

    name = "long_session"
    operations = ("session",)
    probe_kernel = "array"

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir)
        self.rounds = 50_000 if smoke else 5_000_000
        self.source = protocol.SourceConfig(
            coefficients=protocol.REFERENCE_COEFFICIENTS, visibility=0.9,
            key_crosstalk=0.05, detection_efficiency=1.0)
        self.refs = {"s3": protocol.exact_session_s3(self.source)}

    def job(self, j, job):
        r = job.timed("session", protocol.run_protocol, self.rounds, self.source,
                      seed=job_seed(self.seed, j))
        job.facts["rounds"] = self.rounds
        job.check("session", abs(r.s3_estimate - self.refs["s3"]) <= 5 * r.s3_sigma)
        job.check("session", abs(sum(r.sifted_fractions) - 1.0) <= 1e-12)
        job.check("session", len(r.key_a) == len(r.key_b))

    def warm_up(self):
        protocol.run_protocol(10_000, self.source, seed=0)

    def report(self, jobs):
        return {"session_rounds_per_s":
                (self.rounds / _median_stage(jobs, "session"), "1/s")}


class VerdictSweep(Workload):
    """Many short sessions over four sources, cycled: fixed per-session cost."""

    name = "verdict_sweep"
    # A job is a batch of sessions, so the run's own records stay small
    # and peak memory does not grow with the number of sessions run.
    BATCH = 20
    operations = tuple(f"session_{k:02d}" for k in range(BATCH))
    trace_jobs = 20
    ROUNDS = 300

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir)
        visibility, crosstalk = protocol.calibrate_noise()
        # label -> (SourceConfig arguments, eavesdropper on arm B)
        self.sources = {
            "ideal": ({}, False),
            "visibility_0.69": ({"visibility": 0.69}, False),
            "calibrated": ({"coefficients": protocol.REFERENCE_COEFFICIENTS,
                            "visibility": visibility, "key_crosstalk": crosstalk}, False),
            "eve_b": ({}, True),
        }
        self.labels = list(self.sources)
        self.refs = {
            label: protocol.exact_session_s3(protocol.SourceConfig(**kwargs),
                                             protocol.EveConfig(enabled=eve, arm="B"))
            for label, (kwargs, eve) in self.sources.items()}

    def _session(self, label, seed):
        # Config construction and validation are part of each session's cost.
        kwargs, eve = self.sources[label]
        return protocol.run_protocol(self.ROUNDS, protocol.SourceConfig(**kwargs),
                                     protocol.EveConfig(enabled=eve, arm="B"), seed=seed)

    def job(self, j, job):
        results = job.outcome.setdefault("sessions", [])
        for k, stage in enumerate(self.operations):
            label = self.labels[k % len(self.labels)]
            r = job.timed(stage, self._session, label, job_seed(self.seed, j * self.BATCH + k),
                          span=f"bench.session.{label}")
            results.append((label, r.s3_estimate, r.secure))
        job.facts["rounds"] = self.ROUNDS * self.BATCH

    def warm_up(self):
        for label in self.labels:
            self._session(label, 0)

    def _by_source(self, jobs):
        """label -> [(S3 estimate, verdict)] over the run's sessions."""
        out = {label: [] for label in self.labels}
        for job in jobs:
            for label, s3, secure in job.outcome.get("sessions", ()):
                out[label].append((s3, secure))
        return out

    def finish(self, jobs):
        # Each source's mean estimate lies within 5 standard errors of its
        # exact value; otherwise every session of that source counts failed.
        failed = 0
        for label, results in self._by_source(jobs).items():
            s3 = [s for s, _ in results]
            ok = len(s3) >= 2 and abs(statistics.fmean(s3) - self.refs[label]) \
                <= 5 * statistics.stdev(s3) / np.sqrt(len(s3))
            failed += 0 if ok else len(s3)
        return failed

    def report(self, jobs):
        ms = np.array([t for job in jobs for t in job.stages.values()]) * 1e3
        return {
            "sessions_per_s": (len(ms) / float(ms.sum() / 1e3), "1/s"),
            "session_p50_ms": (float(np.percentile(ms, 50)), "ms"),
            "session_p99_ms": (float(np.percentile(ms, 99)), "ms"),
        }

    def lines(self, jobs):
        sessions = sum(len(job.stages) for job in jobs)
        out = [f"sessions {sessions}; p99 has {int(sessions * 0.01)} samples beyond it"]
        for label, results in self._by_source(jobs).items():
            s3 = [s for s, _ in results]
            if len(s3) >= 2:
                se = statistics.stdev(s3) / np.sqrt(len(s3))
                out.append(f"source {label}: {len(s3)} sessions, mean S3 "
                           f"{statistics.fmean(s3):.4f} +- {se:.4f} (exact "
                           f"{self.refs[label]:.4f}), SECURE in "
                           f"{sum(secure for _, secure in results)}")
        return out


class BellOptimize(Workload):
    """Exact S3 and settings optimization: two CLI solves and one library solve."""

    name = "bell_optimize"
    operations = ("optimize_unitary", "bell_phase", "gamma_opt")

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir)
        self.refs = {"quantum_max": QUANTUM_MAX, "nonmax_quantum_max": NONMAX_QUANTUM_MAX}

    def job(self, j, job):
        seed = job_seed(self.seed, j)
        uni = job.cli("optimize_unitary", ["optimize", "--family", "unitary",
                                           "--restarts", "1", "--seed", str(seed)])
        job.check("optimize_unitary",
                  float(uni["s3_optimized"]) >= self.refs["quantum_max"] - 1e-4)
        phase = job.cli("bell_phase", ["bell", "--coefficients", MEASURED_COEFFICIENTS,
                                       "--seed", str(seed)])
        job.check("bell_phase",
                  float(phase["s3_optimized"]) >= float(phase["s3_exact"]) - 1e-12)
        gamma = job.timed("gamma_opt", bell.optimize_gamma_family, tolerance=1e-8,
                          seed=seed, restarts=1)
        job.check("gamma_opt", abs(gamma.s3 - self.refs["nonmax_quantum_max"]) <= 1e-3)
        job.facts["nonconverged"] = ((uni["optimizer_converged"] != "1")
                                     + (phase["optimizer_converged"] != "1")
                                     + (not gamma.converged))

    def warm_up(self):
        state = np.diag([1.0, 1.0, 1.0]).astype(complex) / np.sqrt(3.0)
        bell.optimize_s3(state, family="unitary", tolerance=1e-2, restarts=1)
        bell.optimize_gamma_family(tolerance=1e-2, restarts=1)

    def report(self, jobs):
        return {
            "optimize_unitary_s": (_median_stage(jobs, "optimize_unitary"), "s"),
            "bell_phase_s": (_median_stage(jobs, "bell_phase"), "s"),
            "gamma_opt_s": (_median_stage(jobs, "gamma_opt"), "s"),
        }


WORKLOADS = {w.name: w for w in (KeygenPipeline, LongSession, VerdictSweep, BellOptimize)}
