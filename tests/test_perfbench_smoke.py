"""The benchmark's workloads still run against the library.

Builds every workload of ``perfbench/workloads.py`` at its smoke size and
runs one job untraced and one under the span tracer, which looks up each
layer module and ``protocol.Party.sift_masks`` by name.  Writes nothing
under ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_one_job_traced_and_untraced(name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=3, workdir=str(tmp_path), smoke=True)
    workload.warm_up()
    spans = tracer.Tracer()
    spans.install()
    try:
        traced = workload.run_job(0, spans.span)
    finally:
        spans.uninstall()
    assert traced.failed == set()
    assert any(not span.startswith("bench.") for span in spans.names)
    assert workload.run_job(1).failed == set()
