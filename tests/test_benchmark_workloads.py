"""One operation of each benchmark workload, run and checked as the benchmark
does (perfbench/run.py): a program change that makes an operation fail its
output checks, or fire a traced hook an unexpected number of times, fails
here too."""

import sys
from pathlib import Path

import pytest

import hqlink
import hqlink.cli  # noqa: F401  (binds hqlink.cli, as the benchmark does)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import HOOKS, WORKLOADS, LinkRun  # noqa: E402

OPERATIONS = [*WORKLOADS.values(), LinkRun()]


@pytest.mark.parametrize("workload", OPERATIONS, ids=lambda w: f"{type(w).__name__}-{w.name}")
def test_one_traced_operation_passes_its_checks(workload, tmp_path):
    workload.prepare(hq=hqlink, work=tmp_path)
    tracer = Tracer()
    tracer.install(HOOKS)
    try:
        op = run.timed_op(workload, hqlink, run.DEFAULT_SEED, tmp_path)
    finally:
        tracer.uninstall()
    res = run.finish_op(workload, hqlink, run.DEFAULT_SEED, op)
    assert res.problems == []
    assert res.digest
    assert run.check_calls(tracer.spans, workload.expected_calls()) == []
