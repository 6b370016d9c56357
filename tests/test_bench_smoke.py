"""The benchmark's workloads run clean, plain and traced.

`bench/run.py` counts an operation that raises as failed and still ends
with its JSON record, so a broken workload shows only there.  Here every
workload of `bench/workloads.py` and its known-answer runs make one pass,
once plain and once under the tracer of `bench/tracing.py`: no operation
may raise, every check must come back empty, and a traced pass must count
node evaluations and surface integrals.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

CASES = {**workloads.WORKLOADS, "known-answers": workloads.KnownAnswers()}


def one_pass(workload, out_dir: Path) -> dict:
    """The check results of one pass over the workload's operations."""
    if hasattr(workload, "prepare"):
        workload.prepare(out_dir)
    outputs = {name: thunk() for name, thunk in workload.operations()}
    problems = workload.check(outputs)
    assert set(problems) == set(outputs)
    return problems


@pytest.mark.parametrize("name", list(CASES))
def test_one_plain_pass_is_clean(name, tmp_path):
    problems = one_pass(CASES[name], tmp_path)
    assert {op: found for op, found in problems.items() if found} == {}


@pytest.mark.parametrize("name", list(CASES))
def test_one_traced_pass_is_clean_and_counted(name, tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed():
        start = tracer.snapshot()
        problems = one_pass(CASES[name], tmp_path)
        metrics = tracer.since(start)
    assert {op: found for op, found in problems.items() if found} == {}
    assert metrics["surface.nodes_evaluated"] > 0
    assert metrics["quadrature.integrate_batch_calls"] > 0
