"""Each benchmark workload's operations, run once with their own output
checks, so that a package change that breaks the benchmark fails here."""

import importlib.util
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    # registered before it runs: its dataclasses look their module up
    spec = importlib.util.spec_from_file_location("bench_run_under_test", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["corpus", "regular", "near-circle",
                                      "sweep"])
def test_workload_operations_pass_their_checks(bench, workload, tmp_path):
    ops, _, _ = bench.setup(workload, 7, tmp_path / workload)
    attempted, failures = bench.check_outputs(ops, [bench.run_pass(ops)])
    assert failures == []
    assert attempted == len(ops) > 0
