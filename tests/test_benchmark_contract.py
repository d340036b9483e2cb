"""The benchmark's workloads still drive the package: a change to the API
they call fails here, at small sizes, rather than only in the benchmark
run (perfbench/selfcheck.py checks the metrics too, but takes about a
minute)."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["2d-1k-mix", "2d-10k-files", "3d-surface", "field-dense"])
def test_each_workload_prepares_runs_and_checks_one_op(workloads, name, tmp_path):
    assert name in workloads.WORKLOADS
    wl = workloads.build(name, 977, small=True)
    wl.prepare(tmp_path)
    i = wl.pool[0]
    assert wl.check(i, wl.op(i)) == []
    # a second op on the same input repeats its output bytes
    assert wl.check(i, wl.op(i)) == []
    assert wl.finish(tmp_path) == []
    assert all(g["fscore_mean"] > 0.5 for g in wl.quality.groups().values())
