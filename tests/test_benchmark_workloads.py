"""The benchmark drives the package through ``benchmarks/workloads.py``; an
API change that breaks a workload must fail here, not only when the
benchmark runs.  One batch of each workload runs at its default seed."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load("workloads")
LAYERS = load("tracing").LAYERS


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_batches_succeed_and_repeat(name, tmp_path, monkeypatch):
    monkeypatch.setattr(WORKLOADS, "TMP_DIR", tmp_path)
    pkg = SimpleNamespace(**{layer: importlib.import_module(f"rosselab.{layer}")
                             for layer in LAYERS})
    workload = WORKLOADS.WORKLOADS[name]
    inputs = workload.setup(pkg)
    first, _ = WORKLOADS.run_batch(workload, pkg, inputs, workload.default_seed)
    assert len(first) == workload.n_operations(inputs)
    assert all(op.ok for op in first), first
    second, _ = WORKLOADS.run_batch(workload, pkg, inputs, workload.default_seed)
    assert [op.digest for op in second] == [op.digest for op in first]
