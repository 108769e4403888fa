"""The benchmark's contract with the package: ``perfbench/tracing.py`` patches
package attributes by name and ``perfbench/worker.py`` calls the harness, so
a rename or signature change there breaks the benchmark, not the package.

Each workload config runs for one trial, untraced and inside ``traced``, as
the worker does; both CSVs pass ``workloads.check_csv`` and are identical,
and every patched attribute is restored on exit.  The perfbench modules are
loaded from their files and not modified.
"""

import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy.linalg
import pytest

from bdris import harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def _patched():
    """Every (owner, attribute) ``traced`` replaces, with its current value."""
    names = [(owner, attr) for owner, attr, _, _ in tracing.LAYER_SPANS]
    names += [(numpy.linalg, op) for op in tracing.BLAS_OPS]
    return {(owner, attr): inspect.getattr_static(owner, attr) for owner, attr in names}


def test_every_traced_attribute_exists():
    for owner, attr, _, _ in tracing.LAYER_SPANS:
        assert hasattr(owner, attr), f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_trial_traced_and_untraced(name):
    workload = workloads.WORKLOADS[name]
    config = dataclasses.replace(harness.parse_config(workload.config_text(7)), trials=1)
    plain = harness.csv_bytes(harness.run_experiment(config, threads=1))
    before = _patched()
    tracer = tracing.Tracer(workload.ris_sizes)
    with tracing.traced(tracer):
        traced = harness.csv_bytes(harness.run_experiment(config, threads=1))
    after = _patched()
    assert all(after[key] is value for key, value in before.items())
    assert traced == plain
    assert tracer.calls["harness.run"] == 1 and tracer.calls["harness.csv"] == 1
    gate = workloads.check_csv(traced, config.experiment)
    assert gate.problems == () and gate.error_rows == 0 and gate.rows > 0
