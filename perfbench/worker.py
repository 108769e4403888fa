"""One fresh benchmark process: set up a workload, then measure or trace it.

    python3 perfbench/worker.py {setup|measure|trace} WORKLOAD SEED SECONDS

Set-up is ``import bdris``, the config parse and one warm-up trial, timed
from before the import.  ``setup`` and ``measure`` follow it with about
SETUP_REF_S of runs of the workload's reference kernel (``reference.py``).
``measure`` then repeats parse_config -> run_experiment(threads=1) ->
csv_bytes with tracing off for SECONDS, with a reference run after each
repeat; ``trace`` alternates untraced and traced repeats for SECONDS.  The result is one JSON object on the last line of
standard output.  ``perfbench/run.py`` starts these processes; see its
docstring.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_csv

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REF_S = 0.1


def _setup(workload, seed):
    """Import the package, parse the config and run one warm-up trial."""
    start = time.perf_counter()
    import bdris
    from bdris import harness

    if Path(bdris.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported bdris from {bdris.__file__}, not from {SRC}")
    config = harness.parse_config(workload.config_text(seed))
    warm = harness.csv_bytes(harness.run_experiment(dataclasses.replace(config, trials=1)))
    setup_s = time.perf_counter() - start
    return harness, {"setup_s": setup_s, "warm_digest": hashlib.sha256(warm).hexdigest()}


def _reference(workload):
    """The workload's reference kernel and its median time over about
    SETUP_REF_S of runs (at least one), which scales the set-up time."""
    from reference import Reference

    reference = Reference(workload.ref_python_iters, workload.ref_svd_shape)
    runs = max(1, round(SETUP_REF_S / workload.ref_nominal_s))
    return reference, statistics.median(reference() for _ in range(runs))


def _repeat(harness, text):
    """One timed end-to-end repeat; returns (seconds, csv bytes, experiment)."""
    gc.collect()
    start = time.perf_counter()
    config = harness.parse_config(text)
    data = harness.csv_bytes(harness.run_experiment(config, threads=1))
    return time.perf_counter() - start, data, config.experiment


def _provenance():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_in_use": _openblas_threads(np),
    }


def _openblas_threads(np):
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _gate(data, experiment, digests):
    gate = check_csv(data, experiment)
    problems = list(gate.problems)
    if len(digests) != 1:
        problems.append(f"repeats produced {len(digests)} different CSV outputs")
    return gate, problems


def measure(workload, seed, seconds):
    harness, result = _setup(workload, seed)
    reference, setup_ref_s = _reference(workload)
    ref_s = [setup_ref_s]
    text = workload.config_text(seed)
    times, digests = [], set()
    deadline = time.perf_counter() + seconds
    first = None
    while not times or time.perf_counter() < deadline:
        elapsed, data, experiment = _repeat(harness, text)
        times.append(elapsed)
        ref_s.append(reference())
        digests.add(hashlib.sha256(data).hexdigest())
        first = first or data
    gate, problems = _gate(first, experiment, digests)
    return {
        **result,
        "setup_ref_s": setup_ref_s,
        "repeat_s": times,
        "ref_s": ref_s,
        "rows": gate.rows * len(times),
        "error_rows": gate.error_rows * len(times),
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": _provenance(),
    }


def trace(workload, seed, seconds):
    harness, result = _setup(workload, seed)
    import tracing

    text = workload.config_text(seed)
    tracer = tracing.Tracer(workload.ris_sizes)
    plain_s, traced_s, digests = [], [], set()
    deadline = time.perf_counter() + seconds
    first = None
    while not traced_s or time.perf_counter() < deadline:
        elapsed, data, experiment = _repeat(harness, text)
        plain_s.append(elapsed)
        digests.add(hashlib.sha256(data).hexdigest())
        first = first or data
        with tracing.traced(tracer):
            elapsed, data, _ = _repeat(harness, text)
        traced_s.append(elapsed)
        digests.add(hashlib.sha256(data).hexdigest())
    gate, problems = _gate(first, experiment, digests)
    return {
        **result,
        "repeat_s": plain_s,
        "traced_repeat_s": traced_s,
        # adjacent pairs see the same machine load
        "trace_overhead": statistics.median(t / p for t, p in zip(traced_s, plain_s)) - 1.0,
        "rows": gate.rows * (len(plain_s) + len(traced_s)),
        "error_rows": gate.error_rows * (len(plain_s) + len(traced_s)),
        "problems": problems,
        "spans": {
            name: {"calls": tracer.calls[name], "self_s": tracer.self_s[name]}
            for name in (*tracing.SPAN_NAMES, *(f"blas.{op}" for op in tracing.BLAS_OPS))
        },
        "per_m": [
            {"span": name, "m": m, "calls": calls, "self_s": tracer.label_self_s[(name, m)]}
            for (name, m), calls in sorted(tracer.label_calls.items())
        ],
        "blas_gflop": {op: tracer.flops[op] / 1e9 for op in tracing.BLAS_OPS},
        "blas_shapes": {
            key: {"calls": calls, "gflop": flops / 1e9}
            for key, (calls, flops) in sorted(tracer.shapes.items())
        },
        "mxm_svd_calls": tracer.mxm_svd_calls,
        "cayley_rotated": tracer.rotated_fallbacks,
        "provenance": _provenance(),
    }


def setup(workload, seed, seconds):
    _, result = _setup(workload, seed)
    return {**result, "setup_ref_s": _reference(workload)[1]}


def main(argv):
    mode, name, seed, seconds = argv
    result = {"setup": setup, "measure": measure, "trace": trace}[mode](
        WORKLOADS[name], int(seed), float(seconds)
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
