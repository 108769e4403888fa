"""Per-layer tracing of bdris from outside the package.

``traced(tracer)`` replaces each public layer function on the name its
callers look up (``harness.build_channel_set``, ``designs.principal_angles``,
``numpy.linalg.svd``, ...) with a wrapper that records a span, and restores
the originals on exit.  No source file of the package changes.

A span's self time is its duration minus the time covered by its child
spans.  Spans are aggregated per name as they close, so memory stays flat
however long the run is.  BLAS-level calls additionally record their operand
shape and a flop count computed from that shape (Golub & Van Loan operation
counts); the flops are computed, not measured.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np
import numpy.linalg

from bdris import designs, harness, metrics, qstem


def _channel_m(channels, *args, **kwargs):
    return channels.m


def _theta_m(cls, theta, *args, **kwargs):
    return len(theta)


# (owner, attribute, span name, label function).  A label function maps the
# call's arguments to an extra key, the RIS size M, for per-M rows.
LAYER_SPANS = (
    (harness, "build_channel_set", "channel.build", None),
    (harness, "budget_for_reference_snr", "channel.budget", None),
    (designs, "compact_svd", "linalg.compact_svd", None),
    (designs, "principal_angles", "linalg.principal_angles", None),
    (designs, "orthonormal_complement", "linalg.orthonormal_complement", None),
    (qstem, "orthonormal_complement", "linalg.orthonormal_complement", None),
    (designs, "solve_maxdet", "designs.solve_maxdet", _channel_m),
    (designs.ScatteringMatrix, "from_theta", "designs.from_theta", _theta_m),
    (designs, "unitary_baseline", "designs.unitary_baseline", _channel_m),
    (designs, "random_symmetric_unitary", "designs.random_symmetric", None),
    (designs, "phase_correction", "designs.phase_correction", None),
    (metrics, "equivalent_channel", "metrics.equivalent_channel", None),
    (metrics, "abs_det", "metrics.abs_det", None),
    (metrics, "rate_gap_bound", "metrics.rate_gap_bound", None),
    (metrics, "d_max", "metrics.d_max", None),
    (metrics, "achievable_rate", "metrics.achievable_rate", None),
    (qstem, "synthesize_qstem", "qstem.synthesize", None),
    (qstem, "build_qstem_system", "qstem.build_system", None),
    (qstem, "b_to_theta", "qstem.b_to_theta", None),
    (qstem, "theta_to_b", "qstem.theta_to_b", None),
    (qstem, "cayley_with_phase_fallback", "qstem.cayley_fallback", None),
    (qstem, "complete_to_unitary", "qstem.complete_to_unitary", None),
    (harness, "run_experiment", "harness.run", None),
    (harness, "csv_bytes", "harness.csv", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in LAYER_SPANS))
BLAS_OPS = ("svd", "lstsq", "solve", "eigvals")


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _svd_flops(args, kwargs):
    a = np.asarray(args[0])
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    if not _arg(args, kwargs, 2, "compute_uv", True):
        return a, 4 * m * n**2 - 4 * n**3 / 3, "values"
    if _arg(args, kwargs, 1, "full_matrices", True):
        return a, 4 * m**2 * n + 8 * m * n**2 + 9 * n**3, "full"
    return a, 14 * m * n**2 + 8 * n**3, "thin"


def _lstsq_flops(args, kwargs):
    a = np.asarray(args[0])
    m, n = max(a.shape), min(a.shape)
    return a, 4 * m * n**2 - 4 * n**3 / 3, "gelsd"


def _solve_flops(args, kwargs):
    a, b = np.asarray(args[0]), np.asarray(args[1])
    n = a.shape[-1]
    rhs = 1 if b.ndim == 1 else b.shape[-1]
    return a, 2 * n**3 / 3 + 2 * n**2 * rhs, f"rhs{rhs}"


def _eigvals_flops(args, kwargs):
    a = np.asarray(args[0])
    return a, 10 * a.shape[-1] ** 3, "general"


_BLAS_FLOPS = {
    "svd": _svd_flops,
    "lstsq": _lstsq_flops,
    "solve": _solve_flops,
    "eigvals": _eigvals_flops,
}


class Tracer:
    """Aggregates spans per name: call count, self time, per-label self time,
    and for BLAS kernels per-shape call counts and computed flops."""

    def __init__(self, ris_sizes=()):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.label_calls = defaultdict(int)  # (name, label) -> calls
        self.label_self_s = defaultdict(float)  # (name, label) -> seconds
        self.shapes = defaultdict(lambda: [0, 0.0])  # shape key -> [calls, flops]
        self.flops = defaultdict(float)  # blas op -> flops
        self.mxm_svd_calls = 0
        self.rotated_fallbacks = 0
        self._ris_sizes = frozenset(ris_sizes)
        self._child_s = [0.0]  # child time covered inside each open span

    def wrap(self, name, fn, label=None, on_call=None):
        clock = time.perf_counter
        stack = self._child_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                own = duration - stack.pop()
                stack[-1] += duration
                self.calls[name] += 1
                self.self_s[name] += own
                if label is not None:
                    key = (name, label(*args, **kwargs))
                    self.label_calls[key] += 1
                    self.label_self_s[key] += own
            if on_call is not None:
                start = clock()
                on_call(args, kwargs, result)
                stack[-1] += clock() - start  # bookkeeping is nobody's self time
            return result

        return wrapper

    def _record_blas(self, op):
        def on_call(args, kwargs, result):
            a, flops, kind = _BLAS_FLOPS[op](args, kwargs)
            if np.iscomplexobj(a):
                flops *= 4  # a complex multiply-add is four real ones
            flops *= int(np.prod(a.shape[:-2], dtype=np.int64))  # batched stacks
            dtype = "complex" if np.iscomplexobj(a) else "real"
            shape = "x".join(str(d) for d in a.shape)
            entry = self.shapes[f"{op} {shape} {dtype} {kind}"]
            entry[0] += 1
            entry[1] += flops
            self.flops[op] += flops
            if op == "svd" and a.shape[-1] == a.shape[-2] and a.shape[-1] in self._ris_sizes:
                self.mxm_svd_calls += 1

        return on_call

    def _record_cayley(self, args, kwargs, result):
        if result[0] != 0.0:
            self.rotated_fallbacks += 1


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    saved = []

    def patch(owner, attr, wrapped):
        saved.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, wrapped)

    try:
        for owner, attr, name, label in LAYER_SPANS:
            original = inspect.getattr_static(owner, attr)
            on_call = tracer._record_cayley if name == "qstem.cayley_fallback" else None
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(name, original.__func__, label))
            else:
                wrapped = tracer.wrap(name, original, label, on_call)
            patch(owner, attr, wrapped)
        # numpy.linalg.cond (used by qstem.b_to_theta) looks its SVD up in
        # numpy's implementation module, so that name is wrapped as well.
        impl = sys.modules.get(getattr(numpy.linalg.cond, "__wrapped__", numpy.linalg.cond).__module__)
        for op in BLAS_OPS:
            original = getattr(numpy.linalg, op)
            wrapped = tracer.wrap(f"blas.{op}", original, on_call=tracer._record_blas(op))
            patch(numpy.linalg, op, wrapped)
            if impl is not None and impl is not numpy.linalg and getattr(impl, op, None) is original:
                patch(impl, op, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
