"""Machine-speed reference kernel.

The benchmark shares its machine with other work, which slows every
computation by up to ~1.6x for seconds at a time.  To keep figures
comparable between runs, each timed repeat is bracketed by runs of a fixed
kernel that uses no bdris code.  The repeat's time is then scaled by
``nominal_s / kernel time``: its cost on a machine where the kernel takes
``nominal_s`` seconds.  The kernel mixes interpreter-bound small-matrix work,
like the per-row bookkeeping of a trial, with an optional complex SVD of a
given (batched) shape, like the phase stacks or M x M kernels of a trial, so
each workload can match its own mix.  A change to bdris moves the repeat time and not the kernel.
"""

from __future__ import annotations

import time

import numpy as np


class Reference:
    def __init__(self, python_iters: int, svd_shape: tuple):
        rng = np.random.default_rng(0)
        self._small = [rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
                       for _ in range(8)]
        self._svd_shape = svd_shape
        self._iters = python_iters

    def __call__(self) -> float:
        """Run the kernel once and return its wall time in seconds."""
        start = time.perf_counter()
        acc = 0.0
        for k in range(self._iters):
            a = self._small[k % len(self._small)]
            s = np.linalg.svd(a @ a.conj().T, compute_uv=False)
            acc += float(np.sum(np.log2(1.0 + s)))
            acc += len({"k": k, "v": format(acc, ".17g")}["v"])
        if self._svd_shape:
            # built per call, so the kernel holds no memory between runs
            rng = np.random.default_rng(1)
            shape = self._svd_shape
            np.linalg.svd(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                          compute_uv=False)
        return time.perf_counter() - start
