"""Workload definitions and the correctness gate.

Each workload is a bdris experiment config generated from the benchmark seed
(used as ``master_seed``).  The program under test sees only the config text.
This module imports nothing from numpy or bdris, so the benchmark can load it
before it starts timing ``import bdris``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    template: str
    trials: int  # trials per timed repeat
    ris_sizes: tuple  # every M the workload evaluates; marks M x M kernels
    # Reference kernel matching the workload's mix (see reference.py) and its
    # median time on a quiet 2-core machine, the unit figures are scaled to.
    ref_python_iters: int
    ref_svd_shape: tuple  # () for none
    ref_nominal_s: float

    def config_text(self, seed: int) -> str:
        return self.template.format(trials=self.trials, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="snr_sweep",
            why="the paper's headline rate-vs-SNR figure at the reference 4x4, M=16 "
                "scenario; per-row SVD overhead dominates, phase correction, q-stem "
                "and large M are bypassed",
            template=(
                "experiment = rate_vs_snr\n"
                "trials = {trials}\n"
                "master_seed = {seed}\n"
                "n_t = 4\n"
                "n_r = 4\n"
                "m = 16\n"
                "rician_k = 2\n"
                "apply_path_loss = true\n"
                "direct_blocked = true\n"
                "snr_grid_db = 0, 5, 10, 15, 20, 25, 30\n"
                "designs = unitary_baseline, max_det_symmetric\n"
            ),
            trials=50,
            ris_sizes=(16,),
            ref_python_iters=300,
            ref_svd_shape=(),
            ref_nominal_s=0.008,
        ),
        Workload(
            name="direct_link",
            why="rate vs SNR with the direct link present; the 360-phase SVD stack "
                "of phase_correction, rerun for every SNR point, dominates",
            template=(
                "experiment = rate_vs_snr\n"
                "trials = {trials}\n"
                "master_seed = {seed}\n"
                "n_t = 4\n"
                "n_r = 4\n"
                "m = 16\n"
                "rician_k = 2\n"
                "apply_path_loss = true\n"
                "direct_blocked = false\n"
                "snr_grid_db = 0, 5, 10, 15, 20, 25, 30\n"
                "designs = max_det_symmetric, max_det_phase_corrected\n"
            ),
            trials=5,
            ris_sizes=(16,),
            ref_python_iters=150,
            ref_svd_shape=(1440, 4, 4),
            ref_nominal_s=0.012,
        ),
        Workload(
            name="qstem",
            why="q-stem synthesis at M=64, q=1..10 including the exact q=7; the "
                "dense lstsq, selection build and Cayley maps dominate",
            template=(
                "experiment = qstem_sweep\n"
                "trials = {trials}\n"
                "master_seed = {seed}\n"
                "n_t = 4\n"
                "n_r = 4\n"
                "m = 64\n"
                "q_grid = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10\n"
            ),
            trials=1,
            ris_sizes=(64,),
            ref_python_iters=300,
            ref_svd_shape=(256, 256),
            ref_nominal_s=0.025,
        ),
        Workload(
            name="large_m",
            why="m_sweep over M=16..1024; M x M SVDs in from_theta dominate, so "
                "low-rank Theta shows here and its small-M overhead on snr_sweep",
            template=(
                "experiment = m_sweep\n"
                "trials = {trials}\n"
                "master_seed = {seed}\n"
                "n_t = 4\n"
                "n_r = 4\n"
                "m_grid = 16, 64, 256, 1024\n"
                "designs = unitary_baseline, max_det_symmetric\n"
            ),
            trials=1,
            ris_sizes=(16, 64, 256, 1024),
            ref_python_iters=150,
            ref_svd_shape=(1024, 1024),
            ref_nominal_s=0.55,
        ),
    )
}

# q = 2r - 1 for the 4x4 qstem workload: the synthesis is exact there.
EXACT_Q = 7.0
DET_TOL = 1e-8
RESIDUAL_TOL = 1e-8
RATE_TOL = 1e-6


@dataclass(frozen=True)
class GateResult:
    rows: int
    error_rows: int
    problems: tuple


def check_csv(data: bytes, experiment: str) -> GateResult:
    """Check the output CSV of one repeat against the paper's criteria.

    * every ``max_det_symmetric`` row attains d_max: |abs_det - d_max| / d_max
      <= 1e-8 (criterion 1);
    * for ``qstem_sweep``, every q = 7 row has residual <= 1e-8 and a rate
      within 1e-6 of the trial's ``max_det_fully_connected`` row (criterion 4);
    * every rate is finite.

    Rows with a non-empty ``error`` column are counted, not checked.
    """
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    problems = []
    errors = 0
    maxdet_checked = exact_checked = 0
    full_rate = {
        row["trial"]: float(row["rate_bits"])
        for row in rows
        if row["design"] == "max_det_fully_connected" and not row["error"]
    }
    for row in rows:
        where = f"trial {row['trial']} {row['design']} @ {row['sweep_value']}"
        if row["error"]:
            errors += 1
            continue
        rate = float(row["rate_bits"])
        if not math.isfinite(rate):
            problems.append(f"{where}: rate {rate} is not finite")
        if row["design"] == "max_det_symmetric":
            maxdet_checked += 1
            det, ceiling = float(row["abs_det"]), float(row["d_max"])
            if not abs(det - ceiling) <= DET_TOL * ceiling:
                problems.append(f"{where}: |det| {det!r} misses d_max {ceiling!r}")
        if row["design"] == "qstem" and float(row["sweep_value"]) == EXACT_Q:
            exact_checked += 1
            residual = float(row["qstem_residual"])
            if not residual <= RESIDUAL_TOL:
                problems.append(f"{where}: residual {residual!r} > {RESIDUAL_TOL}")
            full = full_rate.get(row["trial"])
            if full is None or not abs(rate - full) <= RATE_TOL:
                problems.append(f"{where}: rate {rate!r} != fully connected {full!r}")
    if not rows:
        problems.append("no rows")
    if maxdet_checked == 0:
        problems.append("no max_det_symmetric row to check")
    if experiment == "qstem_sweep" and exact_checked == 0:
        problems.append(f"no qstem row at q = {EXACT_Q:g} to check")
    return GateResult(rows=len(rows), error_rows=errors, problems=tuple(problems))
