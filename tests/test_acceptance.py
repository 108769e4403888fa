"""Acceptance gate: every acceptance criterion at its stated tolerance.

Each test prints one `[PASS] criterion N` / `[FAIL] criterion N` line
(visible with ``pytest -s``).  The battery behind criteria 1-3 spans
r in {1, 2, 4} and M in {2r, 8, 16, 32}, alternating raw i.i.d. Gaussian and
Rician/path-loss structured channels, with a sprinkling of asymmetric
(N_r != N_t) shapes.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from bdris import designs, harness, metrics, qstem
from bdris.channel import (
    ChannelParams,
    ChannelSet,
    Geometry,
    build_channel_set,
    derive_seed,
    gen_rayleigh,
)
from bdris.linalg import log_majorizes

SRC = Path(__file__).resolve().parent.parent / "src"


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {label}")
        raise
    print(f"[PASS] criterion {label}")


def haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(z)[0]


def top_singular_values(channels):
    r = min(channels.n_t, channels.n_r)
    return (
        np.linalg.svd(channels.f, compute_uv=False)[:r],
        np.linalg.svd(channels.g, compute_uv=False)[:r],
    )


def rate(channels, theta, rho):
    return metrics.achievable_rate(metrics.equivalent_channel(channels, theta), rho)


BATTERY_SIZE = 200


@pytest.fixture(scope="module")
def battery():
    """200 solved Max-Det cases; returns (cases, solve_seconds)."""
    specs = sorted({(r, m) for r in (1, 2, 4) for m in (2 * r, 8, 16, 32)})
    channel_sets = []
    for i in range(BATTERY_SIZE):
        r, m = specs[i % len(specs)]
        seed = derive_seed(5000, i)
        n_r = r + 1 if i % 4 == 2 else r  # mix in asymmetric shapes
        if i % 2 == 0:
            channels = ChannelSet(
                f=gen_rayleigh(n_r, m, derive_seed(seed, 0)),
                g=gen_rayleigh(r, m, derive_seed(seed, 1)),
            )
        else:
            params = ChannelParams(n_t=r, n_r=n_r, m=m, rician_k=2.0)
            channels = build_channel_set(Geometry(), params, seed, blocked=True)
        channel_sets.append(channels)

    start = time.perf_counter()
    cases = [(ch, designs.solve_maxdet(ch)) for ch in channel_sets]
    elapsed = time.perf_counter() - start
    return cases, elapsed


def test_criterion_1_maxdet_optimality(battery):
    cases, elapsed = battery
    with criterion("1 (Max-Det optimality, 200 channels)"):
        assert len(cases) == BATTERY_SIZE
        for channels, solution in cases:
            r = min(channels.n_t, channels.n_r)
            det = metrics.abs_det(channels.f @ solution.theta @ channels.g.conj().T)
            ceiling = metrics.d_max(channels)
            assert abs(det - ceiling) / ceiling <= 1e-8
            t = solution.theta
            assert np.linalg.norm(t - t.T) <= 1e-10 * np.linalg.norm(t)
            svals = np.linalg.svd(t, compute_uv=False)
            assert svals[0] <= 1.0 + 1e-10
            assert solution.rank == 2 * r
            assert solution.left.shape[1] == 2 * r
        assert elapsed < 10.0, f"solving 200 channels took {elapsed:.2f} s"


def test_criterion_2_block_structure(battery):
    cases, _ = battery
    with criterion("2 (block alignment of every solution)"):
        for channels, solution in cases:
            alignment = designs.verify_block_structure(channels, solution)
            assert alignment.off_diag_norm <= 1e-8
            assert alignment.t1_unitarity_defect <= 1e-8
            assert alignment.t1_pairing_defect <= 1e-8


def test_criterion_3_rate_identities_and_bounds(battery):
    cases, _ = battery
    with criterion("3 (rate decomposition, error bound, gap bound)"):
        for channels, solution in cases:
            sf, sg = top_singular_values(channels)
            baseline = designs.unitary_baseline(channels)
            h_maxdet = metrics.equivalent_channel(channels, solution)
            h_base = metrics.equivalent_channel(channels, baseline)
            for snr_db in (0.0, 10.0, 20.0, 30.0):
                rho = 10.0 ** (snr_db / 10.0)
                for h in (h_maxdet, h_base):
                    parts = metrics.rate_decomposition(h, rho)
                    total = metrics.achievable_rate(h, rho)
                    assert abs(sum(parts) - total) <= 1e-10
                    assert metrics.error_term_bound(h, rho) >= parts[2]
                gap = metrics.achievable_rate(h_base, rho) - metrics.achievable_rate(h_maxdet, rho)
                assert gap >= -1e-9  # exact r=1 ties resolve within float noise
                assert gap <= metrics.rate_gap_bound(sf, sg, rho) + 1e-9


def test_criterion_4_gap_vanishes_with_snr():
    with criterion("4 (rate gap shrinks with SNR; bound magnitude)"):
        # 4x4, M=16, reference scenario: mean gap at 20 dB below mean gap at 0 dB
        config = harness.parse_config(
            "experiment = rate_vs_snr\n"
            "trials = 200\n"
            "master_seed = 41\n"
            "snr_grid_db = 0, 20\n"
            "designs = unitary_baseline, max_det_symmetric\n"
        )
        records = harness.run_experiment(config)
        rates = {}
        for rec in records:
            assert not rec.error
            rates[(rec.trial, rec.design, rec.sweep_value)] = rec.rate_bits
        gaps = {
            snr: np.mean([
                rates[(t, "unitary_baseline", snr)] - rates[(t, "max_det_symmetric", snr)]
                for t in range(config.trials)
            ])
            for snr in (0.0, 20.0)
        }
        assert gaps[20.0] < gaps[0.0]

        # 2x2, M=16, unit-variance channels at rho = 1: gap below the bound,
        # and the mean bound sits at the expected ~1e-2 order of magnitude
        gap_sum, bound_sum = 0.0, 0.0
        for t in range(200):
            seed = derive_seed(42, t)
            channels = ChannelSet(
                f=gen_rayleigh(2, 16, derive_seed(seed, 0)),
                g=gen_rayleigh(2, 16, derive_seed(seed, 1)),
            )
            solution = designs.solve_maxdet(channels)
            baseline = designs.unitary_baseline(channels)
            gap_sum += rate(channels, baseline, 1.0) - rate(channels, solution, 1.0)
            sf, sg = top_singular_values(channels)
            bound_sum += metrics.rate_gap_bound(sf, sg, 1.0)
        mean_gap, mean_bound = gap_sum / 200, bound_sum / 200
        assert mean_gap <= mean_bound
        assert 1e-3 <= mean_bound <= 1e-1


def test_criterion_5_qstem_realization():
    with criterion("5 (q-stem recovery at q = 2r - 1)"):
        assert qstem.element_count(7, 16) == 2 * 4 * 16 - 2 * 16 + 4 == 100
        config = harness.parse_config(
            "experiment = qstem_sweep\n"
            "trials = 25\n"
            "master_seed = 51\n"
            "q_grid = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10\n"
        )
        records = harness.run_experiment(config)
        assert all(not rec.error for rec in records)
        full_rate = {r.trial: r.rate_bits for r in records
                     if r.design == "max_det_fully_connected"}
        for trial in range(config.trials):
            rows = [r for r in records if r.design == "qstem" and r.trial == trial]
            residuals = [r.qstem_residual for r in rows]
            assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
            at7 = next(r for r in rows if r.sweep_value == 7.0)
            assert at7.qstem_residual <= 1e-8
            assert abs(at7.rate_bits - full_rate[trial]) <= 1e-6


def test_criterion_6_cayley_round_trip():
    with criterion("6 (Cayley round trip on 100 surfaces)"):
        count = 0
        seed = 0
        while count < 100:
            seed += 1
            theta = designs.random_symmetric_unitary(8, seed=seed).theta
            if np.min(np.abs(np.linalg.eigvals(theta) + 1.0)) < 1e-3:
                continue
            back = qstem.b_to_theta(qstem.theta_to_b(theta)).theta
            assert np.linalg.norm(back - theta) <= 1e-9
            count += 1


def test_criterion_7_log_majorization_family():
    with criterion("7 (rotated family: log-majorization and rate ordering)"):
        seed = derive_seed(71, 0)
        channels = ChannelSet(
            f=gen_rayleigh(2, 16, derive_seed(seed, 0)),
            g=gen_rayleigh(2, 16, derive_seed(seed, 1)),
        )
        sf, sg = top_singular_values(channels)
        matched = sf * sg
        baseline = designs.unitary_baseline(channels)
        det_base = metrics.abs_det(metrics.equivalent_channel(channels, baseline))
        rng = np.random.default_rng(72)
        for _ in range(50):
            rotated = designs.rotated_family(channels, haar_unitary(rng, 2))
            h = metrics.equivalent_channel(channels, rotated)
            svals = np.linalg.svd(h, compute_uv=False)
            assert log_majorizes(svals, matched, tol=1e-9)
            assert abs(metrics.abs_det(h) - det_base) / det_base <= 1e-8
            for rho in (1.0, 10.0, 100.0):
                assert rate(channels, baseline, rho) >= metrics.achievable_rate(h, rho) - 1e-9


def test_criterion_8_minimum_singular_value_growth():
    with criterion("8 (sigma_min grows like M; gap shrinks with M)"):
        config = harness.parse_config(
            "experiment = m_sweep\n"
            "trials = 200\n"
            "master_seed = 81\n"
            "n_t = 2\n"
            "n_r = 2\n"
            "rician_k = 0\n"
            "m_grid = 16, 64\n"
            "snr_grid_db = 10\n"
        )
        records = harness.run_experiment(config)
        assert all(not rec.error for rec in records)
        smin2 = {m: [] for m in (16, 64)}
        gaps = {m: {} for m in (16, 64)}
        for rec in records:
            m = int(rec.sweep_value)
            if rec.design == "max_det_symmetric":
                smin2[m].append(rec.sigma_min_h**2)
            gaps[m].setdefault(rec.trial, {})[rec.design] = rec.rate_bits
        ratio = np.mean(smin2[64]) / np.mean(smin2[16])
        assert 8.0 <= ratio <= 32.0, f"sigma_min^2 ratio {ratio}"
        mean_gap = {
            m: np.mean([
                per["unitary_baseline"] - per["max_det_symmetric"]
                for per in gaps[m].values()
            ])
            for m in (16, 64)
        }
        assert mean_gap[64] < mean_gap[16]
        summary = harness.m_sweep_summary(records)
        assert summary[64] * 64 > summary[16] * 16  # mean sigma_min itself grows


def test_criterion_9_direct_link_sweep():
    with criterion("9 (direct-link sweep: weak, comparable, dominant)"):
        config = harness.parse_config(
            "experiment = direct_link_sweep\n"
            "trials = 200\n"
            "master_seed = 91\n"
            "apply_path_loss = false\n"
            "direct_scale = 10\n"   # puts link parity near a = 1, mid-sweep
            "snr_grid_db = 10\n"
            "direct_scale_grid = 0.001, 1, 20\n"
            "designs = max_det_symmetric, max_det_phase_corrected, random_symmetric\n"
        )
        records = harness.run_experiment(config)
        assert all(not rec.error for rec in records)
        means = {}
        for rec in records:
            means.setdefault((rec.design, rec.sweep_value), []).append(rec.rate_bits)
        means = {key: float(np.mean(vals)) for key, vals in means.items()}

        # weak direct link: phase correction changes nothing measurable
        assert abs(means[("max_det_phase_corrected", 0.001)]
                   - means[("max_det_symmetric", 0.001)]) <= 0.05
        # dominant direct link: every design within 5 percent, no-RIS included
        all_designs = ("max_det_symmetric", "max_det_phase_corrected",
                       "random_symmetric", "identity", "no_ris")
        at20 = [means[(d, 20.0)] for d in all_designs]
        assert (max(at20) - min(at20)) / max(at20) <= 0.05
        # phase correction never hurts the mean at any scale
        for scale in (0.001, 1.0, 20.0):
            assert (means[("max_det_phase_corrected", scale)]
                    >= means[("max_det_symmetric", scale)] - 1e-12)


def test_criterion_10_byte_identical_reruns(tmp_path):
    with criterion("10 (deterministic CSV bytes)"):
        for text in (
            "experiment = rate_vs_snr\ntrials = 3\nn_t = 2\nn_r = 2\nm = 8\n"
            "snr_grid_db = 0, 10\ndesigns = unitary_baseline, max_det_symmetric\n",
            "experiment = qstem_sweep\ntrials = 2\nn_t = 2\nn_r = 2\nm = 8\n"
            "q_grid = 1, 3\n",
        ):
            config = harness.parse_config(text)
            paths = [tmp_path / f"{config.experiment}_{i}.csv" for i in range(3)]
            harness.emit_csv(harness.run_experiment(config), paths[0])
            harness.emit_csv(harness.run_experiment(config), paths[1])
            # the third run is the CLI in a fresh interpreter
            config_path = tmp_path / f"{config.experiment}.cfg"
            config_path.write_text(text)
            subprocess.run([sys.executable, "-m", "bdris.cli", "run", "--config", str(config_path),
                            "--out", str(paths[2])], check=True, capture_output=True,
                           env={**os.environ, "PYTHONPATH": str(SRC)})
            assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
