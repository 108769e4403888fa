import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar

from bdris import designs, metrics
from bdris.channel import ChannelSet
from bdris.designs import (
    DegenerateChannelError,
    ScatteringMatrix,
    phase_correction,
    random_symmetric_unitary,
    rotated_family,
    solve_maxdet,
    unitary_baseline,
    verify_block_structure,
)
from bdris.linalg import log_majorizes

from conftest import maxdet_raw_svd, random_complex


def top_singular_values(channels):
    r = min(channels.n_t, channels.n_r)
    sf = np.linalg.svd(channels.f, compute_uv=False)[:r]
    sg = np.linalg.svd(channels.g, compute_uv=False)[:r]
    return sf, sg


class TestSolveMaxdet:
    def test_orthogonal_one_dim_subspaces(self):
        ch = ChannelSet(f=np.array([[1.0, 0.0]], dtype=complex),
                        g=np.array([[0.0, 1.0]], dtype=complex))
        sol, frame = solve_maxdet(ch)
        # the exchange matrix, up to one global pair phase
        assert_allclose(np.abs(sol.theta), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        det = metrics.abs_det(ch.f @ sol.theta @ ch.g.conj().T)
        assert det == pytest.approx(1.0, rel=1e-12)
        assert sol.rank == 2
        assert frame.s == 2

    def test_collinear_scalar_case(self):
        ch = ChannelSet(f=np.array([[2.0]], dtype=complex), g=np.array([[3.0]], dtype=complex))
        sol, frame = solve_maxdet(ch)
        assert_allclose(sol.theta, [[1.0]], atol=1e-12)
        h = ch.f @ sol.theta @ ch.g.conj().T
        assert h[0, 0] == pytest.approx(6.0, rel=1e-12)
        assert sol.rank == 1  # the difference vector degenerates and is dropped
        assert frame.s == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_attains_dmax(self, iid_channels, seed):
        ch = iid_channels(seed, n_t=2, n_r=2, m=8)
        sol, _ = solve_maxdet(ch)
        sf, sg = top_singular_values(ch)
        det = metrics.abs_det(ch.f @ sol.theta @ ch.g.conj().T)
        # oracle: the ceiling is the product of independently computed singular values
        assert det / (np.prod(sf) * np.prod(sg)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n_t,n_r,m", [(2, 5, 12), (5, 2, 12), (1, 3, 8), (4, 4, 9)])
    def test_asymmetric_shapes(self, iid_channels, n_t, n_r, m):
        ch = iid_channels(100 + n_t * n_r, n_t=n_t, n_r=n_r, m=m)
        r = min(n_t, n_r)
        sol, frame = solve_maxdet(ch)
        det = metrics.abs_det(ch.f @ sol.theta @ ch.g.conj().T)
        assert det == pytest.approx(metrics.d_max(ch), rel=1e-8)
        assert sol.rank == 2 * r
        assert frame.s == 2 * r

    def test_theta_invariants(self, iid_channels):
        ch = iid_channels(3, n_t=3, n_r=3, m=12)
        sol, frame = solve_maxdet(ch)
        t = sol.theta
        assert np.linalg.norm(t - t.T) <= 1e-10 * np.linalg.norm(t)
        svals = np.linalg.svd(t, compute_uv=False)
        assert svals[0] <= 1.0 + 1e-10
        # exactly 2r unit singular values, the rest negligible
        assert_allclose(svals[:6], 1.0, atol=1e-8)
        assert np.all(svals[6:] <= 1e-8)
        # Theta == Q Q^T
        assert np.linalg.norm(t - frame.q @ frame.q.T) < 1e-12

    def test_global_phase_leaves_det_unchanged(self, iid_channels):
        ch = iid_channels(4)
        sol, _ = solve_maxdet(ch)
        base = metrics.abs_det(ch.f @ sol.theta @ ch.g.conj().T)
        for phi in (0.3, 1.1, np.pi):
            det = metrics.abs_det(ch.f @ (np.exp(1j * phi) * sol.theta) @ ch.g.conj().T)
            assert det == pytest.approx(base, rel=1e-12)

    def test_zero_channel_rejected(self):
        ch = ChannelSet(f=np.zeros((2, 8), dtype=complex), g=np.ones((2, 8), dtype=complex))
        with pytest.raises(DegenerateChannelError):
            solve_maxdet(ch)

    def test_small_m_below_twice_dof(self, iid_channels):
        # two 2-dim subspaces of C^3 share a direction, so one difference
        # vector degenerates; the ceiling is still attained at rank 2r - 1
        ch = iid_channels(60, n_t=2, n_r=2, m=3)
        sol, frame = solve_maxdet(ch)
        det = metrics.abs_det(ch.f @ sol.theta @ ch.g.conj().T)
        assert det == pytest.approx(metrics.d_max(ch), rel=1e-8)
        assert sol.rank == 3
        assert frame.s == 3

    def test_m_equal_dof(self, iid_channels):
        # both subspaces fill C^2 entirely: every angle is zero
        ch = iid_channels(61, n_t=2, n_r=2, m=2)
        sol, _ = solve_maxdet(ch)
        det = metrics.abs_det(ch.f @ sol.theta @ ch.g.conj().T)
        assert det == pytest.approx(metrics.d_max(ch), rel=1e-8)
        assert sol.rank == 2

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6, 1e-5, 1e-3, 1e-1, 1.0])
    def test_nearly_coinciding_subspaces(self, eps):
        # G = conj(F) + eps N puts the two RIS subspaces within ~eps of each
        # other; the half-angle frame stays orthonormal and attains d_max
        rng = np.random.default_rng(int(-np.log10(eps)))
        for _ in range(50):
            f = random_complex(rng, 2, 8)
            ch = ChannelSet(f=f, g=f.conj() + eps * random_complex(rng, 2, 8))
            sol, frame = solve_maxdet(ch)
            det = metrics.abs_det(metrics.ris_channel(ch, sol))
            assert abs(det / metrics.d_max(ch) - 1.0) <= 1e-10
            assert np.linalg.norm(frame.q.conj().T @ frame.q - np.eye(frame.s)) <= 1e-12


class TestVerifyBlockStructure:
    def test_maxdet_solution_aligns(self, iid_channels):
        ch = iid_channels(5, n_t=2, n_r=2, m=8)
        sol, _ = solve_maxdet(ch)
        alignment = verify_block_structure(ch, sol)
        assert alignment.off_diag_norm < 1e-9
        assert alignment.t1_unitarity_defect < 1e-9
        assert alignment.t1_pairing_defect < 1e-9
        assert alignment.t_matrix.shape == (8, 8)
        assert alignment.t1.shape == (2, 2)

    def test_zero_theta(self, iid_channels):
        ch = iid_channels(6, n_t=2, n_r=2, m=8)
        alignment = verify_block_structure(ch, ScatteringMatrix.from_theta(np.zeros((8, 8)), "custom"))
        assert_allclose(alignment.t1, 0.0, atol=1e-15)
        assert alignment.t1_unitarity_defect == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_random_surface_breaks_structure(self, iid_channels):
        # sampled counterexample: the check has power against generic surfaces
        ch = iid_channels(7, n_t=2, n_r=2, m=8)
        alignment = verify_block_structure(ch, random_symmetric_unitary(8, seed=123))
        assert alignment.off_diag_norm > 0.1

    def test_dimension_mismatch(self, iid_channels):
        with pytest.raises(ValueError):
            verify_block_structure(iid_channels(8), ScatteringMatrix.from_theta(np.eye(5), "custom"))


class TestUnitaryBaseline:
    def test_equal_links_projector(self, iid_channels):
        ch = iid_channels(9, n_t=2, n_r=2, m=8)
        same = ChannelSet(f=ch.f, g=ch.f)
        theta = unitary_baseline(same).theta
        # projector onto the top right-singular subspace of F
        assert np.linalg.norm(theta @ theta - theta) < 1e-10
        svals = np.linalg.svd(same.f @ theta @ same.f.conj().T, compute_uv=False)
        sf = np.linalg.svd(same.f, compute_uv=False)[:2]
        assert_allclose(svals, sf**2, rtol=1e-9)

    def test_singular_values_are_matched_products(self, iid_channels):
        ch = iid_channels(10, n_t=2, n_r=2, m=8)
        theta = unitary_baseline(ch)
        assert theta.rank == 2
        svals = np.linalg.svd(metrics.equivalent_channel(ch, theta), compute_uv=False)
        sf, sg = top_singular_values(ch)
        assert_allclose(np.sort(svals)[::-1], np.sort(sf * sg)[::-1], rtol=1e-9)

    def test_rank_one_alignment(self, iid_channels):
        ch = iid_channels(11, n_t=1, n_r=1, m=6)
        theta = unitary_baseline(ch)
        det = metrics.abs_det(metrics.equivalent_channel(ch, theta))
        sf, sg = top_singular_values(ch)
        assert det == pytest.approx(sf[0] * sg[0], rel=1e-10)


class TestRotatedFamily:
    def test_identity_rotation_is_baseline(self, iid_channels):
        ch = iid_channels(12)
        assert_allclose(
            rotated_family(ch, np.eye(2)).theta, unitary_baseline(ch).theta, atol=1e-14
        )

    def test_planar_rotation_keeps_det(self, iid_channels):
        ch = iid_channels(13)
        phi = np.pi / 4
        u = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        rotated = rotated_family(ch, u)
        base = unitary_baseline(ch)
        det_rot = metrics.abs_det(metrics.equivalent_channel(ch, rotated))
        det_base = metrics.abs_det(metrics.equivalent_channel(ch, base))
        assert det_rot == pytest.approx(det_base, rel=1e-8)
        s_rot = np.linalg.svd(metrics.equivalent_channel(ch, rotated), compute_uv=False)
        s_base = np.linalg.svd(metrics.equivalent_channel(ch, base), compute_uv=False)
        assert np.linalg.norm(s_rot - s_base) > 1e-3

    @pytest.mark.parametrize("seed", range(6))
    def test_log_majorized_by_matched_products(self, iid_channels, seed):
        ch = iid_channels(14)
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        svals = np.linalg.svd(
            metrics.equivalent_channel(ch, rotated_family(ch, u)), compute_uv=False
        )
        sf, sg = top_singular_values(ch)
        assert log_majorizes(svals, sf * sg, tol=1e-9)

    def test_rejects_non_unitary(self, iid_channels):
        with pytest.raises(ValueError, match="unitary"):
            rotated_family(iid_channels(15), np.array([[1.0, 0.0], [0.0, 2.0]]))


class TestRandomSymmetricUnitary:
    def test_symmetric_unitary(self):
        theta = random_symmetric_unitary(8, seed=3).theta
        assert np.linalg.norm(theta @ theta.conj().T - np.eye(8)) < 1e-10
        assert np.linalg.norm(theta - theta.T) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(
            random_symmetric_unitary(6, seed=9).theta, random_symmetric_unitary(6, seed=9).theta
        )

    def test_scalar_case(self):
        theta = random_symmetric_unitary(1, seed=4).theta
        assert abs(abs(theta[0, 0]) - 1.0) < 1e-12


class TestPhaseCorrection:
    def _scalar_channels(self, h_d):
        return ChannelSet(
            f=np.array([[1.0 + 0j]]),
            g=np.array([[1.0 + 0j]]),
            h_direct=np.array([[h_d]], dtype=complex),
        )

    def test_zero_direct_gives_zero_phase(self):
        ch = self._scalar_channels(0.0)
        theta = ScatteringMatrix.from_theta(np.eye(1), "identity")
        (phi,), (corrected,) = phase_correction(ch, theta, [1.0])
        assert phi == 0.0
        rate = metrics.achievable_rate(metrics.equivalent_channel(ch, corrected), 1.0)
        assert rate == pytest.approx(1.0, abs=1e-12)  # log2(1 + 1)

    def test_aligned_scalars(self):
        ch = self._scalar_channels(1.0)
        theta = ScatteringMatrix.from_theta(np.eye(1), "identity")
        (phi,), (corrected,) = phase_correction(ch, theta, [1.0])
        rate = metrics.achievable_rate(metrics.equivalent_channel(ch, corrected), 1.0)
        assert rate == pytest.approx(np.log2(5.0), abs=1e-9)
        assert min(phi, 2 * np.pi - phi) < 1e-5

    def test_antialigned_scalars_find_pi(self):
        ch = self._scalar_channels(-1.0)
        theta = ScatteringMatrix.from_theta(np.eye(1), "identity")
        (phi,), (corrected,) = phase_correction(ch, theta, [1.0])
        # oracle: dense 1-D sweep
        grid = np.linspace(0.0, 2 * np.pi, 3600, endpoint=False)
        sweep = [
            metrics.achievable_rate(metrics.equivalent_channel(ch, theta, phase=p), 1.0)
            for p in grid
        ]
        rate = metrics.achievable_rate(metrics.equivalent_channel(ch, corrected), 1.0)
        assert rate >= max(sweep) - 1e-9
        assert rate == pytest.approx(np.log2(5.0), abs=1e-9)
        assert phi == pytest.approx(np.pi, abs=1e-5)

    def test_never_below_uncorrected(self, iid_channels):
        ch = iid_channels(16, n_t=2, n_r=2, m=8, with_direct=True)
        sol, _ = solve_maxdet(ch)
        (phi,), (corrected,) = phase_correction(ch, sol, [5.0])
        rate_corr = metrics.achievable_rate(metrics.equivalent_channel(ch, corrected), 5.0)
        rate_raw = metrics.achievable_rate(metrics.equivalent_channel(ch, sol), 5.0)
        assert rate_corr >= rate_raw - 1e-12
        assert corrected.kind == "max_det_symmetric"
        # the rotation preserves symmetry and singular values
        assert np.linalg.norm(corrected.theta - corrected.theta.T) < 1e-10

    @staticmethod
    def oracle(ch, theta, rho):
        """The scalar search phase_correction replaced: grid argmax, then
        bounded Brent refinement to xatol 1e-7.  Returns (phi, rate, flat)."""
        h_ris = metrics.ris_channel(ch, theta)

        def rate(p):
            return metrics.achievable_rate(ch.h_direct + np.exp(1j * p) * h_ris, rho)

        step = 2 * np.pi / designs.PHASE_GRID_POINTS
        grid = step * np.arange(designs.PHASE_GRID_POINTS)
        rates = np.array([rate(p) for p in grid])
        i = int(np.argmax(rates))
        if rates[i] - rates.min() <= 1e-12 * max(1.0, abs(rates[i])):
            return 0.0, rates[i], True
        res = minimize_scalar(lambda p: -rate(p), bounds=(grid[i] - step, grid[i] + step),
                              method="bounded", options={"xatol": 1e-7})
        if -res.fun < rates[i]:
            return grid[i], rates[i], False
        return res.x % (2 * np.pi), -res.fun, False

    @pytest.mark.parametrize("seed,n_t,n_r,m", [(70, 4, 4, 16), (71, 2, 3, 8), (72, 3, 2, 6), (73, 1, 1, 4)])
    def test_batched_refinement_matches_scalar_oracle(self, iid_channels, seed, n_t, n_r, m):
        ch = iid_channels(seed, n_t=n_t, n_r=n_r, m=m, with_direct=True)
        sol, _ = solve_maxdet(ch)
        rhos = [10.0 ** (db / 10.0) for db in (-10, 0, 5, 10, 15, 20, 30)]
        phis, rotated = phase_correction(ch, sol, rhos)
        for phi, corrected, rho in zip(phis, rotated, rhos):
            phi_oracle, rate_oracle, flat = self.oracle(ch, sol, rho)
            rate = metrics.achievable_rate(metrics.equivalent_channel(ch, corrected), rho)
            assert rate >= rate_oracle - 1e-12 * rate_oracle
            assert not flat
            assert abs((phi - phi_oracle + np.pi) % (2 * np.pi) - np.pi) <= 1e-6

    def test_single_point_matches_batch(self, iid_channels):
        ch = iid_channels(74, n_t=4, n_r=4, m=16, with_direct=True)
        sol, _ = solve_maxdet(ch)
        rhos = [0.1, 1.0, 10.0, 1e3]
        phis, rotated = phase_correction(ch, sol, rhos)
        for i, rho in enumerate(rhos):
            # every point is refined on its own, so the batch changes nothing
            (phi,), (single,) = phase_correction(ch, sol, [rho])
            assert phi == phis[i]
            assert np.array_equal(single.left, rotated[i].left)

    def test_requires_direct_link(self, iid_channels):
        ch = iid_channels(17)
        sol, _ = solve_maxdet(ch)
        with pytest.raises(ValueError, match="direct"):
            phase_correction(ch, sol, [1.0])


class TestMaxdetRawSvd:
    def test_never_exceeds_ceiling_and_is_checkable(self, iid_channels):
        for seed in range(5):
            ch = iid_channels(30 + seed, n_t=3, n_r=3, m=12)
            raw, frame = maxdet_raw_svd(ch)
            det = metrics.abs_det(ch.f @ raw.theta @ ch.g.conj().T)
            assert det <= metrics.d_max(ch) * (1.0 + 1e-9)
            assert frame.s == 6
            alignment = verify_block_structure(ch, raw)
            assert np.isfinite(alignment.off_diag_norm)


class TestRateOrdering:
    @pytest.mark.parametrize("seed", range(5))
    def test_gap_between_zero_and_bound(self, iid_channels, seed):
        ch = iid_channels(40 + seed, n_t=3, n_r=3, m=12)
        sol, _ = solve_maxdet(ch)
        base = unitary_baseline(ch)
        sf, sg = top_singular_values(ch)
        for rho in (1.0, 10.0, 100.0, 1000.0):
            gap = metrics.achievable_rate(
                metrics.equivalent_channel(ch, base), rho
            ) - metrics.achievable_rate(metrics.equivalent_channel(ch, sol), rho)
            assert gap >= -1e-9  # exact ties resolve within float noise
            assert gap <= metrics.rate_gap_bound(sf, sg, rho) + 1e-9


class TestScatteringMatrixType:
    def test_rejects_active_surface(self):
        with pytest.raises(ValueError, match="passive"):
            ScatteringMatrix.from_theta(2.0 * np.eye(3), "custom")

    def test_rank_derived_from_theta(self):
        assert ScatteringMatrix.from_theta(np.diag([1.0, 1.0, 0.0]), "custom").rank == 2

    def test_rejects_asymmetric_for_symmetric_kind(self):
        theta = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ScatteringMatrix.from_theta(theta, "max_det_symmetric")

    def test_baseline_kind_allows_asymmetry(self, iid_channels):
        theta = unitary_baseline(iid_channels(18))
        assert np.linalg.norm(theta.theta - theta.theta.T) > 1e-6  # generically asymmetric
