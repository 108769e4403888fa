import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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

from conftest import defective_maxdet_frame, maxdet_raw_svd, random_complex


def top_singular_values(channels):
    r = min(channels.n_t, channels.n_r)
    sf = np.linalg.svd(channels.f, compute_uv=False)[:r]
    sg = np.linalg.svd(channels.g, compute_uv=False)[:r]
    return sf, sg


class TestSolveMaxdet:
    def test_orthogonal_one_dim_subspaces(self):
        ch = ChannelSet(f=np.array([[1.0, 0.0]], dtype=complex),
                        g=np.array([[0.0, 1.0]], dtype=complex))
        sol = solve_maxdet(ch)
        # the exchange matrix, up to one global pair phase
        assert_allclose(np.abs(sol.theta), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        det = metrics.abs_det(ch.f @ sol.theta @ ch.g.conj().T)
        assert det == pytest.approx(1.0, rel=1e-12)
        assert sol.rank == 2
        assert sol.left.shape[1] == 2

    def test_collinear_scalar_case(self):
        ch = ChannelSet(f=np.array([[2.0]], dtype=complex), g=np.array([[3.0]], dtype=complex))
        sol = solve_maxdet(ch)
        assert_allclose(sol.theta, [[1.0]], atol=1e-12)
        h = ch.f @ sol.theta @ ch.g.conj().T
        assert h[0, 0] == pytest.approx(6.0, rel=1e-12)
        assert sol.rank == 1  # the difference vector degenerates and is dropped
        assert sol.left.shape[1] == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_attains_dmax(self, iid_channels, seed):
        ch = iid_channels(seed, n_t=2, n_r=2, m=8)
        sol = solve_maxdet(ch)
        sf, sg = top_singular_values(ch)
        det = metrics.abs_det(ch.f @ sol.theta @ ch.g.conj().T)
        # oracle: the ceiling is the product of independently computed singular values
        assert det / (np.prod(sf) * np.prod(sg)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n_t,n_r,m", [(2, 5, 12), (5, 2, 12), (1, 3, 8), (4, 4, 9)])
    def test_asymmetric_shapes(self, iid_channels, n_t, n_r, m):
        ch = iid_channels(100 + n_t * n_r, n_t=n_t, n_r=n_r, m=m)
        r = min(n_t, n_r)
        sol = solve_maxdet(ch)
        det = metrics.abs_det(ch.f @ sol.theta @ ch.g.conj().T)
        assert det == pytest.approx(metrics.d_max(ch), rel=1e-8)
        assert sol.rank == 2 * r
        assert sol.left.shape[1] == 2 * r

    def test_theta_invariants(self, iid_channels):
        ch = iid_channels(3, n_t=3, n_r=3, m=12)
        sol = solve_maxdet(ch)
        t = sol.theta
        assert np.linalg.norm(t - t.T) <= 1e-10 * np.linalg.norm(t)
        svals = np.linalg.svd(t, compute_uv=False)
        assert svals[0] <= 1.0 + 1e-10
        # exactly 2r unit singular values, the rest negligible
        assert_allclose(svals[:6], 1.0, atol=1e-8)
        assert np.all(svals[6:] <= 1e-8)
        # Theta == Q Q^T
        assert np.linalg.norm(t - sol.left @ sol.left.T) < 1e-12

    def test_global_phase_leaves_det_unchanged(self, iid_channels):
        ch = iid_channels(4)
        sol = solve_maxdet(ch)
        base = metrics.abs_det(ch.f @ sol.theta @ ch.g.conj().T)
        for phi in (0.3, 1.1, np.pi):
            det = metrics.abs_det(ch.f @ (np.exp(1j * phi) * sol.theta) @ ch.g.conj().T)
            assert det == pytest.approx(base, rel=1e-12)

    def test_zero_channel_rejected(self):
        ch = ChannelSet(f=np.zeros((2, 8), dtype=complex), g=np.ones((2, 8), dtype=complex))
        with pytest.raises(DegenerateChannelError):
            solve_maxdet(ch)

    def test_defective_frame_is_numerical_failure(self, iid_channels):
        # the channels are valid, so a frame the solver built itself and that
        # fails the orthonormality check is not a bad-input error
        with defective_maxdet_frame(), pytest.raises(ArithmeticError, match="Max-Det frame") as info:
            solve_maxdet(iid_channels(4))
        assert not isinstance(info.value, ValueError)

    def test_small_m_below_twice_dof(self, iid_channels):
        # two 2-dim subspaces of C^3 share a direction, so one difference
        # vector degenerates; the ceiling is still attained at rank 2r - 1
        ch = iid_channels(60, n_t=2, n_r=2, m=3)
        sol = solve_maxdet(ch)
        det = metrics.abs_det(ch.f @ sol.theta @ ch.g.conj().T)
        assert det == pytest.approx(metrics.d_max(ch), rel=1e-8)
        assert sol.rank == 3
        assert sol.left.shape[1] == 3

    def test_m_equal_dof(self, iid_channels):
        # both subspaces fill C^2 entirely: every angle is zero
        ch = iid_channels(61, n_t=2, n_r=2, m=2)
        sol = solve_maxdet(ch)
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
            sol = solve_maxdet(ch)
            det = metrics.abs_det(metrics.ris_channel(ch, sol))
            assert abs(det / metrics.d_max(ch) - 1.0) <= 1e-10
            assert np.linalg.norm(sol.left.conj().T @ sol.left - np.eye(sol.left.shape[1])) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-12, 1e-11, 1e-10])
    def test_unequal_antennas_nearly_coinciding(self, eps):
        # with n_t < n_r, the n_r - r trailing directions of F see the
        # ~eps_mach / sin error of a direction w_k kept at a sine near 1e-11;
        # ZERO_ANGLE_TOL drops such angles as zero
        rng = np.random.default_rng(int(-np.log10(eps)))
        for _ in range(40):
            f = random_complex(rng, 4, 7)
            ch = ChannelSet(f=f, g=(random_complex(rng, 3, 4) @ f).conj() + eps * random_complex(rng, 3, 7))
            det = metrics.abs_det(metrics.ris_channel(ch, solve_maxdet(ch)))
            assert abs(det - metrics.d_max(ch)) <= 1e-8 * metrics.d_max(ch)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n_t=st.integers(1, 4), n_r=st.integers(1, 4), extra=st.integers(0, 6),
           channel=st.sampled_from(["complex", "real", "near"]), log_eps=st.floats(-16.0, 0.0),
           seed=st.integers(0, 2**32 - 1))
    # one link's top-r product subnormal, d_max normal: F x 1.7e-108, G x 1.5e85, and
    # F x 1.8e77, G x 4.1e-107 (M = 5)
    @example(n_t=4, n_r=3, extra=2, channel="complex", log_eps=0.0, seed=319)
    @example(n_t=4, n_r=3, extra=2, channel="complex", log_eps=0.0, seed=1060)
    def test_symmetric_passive_optimal_over_domain(self, n_t, n_r, extra, channel, log_eps, seed):
        """Over n_t, n_r in 1..4 and r <= M < 2r + 3, with complex, real and
        nearly coinciding channels G = conj(A F) + eps N, each link scaled by
        10^U(-150, 150), every solution is symmetric, passive and attains
        d_max to 1e-8 (criterion 1), or the channel is rejected as degenerate.
        d_max and |det| raise ArithmeticError exactly when log d_max leaves
        the normal float range."""
        r = min(n_t, n_r)
        m = r + extra % (r + 3)
        rng = np.random.default_rng(seed)
        f, g = random_complex(rng, n_r, m), random_complex(rng, n_t, m)
        if channel == "real":
            f, g = f.real + 0j, g.real + 0j
        elif channel == "near":
            g = (random_complex(rng, n_t, n_r) @ f).conj() + 10.0**log_eps * g
        scale_f, scale_g = 10.0 ** rng.uniform(-150.0, 150.0, 2)
        ch = ChannelSet(f=scale_f * f, g=scale_g * g)
        try:
            sol = solve_maxdet(ch)
        except DegenerateChannelError:
            return
        t = sol.theta
        assert np.linalg.norm(t - t.T) <= 1e-10 * np.linalg.norm(t)
        assert np.linalg.svd(t, compute_uv=False)[0] <= 1.0 + 1e-10
        log_d_max = sum(np.sum(np.log(s[:r])) for _, s, _ in ch.svds)
        representable = np.log(np.finfo(float).tiny) <= log_d_max < np.log(np.finfo(float).max)
        try:
            ceiling = metrics.d_max(ch)
            det = metrics.abs_det(metrics.equivalent_channel(ch, sol))
        except ArithmeticError:
            assert not representable
            return
        assert representable
        assert abs(det - ceiling) <= 1e-8 * ceiling


class TestVerifyBlockStructure:
    def test_maxdet_solution_aligns(self, iid_channels):
        ch = iid_channels(5, n_t=2, n_r=2, m=8)
        sol = solve_maxdet(ch)
        alignment = verify_block_structure(ch, sol)
        assert alignment.off_diag_norm < 1e-9
        assert alignment.t1_unitarity_defect < 1e-9
        assert alignment.t1_pairing_defect < 1e-9
        assert alignment.t_matrix.shape == (8, 8)
        assert alignment.t1.shape == (2, 2)

    def test_zero_theta(self, iid_channels):
        ch = iid_channels(6, n_t=2, n_r=2, m=8)
        alignment = verify_block_structure(ch, ScatteringMatrix.from_theta(np.zeros((8, 8))))
        assert_allclose(alignment.t1, 0.0, atol=1e-15)
        assert alignment.t1_unitarity_defect == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_random_surface_breaks_structure(self, iid_channels):
        # sampled counterexample: the check has power against generic surfaces
        ch = iid_channels(7, n_t=2, n_r=2, m=8)
        alignment = verify_block_structure(ch, random_symmetric_unitary(8, seed=123))
        assert alignment.off_diag_norm > 0.1

    def test_dimension_mismatch(self, iid_channels):
        with pytest.raises(ValueError):
            verify_block_structure(iid_channels(8), ScatteringMatrix.from_theta(np.eye(5)))


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
        ch = iid_channels(15)
        with pytest.raises(ValueError, match="u_rotation columns are not orthonormal"):
            rotated_family(ch, np.array([[1.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(ValueError, match="u_rotation contains non-finite"):
            rotated_family(ch, np.array([[1.0, 0.0], [0.0, np.nan]]))


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


def corrected_rate(ch, theta, phi, rho):
    return metrics.achievable_rate(metrics.equivalent_channel(ch, theta, phase=phi), rho)


class TestPhaseCorrection:
    ORACLE_GRID = 360  # the uniform grid of the scalar search

    def _scalar_channels(self, h_d):
        return ChannelSet(
            f=np.array([[1.0 + 0j]]),
            g=np.array([[1.0 + 0j]]),
            h_direct=np.array([[h_d]], dtype=complex),
        )

    def test_zero_direct_gives_zero_phase(self):
        ch = self._scalar_channels(0.0)
        theta = ScatteringMatrix.from_theta(np.eye(1))
        (phi,) = phase_correction(ch, theta, [1.0]).phases
        assert phi == 0.0
        assert corrected_rate(ch, theta, phi, 1.0) == pytest.approx(1.0, abs=1e-12)  # log2(1 + 1)

    def test_aligned_scalars(self):
        ch = self._scalar_channels(1.0)
        theta = ScatteringMatrix.from_theta(np.eye(1))
        (phi,) = phase_correction(ch, theta, [1.0]).phases
        assert corrected_rate(ch, theta, phi, 1.0) == pytest.approx(np.log2(5.0), abs=1e-9)
        assert min(phi, 2 * np.pi - phi) < 1e-5

    def test_antialigned_scalars_find_pi(self):
        ch = self._scalar_channels(-1.0)
        theta = ScatteringMatrix.from_theta(np.eye(1))
        (phi,) = phase_correction(ch, theta, [1.0]).phases
        # oracle: dense 1-D sweep
        grid = np.linspace(0.0, 2 * np.pi, 3600, endpoint=False)
        sweep = [corrected_rate(ch, theta, p, 1.0) for p in grid]
        rate = corrected_rate(ch, theta, phi, 1.0)
        assert rate >= max(sweep) - 1e-9
        assert rate == pytest.approx(np.log2(5.0), abs=1e-9)
        assert phi == pytest.approx(np.pi, abs=1e-5)

    def test_never_below_uncorrected(self, iid_channels):
        ch = iid_channels(16, n_t=2, n_r=2, m=8, with_direct=True)
        sol = solve_maxdet(ch)
        (phi,) = phase_correction(ch, sol, [5.0]).phases
        rate_raw = metrics.achievable_rate(metrics.equivalent_channel(ch, sol), 5.0)
        assert corrected_rate(ch, sol, phi, 5.0) >= rate_raw - 1e-12

    @classmethod
    def oracle(cls, ch, theta, rho):
        """The scalar search phase_correction replaced: grid argmax, then
        bounded Brent refinement to xatol 1e-7.  Returns (phi, rate, flat)."""
        h_ris = metrics.ris_channel(ch, theta)

        def rate(p):
            return metrics.achievable_rate(ch.h_direct + np.exp(1j * p) * h_ris, rho)

        step = 2 * np.pi / cls.ORACLE_GRID
        grid = step * np.arange(cls.ORACLE_GRID)
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
        sol = solve_maxdet(ch)
        rhos = [10.0 ** (db / 10.0) for db in (-10, 0, 5, 10, 15, 20, 30)]
        phis = phase_correction(ch, sol, rhos).phases
        for phi, rho in zip(phis, rhos):
            phi_oracle, rate_oracle, flat = self.oracle(ch, sol, rho)
            assert corrected_rate(ch, sol, phi, rho) >= rate_oracle - 1e-12 * rate_oracle
            assert not flat
            assert abs((phi - phi_oracle + np.pi) % (2 * np.pi) - np.pi) <= 1e-6

    def test_single_point_matches_batch(self, iid_channels):
        ch = iid_channels(74, n_t=4, n_r=4, m=16, with_direct=True)
        sol = solve_maxdet(ch)
        rhos = [0.1, 1.0, 10.0, 1e3]
        phis = phase_correction(ch, sol, rhos).phases
        for i, rho in enumerate(rhos):
            # every point is corrected on its own, so the batch changes nothing
            assert phase_correction(ch, sol, [rho]).phases[0] == phis[i]

    def test_sigma_is_the_svd_at_the_phases(self, iid_channels):
        # the phase-corrected rows read these singular values instead of an SVD of their own
        ch = iid_channels(76, n_t=3, n_r=4, m=16, with_direct=True)
        sol = solve_maxdet(ch)
        rhos = [0.1, 1.0, 10.0, 1e3]
        corrected = phase_correction(ch, sol, rhos)
        h = ch.h_direct + np.exp(1j * corrected.phases)[:, None, None] * metrics.ris_channel(ch, sol)
        assert np.array_equal(corrected.sigma, np.linalg.svd(h, compute_uv=False))

    def test_stack_matches_each_channel_set(self, iid_channels):
        sets = [iid_channels(seed, n_t=4, n_r=4, m=16, with_direct=True) for seed in (77, 78, 79)]
        stack = ChannelSet(*(np.stack([getattr(ch, k) for ch in sets]) for k in ("f", "g", "h_direct")))
        rhos = np.array([[1.0, 30.0], [2.0, 1e3], [0.5, 7.0]])
        stacked = phase_correction(stack, solve_maxdet(stack), rhos)
        for i, ch in enumerate(sets):
            own = phase_correction(ch, solve_maxdet(ch), rhos[i])
            assert np.array_equal(stacked.phases[i], own.phases)
            assert np.array_equal(stacked.sigma[i], own.sigma)

    def test_requires_direct_link(self, iid_channels):
        ch = iid_channels(17)
        sol = solve_maxdet(ch)
        with pytest.raises(ValueError, match="direct"):
            phase_correction(ch, sol, [1.0])

    @pytest.mark.parametrize("n_t,n_r", [(1, 1), (2, 3), (4, 2), (4, 4), (5, 5)])
    def test_samples_fix_the_polynomial(self, n_t, n_r):
        """det(I + rho H H^H) is a trigonometric polynomial of degree
        r = min(N_t, N_r) in phi: its 2r + 1 samples reproduce it anywhere."""
        rng = np.random.default_rng(10 * n_t + n_r)
        h_d, h_ris = random_complex(rng, n_r, n_t), random_complex(rng, n_r, n_t)
        r, rho = min(n_t, n_r), 3.0

        def p(phi):
            h = h_d + np.exp(1j * phi) * h_ris
            return np.linalg.det(np.eye(n_r) + rho * h @ h.conj().T).real

        samples = 2 * np.pi * np.arange(2 * r + 1) / (2 * r + 1)
        at_samples = np.array([p(x) for x in samples])
        n = np.arange(-r, r + 1)
        coef = np.exp(-1j * np.outer(n, samples)) @ at_samples / samples.size
        for phi in rng.uniform(0.0, 2 * np.pi, 20):
            interpolated = (coef @ np.exp(1j * n * phi)).real
            assert abs(interpolated - p(phi)) <= 1e-12 * at_samples.max()

    def test_huge_rho_stays_finite(self, iid_channels):
        ch = iid_channels(75, n_t=4, n_r=4, m=16, with_direct=True)
        sol = solve_maxdet(ch)
        rhos = [1e300, 1e150, 10.0]
        corrected = phase_correction(ch, sol, rhos)
        assert np.all(np.isfinite(corrected.phases))
        rate, _, sigma = metrics.evaluate_design(ch, sol, rhos, sigma=corrected.sigma)
        assert np.all(np.isfinite(rate)) and np.all(np.isfinite(sigma))
        for phi, rho in zip(corrected.phases, rhos):
            raw = metrics.achievable_rate(metrics.equivalent_channel(ch, sol), rho)
            assert corrected_rate(ch, sol, phi, rho) >= raw

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_t=st.integers(1, 4), n_r=st.integers(1, 4),
           log_scale=st.floats(-6.0, 3.0), log_rho=st.floats(-3.0, 9.0),
           seed=st.integers(0, 2**32 - 1))
    def test_never_below_dense_grid(self, n_t, n_r, log_scale, log_rho, seed):
        """The corrected rate reaches the best of a 1440-phase grid and the
        rate at phi = 0, over shapes, direct-link scales and SNRs."""
        rng = np.random.default_rng(seed)
        m = min(n_t, n_r) + int(rng.integers(0, 8))
        ch = ChannelSet(f=random_complex(rng, n_r, m), g=random_complex(rng, n_t, m),
                        h_direct=10.0 ** log_scale * random_complex(rng, n_r, n_t))
        sol = solve_maxdet(ch)
        rho = 10.0 ** log_rho
        (phi,) = phase_correction(ch, sol, [rho]).phases
        rate = corrected_rate(ch, sol, phi, rho)
        h_ris = metrics.ris_channel(ch, sol)
        grid = 2 * np.pi * np.arange(1440) / 1440
        s = np.linalg.svd(ch.h_direct + np.exp(1j * grid)[:, None, None] * h_ris, compute_uv=False)
        on_grid = np.sum(np.log2(1.0 + rho * s**2), axis=-1)
        assert rate >= on_grid.max() - 1e-12 * on_grid.max()
        assert rate >= corrected_rate(ch, sol, 0.0, rho)


class TestMaxdetRawSvd:
    def test_never_exceeds_ceiling_and_is_checkable(self, iid_channels):
        for seed in range(5):
            ch = iid_channels(30 + seed, n_t=3, n_r=3, m=12)
            raw = maxdet_raw_svd(ch)
            det = metrics.abs_det(ch.f @ raw.theta @ ch.g.conj().T)
            assert det <= metrics.d_max(ch) * (1.0 + 1e-9)
            assert raw.left.shape[1] == 6
            alignment = verify_block_structure(ch, raw)
            assert np.isfinite(alignment.off_diag_norm)


class TestRateOrdering:
    @pytest.mark.parametrize("seed", range(5))
    def test_gap_between_zero_and_bound(self, iid_channels, seed):
        ch = iid_channels(40 + seed, n_t=3, n_r=3, m=12)
        sol = solve_maxdet(ch)
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
            ScatteringMatrix.from_theta(2.0 * np.eye(3))

    def test_rank_derived_from_theta(self):
        assert ScatteringMatrix.from_theta(np.diag([1.0, 1.0, 0.0])).rank == 2

    def test_baseline_is_asymmetric(self, iid_channels):
        theta = unitary_baseline(iid_channels(18))
        assert np.linalg.norm(theta.theta - theta.theta.T) > 1e-6  # generically asymmetric
