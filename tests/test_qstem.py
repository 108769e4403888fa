from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bdris import designs, harness, metrics, qstem
from bdris.channel import ChannelSet
from bdris.designs import StiefelFrame, random_symmetric_unitary, solve_maxdet
from bdris.linalg import vectorize
from bdris.qstem import (
    CayleySingularityError,
    SingularMapError,
    SusceptanceMatrix,
    b_to_theta,
    build_qstem_system,
    build_selection_matrix,
    cayley_with_phase_fallback,
    complete_to_unitary,
    element_count,
    synthesize_qstem,
    theta_to_b,
)

from conftest import make_iid_channels, random_complex


def qstem_support(q, m):
    mask = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(m):
            mask[i, j] = i == j or min(i, j) < q
    return mask


class TestElementCount:
    def test_figure_pattern(self):
        assert element_count(2, 6) == 15

    def test_fully_connected(self):
        for m in (1, 4, 16):
            assert element_count(m, m) == m * (m + 1) // 2

    def test_two_r_minus_one(self):
        for r, m in [(1, 8), (2, 8), (4, 16), (4, 32)]:
            q = 2 * r - 1
            assert element_count(q, m) == 2 * r * m - 2 * r**2 + r

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            element_count(0, 4)
        with pytest.raises(ValueError):
            element_count(5, 4)


class TestSelectionMatrix:
    def test_m2_q1_enumeration(self):
        r = build_selection_matrix(1, 2).toarray()
        assert r.shape == (4, 3)
        # parameters in column-major lower-triangle order: b11, b21, b22
        assert_allclose(r[:, 0], [1, 0, 0, 0])  # b11 -> vec position (0,0)
        assert_allclose(r[:, 1], [0, 1, 1, 0])  # b21 -> positions (1,0) and (0,1)
        assert_allclose(r[:, 2], [0, 0, 0, 1])  # b22 -> position (1,1)

    def test_m6_q2_zero_rows(self):
        r = build_selection_matrix(2, 6)
        dense = r.toarray()
        zero_rows = np.where(~dense.any(axis=1))[0]
        assert len(zero_rows) == 12  # the 4x4 trailing block minus its diagonal
        expected = {i + j * 6 for i in range(6) for j in range(6)
                    if i != j and min(i, j) >= 2}
        assert set(zero_rows.tolist()) == expected

    @pytest.mark.parametrize("q,m", [(1, 4), (3, 8), (7, 16), (5, 5)])
    def test_support_matches_pattern(self, q, m):
        r = build_selection_matrix(q, m)
        assert r.shape == (m * m, element_count(q, m))
        b = np.asarray(r @ np.ones(r.shape[1])).reshape(m, m, order="F")
        assert np.array_equal(b != 0, qstem_support(q, m))
        assert np.array_equal(b, b.T)


class TestQStemSystem:
    def test_design_matrix_matches_direct_assembly(self, iid_channels):
        _, frame = solve_maxdet(iid_channels(1, n_t=2, n_r=2, m=6))
        system = build_qstem_system(frame, q=3)
        re_q = frame.q.real
        # oracle: column p of W is vec(B_p Re(Q)) for the basis matrix B_p
        m = frame.m
        params = [(i, j) for j in range(m) for i in range(j, m) if j < 3 or i == j]
        for p, (i, j) in enumerate(params):
            basis = np.zeros((m, m))
            basis[i, j] = 1.0
            basis[j, i] = 1.0
            col = vectorize(basis @ re_q)
            assert_allclose(system.design_matrix[:, p], col, atol=1e-14)
        assert_allclose(system.rhs, -vectorize(frame.q.imag), atol=1e-15)
        assert system.nu == element_count(3, m)


class TestSynthesize:
    def test_real_frame_gives_zero_susceptance(self):
        frame = StiefelFrame(np.eye(4, dtype=complex)[:, :2])
        b, residual = synthesize_qstem(frame, q=1)
        assert residual == pytest.approx(0.0, abs=1e-15)
        assert_allclose(b.b, 0.0, atol=1e-15)
        assert_allclose(b_to_theta(b).theta, np.eye(4), atol=1e-15)

    def test_seeded_exact_at_minimum_stems(self, iid_channels):
        ch = iid_channels(2, n_t=2, n_r=2, m=8)
        _, frame = solve_maxdet(ch)
        b, residual = synthesize_qstem(frame, q=3)  # q = 2r - 1
        assert residual < 1e-8
        det = metrics.abs_det(metrics.equivalent_channel(ch, b_to_theta(b)))
        assert det == pytest.approx(metrics.d_max(ch), rel=1e-7)

    def test_underparameterized_has_residual(self, iid_channels):
        ch = iid_channels(3, n_t=2, n_r=2, m=8)
        _, frame = solve_maxdet(ch)
        _, residual = synthesize_qstem(frame, q=1)
        assert residual > 1e-3

    def test_residual_monotone_in_q(self, iid_channels):
        ch = iid_channels(4, n_t=2, n_r=2, m=8)
        _, frame = solve_maxdet(ch)
        residuals = [synthesize_qstem(frame, q)[1] for q in range(1, 9)]
        assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(residuals, residuals[1:]))

    def test_rate_matches_lowrank_when_exact(self, iid_channels):
        ch = iid_channels(5, n_t=2, n_r=2, m=8)
        lowrank, frame = solve_maxdet(ch)
        b, residual = synthesize_qstem(frame, q=3)
        assert residual < 1e-8
        h_b = metrics.equivalent_channel(ch, b_to_theta(b))
        h_lr = metrics.equivalent_channel(ch, lowrank)
        assert np.linalg.norm(h_b - h_lr) < 1e-7
        for rho in (1.0, 100.0):
            assert metrics.achievable_rate(h_b, rho) == pytest.approx(
                metrics.achievable_rate(h_lr, rho), abs=1e-6
            )

    def test_dof_margin_at_minimum_stems(self):
        for r, m in [(2, 8), (4, 16), (4, 32)]:
            nu = element_count(2 * r - 1, m)
            assert nu - (2 * r * m - 2 * r**2) == r


def dense_synthesis(frame, q):
    """The oracle: the dense 2rM x nu system solved by np.linalg.lstsq."""
    system = build_qstem_system(frame, q)
    sol, *_ = np.linalg.lstsq(system.design_matrix, system.rhs, rcond=None)
    residual = np.linalg.norm(system.design_matrix @ sol - system.rhs)
    return np.asarray(system.selection @ sol).reshape(frame.m, frame.m, order="F"), residual


def lifted_frame(ch):
    """The Max-Det frame with the frame and passivity checks lifted, so that
    the defective frames of nearly coinciding subspaces are covered too."""
    def frame(q):
        return SimpleNamespace(q=q, m=q.shape[0], s=q.shape[1])

    with mock.patch.object(designs, "StiefelFrame", frame), \
            mock.patch.object(designs, "ScatteringMatrix"):
        return designs.solve_maxdet(ch)[1]


@st.composite
def synthesis_cases(draw):
    """(frame, q values) over M in [r, 64] and n_t != n_r, by kind of frame.

    kind "near" makes the two RIS subspaces nearly coincide (G's subspace is
    conj(W) + eps N, as in test_certificate.py).  The non-generic kinds must
    take the dense fallback where a block is singular: "real" channels give
    Re Q = [U1, 0], and "zero_tail" switches the last elements off, giving Q
    zero rows, so a tail block is singular while q < s."""
    n_t = draw(st.integers(1, 4))
    n_r = draw(st.integers(1, 4))
    r = min(n_t, n_r)
    m = draw(st.integers(r, 64))
    kind = draw(st.sampled_from(["generic", "near", "real", "zero_tail"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = random_complex(rng, n_r, m)
    g = random_complex(rng, n_t, m)
    if kind == "near":
        eps = 10.0 ** draw(st.floats(-8.0, -2.0))
        w = np.linalg.qr(random_complex(rng, m, r))[0]
        f = random_complex(rng, n_r, r) @ w.conj().T
        g = random_complex(rng, n_t, r) @ (w.conj() + eps * random_complex(rng, m, r)).conj().T
    elif kind == "real":
        f, g = f.real + 0j, g.real + 0j
    elif kind == "zero_tail":
        off = draw(st.integers(0, max(0, m - 2 * r)))
        f[:, m - off:] = 0.0
        g[:, m - off:] = 0.0
    frame = lifted_frame(ChannelSet(f=f, g=g))
    qs = {draw(st.integers(1, m)), max(1, frame.s - 1), min(frame.s, m)}
    return frame, sorted(qs)


class TestBlockSolve:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(synthesis_cases())
    def test_matches_dense_least_squares(self, case):
        frame, qs = case
        for q in qs:
            b_dense, res_dense = dense_synthesis(frame, q)
            with mock.patch.object(qstem, "build_qstem_system", wraps=build_qstem_system) as dense:
                b, res = synthesize_qstem(frame, q, z0=1.0)
            assert np.linalg.norm(b.b - b_dense) <= 1e-9 * np.linalg.norm(b_dense)
            assert abs(res - res_dense) <= max(1e-10 * res_dense, 1e-11)
            zero_tail_row = np.any(np.linalg.norm(frame.q[q:], axis=1) <= 1e-12)
            if np.linalg.matrix_rank(frame.q.real) < frame.s or (q < frame.s and zero_tail_row):
                assert dense.called

    def test_no_dense_system_on_generic_path(self):
        m, r = 256, 4
        _, frame = solve_maxdet(make_iid_channels(3, n_t=r, n_r=r, m=m))
        lstsq, svd = np.linalg.lstsq, np.linalg.svd
        shapes = []

        def spy(fn):
            def wrapped(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return fn(a, *args, **kwargs)
            return wrapped

        with mock.patch.object(np.linalg, "lstsq", spy(lstsq)), \
                mock.patch.object(np.linalg, "svd", spy(svd)), \
                mock.patch.object(qstem, "build_qstem_system") as dense:
            residuals = [synthesize_qstem(frame, q)[1] for q in range(1, 11)]
        assert not dense.called
        assert shapes and max(rows for rows, _ in shapes) < 2 * r * m
        nus = {element_count(q, m) for q in range(1, 11)}
        assert not any(cols in nus for _, cols in shapes)
        assert residuals[2 * r - 2] <= 1e-8
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    @pytest.mark.parametrize("trial", [76, 109])
    def test_refined_fallback_matches_block_residual(self, trial):
        # default qstem_sweep trials whose q = 2r - 1 system has ||z0 B|| ~ 1e5,
        # where an unrefined lstsq residual is ~10x the least-squares optimum
        config = harness.parse_config("experiment = qstem_sweep\n")
        channels = harness._start_trial(config, trial, blocked=True).channels
        _, frame = solve_maxdet(channels)
        _, res_block = synthesize_qstem(frame, 7, config.z0)
        failing = mock.patch.object(qstem._ArrowSystem, "solve",
                                    side_effect=np.linalg.LinAlgError("forced"))
        with failing, mock.patch.object(qstem, "build_qstem_system",
                                        wraps=build_qstem_system) as dense:
            _, res_fallback = synthesize_qstem(frame, 7, config.z0)
        assert dense.called
        assert res_fallback <= 2.0 * res_block + 1e-12


class TestCayleyMaps:
    def test_zero_susceptance(self):
        b = SusceptanceMatrix(b=np.zeros((3, 3)), q=3)
        assert_allclose(b_to_theta(b).theta, np.eye(3), atol=1e-15)

    def test_scalar_quarter_wave(self):
        b = SusceptanceMatrix(b=np.array([[1.0 / 50.0]]), q=1, z0=50.0)
        assert b_to_theta(b).theta[0, 0] == pytest.approx(-1j, abs=1e-15)

    def test_scalar_inverse(self):
        b = theta_to_b(np.array([[-1j]]), z0=50.0)
        assert b.b[0, 0] == pytest.approx(1.0 / 50.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_susceptance_gives_symmetric_unitary(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((6, 6))
        b = SusceptanceMatrix(b=(raw + raw.T) / 2.0, q=6)
        theta = b_to_theta(b).theta
        assert np.linalg.norm(theta @ theta.conj().T - np.eye(6)) < 1e-10
        assert np.linalg.norm(theta - theta.T) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_condition_number_from_eigenvalues(self, seed):
        rng = np.random.default_rng(300 + seed)
        m = 2 + seed
        raw = rng.standard_normal((m, m)) * 10.0 ** rng.uniform(-3, 1)
        b = SusceptanceMatrix(b=(raw + raw.T) / 2.0, q=m, z0=rng.uniform(1.0, 100.0))
        dense = np.linalg.cond(np.eye(m) + 1j * b.z0 * b.b)
        assert qstem._cayley_cond(b) == pytest.approx(dense, rel=1e-12)

    def test_ill_conditioned_map_raises(self):
        b = SusceptanceMatrix(b=np.diag([1e14, 0.0, -1e-3]), q=3)
        with pytest.raises(SingularMapError, match="numerically singular"):
            b_to_theta(b)

    def test_identity_theta_roundtrip(self):
        b = theta_to_b(np.eye(4, dtype=complex))
        assert_allclose(b.b, 0.0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_cayley_roundtrip(self, seed):
        theta = random_symmetric_unitary(6, seed=200 + seed).theta
        if np.min(np.abs(np.linalg.eigvals(theta) + 1.0)) < 1e-3:
            pytest.skip("spectrum too close to -1 for a clean round trip")
        back = b_to_theta(theta_to_b(theta)).theta
        assert np.linalg.norm(back - theta) < 1e-9

    def test_eigenvalue_at_minus_one_rejected(self):
        exchange = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(CayleySingularityError):
            theta_to_b(exchange)

    def test_rejects_non_unitary_and_non_symmetric(self):
        with pytest.raises(ValueError, match="unitary"):
            theta_to_b(0.5 * np.eye(2))
        rotation = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="symmetric"):
            theta_to_b(rotation)

    def test_phase_fallback_resolves_exchange_matrix(self):
        exchange = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        phi, b = cayley_with_phase_fallback(exchange)
        assert phi > 0.0
        back = b_to_theta(b).theta
        assert np.linalg.norm(back - np.exp(1j * phi) * exchange) < 1e-9

    def test_singular_map_rejected(self):
        b = SusceptanceMatrix(b=np.diag([1e12, 0.0]), q=2, z0=50.0)
        with pytest.raises(SingularMapError):
            b_to_theta(b)


class TestCompleteToUnitary:
    def test_full_frame_unchanged(self):
        w = np.linalg.qr(
            np.random.default_rng(8).standard_normal((5, 5))
            + 1j * np.random.default_rng(9).standard_normal((5, 5))
        )[0]
        frame = StiefelFrame(w)
        assert_allclose(complete_to_unitary(frame).theta, w @ w.T, atol=1e-13)

    def test_maxdet_frame_extension_is_transparent(self, iid_channels):
        ch = iid_channels(7, n_t=2, n_r=2, m=8)
        _, frame = solve_maxdet(ch)
        full = complete_to_unitary(frame)
        assert np.linalg.norm(full.theta @ full.theta.conj().T - np.eye(8)) < 1e-10
        lhs = ch.f @ full.theta @ ch.g.conj().T
        rhs = ch.f @ (frame.q @ frame.q.T) @ ch.g.conj().T
        assert np.linalg.norm(lhs - rhs) < 1e-9


class TestSusceptanceMatrixType:
    def test_rejects_asymmetric(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            SusceptanceMatrix(b=bad, q=2)

    def test_rejects_pattern_violation(self):
        bad = np.zeros((4, 4))
        bad[2, 3] = bad[3, 2] = 1.0  # off-diagonal inside the diagonal block
        with pytest.raises(ValueError, match="sparsity"):
            SusceptanceMatrix(b=bad, q=1)

    def test_rejects_complex_and_bad_z0(self):
        with pytest.raises(ValueError):
            SusceptanceMatrix(b=np.eye(2, dtype=complex), q=2)
        with pytest.raises(ValueError):
            SusceptanceMatrix(b=np.eye(2), q=2, z0=0.0)
