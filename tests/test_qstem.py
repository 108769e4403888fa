import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import bdris
from bdris import designs, harness, metrics, qstem
from bdris.channel import ChannelSet
from bdris.designs import ScatteringMatrix, random_symmetric_unitary, solve_maxdet, unitary_baseline
from bdris.qstem import (
    CayleySingularityError,
    SusceptanceMatrix,
    b_to_theta,
    build_qstem_system,
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


def place(q, m, values):
    """The symmetric B with the free parameters of ``_free_params`` set to values."""
    b = np.zeros((m, m))
    i, j = qstem._free_params(q, m)
    b[i, j] = b[j, i] = values
    return b


def test_import_loads_no_scipy():
    src = str(Path(bdris.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, bdris; print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
    """The free-parameter coordinates that map the parameters to B."""

    def test_m2_q1_enumeration(self):
        i, j = qstem._free_params(1, 2)
        # parameters in column-major lower-triangle order: b11, b21, b22
        assert list(zip(i.tolist(), j.tolist())) == [(0, 0), (1, 0), (1, 1)]
        assert_allclose(place(1, 2, [1.0, 2.0, 3.0]), [[1.0, 2.0], [2.0, 3.0]])

    def test_m6_q2_zero_rows(self):
        b = place(2, 6, np.ones(element_count(2, 6)))
        zeros = {(i, j) for i, j in zip(*np.nonzero(b == 0))}
        assert len(zeros) == 12  # the 4x4 trailing block minus its diagonal
        assert zeros == {(i, j) for i in range(6) for j in range(6) if i != j and min(i, j) >= 2}

    @pytest.mark.parametrize("q,m", [(1, 4), (3, 8), (7, 16), (5, 5)])
    def test_support_matches_pattern(self, q, m):
        i, j = qstem._free_params(q, m)
        assert i.size == element_count(q, m)
        assert np.all(i >= j)  # each unordered pair once, from the lower triangle
        assert len(set(zip(i.tolist(), j.tolist()))) == i.size
        b = place(q, m, np.ones(i.size))
        assert np.array_equal(b != 0, qstem_support(q, m))
        assert np.array_equal(b, b.T)


class TestQStemSystem:
    def test_design_matrix_matches_direct_assembly(self, iid_channels):
        design = solve_maxdet(iid_channels(1, n_t=2, n_r=2, m=6))
        w = build_qstem_system(design, q=3)
        re_q = design.left.real
        # oracle: column p of W is vec(B_p Re(Q)) for the basis matrix B_p
        m, s = re_q.shape
        params = [(i, j) for j in range(m) for i in range(j, m) if j < 3 or i == j]
        assert w.shape == (s * m, element_count(3, m)) == (s * m, len(params))
        for p, (i, j) in enumerate(params):
            basis = np.zeros((m, m))
            basis[i, j] = 1.0
            basis[j, i] = 1.0
            col = (basis @ re_q).ravel(order="F")
            assert_allclose(w[:, p], col, atol=1e-14)


class TestSynthesize:
    def test_real_frame_gives_zero_susceptance(self):
        q = np.eye(4, dtype=complex)[:, :2]
        b, residual, alpha = synthesize_qstem(ScatteringMatrix(q, q.conj()), q=1)
        assert alpha == 0.0  # Re Q has full rank: no rotation
        assert residual == pytest.approx(0.0, abs=1e-15)
        assert_allclose(b.b, 0.0, atol=1e-15)
        assert_allclose(b_to_theta(b).theta, np.eye(4), atol=1e-15)

    def test_seeded_exact_at_minimum_stems(self, iid_channels):
        ch = iid_channels(2, n_t=2, n_r=2, m=8)
        b, residual, alpha = synthesize_qstem(solve_maxdet(ch), q=3)  # q = 2r - 1
        assert residual < 1e-8
        assert alpha == 0.0
        det = metrics.abs_det(metrics.equivalent_channel(ch, b_to_theta(b)))
        assert det == pytest.approx(metrics.d_max(ch), rel=1e-7)

    def test_underparameterized_has_residual(self, iid_channels):
        ch = iid_channels(3, n_t=2, n_r=2, m=8)
        _, residual, _ = synthesize_qstem(solve_maxdet(ch), q=1)
        assert residual > 1e-3

    def test_residual_monotone_in_q(self, iid_channels):
        ch = iid_channels(4, n_t=2, n_r=2, m=8)
        design = solve_maxdet(ch)
        residuals = [synthesize_qstem(design, q)[1] for q in range(1, 9)]
        assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(residuals, residuals[1:]))

    def test_rate_matches_lowrank_when_exact(self, iid_channels):
        ch = iid_channels(5, n_t=2, n_r=2, m=8)
        lowrank = solve_maxdet(ch)
        b, residual, _ = synthesize_qstem(lowrank, q=3)
        assert residual < 1e-8
        h_b = metrics.equivalent_channel(ch, b_to_theta(b))
        h_lr = metrics.equivalent_channel(ch, lowrank)
        assert np.linalg.norm(h_b - h_lr) < 1e-7
        for rho in (1.0, 100.0):
            assert metrics.achievable_rate(h_b, rho) == pytest.approx(
                metrics.achievable_rate(h_lr, rho), abs=1e-6
            )

    @pytest.mark.parametrize("n_t,n_r,m", [(2, 2, 6), (2, 4, 6), (3, 3, 5), (4, 4, 64)])
    def test_real_channels_exact_up_to_phase(self, iid_channels, n_t, n_r, m):
        # Re Q = [U1, 0] for real F and G: Q itself has no q-stem
        # realization, e^{j alpha} Q has one at q = 2r - 1
        iid = iid_channels(9, n_t=n_t, n_r=n_r, m=m)
        ch = ChannelSet(f=iid.f.real + 0j, g=iid.g.real + 0j)
        design = solve_maxdet(ch)
        q, s = design.left, design.left.shape[1]
        assert np.linalg.matrix_rank(q.real) < s
        b, residual, alpha = synthesize_qstem(design, q=s - 1)
        assert alpha in qstem._PHASES
        assert residual <= 1e-8 * np.linalg.norm(q)
        theta = b_to_theta(b)
        # Theta_B conj(Q) = e^{2j alpha} Q: the circuit realizes e^{2j alpha} Q Q^T
        assert np.linalg.norm(theta.theta @ q.conj() - np.exp(2j * alpha) * q) < 1e-8
        det = metrics.abs_det(metrics.equivalent_channel(ch, theta))
        assert det == pytest.approx(metrics.d_max(ch), rel=1e-8)

    def test_dof_margin_at_minimum_stems(self):
        for r, m in [(2, 8), (4, 16), (4, 32)]:
            nu = element_count(2 * r - 1, m)
            assert nu - (2 * r * m - 2 * r**2) == r


def dense_synthesis(frame, q, alpha=0.0):
    """The oracle: the dense 2rM x nu system for e^{j alpha} Q solved by
    np.linalg.lstsq."""
    target = np.exp(1j * alpha) * frame
    w = build_qstem_system(SimpleNamespace(left=target), q)
    rhs = -target.imag.ravel(order="F")
    sol, *_ = np.linalg.lstsq(w, rhs, rcond=None)
    return place(q, len(frame), sol), np.linalg.norm(w @ sol - rhs)


def lifted_design(ch):
    """The Max-Det design with the frame and passivity checks lifted, so that
    the defective frames of nearly coinciding subspaces are covered too."""
    def design(left, right):
        return SimpleNamespace(left=left, right=right, m=left.shape[0])

    with mock.patch.object(designs, "_check_frame"), \
            mock.patch.object(designs, "ScatteringMatrix", design):
        return designs.solve_maxdet(ch)


def check_against_oracle(kind, exact, q, b, res, alpha):
    b_dense, res_dense = dense_synthesis(exact, q, alpha)
    # One-sided: lstsq's own rounding reaches ~1e-10 on nearly consistent
    # systems, where the refined block solve reaches ~1e-12 (real, M = 30,
    # q = 3: 8.2e-13 vs 7.4e-11, with B equal to 1e-9).
    assert res <= res_dense + max(1e-10 * res_dense, 1e-11), (kind, q, res, res_dense)
    if kind != "weak_tail":  # B is ill-posed there
        assert np.linalg.norm(b.b - b_dense) <= 1e-9 * np.linalg.norm(b_dense), (kind, q)


def exact_frame(design, disconnected):
    """Q with the rows of the disconnected elements exactly 0, as in exact
    arithmetic.  The oracle needs it: on rows left at ~1e-16, lstsq's rank
    cutoff does not always drop b_kk = y_k / x_k, an O(1) ratio of noise."""
    q = design.left.copy()
    q[disconnected] = 0.0
    return q


SYNTHESIS_KINDS = ("generic", "near", "real", "zero_tail", "zero_head", "weak_tail", "duplicate")


@st.composite
def synthesis_cases(draw):
    """[(kind, design, oracle frame, q values)] for every kind on one draw of
    M in [r, 64], n_t != n_r and the seed.

    kind "near" makes the two RIS subspaces nearly coincide (G's subspace is
    conj(W) + eps N, as in test_certificate.py).  "real" channels give
    Re Q = [U1, 0], which the synthesis rotates to full rank.  "zero_tail"
    and "zero_head" switch the last or the first elements off, giving Q zero
    rows, and "weak_tail" scales the last ones by 10^U(-14, -6): their tail
    blocks are (nearly) singular while q < s.  "duplicate" gives the last
    element the channels of the first, so its tail row lies in the row space
    of the stems and adds a null vector to the system."""
    n_t = draw(st.integers(1, 4))
    n_r = draw(st.integers(1, 4))
    r = min(n_t, n_r)
    m = draw(st.integers(r, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    eps = 10.0 ** draw(st.floats(-8.0, -2.0))
    off = draw(st.integers(0, max(0, m - 2 * r)))
    q_drawn = draw(st.integers(1, m))
    cases = []
    for kind in SYNTHESIS_KINDS:
        rng = np.random.default_rng(seed)
        f = random_complex(rng, n_r, m)
        g = random_complex(rng, n_t, m)
        if kind == "near":
            w = np.linalg.qr(random_complex(rng, m, r))[0]
            f = random_complex(rng, n_r, r) @ w.conj().T
            g = random_complex(rng, n_t, r) @ (w.conj() + eps * random_complex(rng, m, r)).conj().T
        elif kind == "real":
            f, g = f.real + 0j, g.real + 0j
        elif kind == "weak_tail":
            scale = 10.0 ** rng.uniform(-14.0, -6.0, off)
            f[:, m - off:] *= scale
            g[:, m - off:] *= scale
        elif kind == "duplicate" and m > r:
            f[:, -1], g[:, -1] = f[:, 0], g[:, 0]
        switched = {"zero_tail": np.arange(m - off, m), "zero_head": np.arange(off)}.get(kind, [])
        f[:, switched] = g[:, switched] = 0.0
        design = lifted_design(ChannelSet(f=f, g=g))
        s = design.left.shape[1]
        qs = {q_drawn, max(1, s - 1), min(s, m)}
        cases.append((kind, design, exact_frame(design, switched), sorted(qs)))
    return cases


class TestBlockSolve:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(synthesis_cases())
    def test_matches_dense_least_squares(self, cases):
        for kind, design, exact, qs in cases:
            # the synthesis rotates Q when Re Q fails this Gram-eigenvalue test
            re_q = design.left.real
            lam = np.linalg.eigvalsh(re_q.T @ re_q)
            rotated = lam[0] <= qstem._GRAM_RCOND * lam[-1]
            if kind == "real":  # Re Q = [U1, 0], with exact zero columns when an angle moves
                assert rotated == (np.linalg.matrix_rank(re_q) < re_q.shape[1])
            for q in qs:
                with mock.patch.object(qstem, "build_qstem_system") as dense:
                    b, res, alpha = synthesize_qstem(design, q, z0=1.0)
                assert not dense.called
                assert (alpha != 0.0) == rotated
                check_against_oracle(kind, exact, q, b, res, alpha)

    @pytest.mark.parametrize("switched", [[], [0, 1]])
    @pytest.mark.parametrize("n_t,n_r,m", [(2, 2, 6), (3, 4, 9), (4, 4, 12)])
    def test_disconnected_and_duplicated_elements(self, switched, n_t, n_r, m):
        # every q, so that q < 2r - 1 is covered: the last element copies
        # element 2, a dead tail row once element 2 is a stem, and the
        # switched-off first elements are dead stems
        rng = np.random.default_rng(17)
        f, g = random_complex(rng, n_r, m), random_complex(rng, n_t, m)
        f[:, switched] = g[:, switched] = 0.0
        f[:, -1], g[:, -1] = f[:, 2], g[:, 2]
        design = solve_maxdet(ChannelSet(f=f, g=g))
        for q in range(1, design.left.shape[1] + 2):
            b, res, alpha = synthesize_qstem(design, q, z0=1.0)
            check_against_oracle("duplicate", exact_frame(design, switched), q, b, res, alpha)

    def test_linearly_dependent_stems_raise(self):
        # two stems with the same channels make every tail block singular at
        # q < 2r, which the block elimination does not cover
        rng = np.random.default_rng(5)
        f, g = random_complex(rng, 2, 8), random_complex(rng, 2, 8)
        f[:, 1], g[:, 1] = f[:, 0], g[:, 0]
        design = solve_maxdet(ChannelSet(f=f, g=g))
        with pytest.raises(np.linalg.LinAlgError, match="singular tail block"):
            synthesize_qstem(design, q=3)
        assert synthesize_qstem(design, q=design.left.shape[1] + 1)[1] <= 1e-8

    def test_weak_stems_never_exceed_zero_residual(self):
        # stems scaled by 10^U(-14, -6) can leave the block solve far off; it
        # raises rather than return a B worse than B = 0 (seed 40, q = 2: 6e6x)
        raised = []
        for seed in range(80):
            rng = np.random.default_rng(seed)
            f, g = random_complex(rng, 4, 32), random_complex(rng, 4, 32)
            k = rng.integers(1, 6)
            scale = 10.0 ** rng.uniform(-14.0, -6.0, k)
            f[:, :k] *= scale
            g[:, :k] *= scale
            design = solve_maxdet(ChannelSet(f=f, g=g))
            for q in range(1, 8):
                try:
                    _, res, alpha = synthesize_qstem(design, q)
                except np.linalg.LinAlgError as exc:
                    if "exceeds that of B = 0" in str(exc):
                        raised.append((seed, q))
                    continue
                y = (np.exp(1j * alpha) * design.left).imag
                assert res <= (1.0 + 1e-12) * np.linalg.norm(y), (seed, q)
        assert (40, 2) in raised

    def test_no_dense_system_on_generic_path(self):
        m, r = 256, 4
        design = solve_maxdet(make_iid_channels(3, n_t=r, n_r=r, m=m))
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
            residuals = [synthesize_qstem(design, q)[1] for q in range(1, 11)]
        assert not dense.called
        assert shapes and max(rows for rows, _ in shapes) < 2 * r * m
        nus = {element_count(q, m) for q in range(1, 11)}
        assert not any(cols in nus for _, cols in shapes)
        assert residuals[2 * r - 2] <= 1e-8
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))


class TestDesignInput:
    def test_rejects_designs_not_stored_as_q_q_transpose(self, iid_channels):
        ch = iid_channels(1, m=6)
        q = solve_maxdet(ch).left
        cases = [(unitary_baseline(ch), "not stored as"),
                 (ScatteringMatrix.from_theta(q @ q.T), "not stored as"),
                 (ScatteringMatrix(0.5 * q, 0.5 * q.conj()), "not orthonormal")]
        for design, message in cases:
            with pytest.raises(ValueError, match=message):
                synthesize_qstem(design, 3)
            with pytest.raises(ValueError, match=message):
                complete_to_unitary(design)

    def test_any_q_q_transpose_design_is_realized(self):
        design = random_symmetric_unitary(6, seed=3)
        b, residual, _ = synthesize_qstem(design, q=6)
        assert residual <= 1e-8
        assert np.linalg.norm(b_to_theta(b).theta - design.theta) <= 1e-8


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

    @pytest.mark.parametrize("diagonal,z0", [([1e14, 0.0, -1e-3], 50.0), ([1e12, 0.0], 50.0),
                                             ([1e14, -1e-3, 0.0, 3.0, -20.0], 7.0)])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_extreme_susceptance_matches_closed_form(self, diagonal, z0, rotated):
        # each eigenvalue b maps to (1 - j z0 b) / (1 + j z0 b), however large
        # z0 b is; the rotation R = blkdiag(1, R') leaves the largest on its
        # own, as rounding R B R^T would blur the small ones
        m = len(diagonal)
        x = 1j * z0 * np.array(diagonal)
        closed = np.diag((1.0 - x) / (1.0 + x))
        r = np.eye(m)
        if rotated:
            r[1:, 1:] = np.linalg.qr(np.random.default_rng(m).standard_normal((m - 1, m - 1)))[0]
        b = r @ np.diag(diagonal) @ r.T
        theta = b_to_theta(SusceptanceMatrix(b=0.5 * b + 0.5 * b.T, q=m, z0=z0)).theta
        assert np.linalg.norm(theta - r @ closed @ r.T) <= 1e-14 * np.sqrt(m)
        assert np.linalg.norm(theta - theta.T) <= 1e-14
        assert np.linalg.norm(theta @ theta.conj().T - np.eye(m)) <= 1e-14

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
        with pytest.raises(ValueError, match="non-finite"):
            theta_to_b(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_phase_fallback_resolves_exchange_matrix(self):
        exchange = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        phi, b = cayley_with_phase_fallback(exchange)
        assert phi > 0.0
        back = b_to_theta(b).theta
        assert np.linalg.norm(back - np.exp(1j * phi) * exchange) < 1e-9

    def test_phase_fallback_fails_at_every_phase(self):
        # e^{j phi} Theta has the eigenvalue -1 at each fallback phase phi
        phases = np.array([0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8])
        with pytest.raises(CayleySingularityError) as info:
            cayley_with_phase_fallback(np.diag(-np.exp(-1j * phases)))
        assert all(f"phi={phi:.4f}:" in str(info.value) for phi in phases)


class TestCompleteToUnitary:
    def test_full_frame_unchanged(self):
        w = np.linalg.qr(
            np.random.default_rng(8).standard_normal((5, 5))
            + 1j * np.random.default_rng(9).standard_normal((5, 5))
        )[0]
        design = ScatteringMatrix(w, w.conj())
        assert_allclose(complete_to_unitary(design).theta, w @ w.T, atol=1e-13)

    def test_maxdet_frame_extension_is_transparent(self, iid_channels):
        ch = iid_channels(7, n_t=2, n_r=2, m=8)
        design = solve_maxdet(ch)
        full = complete_to_unitary(design)
        assert np.linalg.norm(full.theta @ full.theta.conj().T - np.eye(8)) < 1e-10
        lhs = ch.f @ full.theta @ ch.g.conj().T
        rhs = ch.f @ (design.left @ design.left.T) @ ch.g.conj().T
        assert np.linalg.norm(lhs - rhs) < 1e-9


def dense_fully_connected(ch, design, z0):
    """The dense oracle of the fully connected row: the M x M completion, its
    Cayley map with phase retries and the Cayley map back."""
    phi, b = cayley_with_phase_fallback(complete_to_unitary(design).theta, z0)
    return metrics.ris_channel(ch, b_to_theta(b)), phi


@st.composite
def stem_cases(draw):
    """(channels, r, kind) over n_t, n_r in 1..4 and r <= M <= 40, M < 2r
    included: complex or real channels (Re Q rank-deficient, alpha != 0), the
    first elements switched off (dead stems), or the last element a copy of
    the first (a duplicated stem row)."""
    n_t, n_r = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    r = min(n_t, n_r)
    m = draw(st.one_of(st.integers(r, 2 * r - 1), st.integers(2 * r, 40)))
    kind = draw(st.sampled_from(["complex", "real", "dead", "duplicate"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f, g = random_complex(rng, n_r, m), random_complex(rng, n_t, m)
    if kind == "real":
        f, g = f.real + 0j, g.real + 0j
    elif kind == "dead":
        off = draw(st.integers(0, m - r))
        f[:, :off] = g[:, :off] = 0.0
    elif kind == "duplicate" and m > r:
        f[:, -1], g[:, -1] = f[:, 0], g[:, 0]
    return ChannelSet(f=f, g=g), r, kind


class TestStructuredEvaluation:
    """The harness evaluates each q-stem and fully connected row through the
    circuit's structure; the dense Cayley maps are the oracle."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(stem_cases(), st.sampled_from([1.0, 50.0]))
    def test_qstem_channel_matches_dense_cayley(self, case, z0):
        # both paths round as eps ||z0 B||: 1e-12 relative up to ||z0 B||_2 = 1e4 (a 600-draw
        # scan of this domain: at most 9e-13 to 1.6e-12 relative at ||z0 B||_2 = 2e4 to 1.4e5)
        ch, r, kind = case
        design = solve_maxdet(ch)
        for q in sorted({1, min(2 * r - 1, ch.m), ch.m}):
            b, _, alpha = synthesize_qstem(design, q, z0)
            dense = metrics.ris_channel(ch, b_to_theta(b))
            h = qstem.qstem_channel(ch, b)
            tol = 1e-12 * max(1.0, 1e-4 * np.linalg.norm(z0 * b.b, 2))
            assert np.linalg.norm(h - dense) <= tol * np.linalg.norm(dense), (kind, q)
            if kind == "complex":
                assert alpha == 0.0

    @pytest.mark.parametrize("kind,n_t,n_r,m", [("complex", 3, 3, 12), ("complex", 2, 4, 9), ("complex", 4, 4, 6),
                                                ("real", 3, 3, 12), ("real", 2, 2, 3)])
    @pytest.mark.parametrize("z0", [1.0, 50.0])
    def test_core_completion_matches_dense(self, kind, n_t, n_r, m, z0):
        # real channels give Q = [U1, -j U2], so Theta_full has the eigenvalue -1
        # and the Cayley map needs a phase retry
        iid = make_iid_channels(31, n_t=n_t, n_r=n_r, m=m)
        ch = iid if kind == "complex" else ChannelSet(f=iid.f.real + 0j, g=iid.g.real + 0j)
        design = solve_maxdet(ch)
        h, phi = qstem.fully_connected_channel(ch, design, z0)
        dense, dense_phi = dense_fully_connected(ch, design, z0)
        assert phi == dense_phi and (phi != 0.0) == (kind == "real")
        assert np.linalg.norm(h - dense) <= 1e-12 * np.linalg.norm(dense)
        # the completion leaves F Q Q^T G^H alone, up to the global phase
        lowrank = metrics.ris_channel(ch, design)
        assert np.linalg.norm(h - np.exp(1j * phi) * lowrank) <= 1e-12 * np.linalg.norm(lowrank)

    def test_core_completion_of_full_width_frame(self):
        # 2s > M: the basis E spans the whole space and the complement is empty
        design = random_symmetric_unitary(6, seed=4)
        ch = make_iid_channels(32, n_t=2, n_r=3, m=6)
        h, phi = qstem.fully_connected_channel(ch, design, 50.0)
        dense, dense_phi = dense_fully_connected(ch, design, 50.0)
        assert phi == dense_phi
        assert np.linalg.norm(h - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_qstem_sweep_has_no_mxm_operand(self):
        m = 256
        config = harness.parse_config(f"experiment = qstem_sweep\ntrials = 1\nm = {m}\nq_grid = 1, 3, 7, 10\n")
        shapes = []

        def spy(fn):
            def wrapped(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return fn(a, *args, **kwargs)
            return wrapped

        ops = ("svd", "eigh", "solve", "eigvals", "inv", "qr")
        with mock.patch.multiple(np.linalg, **{op: spy(getattr(np.linalg, op)) for op in ops}):
            records = harness.run_experiment(config)
        assert len(records) == 6 and not any(rec.error for rec in records)
        assert shapes and not [shape for shape in shapes if shape[-2:] == (m, m)]


class TestSusceptanceMatrixType:
    @pytest.mark.parametrize("entries,q,message", [
        ({(2, 3): np.nan, (3, 2): np.nan}, 1, "finite"),  # in the tail, off its diagonal
        ({(0, 3): np.inf, (3, 0): np.inf}, 1, "finite"),
        ({(3, 3): np.nan}, 1, "finite"),
        ({(2, 3): 1.0}, 1, "symmetric"),  # and off the pattern
        ({(0, 3): 1.0}, 1, "symmetric"),
        ({(0, 3): 1.0}, 0, "symmetric"),
        ({(0, 3): 1.0, (3, 0): 1.0}, 5, "q must be"),
        ({(2, 3): 1.0, (3, 2): 1.0}, 2, "sparsity"),
    ])
    def test_first_failing_check_names_the_error(self, entries, q, message):
        b = np.diag([1.0, 2.0, 3.0, 4.0])
        for index, value in entries.items():
            b[index] = value
        with pytest.raises(ValueError, match=message):
            SusceptanceMatrix(b=b, q=q)

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

    @pytest.mark.parametrize("z0", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    def test_z0_checked_before_b(self, z0):
        with pytest.raises(ValueError, match="z0"):
            SusceptanceMatrix(b=np.full((2, 2), np.nan), q=2, z0=z0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z0", [np.inf, np.nan])
    def test_non_finite_z0_rejected_before_division(self, z0, iid_channels):
        design = solve_maxdet(iid_channels(1, m=6))
        with pytest.raises(ValueError, match="z0"):
            synthesize_qstem(design, 3, z0=z0)
        with pytest.raises(ValueError, match="z0"):
            theta_to_b(np.eye(3), z0=z0)