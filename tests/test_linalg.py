import numpy as np
import pytest
from numpy import kron
from numpy.testing import assert_allclose

from bdris.linalg import (
    compact_svd,
    log_majorizes,
    orthonormal_complement,
    principal_angles,
)


class TestCompactSVD:
    def test_identity(self):
        dec = compact_svd(np.eye(2), rank_tol=1e-12)
        assert dec.rank == 2
        assert_allclose(dec.singular_values, [1.0, 1.0])
        assert_allclose(dec.left @ dec.right.conj().T, np.eye(2), atol=1e-12)

    def test_rank_one_diagonal(self):
        dec = compact_svd(np.array([[3.0, 0.0], [0.0, 0.0]]), rank_tol=1e-12)
        assert dec.rank == 1
        assert_allclose(dec.singular_values, [3.0])
        # left and right are e1 up to phase
        assert abs(dec.left[0, 0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(dec.right[0, 0]) == pytest.approx(1.0, abs=1e-12)
        assert_allclose(dec.reconstruct(), [[3.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_seeded_against_gram_eigendecomposition(self, complex_matrix):
        a = complex_matrix(7, 3, 2)
        dec = compact_svd(a)
        # oracle: eigenvalues of a^H a are the squared singular values
        evals = np.linalg.eigvalsh(a.conj().T @ a)[::-1]
        assert_allclose(dec.singular_values**2, evals, rtol=1e-12)
        assert np.linalg.norm(dec.reconstruct() - a) < 1e-10 * np.linalg.norm(a)

    @pytest.mark.parametrize("seed,shape", [(0, (5, 3)), (1, (3, 5)), (2, (4, 4)), (3, (6, 2))])
    def test_factor_invariants(self, complex_matrix, seed, shape):
        a = complex_matrix(seed, *shape)
        dec = compact_svd(a)
        k = dec.rank
        assert_allclose(dec.left.conj().T @ dec.left, np.eye(k), atol=1e-10)
        assert_allclose(dec.right.conj().T @ dec.right, np.eye(k), atol=1e-10)
        assert np.all(np.diff(dec.singular_values) <= 0)
        assert np.all(dec.singular_values > 0)
        assert np.linalg.norm(dec.reconstruct() - a) <= 1e-10 * np.linalg.norm(a)

    def test_rank_truncation(self, complex_matrix):
        basis = np.linalg.qr(complex_matrix(11, 6, 2))[0]
        a = (basis * np.array([4.0, 1e-13])) @ basis.conj().T
        assert compact_svd(a, rank_tol=1e-12).rank == 1
        assert compact_svd(a, rank_tol=1e-15).rank == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            compact_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_empty_and_bad_tol(self):
        with pytest.raises(ValueError):
            compact_svd(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            compact_svd(np.eye(2), rank_tol=-1.0)


class TestPrincipalAngles:
    def test_identical_subspaces(self):
        e1 = np.array([[1.0], [0.0]], dtype=complex)
        pad = principal_angles(e1, e1)
        assert pad.cosines[0] == pytest.approx(1.0, abs=1e-14)
        assert pad.angles[0] == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal_subspaces(self):
        e1 = np.array([[1.0], [0.0]], dtype=complex)
        e2 = np.array([[0.0], [1.0]], dtype=complex)
        pad = principal_angles(e1, e2)
        assert pad.cosines[0] == pytest.approx(0.0, abs=1e-14)
        assert pad.angles[0] == pytest.approx(np.pi / 2, abs=1e-12)

    def test_oblique_pair_against_inner_product(self):
        e1 = np.array([[1.0], [0.0]], dtype=complex)
        mix = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2.0)
        pad = principal_angles(e1, mix)
        # oracle: single direction pair, cosine is |<vf1, vg1_conj>|
        assert pad.cosines[0] == pytest.approx(abs(e1.conj().T @ mix)[0, 0], rel=1e-12)
        assert pad.cosines[0] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_reconstruction_and_pairing(self, complex_matrix, seed):
        vf = np.linalg.qr(complex_matrix(seed, 8, 3))[0]
        vg = np.linalg.qr(complex_matrix(seed + 50, 8, 3))[0]
        pad = principal_angles(vf, vg)
        gram = vf.conj().T @ vg
        assert np.linalg.norm(pad.gram - gram) < 1e-10
        assert_allclose(pad.p_basis.conj().T @ pad.p_basis, np.eye(3), atol=1e-10)
        assert_allclose(pad.r_basis.conj().T @ pad.r_basis, np.eye(3), atol=1e-10)
        assert np.all(pad.cosines >= 0.0) and np.all(pad.cosines <= 1.0)
        # oracle: cosines are the singular values of the cross-Gram
        assert_allclose(pad.cosines, np.linalg.svd(gram, compute_uv=False), rtol=1e-10)

    def test_rejects_non_orthonormal(self, complex_matrix):
        skew = complex_matrix(3, 6, 2)
        ortho = np.linalg.qr(complex_matrix(4, 6, 2))[0]
        with pytest.raises(ValueError, match="orthonormal"):
            principal_angles(skew, ortho)

    def test_stacked_basis_singular_values(self):
        # the stacked frame [vf, conj(vg)] has singular values sqrt(1 +- cos)
        vf = np.array([[1.0], [0.0]], dtype=complex)
        vg_conj = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2.0)
        svals = np.linalg.svd(np.hstack([vf, vg_conj]), compute_uv=False)
        cos = 1.0 / np.sqrt(2.0)
        expected = np.sqrt([1.0 + cos, 1.0 - cos])  # 1.3065629..., 0.5411961...
        assert_allclose(svals, expected, atol=1e-9)
        assert svals[0] == pytest.approx(1.30656, abs=1e-5)
        assert svals[1] == pytest.approx(0.54120, abs=1e-5)


class TestOrthonormalComplement:
    def test_single_vector(self):
        q = np.array([[1.0], [0.0]], dtype=complex)
        comp = orthonormal_complement(q)
        assert comp.shape == (2, 1)
        assert abs(comp[1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_full_frame_is_empty(self):
        comp = orthonormal_complement(np.eye(4, dtype=complex))
        assert comp.shape == (4, 0)

    def test_seeded_frame(self, complex_matrix):
        q = np.linalg.qr(complex_matrix(21, 6, 2))[0]
        comp = orthonormal_complement(q)
        assert comp.shape == (6, 4)
        assert np.linalg.norm(comp.conj().T @ comp - np.eye(4)) < 1e-10
        assert np.linalg.norm(comp.conj().T @ q) < 1e-10

    def test_rejects_wide_frame(self):
        with pytest.raises(ValueError, match="columns"):
            orthonormal_complement(np.ones((2, 3)))


class TestLogMajorizes:
    def test_examples(self):
        assert log_majorizes([2.0, 2.0], [4.0, 1.0])
        assert not log_majorizes([4.0, 1.0], [2.0, 2.0])
        assert log_majorizes([3.0, 2.0, 1.0], [6.0, 1.0, 1.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_reflexive(self, seed):
        x = np.random.default_rng(seed).uniform(0.1, 10.0, size=5)
        assert log_majorizes(x, x)

    def test_unequal_products_fail(self):
        assert not log_majorizes([2.0, 1.0], [4.0, 1.0])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_majorizes([1.0, -1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            log_majorizes([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            log_majorizes([1.0], [1.0, 1.0])


class TestVecKron:
    def test_kron_identity_block(self):
        assert_allclose(kron(np.eye(2), [[5.0]]), np.diag([5.0, 5.0]))
