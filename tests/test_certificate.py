"""ScatteringMatrix validated through its frames: the frame certificate must
give the same passivity verdict and rank as the M x M SVD on the same theta,
and no design is ever formed densely on the evaluation path."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdris import designs, metrics, qstem
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

from conftest import make_iid_channels, maxdet_raw_svd, random_complex


def svd_verdict(theta):
    """(rank, None) when the M x M SVD accepts the dense theta, (None, message)
    otherwise; the frame certificate is switched off."""
    with mock.patch.object(designs, "_certified_rank", return_value=None):
        try:
            return ScatteringMatrix.from_theta(theta).rank, None
        except ValueError as exc:
            return None, str(exc)


def lifted_maxdet(ch):
    """solve_maxdet with its frame check lifted, so that the defective frames
    of nearly coinciding subspaces reach the certificate.  None when theta is
    rejected; a rejection can only come from the SVD fallback."""
    with mock.patch.object(designs, "_check_frame"):
        try:
            return solve_maxdet(ch)
        except ValueError as exc:
            assert "not passive" in str(exc)
            return None


def phase_rotated(ch, sol):
    """e^{j phi} Theta at the corrected phase phi, as the frames
    (e^{j phi/2} L, e^{-j phi/2} R): Theta = L L^T stays symmetric."""
    (phi,) = phase_correction(ch, sol, [10.0])
    h = np.exp(0.5j * phi)
    return ScatteringMatrix(h * sol.left, np.conj(h) * sol.right)


@st.composite
def channel_sets(draw):
    """Channels over M in [r, 64], n_t != n_r allowed, with a direct link.

    Optionally the Tx->RIS subspace nearly coincides with the conjugate of
    the RIS->Rx one: F = A W^H and G = B (conj(W) + eps N)^H."""
    n_t = draw(st.integers(1, 4))
    n_r = draw(st.integers(1, 4))
    r = min(n_t, n_r)
    m = draw(st.integers(r, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = draw(st.one_of(st.none(), st.floats(-8.0, -2.0).map(lambda e: 10.0**e)))
    if eps is None:
        f = random_complex(rng, n_r, m)
        g = random_complex(rng, n_t, m)
    else:
        w = np.linalg.qr(random_complex(rng, m, r))[0]
        f = random_complex(rng, n_r, r) @ w.conj().T
        g = random_complex(rng, n_t, r) @ (w.conj() + eps * random_complex(rng, m, r)).conj().T
    return ChannelSet(f=f, g=g, h_direct=random_complex(rng, n_r, n_t)), rng


class TestFactoredVerdict:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(channel_sets())
    def test_constructions_match_svd_path(self, drawn):
        ch, rng = drawn
        r = min(ch.n_t, ch.n_r)
        built = [unitary_baseline(ch), rotated_family(ch, np.linalg.qr(random_complex(rng, r, r))[0])]
        try:
            built.append(maxdet_raw_svd(ch))
        except DegenerateChannelError:
            pass  # the stacked basis is rank-deficient (M < 2r, or coinciding subspaces)
        sol = lifted_maxdet(ch)
        if sol is not None:
            built += [sol, phase_rotated(ch, sol)]
        for sm in built:
            assert (sm.rank, None) == svd_verdict(sm.theta)

    @pytest.mark.parametrize("m", [16, 256])
    def test_no_mxm_svd_for_factored_designs(self, m):
        ch = make_iid_channels(m, n_t=4, n_r=4, m=m, with_direct=True)
        svd = np.linalg.svd
        square = []

        def spy(a, *args, **kwargs):
            if np.shape(a) == (m, m):
                square.append(a)
            return svd(a, *args, **kwargs)

        b = qstem.synthesize_qstem(solve_maxdet(ch), 7)[0]
        with mock.patch.object(np.linalg, "svd", spy):
            sol = solve_maxdet(ch)
            built = [sol, unitary_baseline(ch), rotated_family(ch, np.eye(4)),
                     maxdet_raw_svd(ch),
                     phase_rotated(ch, sol),
                     qstem.complete_to_unitary(sol),
                     ScatteringMatrix.from_theta(np.eye(m)),
                     random_symmetric_unitary(m, seed=5),
                     qstem.b_to_theta(b)]
        assert not square
        assert [sm.rank for sm in built] == [8, 4, 4, 8, 8, m, m, m, m]

    def test_dense_theta_never_formed(self):
        m = 256
        ch = make_iid_channels(m, n_t=4, n_r=4, m=m, with_direct=True)
        blocked = ChannelSet(f=ch.f, g=ch.g)

        def dense(self):
            raise AssertionError("dense theta formed")

        with mock.patch.object(ScatteringMatrix, "theta", property(dense)):
            sol = solve_maxdet(ch)
            built = [sol, phase_rotated(ch, sol),
                     unitary_baseline(ch),
                     rotated_family(ch, np.linalg.qr(random_complex(np.random.default_rng(3), 4, 4))[0])]
            for sm in built:
                for channels in (ch, blocked):
                    rate, det, sigma_min = metrics.evaluate_design(channels, sm, [10.0])[0]
                    assert np.isfinite(rate) and det > 0.0 and sigma_min > 0.0
            verify_block_structure(ch, sol)
        assert [sm.rank for sm in built] == [8, 8, 4, 4]


class TestCertificateFallsBack:
    @staticmethod
    def frames(seed=0, m=12, s=3):
        rng = np.random.default_rng(seed)
        left = np.linalg.qr(random_complex(rng, m, s))[0]
        right = np.linalg.qr(random_complex(rng, m, s))[0]
        return rng, left, right

    def test_scaled_frames_are_not_passive(self):
        _, left, right = self.frames()
        with pytest.raises(ValueError, match="not passive"):
            ScatteringMatrix(2.0 * left, right)

    @pytest.mark.parametrize("defect", [1e-6, 1e-3, 0.5])
    def test_frame_defect_falls_back_to_svd(self, defect):
        rng, left, right = self.frames(2)
        left = left + defect * random_complex(rng, *left.shape)
        left /= max(1.0, np.linalg.norm(left, 2))  # keep theta passive
        assert designs._certified_rank(left, right) is None
        sm = ScatteringMatrix(left, right)
        assert (sm.rank, None) == svd_verdict(sm.theta)

    def test_factor_shapes_checked(self):
        _, left, right = self.frames()
        with pytest.raises(ValueError, match="same shape"):
            ScatteringMatrix(left, right[:-1])
