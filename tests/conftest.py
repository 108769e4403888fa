import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest

from bdris import designs
from bdris.channel import ChannelSet, derive_seed, gen_rayleigh
from bdris.linalg import _check_frame, compact_svd


def make_iid_channels(seed, n_t=2, n_r=2, m=8, with_direct=False):
    """Unit-variance i.i.d. Gaussian channel triple with per-link derived seeds."""
    f = gen_rayleigh(n_r, m, derive_seed(seed, 0))
    g = gen_rayleigh(n_t, m, derive_seed(seed, 1))
    h = gen_rayleigh(n_r, n_t, derive_seed(seed, 2)) if with_direct else None
    return ChannelSet(f=f, g=g, h_direct=h)


@pytest.fixture
def iid_channels():
    return make_iid_channels


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@pytest.fixture
def complex_matrix():
    def make(seed, rows, cols):
        return random_complex(np.random.default_rng(seed), rows, cols)

    return make


def maxdet_raw_svd(channels):
    """Comparison oracle for solve_maxdet: U taken straight from one SVD of
    [V_f, conj(V_g)], Theta = U blkdiag(I, -I) U^T.

    Whether this attains d_max depends on the SVD backend's per-column phase
    choices; run ``verify_block_structure`` on the result before trusting it.
    """
    r = min(channels.n_t, channels.n_r)
    vf1, vg1 = designs._top_right_subspaces(channels, r)
    dec = compact_svd(np.hstack([vf1, vg1.conj()]))
    if dec.rank < 2 * r:
        raise designs.DegenerateChannelError(
            "stacked subspace basis is rank-deficient; use solve_maxdet, which "
            "handles coinciding subspaces"
        )
    q = _check_frame(np.column_stack([dec.left[:, :r], -1j * dec.left[:, r:2 * r]]))
    return designs.ScatteringMatrix(q, q.conj())


@contextlib.contextmanager
def defective_maxdet_frame():
    """solve_maxdet builds frames 1e-6 off orthonormal: the principal vectors
    it pairs are scaled by 1 + 1e-6."""
    angles = designs.principal_angles

    def scaled(*args):
        pad = angles(*args)
        return dataclasses.replace(pad, p_basis=(1.0 + 1e-6) * pad.p_basis)

    with mock.patch.object(designs, "principal_angles", scaled):
        yield
