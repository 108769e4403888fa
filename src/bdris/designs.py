"""Scattering-matrix constructions for a RIS-assisted MIMO link.

The centerpiece couples the dominant right-singular subspaces of the two RIS
links through their principal angles.  With gram = V_f^H conj(V_g)
= P diag(cos t_k) R^H, the vectors

    u1_k = (V_f p_k + conj(V_g) r_k) / sqrt(2 (1 + cos t_k))
    u2_k = (V_f p_k - conj(V_g) r_k) / sqrt(2 (1 - cos t_k))

form an orthonormal set, and

    Theta = sum_k u1_k u1_k^T - sum_k u2_k u2_k^T = Q Q^T,   Q = [U1, -j U2]

is symmetric, passive, rank 2r, and attains the determinant ceiling d_max.
Building U1/U2 from one principal-angle factorization (rather than from a raw
SVD of [V_f, conj(V_g)]) pins the per-pair phases that optimality requires;
a raw-SVD comparison path is kept in ``maxdet_raw_svd``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from . import metrics
from .linalg import (
    _as_matrix,
    _check_frame,
    compact_svd,
    orthonormal_complement,
    principal_angles,
)

PASSIVITY_TOL = 1e-10
SYMMETRY_TOL = 1e-10
# A principal angle with 1 - cos below this counts as zero: its difference
# vector u2 degenerates to 0/0 and is dropped.
ZERO_ANGLE_TOL = 1e-12
# Uniform phase grid of phase_correction, refined by a bounded scalar search.
PHASE_GRID_POINTS = 360

KINDS = ("max_det_symmetric", "unitary_baseline", "rotated", "random_symmetric", "identity", "custom")
# unitary_baseline and rotated are deliberately non-symmetric reference designs.
_SYMMETRIC_KINDS = frozenset({"max_det_symmetric", "random_symmetric", "identity"})


class DegenerateChannelError(ValueError):
    """Raised when F or G has rank below the MIMO degrees of freedom."""


@dataclass(frozen=True)
class ScatteringMatrix:
    """The M x M scattering matrix Theta = left @ right^H of two M x s frames,
    with passivity (and, for symmetric kinds, reciprocity) checked on
    construction; ``rank`` is the numerical rank ``#{sigma_i > M eps sigma_max}``
    of the same check.

    Passivity and rank are certified from the frames in O(M s^2) (see
    ``_certified_rank``); the M x M SVD of ``theta`` runs only when the
    certificate cannot decide, so every verdict and rank is the SVD's.  A
    symmetric kind with ``right == conj(left)`` is symmetric by construction
    (Theta = L L^T); otherwise the dense Theta is checked.  The dense
    ``theta`` is formed on first access only; ``from_theta`` wraps a dense
    matrix as the frames (theta, I).
    """

    left: np.ndarray
    right: np.ndarray
    kind: str
    rank: int = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        left = _as_matrix(self.left, "left frame")
        right = _as_matrix(self.right, "right frame")
        if left.shape != right.shape:
            raise ValueError(f"frames must have the same shape, got {left.shape} and {right.shape}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        rank = _certified_rank(left, right)
        if rank is None:
            s = np.linalg.svd(self.theta, compute_uv=False)
            if s[0] > 1.0 + PASSIVITY_TOL:
                raise ValueError(f"theta is not passive (sigma_max = {s[0]:.12g})")
            rank = int(np.sum(s > _rank_cutoff(self.m, s[0])))
        object.__setattr__(self, "rank", rank)
        if self.kind in _SYMMETRIC_KINDS and not np.array_equal(right, left.conj()):
            t = self.theta
            defect = np.linalg.norm(t - t.T)
            if defect > SYMMETRY_TOL * max(np.linalg.norm(t), 1e-300):
                raise ValueError(f"theta is not symmetric (defect {defect:.2e})")

    @classmethod
    def from_theta(cls, theta, kind: str) -> "ScatteringMatrix":
        t = _as_matrix(theta, "theta")
        if t.shape[0] != t.shape[1]:
            raise ValueError("theta must be square")
        return cls(t, np.eye(t.shape[0]), kind)

    @functools.cached_property
    def theta(self) -> np.ndarray:
        return self.left @ self.right.conj().T

    @property
    def m(self) -> int:
        return self.left.shape[0]


def _rank_cutoff(m, sigma_max):
    return m * np.finfo(float).eps * sigma_max


def _certified_rank(left, right):
    """Passivity and rank of Theta = left @ right^H from its frames, or None
    when the bounds below cannot decide.

    A frame X with defect d = ||X^H X - I||_F has every singular value in
    [sqrt(1 - d), sqrt(1 + d)], so the s nonzero singular values of Theta lie
    in [lo, hi] with hi = sqrt((1 + d_L)(1 + d_R)) and
    lo = sqrt((1 - d_L)(1 - d_R)), and the other M - s are zero.  Theta is
    passive when hi <= 1 + PASSIVITY_TOL, and its rank is s when lo clears
    the largest possible rank cutoff.
    """
    m, s = left.shape
    eye = np.eye(s)
    d_l = np.linalg.norm(left.conj().T @ left - eye)
    d_r = np.linalg.norm(right.conj().T @ right - eye)
    hi = np.sqrt((1.0 + d_l) * (1.0 + d_r))
    lo = np.sqrt(max(0.0, (1.0 - d_l) * (1.0 - d_r)))
    if hi <= 1.0 + PASSIVITY_TOL and lo > _rank_cutoff(m, hi):
        return s
    return None


@dataclass(frozen=True)
class StiefelFrame:
    """M x s matrix with orthonormal columns (q^H q = I_s within FRAME_TOL)."""

    q: np.ndarray

    def __post_init__(self):
        _check_frame(self.q, "frame")

    @property
    def m(self) -> int:
        return self.q.shape[0]

    @property
    def s(self) -> int:
        return self.q.shape[1]


@dataclass(frozen=True)
class BlockAlignment:
    """Diagnostics of T = V_F^H Theta V_G.

    ``off_diag_norm`` is the Frobenius norm of the two coupling blocks,
    ``t1_unitarity_defect`` is ||T1^H T1 - I||_F, and ``t1_pairing_defect``
    measures how far T1 is from P R^T modulo the free per-index phases."""

    t_matrix: np.ndarray
    t1: np.ndarray
    off_diag_norm: float
    t1_unitarity_defect: float
    t1_pairing_defect: float


def _top_right_subspaces(channels, r):
    svd_f = compact_svd(channels.f)
    svd_g = compact_svd(channels.g)
    if svd_f.rank < r or svd_g.rank < r:
        raise DegenerateChannelError(
            f"channel rank below degrees of freedom r={r} "
            f"(rank F = {svd_f.rank}, rank G = {svd_g.rank})"
        )
    return svd_f.right[:, :r], svd_g.right[:, :r]


def solve_maxdet(channels) -> tuple[ScatteringMatrix, StiefelFrame]:
    """Closed-form symmetric passive Theta maximizing |det| of F Theta G^H.

    Returns the scattering matrix and the frame Q with Theta = Q Q^T.  The
    rank is 2r minus one for every principal angle at zero (where the
    difference vector u2 degenerates to 0/0 and is dropped; the cosine
    threshold is ``1 - cos < ZERO_ANGLE_TOL``).
    """
    r = min(channels.n_t, channels.n_r)
    vf1, vg1 = _top_right_subspaces(channels, r)
    vg1c = vg1.conj()
    pad = principal_angles(vf1, vg1c)

    plus_cols = []
    minus_cols = []
    for k in range(r):
        c = pad.cosines[k]
        a = vf1 @ pad.p_basis[:, k]
        b = vg1c @ pad.r_basis[:, k]
        plus_cols.append((a + b) / np.sqrt(2.0 * (1.0 + c)))
        if 1.0 - c >= ZERO_ANGLE_TOL:
            minus_cols.append((a - b) / np.sqrt(2.0 * (1.0 - c)))

    u_plus = np.column_stack(plus_cols)
    if minus_cols:
        u_minus = np.column_stack(minus_cols)
    else:
        u_minus = np.zeros((channels.m, 0), dtype=complex)
    frame = StiefelFrame(np.column_stack([u_plus, -1j * u_minus]))
    return ScatteringMatrix(frame.q, frame.q.conj(), "max_det_symmetric"), frame


def maxdet_raw_svd(channels) -> tuple[ScatteringMatrix, StiefelFrame]:
    """Comparison path: U taken straight from one SVD of [V_f, conj(V_g)].

    Whether Theta = U blkdiag(I, -I) U^T still attains d_max depends on the
    SVD backend's per-column phase choices; always run
    ``verify_block_structure`` on the result before trusting it.
    """
    r = min(channels.n_t, channels.n_r)
    vf1, vg1 = _top_right_subspaces(channels, r)
    stacked = np.hstack([vf1, vg1.conj()])
    dec = compact_svd(stacked)
    if dec.rank < 2 * r:
        raise DegenerateChannelError(
            "stacked subspace basis is rank-deficient; use solve_maxdet, which "
            "handles coinciding subspaces"
        )
    frame = StiefelFrame(np.column_stack([dec.left[:, :r], -1j * dec.left[:, r:2 * r]]))
    return ScatteringMatrix(frame.q, frame.q.conj(), "custom"), frame


def verify_block_structure(channels, theta: ScatteringMatrix) -> BlockAlignment:
    """Rotate Theta into the full right-singular bases of F and G and report
    how far T = V_F^H Theta V_G is from blkdiag(T1, T2) with unitary T1.
    T is formed from the frames as (V_F^H L)(V_G^H R)^H."""
    m = channels.m
    if theta.m != m:
        raise ValueError(f"theta must be {m}x{m}, got {theta.m}x{theta.m}")
    r = min(channels.n_t, channels.n_r)
    vf1, vg1 = _top_right_subspaces(channels, r)
    v_f = np.hstack([vf1, orthonormal_complement(vf1)])
    v_g = np.hstack([vg1, orthonormal_complement(vg1)])

    t_rot = (v_f.conj().T @ theta.left) @ (v_g.conj().T @ theta.right).conj().T
    t1 = t_rot[:r, :r]
    off = np.sqrt(np.linalg.norm(t_rot[:r, r:]) ** 2 + np.linalg.norm(t_rot[r:, :r]) ** 2)
    unitarity = np.linalg.norm(t1.conj().T @ t1 - np.eye(r))

    # T1 should equal P R^T up to a diagonal of unit-modulus per-index phases;
    # rotate those factors out and measure what is left.
    pad = principal_angles(vf1, vg1.conj())
    z = pad.p_basis.conj().T @ t1 @ pad.r_basis.conj()
    off_z = z - np.diag(np.diag(z))
    pairing = np.sqrt(np.linalg.norm(off_z) ** 2 + np.sum((np.abs(np.diag(z)) - 1.0) ** 2))
    return BlockAlignment(
        t_matrix=t_rot,
        t1=t1,
        off_diag_norm=float(off),
        t1_unitarity_defect=float(unitarity),
        t1_pairing_defect=float(pairing),
    )


def unitary_baseline(channels) -> ScatteringMatrix:
    """Rank-r eigenmode-matching design Theta = V_f V_g^H.

    Attains d_max with singular values sigma_f[i] * sigma_g[i]; the rate
    optimum among equal-determinant designs, but not symmetric in general.
    """
    r = min(channels.n_t, channels.n_r)
    vf1, vg1 = _top_right_subspaces(channels, r)
    return ScatteringMatrix(vf1, vg1, "unitary_baseline")


def rotated_family(channels, u_rotation) -> ScatteringMatrix:
    """Theta' = V_f U V_g^H for a unitary r x r rotation U: same |det| as the
    baseline, different singular values."""
    r = min(channels.n_t, channels.n_r)
    u = np.asarray(u_rotation, dtype=complex)
    if u.shape != (r, r):
        raise ValueError(f"u_rotation must be {r}x{r}")
    if np.linalg.norm(u.conj().T @ u - np.eye(r)) > 1e-10:
        raise ValueError("u_rotation is not unitary")
    vf1, vg1 = _top_right_subspaces(channels, r)
    return ScatteringMatrix(vf1 @ u, vg1, "rotated")


def random_symmetric_unitary(m: int, seed: int) -> ScatteringMatrix:
    """Theta = W W^T with W from the QR of a seeded complex Gaussian matrix:
    symmetric and unitary by construction."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    w = np.linalg.qr(z)[0]
    return ScatteringMatrix(w, w.conj(), "random_symmetric")


def phase_correction(channels, theta_opt: ScatteringMatrix, budget) -> tuple[float, ScatteringMatrix]:
    """Best global phase for Theta when a direct link is present.

    Maximizes log2 det(I + rho (H_d + e^{j phi} F Theta G^H)(...)^H) over
    [0, 2 pi) with a uniform grid of PHASE_GRID_POINTS followed by bounded
    scalar refinement to |dphi| < 1e-6.  Returns (phi, e^{j phi} Theta); the
    rotation keeps the symmetry and singular values of Theta.  The frames
    become (e^{j phi/2} L, e^{-j phi/2} R), so a Theta = L L^T, R = conj(L),
    keeps that form.  A vanishing direct link makes the objective flat, in
    which case phi = 0 by convention.
    """
    if channels.h_direct is None:
        raise ValueError("phase correction requires a direct link")
    h_ris = metrics.ris_channel(channels, theta_opt)
    h_d = channels.h_direct
    rho = budget.rho

    phis = np.linspace(0.0, 2.0 * np.pi, PHASE_GRID_POINTS, endpoint=False)
    stack = h_d[None, :, :] + np.exp(1j * phis)[:, None, None] * h_ris[None, :, :]
    svals = np.linalg.svd(stack, compute_uv=False)
    rates = np.sum(np.log2(1.0 + rho * svals**2), axis=1)

    best_idx = int(np.argmax(rates))
    if rates[best_idx] - rates.min() <= 1e-12 * max(1.0, abs(rates[best_idx])):
        phi = 0.0
    else:
        step = 2.0 * np.pi / PHASE_GRID_POINTS

        def negative_rate(p):
            return -metrics.achievable_rate(h_d + np.exp(1j * p) * h_ris, rho)

        res = minimize_scalar(
            negative_rate,
            bounds=(phis[best_idx] - step, phis[best_idx] + step),
            method="bounded",
            options={"xatol": 1e-7},
        )
        phi = float(res.x) if -res.fun >= rates[best_idx] else float(phis[best_idx])
        phi %= 2.0 * np.pi

    half = np.exp(0.5j * phi)
    return phi, ScatteringMatrix(half * theta_opt.left, half.conjugate() * theta_opt.right, theta_opt.kind)
