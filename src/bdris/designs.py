"""Scattering-matrix constructions for a RIS-assisted MIMO link.

The centerpiece couples the dominant right-singular subspaces of the two RIS
links through their principal angles.  With gram = V_f^H conj(V_g)
= P diag(cos t_k) R^H, the paired vectors a_k = V_f p_k and
b_k = conj(V_g) r_k satisfy b_k = cos t_k a_k + sin t_k w_k, where w_k is a
unit vector orthogonal to span(V_f).  The half-angle rotations

    u1_k = cos(t_k / 2) a_k + sin(t_k / 2) w_k
    u2_k = sin(t_k / 2) a_k - cos(t_k / 2) w_k

form an orthonormal set, and

    Theta = sum_k u1_k u1_k^T - sum_k u2_k u2_k^T = Q Q^T,   Q = [U1, -j U2]

is symmetric, passive, rank 2r, and attains the determinant ceiling d_max.
The sines and w_k come from one QR of the residual (I - V_f V_f^H) conj(V_g) R,
and t_k = atan2(sin, cos): nothing is divided by a small number, so nearly
coinciding subspaces keep an orthonormal frame (the sine-cosine method of
Bjorck & Golub, 1973).  One SVD gives both cross-Gram factors, which pins the
per-pair phases that optimality requires.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import metrics
# compact_svd and orthonormal_complement are not called here; perfbench/tracing.py patches both on designs.
from .linalg import (
    _as_matrix,
    _check_counts,
    _check_frame,
    _numerical_rank,
    _principal_angles,
    compact_svd,
    orthonormal_complement,
    principal_angles,
)

# A principal angle whose sine is at or below this counts as zero; its u2 is
# dropped.  Worst |det|/d_max error at n_t = 3, n_r = 4, M = 7, G = conj(A F) + e N,
# e = 1e-12..1e-6: 3.8e-6 at 1e-12, 2.5e-10 at 1e-10, 2.5e-12 at 1e-9, 7.1e-14 at 1e-8.
ZERO_ANGLE_TOL = 1e-8


class DegenerateChannelError(ValueError):
    """Raised when F or G has rank below the MIMO degrees of freedom."""


@dataclass(frozen=True)
class ScatteringMatrix:
    """The M x M scattering matrix Theta = left @ right^H of two M x s frames
    with orthonormal columns, each checked to FRAME_TOL on construction; a
    stack of Thetas has frames of shape (..., M, s), and one frame failing
    fails it.

    A frame with defect d = ||X^H X - I||_F has singular values in
    [sqrt(1 - d), sqrt(1 + d)], so Theta's s nonzero singular values lie in
    [1 - FRAME_TOL, 1 + FRAME_TOL]: Theta is passive and its rank is the frame
    width s.  ``ScatteringMatrix(q)`` is the symmetric Theta = Q Q^T: Q is
    checked and stored with right = conj Q, whose Gram is the conjugate of
    Q's.  ``from_theta`` stores a unitary Theta as (theta, I); ``theta`` is
    formed on first access only.
    """

    left: np.ndarray
    right: np.ndarray | None = None

    def __post_init__(self):
        if self.right is not None and np.shape(self.left) != np.shape(self.right):
            raise ValueError(f"frames must have the same shape, got {np.shape(self.left)} "
                             f"and {np.shape(self.right)}")
        left = _check_frame(self.left, "left frame")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", left.conj() if self.right is None else
                           _check_frame(self.right, "right frame"))

    @classmethod
    def from_theta(cls, theta) -> "ScatteringMatrix":
        """A unitary Theta, stored as (theta, I)."""
        t = _as_matrix(theta, "theta")
        # a non-square theta fails the broadcast
        return cls(t, np.broadcast_to(np.eye(t.shape[-1]), t.shape))

    @functools.cached_property
    def theta(self) -> np.ndarray:
        return self.left @ self.right.conj().mT

    @property
    def m(self) -> int:
        return self.left.shape[-2]

    @property
    def rank(self) -> int:
        return self.left.shape[-1]


@dataclass(frozen=True)
class BlockAlignment:
    """Diagnostics of T = V_F^H Theta V_G in the full right-singular bases
    V_F = [V_F1, V_F2] of F and V_G = [V_G1, V_G2] of G, read from the frames
    of Theta = L R^H in O(M r s): T1 = (V_F1^H L)(V_G1^H R)^H, and the coupling
    blocks through the projections I - V_1 V_1^H, with no complement basis,

        ||V_F1^H Theta V_G2||_F = ||(V_F1^H L) R^H - T1 V_G1^H||_F,
        ||V_F2^H Theta V_G1||_F = ||L (V_G1^H R)^H - V_F1 T1||_F.

    ``off_diag_norm`` is the Frobenius norm of the two coupling blocks,
    ``t1_unitarity_defect`` is ||T1^H T1 - I||_F, and ``t1_pairing_defect``
    measures how far T1 is from P R^T modulo the free per-index phases."""

    t1: np.ndarray
    off_diag_norm: float
    t1_unitarity_defect: float
    t1_pairing_defect: float


def _top_right_subspaces(channels, r):
    """The r dominant right-singular vectors of F and of G, read from the
    SVDs the channel set caches."""
    rank_f, rank_g = (_numerical_rank(s, a.shape) for a, (_, s, _) in zip((channels.f, channels.g), channels.svds))
    if min(rank_f.min(), rank_g.min()) < r:
        i = np.unravel_index(np.minimum(rank_f, rank_g).argmin(), rank_f.shape)
        raise DegenerateChannelError(f"channel rank below degrees of freedom r={r} "
                                     f"(rank F = {rank_f[i]}, rank G = {rank_g[i]})")
    return tuple(vh[..., :r, :].conj().mT for _, _, vh in channels.svds)


def solve_maxdet(channels) -> ScatteringMatrix:
    """Closed-form symmetric passive Theta maximizing |det| of F Theta G^H,
    stored as ``ScatteringMatrix(Q)``, Theta = Q Q^T.  The rank
    is 2r minus one for every principal angle at zero (sine <= ZERO_ANGLE_TOL,
    or among the 2r - M smallest when M < 2r, as two r-dimensional subspaces
    of C^M share 2r - M directions): there u1 = a and u2 is dropped.  A Q
    that fails the FRAME_TOL orthonormality check raises ``ArithmeticError``:
    the channels were valid, the construction lost accuracy.  A stack of
    channels gives a stack of Thetas of one width: ValueError if angles drop differently.
    """
    r = min(channels.n_t, channels.n_r)
    vf1, vg1 = _top_right_subspaces(channels, r)
    vg1_conj = vg1.conj()
    pad = _principal_angles(vf1, vg1_conj)  # frames from the cached SVDs; Q is checked below
    a = vf1 @ pad.p_basis
    resid = vg1_conj @ pad.r_basis
    for _ in range(2):  # the second pass removes what rounding left in span(V_f)
        resid = resid - vf1 @ (vf1.conj().mT @ resid)
    sines = np.linalg.norm(resid, axis=-2)
    moving = sines > ZERO_ANGLE_TOL
    if 2 * r > a.shape[-2]:
        np.put_along_axis(moving, np.argsort(sines, axis=-1)[..., :2 * r - a.shape[-2]], False, axis=-1)
    kept = moving.reshape(-1, r)[0]
    if (moving != kept).any():
        raise ValueError("the stack's Max-Det frames differ in width (zero principal angles)")
    q, t = np.linalg.qr(resid[..., kept])
    d = np.diagonal(t, axis1=-2, axis2=-1)  # |d_k| = sin_k
    w = np.zeros_like(a)
    w[..., kept] = q * (d / np.abs(d))[..., None, :]  # resid_k = sin_k w_k
    half = 0.5 * np.where(moving, np.arctan2(sines, pad.cosines), 0.0)
    c, s = np.cos(half)[..., None, :], np.sin(half)[..., None, :]
    q = np.concatenate([c * a + s * w, -1j * (s * a - c * w)[..., kept]], axis=-1)
    try:
        return ScatteringMatrix(q)
    except ValueError as exc:
        raise ArithmeticError(f"Max-Det frame: {exc}") from exc


def verify_block_structure(channels, theta: ScatteringMatrix) -> BlockAlignment:
    """How far T = V_F^H Theta V_G is from blkdiag(T1, T2) with unitary T1,
    read from the frames (``BlockAlignment``): nothing larger than a frame is formed."""
    m = channels.m
    if theta.m != m:
        raise ValueError(f"theta must be {m}x{m}, got {theta.m}x{theta.m}")
    r = min(channels.n_t, channels.n_r)
    vf1, vg1 = _top_right_subspaces(channels, r)
    left, right = vf1.conj().T @ theta.left, vg1.conj().T @ theta.right  # V_F1^H L, V_G1^H R
    t1 = left @ right.conj().T
    off = np.hypot(np.linalg.norm(theta.right @ left.conj().T - vg1 @ t1.conj().T),  # (V_F1^H Theta V_G2)^H
                   np.linalg.norm(theta.left @ right.conj().T - vf1 @ t1))
    unitarity = np.linalg.norm(t1.conj().T @ t1 - np.eye(r))

    # T1 should equal P R^T up to a diagonal of unit-modulus per-index phases;
    # rotate those factors out and measure what is left.
    pad = principal_angles(vf1, vg1.conj())
    z = pad.p_basis.conj().T @ t1 @ pad.r_basis.conj()
    off_z = z - np.diag(np.diag(z))
    pairing = np.sqrt(np.linalg.norm(off_z) ** 2 + np.sum((np.abs(np.diag(z)) - 1.0) ** 2))
    return BlockAlignment(t1, float(off), float(unitarity), float(pairing))


def unitary_baseline(channels) -> ScatteringMatrix:
    """Rank-r eigenmode-matching design Theta = V_f V_g^H.

    Attains d_max with singular values sigma_f[i] * sigma_g[i]; the rate
    optimum among equal-determinant designs, but not symmetric in general.
    """
    r = min(channels.n_t, channels.n_r)
    vf1, vg1 = _top_right_subspaces(channels, r)
    return ScatteringMatrix(vf1, vg1)


def rotated_family(channels, u_rotation) -> ScatteringMatrix:
    """Theta' = V_f U V_g^H for a unitary r x r rotation U: same |det| as the
    baseline, different singular values.  A stack of channels takes a stack
    of rotations (or one for all)."""
    r = min(channels.n_t, channels.n_r)
    if np.shape(u_rotation)[-2:] != (r, r):
        raise ValueError(f"u_rotation must be {r}x{r}")
    u = _check_frame(u_rotation, "u_rotation")
    vf1, vg1 = _top_right_subspaces(channels, r)
    left = vf1 @ u
    return ScatteringMatrix(left, np.broadcast_to(vg1, left.shape))


def random_symmetric_unitary(m: int, seed: int) -> ScatteringMatrix:
    """Theta = W W^T with W from the QR of a seeded complex Gaussian matrix:
    symmetric and unitary by construction."""
    _check_counts(m=m)
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return ScatteringMatrix(np.linalg.qr(z)[0])


class PhaseCorrection(NamedTuple):
    phases: np.ndarray  # per point
    sigma: np.ndarray  # singular values of H = H_d + e^{j phase} F Theta G^H there


@functools.lru_cache(maxsize=16)
def _slope_table(r):
    """Row n: j n (1 + jt)^{2n} (1 + t^2)^{r-n}, n = 0..r, t^{2r} first; read-only, built once per r."""
    table = np.array([1j * n * (np.poly1d([1j, 1.0]) ** (2 * n) * np.poly1d([1.0, 0.0, 1.0]) ** (r - n)).coeffs
                      for n in range(r + 1)])
    table.flags.writeable = False
    return table


def phase_correction(channels, theta_opt: ScatteringMatrix, rhos) -> PhaseCorrection:
    """Best global phase for Theta at each per-antenna SNR in ``rhos`` when a
    direct link is present: phi maximizing P(phi) = det(I + rho H H^H),
    H = H_d + e^{j phi} F Theta G^H.  On a stack of channels ``rhos`` is (P,)
    or (..., P), and the results gain the stack's leading axes.

    Each entry of H H^H is a + b e^{j phi} + c e^{-j phi}, so P is a real
    trigonometric polynomial of degree <= N_r, and <= N_t by Sylvester's
    identity: of degree <= r = min(N_t, N_r), fixed exactly by its 2r + 1
    samples at phi_k = 2 pi k / (2r + 1).  One SVD of that rho-free stack
    gives the sample rates; an explicit DFT of the samples, scaled by their
    largest in log space so nothing overflows, gives the c_n of
    P / max_k P(phi_k) = Re sum_n c_n e^{j n phi}.  At t = tan(phi / 2),
    (1 + t^2)^r P'(phi) = Re sum_n j n c_n (1 + jt)^{2n} (1 + t^2)^{r-n} is a
    real polynomial of degree <= 2r with t^{2r} coefficient P'(pi); one
    ``eigvals`` call on the real companion matrices of all points gives its
    roots t, each the candidate phi = arg((1 + jt) / (1 - jt)), and phi = pi
    (t = inf, lost where P'(pi) = 0) is one too.  The exact rate at the
    candidate where P is largest, at the phase as reported in [0, 2 pi), is
    kept where it reaches the best sample; phi = 0 is one, so the rate never
    falls below the uncorrected one.  A flat objective (vanishing direct
    link) gives phi = 0.  ``sigma`` is from the SVD that decided each phase.
    """
    if channels.h_direct is None:
        raise ValueError("phase correction requires a direct link")
    rhos = metrics._check_rho(rhos)
    h_d = channels.h_direct[..., None, :, :]
    h_ris = metrics.ris_channel(channels, theta_opt)[..., None, :, :]

    def svdvals(phis):  # singular values of H at a stack of phases on the last axis
        return np.linalg.svd(h_d + np.exp(1j * phis)[..., None, None] * h_ris, compute_uv=False)

    r = min(channels.n_r, channels.n_t)
    n = np.arange(r + 1)
    samples = 2.0 * np.pi * np.arange(2 * r + 1) / (2 * r + 1)
    on_sample = svdvals(samples)  # (..., 2r + 1, r)
    on_samples = metrics._rate(on_sample[..., None, :, :], rhos[..., None, None])  # (..., points, 2r + 1)
    top = on_samples.max(axis=-1)
    dft = np.where(n > 0, 2.0, 1.0) * np.exp(-1j * np.outer(samples, n)) / samples.size
    coef = np.sum(np.exp2(on_samples - top[..., None])[..., None] * dft, axis=-2)
    slope = (coef @ _slope_table(r)).real  # (1 + t^2)^r P'(phi), t^{2r} first
    companion = np.zeros(slope.shape[:-1] + (2 * r, 2 * r))
    companion[..., 1:, :-1] = np.eye(2 * r - 1)
    with np.errstate(all="ignore"):  # a zero P'(pi) leaves a zero first row (roots 0), and phi = pi is a candidate
        companion[..., 0, :] = np.nan_to_num(-slope[..., 1:] / slope[..., :1], nan=0.0, posinf=0.0, neginf=0.0)
    t = np.linalg.eigvals(companion)
    crit = np.concatenate([np.arctan2(2.0 * t.real, 1.0 - np.abs(t) ** 2),  # arg((1 + jt) conj(1 - jt))
                           np.full(t.shape[:-1] + (1,), np.pi)], axis=-1)
    value = (np.exp(1j * crit[..., None] * n) @ coef[..., None])[..., 0].real  # P there, scaled
    phi = np.take_along_axis(crit, value.argmax(axis=-1)[..., None], axis=-1)[..., 0] % (2.0 * np.pi)
    on_root = svdvals(phi)
    flat = top - on_samples.min(axis=-1) <= 1e-12 * np.maximum(1.0, np.abs(top))
    best = np.where(flat, 0, np.argmax(on_samples, axis=-1))  # samples[0] = 0
    sampled = flat | (metrics._rate(on_root, rhos[..., None]) < top)
    return PhaseCorrection(np.where(sampled, samples[best], phi), np.where(
        sampled[..., None], np.take_along_axis(on_sample, best[..., None], axis=-2), on_root))
