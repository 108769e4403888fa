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
from dataclasses import dataclass, field

import numpy as np

from . import metrics
# compact_svd is not called here; perfbench/tracing.py patches designs.compact_svd.
from .linalg import (
    _as_matrix,
    _check_frame,
    compact_svd,
    orthonormal_complement,
    principal_angles,
)

PASSIVITY_TOL = 1e-10
# A principal angle whose sine is at or below this counts as zero; its u2 is
# dropped.  Worst |det|/d_max error at n_t = 3, n_r = 4, M = 7, G = conj(A F) + e N,
# e = 1e-12..1e-6: 3.8e-6 at 1e-12, 2.5e-10 at 1e-10, 2.5e-12 at 1e-9, 7.1e-14 at 1e-8.
ZERO_ANGLE_TOL = 1e-8


class DegenerateChannelError(ValueError):
    """Raised when F or G has rank below the MIMO degrees of freedom."""


@dataclass(frozen=True)
class ScatteringMatrix:
    """The M x M scattering matrix Theta = left @ right^H of two M x s frames,
    with passivity checked on construction; ``rank`` is the numerical rank
    ``#{sigma_i > M eps sigma_max}`` of the same check.

    Passivity and rank are certified from the frames in O(M s^2) (see
    ``_certified_rank``); the M x M SVD of ``theta`` runs only when the
    certificate cannot decide, so every verdict and rank is the SVD's.  A
    symmetric Theta = Q Q^T is stored as (Q, conj Q), a dense one by
    ``from_theta`` as (theta, I); ``theta`` is formed on first access only.
    """

    left: np.ndarray
    right: np.ndarray
    rank: int = field(init=False)

    def __post_init__(self):
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

    @classmethod
    def from_theta(cls, theta) -> "ScatteringMatrix":
        t = _as_matrix(theta, "theta")
        return cls(t, np.eye(len(t)))  # a non-square theta fails the frames' shape check

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
    """The r dominant right-singular vectors of F and of G, read from the
    SVDs the channel set caches."""
    ranks = [int(np.sum(s > _rank_cutoff(max(a.shape), s[0])))
             for a, (_, s, _) in zip((channels.f, channels.g), channels.svds)]
    if min(ranks) < r:
        raise DegenerateChannelError(f"channel rank below degrees of freedom r={r} "
                                     f"(rank F = {ranks[0]}, rank G = {ranks[1]})")
    return tuple(vh[:r].conj().T for _, _, vh in channels.svds)


def solve_maxdet(channels) -> ScatteringMatrix:
    """Closed-form symmetric passive Theta maximizing |det| of F Theta G^H,
    stored as the frames (Q, conj Q) of Theta = Q Q^T.  The rank
    is 2r minus one for every principal angle at zero (sine <= ZERO_ANGLE_TOL,
    or among the 2r - M smallest when M < 2r, as two r-dimensional subspaces
    of C^M share 2r - M directions): there u1 = a and u2 is dropped.  A Q
    that fails the FRAME_TOL orthonormality check raises ``ArithmeticError``:
    the channels were valid, the construction lost accuracy.
    """
    r = min(channels.n_t, channels.n_r)
    vf1, vg1 = _top_right_subspaces(channels, r)
    pad = principal_angles(vf1, vg1.conj())
    a = vf1 @ pad.p_basis
    resid = vg1.conj() @ pad.r_basis
    for _ in range(2):  # the second pass removes what rounding left in span(V_f)
        resid = resid - vf1 @ (vf1.conj().T @ resid)
    sines = np.linalg.norm(resid, axis=0)
    moving = sines > ZERO_ANGLE_TOL
    moving[np.argsort(sines)[:max(0, 2 * r - len(a))]] = False
    q, t = np.linalg.qr(resid[:, moving])
    d = np.diagonal(t)  # |d_k| = sin_k
    w = np.zeros_like(a)
    w[:, moving] = q * (d / np.abs(d))  # resid_k = sin_k w_k
    half = 0.5 * np.where(moving, np.arctan2(sines, pad.cosines), 0.0)
    u_minus = (np.sin(half) * a - np.cos(half) * w)[:, moving]
    q = np.hstack([np.cos(half) * a + np.sin(half) * w, -1j * u_minus])
    try:
        _check_frame(q, "Max-Det frame")
    except ValueError as exc:
        raise ArithmeticError(str(exc)) from exc
    return ScatteringMatrix(q, q.conj())


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
    return ScatteringMatrix(vf1, vg1)


def rotated_family(channels, u_rotation) -> ScatteringMatrix:
    """Theta' = V_f U V_g^H for a unitary r x r rotation U: same |det| as the
    baseline, different singular values."""
    r = min(channels.n_t, channels.n_r)
    if np.shape(u_rotation) != (r, r):
        raise ValueError(f"u_rotation must be {r}x{r}")
    u = _check_frame(u_rotation, "u_rotation")
    vf1, vg1 = _top_right_subspaces(channels, r)
    return ScatteringMatrix(vf1 @ u, vg1)


def random_symmetric_unitary(m: int, seed: int) -> ScatteringMatrix:
    """Theta = W W^T with W from the QR of a seeded complex Gaussian matrix:
    symmetric and unitary by construction."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    w = np.linalg.qr(z)[0]
    return ScatteringMatrix(w, w.conj())


def phase_correction(channels, theta_opt: ScatteringMatrix, rhos) -> np.ndarray:
    """Best global phase for Theta at each per-antenna SNR in ``rhos`` when a
    direct link is present: phi maximizing P(phi) = det(I + rho H H^H),
    H = H_d + e^{j phi} F Theta G^H.

    Each entry of H H^H is a + b e^{j phi} + c e^{-j phi}, so P is a real
    trigonometric polynomial of degree <= N_r, and <= N_t by Sylvester's
    identity: of degree <= r = min(N_t, N_r), fixed exactly by its 2r + 1
    samples at phi_k = 2 pi k / (2r + 1).  One SVD of that rho-free stack
    gives the sample rates; an explicit DFT of the samples, scaled by their
    largest in log space so nothing overflows, gives the coefficients.  With
    z = e^{j phi}, P'(phi) = 0 is the degree-2r polynomial equation
    sum_n n (c_n z^{r+n} - conj(c_n) z^{r-n}) = 0, so the maximizer of P is
    the angle of one of its roots: the one where P is largest.  The exact
    rate there is kept where it reaches the best sample; phi = 0 is one, so
    the rate never falls below the uncorrected one.  A flat objective
    (vanishing direct link) gives phi = 0.
    """
    if channels.h_direct is None:
        raise ValueError("phase correction requires a direct link")
    rhos = np.asarray(rhos, dtype=float).reshape(-1)
    metrics._check_rho(rhos)
    h_d, h_ris = channels.h_direct, metrics.ris_channel(channels, theta_opt)

    def rates(phis, rho):  # exact rates at a stack of phases, broadcast against rho
        s = np.linalg.svd(h_d + np.exp(1j * phis)[:, None, None] * h_ris, compute_uv=False)
        return np.sum(np.log2(1.0 + rho * s**2), axis=-1)

    n = np.arange(min(h_d.shape) + 1)
    samples = 2.0 * np.pi * np.arange(2 * n.size - 1) / (2 * n.size - 1)
    on_samples = rates(samples, rhos[:, None, None])  # (points, 2r + 1)
    top = on_samples.max(axis=1)
    # P(phi) / max_k P(phi_k) = Re sum_n coef_n e^{j n phi}, n = 0..r
    dft = np.where(n > 0, 2.0, 1.0) * np.exp(-1j * np.outer(samples, n)) / samples.size
    coef = np.sum(np.exp2(on_samples - top[:, None])[:, :, None] * dft, axis=1)
    slope = n[1:] * coef[:, 1:]  # n c_n, n = 1..r, the coefficient of z^{r+n}
    polys = np.hstack([slope[:, ::-1], np.zeros((rhos.size, 1)), -slope.conj()])  # z^{2r} first
    phi = np.zeros(rhos.size)
    for i, poly in enumerate(polys):
        # np.roots drops exactly-zero leading coefficients, so the count may vary
        crit = np.angle(np.roots(poly))
        if crit.size:
            phi[i] = crit[np.argmax((np.exp(1j * np.outer(crit, n)) @ coef[i]).real)]
    flat = top - on_samples.min(axis=1) <= 1e-12 * np.maximum(1.0, np.abs(top))
    phi = np.where(flat | (rates(phi, rhos[:, None]) < top), samples[np.argmax(on_samples, axis=1)], phi)
    return np.where(flat, 0.0, phi) % (2.0 * np.pi)
