"""Dense complex linear algebra shared by every other module.

``principal_angles`` returns the two rotation factors from a *single* SVD of
the cross-Gram, so the k-th columns of P and R form a consistently phased
pair.  The Max-Det construction breaks if the frames are orthogonalized
independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Orthonormality tolerance ||q^H q - I||_F for every frame the package accepts.
FRAME_TOL = 1e-10


def _as_matrix(a, name="matrix"):
    """``a`` as a complex matrix, or a stack of them along leading axes."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D array or a stack of them")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _frame_defect(q):
    """||q^H q - I||_F of a frame; of a stack, the largest over its frames."""
    gram = (q.conj().mT @ q - np.eye(q.shape[-1])).reshape(*q.shape[:-2], -1)
    return np.sqrt(np.vecdot(gram, gram).real.max())


def _check_frame(q, name="frame"):
    """``q``, after checking that it (each matrix of a stack) has orthonormal columns."""
    q = _as_matrix(q, name)
    m, s = q.shape[-2:]
    if s > m:
        raise ValueError(f"{name} has more columns ({s}) than rows ({m})")
    defect = _frame_defect(q)
    if defect > FRAME_TOL:
        raise ValueError(f"{name} columns are not orthonormal (defect {defect:.2e})")
    return q


@dataclass(frozen=True)
class CompactSVD:
    """Rank-truncated SVD: ``a == left @ diag(singular_values) @ right.conj().T``.

    ``left`` is m x k and ``right`` is n x k with orthonormal columns;
    ``singular_values`` holds the k values above the rank cutoff, sorted
    descending.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.singular_values.size)

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.conj().T


def _check_counts(**counts):
    """Reject a count that is not an integer, or is a bool; numpy integers pass."""
    for name, n in counts.items():
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {n!r}")


def _numerical_rank(s, shape):
    """The count of singular values ``s`` (descending on the last axis) of a matrix, or a stack of
    them, of ``shape`` above max(M, N) eps s_max: the rank cutoff of np.linalg.lstsq."""
    return (s > max(shape[-2:]) * np.finfo(float).eps * s[..., :1]).sum(axis=-1)


def compact_svd(a, rank_tol: float | None = None) -> CompactSVD:
    """Compact SVD keeping singular values above ``rank_tol * sigma_max``.

    ``rank_tol`` is relative to the largest singular value; by default the
    numerical rank (``_numerical_rank``) is kept.
    """
    a = _as_matrix(a, "a")
    if rank_tol is not None and rank_tol < 0:
        raise ValueError("rank_tol must be nonnegative")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    k = int(_numerical_rank(s, a.shape) if rank_tol is None else np.sum(s > rank_tol * s[0]))
    return CompactSVD(left=u[:, :k], singular_values=s[:k], right=vh[:k].conj().T)


@dataclass(frozen=True)
class PrincipalAngleDecomposition:
    """Factors of the cross-Gram ``gram = p_basis @ diag(cosines) @ r_basis.conj().T``.

    ``cosines[k] = cos(angles[k])`` are the principal-angle cosines between
    the two subspaces, clamped to [0, 1] and sorted descending.
    """

    p_basis: np.ndarray
    r_basis: np.ndarray
    cosines: np.ndarray
    angles: np.ndarray

    @property
    def gram(self) -> np.ndarray:
        return (self.p_basis * self.cosines[..., None, :]) @ self.r_basis.conj().mT


def principal_angles(vf1, vg1_conj) -> PrincipalAngleDecomposition:
    """Principal angles between the column spaces of two orthonormal frames,
    or of each pair in two stacks of them.

    Both inputs must be M x r (stacks: (..., M, r)) with orthonormal
    columns.  The k-th columns of the returned P and R always come from the
    same SVD call, so any phase freedom rotates them together; this per-index
    pairing is what downstream constructions depend on.
    """
    vf1 = _check_frame(vf1, "vf1")
    vg1_conj = _check_frame(vg1_conj, "vg1_conj")
    if vf1.shape != vg1_conj.shape:
        raise ValueError("frames must have identical shapes")
    return _principal_angles(vf1, vg1_conj)


def _principal_angles(vf1, vg1_conj) -> PrincipalAngleDecomposition:
    """``principal_angles`` of two frames known to be orthonormal and of one shape (an SVD's ``vh``)."""
    gram = np.asarray(vf1, complex).conj().mT @ np.asarray(vg1_conj, complex)
    p, cos, rh = np.linalg.svd(gram)
    cos = np.clip(cos, 0.0, 1.0)
    return PrincipalAngleDecomposition(
        p_basis=p, r_basis=rh.conj().mT, cosines=cos, angles=np.arccos(cos)
    )


def orthonormal_complement(q) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of an M x s frame.

    Returns an M x (M - s) matrix; empty second dimension when the frame
    already spans the whole space.
    """
    q = np.asarray(q, dtype=complex)
    if q.ndim != 2:
        raise ValueError("q must be 2-D")
    m, s = q.shape
    if s == 0:
        return np.eye(m, dtype=complex)
    q = _check_frame(q, "q")
    u = np.linalg.svd(q, full_matrices=True)[0]
    return u[:, s:]


def log_majorizes(x, y, tol: float = 1e-9) -> bool:
    """True when x is log-majorized by y.

    After sorting both descending, every prefix product of x must not exceed
    the matching prefix product of y (within ``tol`` relative), and the full
    products must agree within ``tol`` relative.  Evaluated in log space to
    avoid overflow.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size == 0:
        raise ValueError("x and y must be 1-D vectors of equal nonzero length")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("entries must be strictly positive")
    lx = np.cumsum(np.log(np.sort(x)[::-1]))
    ly = np.cumsum(np.log(np.sort(y)[::-1]))
    slack = np.log1p(tol)
    if np.any(lx[:-1] > ly[:-1] + slack):
        return False
    return bool(abs(lx[-1] - ly[-1]) <= slack)
