"""q-stem susceptance synthesis and the Cayley map between susceptance and
scattering matrices.

In a q-stem network only the first q elements are wired to everything; the
remaining M - q carry just their own grounding susceptance.  B therefore has
hard zeros at every off-diagonal position (i, j) with min(i, j) >= q, leaving
nu = q(q+1)/2 + (M-q)(q+1) tunable circuits.

A scattering matrix Theta_lr = Q Q^T is realized by any full Cayley matrix
Theta_B with Theta_B conj(Q) = Q, which reduces to the real linear system
(z0 B) Re(Q) = -Im(Q).  Solving it in least squares over the q-stem free
parameters gives the synthesis; at q = 2r - 1 the system is generically
consistent and the residual vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .designs import ScatteringMatrix, StiefelFrame
from .linalg import orthonormal_complement, vectorize


class CayleySingularityError(ArithmeticError):
    """Theta has an eigenvalue at -1, where the Cayley map blows up."""


class SingularMapError(ArithmeticError):
    """I + j z0 B is too ill-conditioned to invert reliably."""


@dataclass(frozen=True)
class SusceptanceMatrix:
    """Real symmetric M x M susceptance matrix with the q-stem zero pattern."""

    b: np.ndarray
    q: int
    z0: float = 50.0

    def __post_init__(self):
        b = np.asarray(self.b)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("b must be square")
        if np.iscomplexobj(b) or not np.all(np.isfinite(b)):
            raise ValueError("b must be real with finite entries")
        if not np.array_equal(b, b.T):
            raise ValueError("b must be exactly symmetric")
        m = b.shape[0]
        if not 1 <= self.q <= m:
            raise ValueError(f"q must be in [1, {m}]")
        if self.z0 <= 0:
            raise ValueError("z0 must be positive")
        mask = _qstem_support(self.q, m)
        if np.any(b[~mask] != 0.0):
            raise ValueError("b violates the q-stem sparsity pattern")

    @property
    def m(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True)
class QStemSystem:
    """The vectorized synthesis system W b = rhs.

    ``selection`` is the M^2 x nu sparse 0/1 matrix R with vec(B) = R b,
    ``design_matrix`` is W = (Re(Q)^T kron I_M) R, and ``rhs`` = -vec(Im Q).
    """

    selection: sp.csc_matrix
    design_matrix: np.ndarray
    rhs: np.ndarray
    nu: int


def _qstem_support(q, m):
    mask = np.zeros((m, m), dtype=bool)
    mask[np.diag_indices(m)] = True
    mask[:q, :] = True
    mask[:, :q] = True
    return mask


def _free_params(q, m):
    # Lower-triangle coordinates of the free entries, column-major.
    return [(i, j) for j in range(m) for i in range(j, m) if j < q or i == j]


def element_count(q: int, m: int) -> int:
    """Number of tunable circuits in a q-stem network: q(q+1)/2 + (M-q)(q+1)."""
    if not 1 <= q <= m:
        raise ValueError(f"q must be in [1, {m}]")
    return q * (q + 1) // 2 + (m - q) * (q + 1)


def build_selection_matrix(q: int, m: int) -> sp.csc_matrix:
    """Sparse M^2 x nu selector R mapping free parameters to vec(B).

    Each diagonal parameter hits one vec position; each off-diagonal
    parameter hits the two symmetric positions.
    """
    params = _free_params(q, m)
    rows, cols = [], []
    for p, (i, j) in enumerate(params):
        rows.append(i + j * m)
        cols.append(p)
        if i != j:
            rows.append(j + i * m)
            cols.append(p)
    data = np.ones(len(rows))
    r = sp.csc_matrix((data, (rows, cols)), shape=(m * m, len(params)))
    assert r.shape[1] == element_count(q, m)
    return r


def build_qstem_system(frame: StiefelFrame, q: int) -> QStemSystem:
    """Assemble W = (Re(Q)^T kron I_M) R and rhs = -vec(Im Q) for the frame."""
    qmat = frame.q
    m = frame.m
    if not 1 <= q <= m:
        raise ValueError(f"q must be in [1, {m}]")
    selection = build_selection_matrix(q, m)
    kron_op = sp.kron(sp.csr_matrix(qmat.real.T), sp.identity(m, format="csr"))
    w = (kron_op @ selection).toarray()
    rhs = -vectorize(qmat.imag)
    return QStemSystem(selection=selection, design_matrix=w, rhs=rhs, nu=selection.shape[1])


def synthesize_qstem(frame: StiefelFrame, q: int, z0: float = 50.0) -> tuple[SusceptanceMatrix, float]:
    """Least-squares q-stem susceptance realizing the frame's Theta = Q Q^T.

    Solves min over b of ||W b + vec(Im Q)||_2 for the normalized
    susceptance z0*B and returns (B, residual).  Residuals at or below about
    1e-8 ||vec(Im Q)|| mean the realization is exact for practical purposes;
    q >= 2r - 1 reaches that generically.
    """
    system = build_qstem_system(frame, q)
    w = system.design_matrix
    sol, *_ = np.linalg.lstsq(w, system.rhs, rcond=None)
    residual = float(np.linalg.norm(w @ sol - system.rhs))
    b = np.asarray(system.selection @ sol).reshape(frame.m, frame.m, order="F") / z0
    return SusceptanceMatrix(b=b, q=q, z0=z0), residual


def _cayley_cond(b: SusceptanceMatrix) -> float:
    """Condition number of I + j z0 B.  The matrix is normal, with singular
    values |1 + j lam| over the eigenvalues lam of z0 B, so no SVD is needed."""
    gains = np.hypot(1.0, b.z0 * np.linalg.eigvalsh(b.b))
    return float(gains.max() / gains.min())


def b_to_theta(b: SusceptanceMatrix) -> ScatteringMatrix:
    """Cayley map Theta = (I + j z0 B)^{-1} (I - j z0 B); unitary and symmetric
    whenever B is real symmetric."""
    m = b.m
    if _cayley_cond(b) > 1e12:
        raise SingularMapError("I + j z0 B is numerically singular")
    jzb = 1j * b.z0 * b.b
    theta = np.linalg.solve(np.eye(m) + jzb, np.eye(m) - jzb)
    return ScatteringMatrix.from_theta(theta, "custom")


def theta_to_b(theta, z0: float = 50.0) -> SusceptanceMatrix:
    """Inverse Cayley map B = (I + Theta)^{-1} (I - Theta) / (j z0) for a
    symmetric unitary Theta (fully connected network, q = M)."""
    t = np.asarray(getattr(theta, "theta", theta), dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("theta must be square")
    m = t.shape[0]
    if np.linalg.norm(t @ t.conj().T - np.eye(m)) > 1e-8:
        raise ValueError("theta must be unitary")
    if np.linalg.norm(t - t.T) > 1e-8:
        raise ValueError("theta must be symmetric")
    gap = np.min(np.abs(np.linalg.eigvals(t) + 1.0))
    if gap < 1e-8:
        raise CayleySingularityError(
            "theta has an eigenvalue at -1; rotate it by a global phase "
            "(e.g. e^{j pi/8} theta, which leaves |det| and rates unchanged) and retry"
        )
    bn = np.linalg.solve(np.eye(m) + t, np.eye(m) - t) / (1j * z0)
    imag_defect = np.linalg.norm(bn.imag)
    if imag_defect > 1e-8 * max(np.linalg.norm(bn.real), 1.0):
        raise ValueError(f"resulting susceptance is not real (defect {imag_defect:.2e})")
    br = bn.real
    return SusceptanceMatrix(b=(br + br.T) / 2.0, q=m, z0=z0)


_FALLBACK_PHASES = (0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8)


def cayley_with_phase_fallback(theta, z0: float = 50.0) -> tuple[float, SusceptanceMatrix]:
    """theta_to_b with deterministic global-phase retries around the -1
    eigenvalue.  Returns (applied_phase, B); a nonzero phase reports that the
    unrotated transform failed.  |det| and rates are phase-invariant."""
    t = np.asarray(getattr(theta, "theta", theta), dtype=complex)
    failures = []
    for phi in _FALLBACK_PHASES:
        try:
            return phi, theta_to_b(np.exp(1j * phi) * t, z0)
        except CayleySingularityError as exc:
            failures.append(f"phi={phi:.4f}: {exc}")
    raise CayleySingularityError("; ".join(failures))


def complete_to_unitary(frame: StiefelFrame) -> ScatteringMatrix:
    """Extend Theta = Q Q^T to the full unitary Q Q^T + Qp Qp^T.

    The completion acts only on the orthogonal complement of span(Q), so
    F Theta_full G^H == F Q Q^T G^H for any channels whose dominant right
    subspaces lie inside span(Q).
    """
    qperp = orthonormal_complement(frame.q)
    theta = frame.q @ frame.q.T + qperp @ qperp.T
    return ScatteringMatrix.from_theta(theta, "custom")
