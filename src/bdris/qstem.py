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

The system has an arrow structure: each of the M - q tail rows owns q + 1
unknowns and s = 2r equations, and only the q s equations of the top rows
couple them.  ``synthesize_qstem`` eliminates the tail rows in batch and
solves one dense core on the q s top equations (``_ArrowSystem``), in time
linear in M, where the dense 2rM x nu least squares is cubic.  Two regimes:

* q < s: W has full column rank and the solution is unique; the core is a
  weighted least-squares problem for the top block.
* q >= s: W has rank sM - s(s-1)/2; the right-hand side is projected onto
  range(W), the tail equations are met exactly over the null spaces of the
  tail blocks, and the core gives the minimum-norm solution.

Two refinement steps rerun the block solve on the residual.  A first-order
certificate ||W^T r|| = O(tol) is checked without forming W; when it fails,
or a tail block or the core is singular, the dense system of
``build_qstem_system`` is solved instead, with the same refinement.
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

    Returns the minimizer B of ||z0 B Re(Q) + Im(Q)||_F over the q-stem
    pattern whose free parameters have the least norm, and that residual.
    Residuals at or below about 1e-8 ||Im Q|| mean the realization is exact
    for practical purposes; q >= 2r - 1 reaches that generically.  The block
    elimination of ``_ArrowSystem`` gives the result when its certificate
    holds; otherwise the dense system of ``build_qstem_system`` is solved by
    ``np.linalg.lstsq`` and refined on its residual the same number of times.
    """
    m = frame.m
    if not 1 <= q <= m:
        raise ValueError(f"q must be in [1, {m}]")
    try:
        bn, residual = _ArrowSystem(frame.q.real, q).solve(-frame.q.imag)
    except np.linalg.LinAlgError:
        system = build_qstem_system(frame, q)
        w = system.design_matrix
        sol, *_ = np.linalg.lstsq(w, system.rhs, rcond=None)
        for _ in range(_REFINEMENT_STEPS):
            sol += np.linalg.lstsq(w, system.rhs - w @ sol, rcond=None)[0]
        residual = float(np.linalg.norm(w @ sol - system.rhs))
        bn = np.asarray(system.selection @ sol).reshape(m, m, order="F")
    return SusceptanceMatrix(b=bn / z0, q=q, z0=z0), residual


_REFINEMENT_STEPS = 2
# A tail block whose pivots |r_kk| / max |r_kk|, or a Re(Q) whose Gram
# eigenvalues lam / max lam, reach this ratio counts as singular.
_BLOCK_RCOND = 1e-8
_CERTIFICATE_TOL = 1e-12


class _ArrowSystem:
    """The synthesis system Bn X = Y (Bn = z0 B, X = Re Q, Y = -Im Q, s columns)
    split at row q into the top rows t and the tail rows n.

    The unknowns are the lower triangle b of the symmetric top block B11, the
    coupling C = Bn[t, n] and the tail diagonal d.  Tail row i gives the s
    equations A_i z_i = y_i in its own z_i = (c_i, d_i), A_i = [X_t^T, x_i];
    only the q s top equations B11 X_t + C X_n = Y_t couple the rows.  The
    tail blocks are eliminated in batch from their solutions
    z_i^0 = A_i^+ y_i, leaving a dense core on the top equations (Bjorck,
    Numerical Methods for Least Squares Problems, SIAM 1996, ch. 6):

    * q < s: every A_i has full column rank, and so has W.  With K_i the
      c-block of (A_i^T A_i)^{-1}, b solves the top equations weighted by
      (I + sum_i x_i x_i^T (x) K_i)^{-1}; the c_i and d_i follow from it.
    * q >= s: every A_i has full row rank, and z_i = z_i^0 + N_i v_i over
      the null space N_i of A_i meets the tail equations exactly.  The
      minimum-norm (b, v) solving the top equations then gives the
      minimum-norm solution of a consistent system.

    ``solve`` first removes from Y a part orthogonal to range(W)
    (``_range_part``), which leaves W^+ Y unchanged and makes the system
    consistent when q >= s.  The block solve is
    then refined twice on its residual and certified by the first-order
    condition ||W^T r|| <= tol ||W|| (||r|| + ||W|| ||u||), using
    ||W||_2 <= sqrt(2) ||X||_F; the 2rM x nu matrix W is never formed.  A
    singular tail block or Re Q, a core whose numerical rank is not the
    generic one, or a failed certificate raises ``LinAlgError``.
    """

    def __init__(self, x, q):
        self.x, self.q = x, q
        self.xt, self.xn = x[:q], x[q:]
        n, s = self.xn.shape
        self.rows, self.cols = np.tril_indices(q)
        nb = self.rows.size
        # tb[:, p] = vec(E_p X_t) for the symmetric unit matrix E_p of b[p]
        tb = np.zeros((s, q, nb))
        tb[:, self.rows, np.arange(nb)] = self.xt[self.cols].T
        tb[:, self.cols, np.arange(nb)] = self.xt[self.rows].T
        tb = tb.reshape(s * q, nb)
        self.unique = q < s
        if self.unique:
            blocks = np.concatenate([np.broadcast_to(self.xt.T, (n, s, q)), self.xn[:, :, None]], axis=2)
            qa, ra = np.linalg.qr(blocks)
            ra_inv = _triangular_inverse(ra)
            self.block_pinv = ra_inv @ qa.transpose(0, 2, 1)
            self.k = ra_inv[:, :q] @ ra_inv[:, :q].transpose(0, 2, 1)
            core = np.einsum("ia,ib,ikl->akbl", self.xn, self.xn, self.k).reshape(s * q, s * q)
            self.weight = np.linalg.inv(np.linalg.cholesky(core + np.eye(s * q)))
            self.core_pinv = _pinv(self.weight @ tb, nb)
        else:
            blocks = np.concatenate([np.broadcast_to(self.xt, (n, q, s)), self.xn[:, None, :]], axis=1)
            qa, ra = np.linalg.qr(blocks, mode="complete")
            ra_inv = _triangular_inverse(ra[:, :s])
            self.block_pinv = qa[:, :, :s] @ ra_inv.transpose(0, 2, 1)
            self.null = qa[:, :, s:]
            coupling = np.einsum("ia,ikj->akij", self.xn, self.null[:, :q]).reshape(s * q, -1)
            self.core_pinv = _pinv(np.hstack([tb, coupling]), s * q - s * (s - 1) // 2)

    def _b11(self, b):
        b11 = np.zeros((self.q, self.q))
        b11[self.rows, self.cols] = b
        b11[self.cols, self.rows] = b
        return b11

    def _apply(self, u):
        b, c, d = u
        return self._b11(b) @ self.xt + c @ self.xn, c.T @ self.xt + d[:, None] * self.xn

    def _adjoint(self, rt, rn):
        p = rt @ self.xt.T
        g11 = p + p.T - np.diag(np.diag(p))
        return g11[self.rows, self.cols], rt @ self.xn.T + self.xt @ rn.T, np.sum(rn * self.xn, axis=1)

    def _range_part(self, y):
        """The orthogonal projection of Y onto {Y : X^T Y symmetric}.

        That set contains range(W), since X^T Bn X is symmetric, and equals
        it when q >= s and W has its generic rank sM - s(s-1)/2, which the
        core rank check confirms.  Its complement is {X S : S skew}, so
        W^T vec(X S) = 0 and W^+ Y is unchanged.  S solves
        G S + S G = X^T Y - Y^T X with G = X^T X.
        """
        lam, v = np.linalg.eigh(self.x.T @ self.x)
        if lam[0] <= _BLOCK_RCOND * lam[-1]:
            raise np.linalg.LinAlgError("Re Q is numerically rank-deficient")
        xty = self.x.T @ y
        skew = v @ ((v.T @ (xty - xty.T) @ v) / (lam[:, None] + lam[None, :])) @ v.T
        return y - self.x @ skew

    def _step(self, yt, yn):
        """The block least-squares (b, C, d) for the right-hand side (Y_t, Y_n)."""
        q, s = self.xt.shape
        z = np.einsum("ijk,ik->ij", self.block_pinv, yn)
        e = yt - z[:, :q].T @ self.xn
        if self.unique:
            b = self.core_pinv @ (self.weight @ e.ravel(order="F"))
            # the top residual left by b moves each c_i by K_i w x_i, and d_i
            # follows as the least-squares fit of row i given c_i
            left = self.weight @ (e - self._b11(b) @ self.xt).ravel(order="F")
            w = (self.weight.T @ left).reshape(q, s, order="F")
            dc = np.einsum("ikl,il->ik", self.k, self.xn @ w.T)
            z[:, :q] += dc
            z[:, q] -= np.sum(self.xn * (dc @ self.xt), axis=1) / np.sum(self.xn**2, axis=1)
        else:
            v = self.core_pinv @ e.ravel(order="F")
            b = v[:self.rows.size]
            z += np.einsum("ijk,ik->ij", self.null, v[b.size:].reshape(len(z), self.null.shape[2]))
        return b, z[:, :q].T, z[:, q]

    def solve(self, y):
        """(Bn, residual) of the minimum-norm least-squares solution for Y."""
        q = self.q
        y_range = self._range_part(y)
        u = self._step(y_range[:q], y_range[q:])
        for _ in range(_REFINEMENT_STEPS):
            top, tail = self._apply(u)
            du = self._step(y_range[:q] - top, y_range[q:] - tail)
            u = tuple(a + da for a, da in zip(u, du))
        top, tail = self._apply(u)
        rt, rn = y[:q] - top, y[q:] - tail
        residual = np.sqrt(np.sum(rt**2) + np.sum(rn**2))
        gradient = np.sqrt(sum(np.sum(g**2) for g in self._adjoint(rt, rn)))
        u_norm = np.sqrt(sum(np.sum(a**2) for a in u))
        w_norm = np.sqrt(2.0) * np.linalg.norm(self.x)
        if not gradient <= _CERTIFICATE_TOL * w_norm * (residual + w_norm * u_norm):
            raise np.linalg.LinAlgError(f"block solve not certified (gradient {gradient:.2e})")
        b, c, d = u
        m = len(y)
        bn = np.zeros((m, m))
        bn[:q, :q] = self._b11(b)
        bn[:q, q:] = c
        bn[q:, :q] = c.T
        bn[np.arange(q, m), np.arange(q, m)] = d
        return bn, float(residual)


def _triangular_inverse(r):
    """Inverses of a stack of triangular factors; LinAlgError when one is
    numerically singular."""
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    if len(r) and np.any(diag.min(axis=-1) <= _BLOCK_RCOND * diag.max(axis=-1)):
        raise np.linalg.LinAlgError("singular tail block")
    return np.linalg.inv(r)


def _pinv(a, rank):
    """Pseudo-inverse of a with the rank cutoff of np.linalg.lstsq;
    LinAlgError when that numerical rank is not ``rank``."""
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    kept = int(np.sum(sv > np.finfo(float).eps * max(a.shape) * sv[0]))
    if kept != rank:
        raise np.linalg.LinAlgError(f"core rank {kept}, expected {rank}")
    return (vt[:rank].T / sv[:rank]) @ u[:, :rank].T


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
    full = np.hstack([frame.q, orthonormal_complement(frame.q)])
    return ScatteringMatrix(full, full.conj(), "custom")
