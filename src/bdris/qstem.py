"""q-stem susceptance synthesis and the Cayley map between susceptance and
scattering matrices.

In a q-stem network only the first q elements are wired to everything; the
remaining M - q carry just their own grounding susceptance.  B therefore has
hard zeros at every off-diagonal position (i, j) with min(i, j) >= q, leaving
nu = q(q+1)/2 + (M-q)(q+1) tunable circuits.

A scattering matrix Theta_lr = Q Q^T is realized by any full Cayley matrix
Theta_B with Theta_B conj(Q) = Q, i.e. by the real linear system
(z0 B) Re(Q) = -Im(Q), solved in least squares over the q-stem free
parameters; at q = 2r - 1 it is generically consistent.  Real channels give
Re Q = [U1, 0] and no exact solution; the synthesis then realizes
e^{j alpha} Q, i.e. Theta_B = e^{2j alpha} Q Q^T, with the same |det| and
blocked-link rate.  ``_ArrowSystem`` solves the system by block elimination
in time linear in M; ``build_qstem_system`` forms the dense 2rM x nu system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import ScatteringMatrix
from .linalg import _as_matrix, _check_frame, orthonormal_complement


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
        _check_z0(self.z0)
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
        tail = b[self.q:, self.q:]
        if np.any(tail[~np.eye(m - self.q, dtype=bool)] != 0.0):
            raise ValueError("b violates the q-stem sparsity pattern")

    @property
    def m(self) -> int:
        return self.b.shape[0]


def _free_params(q, m):
    """Lower-triangle coordinates (i, j) of the free entries, column-major."""
    j, i = np.triu_indices(m)
    keep = (j < q) | (i == j)
    return i[keep], j[keep]


def _check_z0(z0):
    if not 0.0 < z0 < np.inf:
        raise ValueError(f"z0 must be positive and finite, got {z0}")


def element_count(q: int, m: int) -> int:
    """Number of tunable circuits in a q-stem network: q(q+1)/2 + (M-q)(q+1)."""
    if not 1 <= q <= m:
        raise ValueError(f"q must be in [1, {m}]")
    return q * (q + 1) // 2 + (m - q) * (q + 1)


def build_qstem_system(design: ScatteringMatrix, q: int) -> np.ndarray:
    """The dense sM x nu matrix W of the synthesis system W b = -vec(Im Q),
    Q = design.left, the reference the block solver is tested against.  Column
    p is vec(E_p Re Q) for the free parameter (i, j) of ``_free_params``,
    E_p = e_i e_j^T + e_j e_i^T (e_i e_i^T when i = j): its rows i and j are
    rows j and i of Re Q."""
    x = design.left.real
    m = x.shape[0]
    if not 1 <= q <= m:
        raise ValueError(f"q must be in [1, {m}]")
    i, j = _free_params(q, m)
    # w[k, a, p] is entry (a, k) of E_p Re Q, so the reshape stacks columns
    w = np.zeros((x.shape[1], m, i.size))
    w[:, i, np.arange(i.size)] = x[j].T
    w[:, j, np.arange(i.size)] = x[i].T
    return w.reshape(-1, i.size)


def _symmetric_frame(design: ScatteringMatrix) -> np.ndarray:
    """Q of a design stored as Theta = Q Q^T, i.e. as the frames (Q, conj Q);
    ValueError for any other design or a Q that is not orthonormal."""
    if not np.array_equal(design.right, design.left.conj()):
        raise ValueError(f"a {design.kind} design is not stored as Theta = Q Q^T")
    return _check_frame(design.left, "Q")


def synthesize_qstem(design: ScatteringMatrix, q: int, z0: float = 50.0) -> tuple[SusceptanceMatrix, float, float]:
    """Least-squares q-stem susceptance B realizing e^{2j alpha} Q Q^T, which
    has the |det| and the blocked-link rate of the design Theta = Q Q^T
    (frames (Q, conj Q), as ``solve_maxdet`` returns).

    Returns (B, residual, alpha): with P = e^{j alpha} Q, B minimizes ||z0 B Re(P)
    + Im(P)||_F over the q-stem pattern with the least-norm free parameters.  alpha
    is 0 (P = Q) unless Re Q is numerically rank-deficient, as for real channels
    (``_realizable_target``).  A residual at or below about 1e-8 ||Q|| is exact,
    generic at q >= 2r - 1.  A failed block solve, or a residual above ||Im P||,
    the residual of B = 0, raises ``LinAlgError``: weak stems (rows of Re Q far
    below the largest) can leave the block solve that inaccurate."""
    if not 1 <= q <= design.m:
        raise ValueError(f"q must be in [1, {design.m}]")
    _check_z0(z0)
    alpha, target, gram = _realizable_target(_symmetric_frame(design))
    x, y = target.real, -target.imag
    # A stem k with a negligible row x_k (a disconnected element) leaves the block solve:
    # only row k's equation sees Bn[k], solved by (X_live^+)^T y_k.  With no such stem,
    # x[live] is a view, as a copy would move the last digits of the generic path.
    norms = np.linalg.norm(x, axis=1)
    dead = np.flatnonzero(norms[:q] <= _PIVOT_RCOND * norms.max())
    live = np.delete(np.arange(design.m), dead) if dead.size else slice(None)
    bn, residual = _ArrowSystem(x[live], q - dead.size, gram).solve(y[live])
    if dead.size:
        (lam, v), full = gram, np.zeros((design.m, design.m))
        full[np.ix_(live, live)] = bn
        full[np.ix_(live, dead)] = x[live] @ v @ ((v.T @ y[dead].T) / lam[:, None])
        full[np.ix_(dead, live)] = full[np.ix_(live, dead)].T
        bn, residual = full, float(np.linalg.norm(full @ x - y))
    if residual > (1.0 + _CERTIFICATE_TOL) * np.linalg.norm(y):
        raise np.linalg.LinAlgError(f"block solve residual {residual:.2e} exceeds that of B = 0")
    return SusceptanceMatrix(b=bn / z0, q=q, z0=z0), residual, alpha


def _realizable_target(q):
    """(alpha, P = e^{j alpha} Q, eigh(Re(P)^T Re(P))) with Gram eigenvalues
    lam / max lam above _GRAM_RCOND: P = Q if Re Q passes, else alpha in
    _PHASES maximizes sigma_min(Re P).  Real Q = [U1, -j U2] gives
    Re P = [cos(alpha) U1, sin(alpha) U2]."""
    for alphas in ((0.0,), _PHASES):
        targets = [np.exp(1j * a) * q if a else q for a in alphas]
        grams = [np.linalg.eigh(p.real.T @ p.real) for p in targets]
        k = int(np.argmax([lam[0] for lam, _ in grams]))
        lam = grams[k][0]
        if lam[0] > _GRAM_RCOND * lam[-1]:
            return float(alphas[k]), targets[k], grams[k]
    raise np.linalg.LinAlgError("Re e^{j alpha} Q is numerically rank-deficient at every phase")


_REFINEMENT_STEPS = 2
# The global phases alpha tried when Re Q is numerically rank-deficient.
_PHASES = np.pi * np.arange(1, 8) / 16
# A Re(P) whose Gram eigenvalues lam / max lam reach this ratio is rank-deficient.
_GRAM_RCOND = 1e-8
# A stem row norm or tail-block pivot at or below this times the largest is zero;
# 1e-14 solves tail rows scaled by 10^U(-14, -6), a 1e-8 row-norm test did not.
_PIVOT_RCOND = 1e-14
_CERTIFICATE_TOL = 1e-12


class _ArrowSystem:
    """The synthesis system Bn X = Y (Bn = z0 B, X = Re Q, Y = -Im Q, s columns)
    split at row q into the top rows t and the tail rows n.

    The unknowns are the lower triangle b of B11 = Bn[t, t], C = Bn[t, n] and
    the tail diagonal d.  Tail row i gives s equations A_i z_i = y_i in its
    own z_i = (c_i, d_i), A_i = [X_t^T, x_i]; only the q s top equations
    B11 X_t + C X_n = Y_t couple the rows.  The tail blocks are eliminated in
    batch, leaving a dense core on the top equations (Bjorck, Numerical
    Methods for Least Squares Problems, SIAM 1996, ch. 6):

    * q < s: with K_i the c-block of (A_i^T A_i)^{-1}, b solves the top
      equations weighted by (I + sum_i x_i x_i^T (x) K_i)^{-1}.  A dead row
      x_i = X_t^T a_i (``_tail_inverse``) is solved with d_i = 0; ``solve``
      then removes the solution's part along the null vector of W it adds.
    * q >= s: every A_i has full row rank, and z_i = z_i^0 + N_i v_i over
      the null space N_i of A_i meets the tail equations exactly; the
      minimum-norm (b, v) then gives the minimum-norm solution.

    ``solve`` projects Y (``_range_part``), refines twice and certifies
    ||W^T r|| <= tol ||W|| (||r|| + ||W|| ||u||), ||W||_2 <= sqrt(2) ||X||_F,
    without forming W.  A singular tail block, a core of non-generic numerical
    rank or a failed certificate raises ``LinAlgError``.
    """

    def __init__(self, x, q, gram):
        self.x, self.q, self.gram = x, q, gram
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
            ra_inv, dead = _tail_inverse(ra, last_may_vanish=True)
            self.a = (ra_inv[dead, :q, :q] @ ra[dead, :q, q:])[:, :, 0]  # x_i = X_t^T a_i
            self.block_pinv = ra_inv @ qa.transpose(0, 2, 1)
            self.k = ra_inv[:, :q] @ ra_inv[:, :q].transpose(0, 2, 1)
            # the d_i update of _step divides by this; inf keeps a dead d_i at 0
            self.xn_sq = np.where(dead, np.inf, np.sum(self.xn**2, axis=1))
            core = np.einsum("ia,ib,ikl->akbl", self.xn, self.xn, self.k).reshape(s * q, s * q)
            self.weight = np.linalg.inv(np.linalg.cholesky(core + np.eye(s * q)))
            self.core_pinv = _pinv(self.weight @ tb, nb)
        else:
            blocks = np.concatenate([np.broadcast_to(self.xt, (n, q, s)), self.xn[:, None, :]], axis=1)
            qa, ra = np.linalg.qr(blocks, mode="complete")
            ra_inv, dead = _tail_inverse(ra[:, :s], last_may_vanish=False)
            self.block_pinv = qa[:, :, :s] @ ra_inv.transpose(0, 2, 1)
            self.null = qa[:, :, s:]
            coupling = np.einsum("ia,ikj->akij", self.xn, self.null[:, :q]).reshape(s * q, -1)
            self.core_pinv = _pinv(np.hstack([tb, coupling]), s * q - s * (s - 1) // 2)
        self.dead = np.flatnonzero(dead)

    def _b11(self, b):
        b11 = np.zeros((self.q, self.q))
        b11[self.rows, self.cols] = b11[self.cols, self.rows] = b
        return b11

    def _apply(self, u):
        b, c, d = u
        return self._b11(b) @ self.xt + c @ self.xn, c.T @ self.xt + d[:, None] * self.xn

    def _adjoint(self, rt, rn):
        p = rt @ self.xt.T
        g11 = p + p.T - np.diag(np.diag(p))
        return g11[self.rows, self.cols], rt @ self.xn.T + self.xt @ rn.T, np.sum(rn * self.xn, axis=1)

    def _range_part(self, y):
        """The orthogonal projection of Y onto {Y : X^T Y symmetric}, which
        contains range(W), as X^T Bn X is symmetric, and equals it when q >= s
        and the core has its generic rank.  The complement {X S : S skew} has
        W^T vec(X S) = 0; S solves G S + S G = X^T Y - Y^T X, G = X^T X."""
        lam, v = self.gram
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
            z[:, q] -= np.sum(self.xn * (dc @ self.xt), axis=1) / self.xn_sq
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
        if self.dead.size:  # the minimum norm along the null vectors (-sym(a_i a_i^T), a_i e_i^T, -e_i)
            (b, c, d), a, i = u, self.a, self.dead
            sym = a[:, self.rows] * a[:, self.cols]
            t = np.linalg.solve(sym @ sym.T + np.diag(np.sum(a**2, axis=1) + 1.0),
                                np.sum(c[:, i].T * a, axis=1) - sym @ b - d[i])
            c[:, i], d[i] = c[:, i] - a.T * t, d[i] + t
            u = (b + sym.T @ t, c, d)
        top, tail = self._apply(u)
        rt, rn = y[:q] - top, y[q:] - tail
        residual = np.sqrt(np.sum(rt**2) + np.sum(rn**2))
        gradient = np.sqrt(sum(np.sum(g**2) for g in self._adjoint(rt, rn)))
        u_norm = np.sqrt(sum(np.sum(a**2) for a in u))
        w_norm = np.sqrt(2.0) * np.linalg.norm(self.x)
        if not gradient <= _CERTIFICATE_TOL * w_norm * (residual + w_norm * u_norm):
            raise np.linalg.LinAlgError(f"block solve not certified (gradient {gradient:.2e})")
        b, c, d = u
        bn = np.diag(np.concatenate([np.zeros(q), d]))
        bn[:q, :q], bn[:q, q:], bn[q:, :q] = self._b11(b), c, c.T
        return bn, float(residual)


def _tail_inverse(r, last_may_vanish):
    """Inverses of a stack of upper triangular factors and the mask of the dead ones,
    whose last pivot is <= _PIVOT_RCOND times the stack's largest (x_i in the row space
    of X_t): their inverse is the leading block's, bordered by zeros.  LinAlgError when
    another pivot is that small (dependent stem rows), or a last one may not vanish."""
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    zero = diag <= _PIVOT_RCOND * diag.max(initial=0.0)
    if np.any(zero[:, :-1]) or not last_may_vanish and np.any(zero[:, -1]):
        raise np.linalg.LinAlgError("singular tail block")
    dead, r = zero[:, -1], r.copy()
    r[dead, -1, -1] = 1.0
    inv = np.linalg.inv(r)
    inv[dead, -1] = inv[dead, :, -1] = 0.0
    return inv, dead


def _pinv(a, rank):
    """Pseudo-inverse of a with the rank cutoff of np.linalg.lstsq;
    LinAlgError when that numerical rank is not ``rank``."""
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    kept = int(np.sum(sv > np.finfo(float).eps * max(a.shape) * sv.max(initial=0.0)))
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
    _check_z0(z0)
    t = _as_matrix(theta, "theta")
    if t.shape[0] != t.shape[1]:
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
    t = np.asarray(theta, dtype=complex)
    failures = []
    for phi in _FALLBACK_PHASES:
        try:
            return phi, theta_to_b(np.exp(1j * phi) * t, z0)
        except CayleySingularityError as exc:
            failures.append(f"phi={phi:.4f}: {exc}")
    raise CayleySingularityError("; ".join(failures))


def complete_to_unitary(design: ScatteringMatrix) -> ScatteringMatrix:
    """Extend a design Theta = Q Q^T, stored as (Q, conj Q), to the full
    unitary Q Q^T + Qp Qp^T.

    The completion acts only on the orthogonal complement of span(Q), so
    F Theta_full G^H == F Q Q^T G^H for any channels whose dominant right
    subspaces lie inside span(Q).
    """
    q = _symmetric_frame(design)
    full = np.hstack([q, orthonormal_complement(q)])
    return ScatteringMatrix(full, full.conj(), "custom")
