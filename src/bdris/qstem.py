"""q-stem susceptance synthesis and the Cayley map between susceptance and
scattering matrices.

In a q-stem network only the first q elements are wired to everything; the
remaining M - q carry just their own grounding susceptance.  B therefore has
hard zeros at every off-diagonal position (i, j) with min(i, j) >= q, leaving
nu = q(q+1)/2 + (M-q)(q+1) tunable circuits, which ``SusceptanceMatrix`` stores.

A scattering matrix Theta_lr = Q Q^T is realized by any full Cayley matrix
Theta_B with Theta_B conj(Q) = Q, i.e. by the real linear system
(z0 B) Re(Q) = -Im(Q), solved in least squares over the q-stem free
parameters; at q = 2r - 1 it is generically consistent.  Real channels give
Re Q = [U1, 0] and no exact solution; the synthesis then realizes
e^{j alpha} Q, i.e. Theta_B = e^{2j alpha} Q Q^T, with the same |det| and
blocked-link rate.  ``_ArrowSystem`` solves it by block elimination in time
linear in M, with no SVD of a wide matrix (a Cholesky of the core's Gram);
``build_qstem_system`` forms the dense 2rM x nu system.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .designs import ScatteringMatrix
from .linalg import _as_matrix, _check_frame, orthonormal_complement


class CayleySingularityError(ArithmeticError):
    """Theta has an eigenvalue at -1, where the Cayley map blows up."""


@dataclass(frozen=True)
class SusceptanceMatrix:
    """q-stem susceptance B = [[b11, c], [c^T, diag(d)]] stored as its circuits: the stems' q x q block
    b11, their couplings c (q x (M - q)) and the tail's grounding diagonal d; ``b`` is formed on first access."""

    b11: np.ndarray
    c: np.ndarray
    d: np.ndarray
    z0: float = 50.0

    def __post_init__(self):
        _check_z0(self.z0)
        b11, c, d = (np.asarray(a) for a in (self.b11, self.c, self.d))
        if b11.ndim != 2 or not 1 <= len(b11) == b11.shape[1] or d.ndim != 1 or c.shape != (len(b11), d.size):
            raise ValueError(f"blocks must be q x q, q x (M - q), M - q, q >= 1; got {b11.shape}, {c.shape}, {d.shape}")
        if any(np.iscomplexobj(a) or not np.isfinite(a).all() for a in (b11, c, d)):
            raise ValueError("blocks must be real with finite entries")
        if not np.array_equal(b11, b11.T):
            raise ValueError("b11 must be exactly symmetric")

    @property
    def q(self) -> int:
        return len(self.b11)

    @property
    def m(self) -> int:
        return self.q + len(self.d)

    @functools.cached_property
    def b(self) -> np.ndarray:
        return np.block([[self.b11, self.c], [self.c.T, np.diag(self.d)]])


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
    ValueError for any other design."""
    if not np.array_equal(design.right, design.left.conj()):
        raise ValueError("design is not stored as Theta = Q Q^T")
    return design.left


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
    if "_synthesis_target" not in vars(design):  # q-independent: kept in the design's __dict__, as its theta is
        design.__dict__["_synthesis_target"] = _realizable_target(_symmetric_frame(design))
    alpha, x, y, gram, norms = design.__dict__["_synthesis_target"]
    # A stem k with a negligible row x_k (a disconnected element) leaves the block solve:
    # only row k's equation sees Bn[k], solved by (X_live^+)^T y_k.  With no such stem,
    # x[live] is a view, as a copy would move the last digits of the generic path.
    dead = np.flatnonzero(norms[:q] <= _PIVOT_RCOND * norms.max())
    live = np.delete(np.arange(design.m), dead) if dead.size else slice(None)
    (b11, c, d), residual = _ArrowSystem(x[live], q - dead.size, gram).solve(y[live])
    if dead.size:
        (lam, v), full = gram, np.zeros((design.m, design.m))
        full[np.ix_(live, live)] = np.block([[b11, c], [c.T, np.diag(d)]])
        full[np.ix_(live, dead)] = x[live] @ v @ ((v.T @ y[dead].T) / lam[:, None])
        full[np.ix_(dead, live)] = full[np.ix_(live, dead)].T
        b11, c, d, residual = full[:q, :q], full[:q, q:], np.diagonal(full)[q:], float(np.linalg.norm(full @ x - y))
    if residual > (1.0 + _CERTIFICATE_TOL) * np.linalg.norm(y):
        raise np.linalg.LinAlgError(f"block solve residual {residual:.2e} exceeds that of B = 0")
    return SusceptanceMatrix(b11 / z0, c / z0, d / z0, z0), residual, alpha


def _realizable_target(q):
    """(alpha, X = Re P, Y = -Im P, eigh(X^T X), X's row norms), P = e^{j alpha} Q, with Gram
    eigenvalues lam / max lam above _GRAM_RCOND: P = Q if Re Q passes, else alpha in _PHASES
    maximizes sigma_min(Re P).  Real Q = [U1, -j U2] gives Re P = [cos(alpha) U1, sin(alpha) U2]."""
    for alphas in ((0.0,), _PHASES):
        targets = [np.exp(1j * a) * q if a else q for a in alphas]
        grams = [np.linalg.eigh(p.real.T @ p.real) for p in targets]
        k = int(np.argmax([lam[0] for lam, _ in grams]))
        (lam, _), p = grams[k], targets[k]
        if lam[0] > _GRAM_RCOND * lam[-1]:
            return float(alphas[k]), p.real, -p.imag, grams[k], np.linalg.norm(p.real, axis=1)
    raise np.linalg.LinAlgError("Re e^{j alpha} Q is numerically rank-deficient at every phase")


_REFINEMENT_STEPS = 2
# The global phases alpha tried when Re Q is numerically rank-deficient.
_PHASES = np.pi * np.arange(1, 8) / 16
# A Re(P) whose Gram eigenvalues lam / max lam reach this ratio is rank-deficient.
_GRAM_RCOND = 1e-8
# Zero at or below this times the largest: a stem row norm, pivot or singular value, or a tail
# row's part outside the stems' row space (1e-14 solves rows scaled by 10^U(-14, -6); 1e-8 did not).
_PIVOT_RCOND = 1e-14
_CERTIFICATE_TOL = 1e-12
_CORE_RCOND = 1e-10  # generic q >= 2r cores read >= 1e-2 (M = 12..64), a further null vector ~eps


class _ArrowSystem:
    """The synthesis system Bn X = Y (Bn = z0 B, X = Re Q, Y = -Im Q, s columns)
    split at row q into the top rows t and the tail rows n.

    The unknowns are the lower triangle b of B11 = Bn[t, t], C = Bn[t, n] and
    the tail diagonal d.  Tail row i gives s equations A_i z_i = y_i in its
    own z_i = (c_i, d_i), A_i = [X_t^T, x_i]; only the q s top equations
    B11 X_t + C X_n = Y_t couple the rows.  The tail blocks are eliminated in
    batch, leaving a dense core on the top equations (Bjorck, Numerical
    Methods for Least Squares Problems, SIAM 1996, ch. 6):

    * q < s: A_i borders the QR X_t^T = Q0 R0 by h_i = Q0^T x_i and rho_i =
      ||x_i - Q0 h_i||.  b solves the top equations weighted by (I + sum_i
      x_i x_i^T (x) K_i)^{-1}, K_i the c-block of (A_i^T A_i)^{-1}.  A dead row
      (rho_i ~ 0, x_i = X_t^T a_i) is solved with d_i = 0; ``solve`` then
      removes the solution's part along the null vector of W it adds.
    * q >= s: one SVD X_t = U diag(sigma) V^T of rank k = s or s - 1 gives
      N_i = null(A_i): (U2 w, 0), U2 = U[:, k:], and at k = s (-a_i, 1) / nu_i,
      nu_i^2 = 1 + ||a_i||^2.  Over z_i = z_i^0 + N_i v_i, the minimum-norm (b,
      v) = W_c^T (G + c Z Z^T)^{-1} e, W_c = [tb, (x_i (x) N_i)_i], takes one
      Cholesky: G = tb tb^T + kron(X_n^T X_n, U2 U2^T) + V^T V, V's rows x_i (x)
      a_i / nu_i (0 at k = s - 1), and Z, from the same SVD, spans G's null
      space {vec(X_t S) : S skew}.

    Both share one step: z_i^0 = (P y_i - a_i d_i, d_i), P = (X_t^T)^+, and the
    core's g_i = W x_i adds (K0 g_i + a_i t_i, -t_i) to it.

    ``solve`` projects Y (``_range_part``), refines twice and certifies
    ||W^T r|| <= tol ||W|| (||r|| + ||W|| ||u||), ||W||_2 <= sqrt(2) ||X||_F,
    without forming W.  A singular tail block, a core of non-generic numerical
    rank or a failed certificate raises ``LinAlgError``.
    """

    def __init__(self, x, q, gram):
        self.x, self.q, self.gram = x, q, gram
        self.xt, self.xn = x[:q], x[q:]
        n, s = self.xn.shape
        self.rows, self.cols, span = _tril(q)
        # tb[:, p] = vec(E_p X_t) for the symmetric unit matrix E_p of b[p]
        tb = np.zeros((s, q, span.size))
        tb[:, self.rows, span] = self.xt[self.cols].T
        tb[:, self.cols, span] = self.xt[self.rows].T
        self.tb = tb.reshape(s * q, span.size)
        self.unique = q < s
        if self.unique:
            q0, r0 = np.linalg.qr(self.xt.T)
            p = self.xn - (h := self.xn @ q0) @ q0.T
            h, p = h + p @ q0, p - (p @ q0) @ q0.T  # reorthogonalized once
            rho, pivots = np.linalg.norm(p, axis=1), np.abs(np.diagonal(r0))
            cutoff = _PIVOT_RCOND * max(pivots.max(initial=0.0), rho.max(initial=0.0))
            if np.any(pivots <= cutoff):
                raise np.linalg.LinAlgError("singular tail block")
            r0_inv = np.linalg.inv(r0)
            self.pinv, self.k0, self.a = r0_inv @ q0.T, r0_inv @ r0_inv.T, h @ r0_inv.T  # x_i = X_t^T a_i + p_i
            self.dvec, self.dden = p, np.where(rho <= cutoff, np.inf, rho**2)  # inf keeps a dead d_i at 0
            self.dead, self.tden = np.flatnonzero(rho <= cutoff), self.dden
        else:
            u, sv, vt = np.linalg.svd(self.xt)
            k = int(np.sum(sv > _PIVOT_RCOND * sv[0]))
            rho = np.linalg.norm(p := (self.xn @ vt[k:].T) @ vt[k:], axis=1)  # x_i's part outside range(X_t^T)
            if k < s - 1 or (k < s and np.any(rho <= _PIVOT_RCOND * max(sv[0], rho.max(initial=0.0)))):
                raise np.linalg.LinAlgError("singular tail block")
            self.pinv, self.k0 = (u[:, :k] / sv[:k]) @ vt[:k], u[:, k:] @ u[:, k:].T  # K0 = U2 U2^T
            self.a = self.xn @ self.pinv.T
            # d_i = a_i^T P y_i / nu_i^2 at k = s, else p_i^T y_i / rho_i^2 as at q < s
            self.dvec, self.dden = (self.a @ self.pinv, 1.0 + np.sum(self.a**2, axis=1)) if k == s else (p, rho**2)
            self.tden = self.dden if k == s else np.full(n, np.inf)  # t_i = 0 at k = s - 1
        # K_i = K0 + a_i a_i^T / tden_i (N_i's c-rows N_i^c N_i^c^T at q >= s): a Kronecker product plus a GEMM
        v = (self.xn[:, :, None] * self.a[:, None, :]).reshape(n, s * q) / np.sqrt(self.tden)[:, None]
        core = _kron(self.xn.T @ self.xn, self.k0) + v.T @ v
        if self.unique:
            self.weight = np.linalg.inv(np.linalg.cholesky(core + np.eye(s * q)))
            self.core_pinv = _pinv(self.weight @ self.tb, span.size)
        else:
            ia, ib = np.triu_indices(s, 1)  # z[:, p] = vec(X_t S_p) / ||.|| for the skew S_p = v_b v_a^T - v_a v_b^T
            z = vt[ia].T[:, None] * (sv[ib] * u[:, ib]) - vt[ib].T[:, None] * (sv[ia] * u[:, ia])
            z = z.reshape(s * q, -1) / np.hypot(sv[ia], sv[ib])
            g = self.tb @ self.tb.T + core
            self.weight = _core_factor(g + np.trace(g) / (s * q) * (z @ z.T), s * q - ia.size)

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
        d = np.sum(self.dvec * yn, axis=1) / self.dden
        c = yn @ self.pinv.T - self.a * d[:, None]
        e = yt - c.T @ self.xn
        if self.unique:  # the top residual left by b moves each z_i by the c-columns of (A_i^T A_i)^{-1} times W x_i
            b = self.core_pinv @ (self.weight @ e.ravel(order="F"))
            w = self.weight.T @ (self.weight @ (e - self._b11(b) @ self.xt).ravel(order="F"))
        else:  # (b, v) = W_c^T w, w = G^+ e, and v_i = N_i^T W x_i
            w = self.weight.T @ (self.weight @ e.ravel(order="F"))
            b = self.tb.T @ w
        g = self.xn @ w.reshape(q, s, order="F").T
        t = np.sum(self.a * g, axis=1) / self.tden
        return b, (c + g @ self.k0 + self.a * t[:, None]).T, d - t

    def solve(self, y):
        """((B11, C, d), residual) of the minimum-norm least-squares Bn for Y, with no M x M array formed."""
        q = self.q
        y_range = self._range_part(y)
        u = self._step(y_range[:q], y_range[q:])
        for _ in range(_REFINEMENT_STEPS):
            top, tail = self._apply(u)
            du = self._step(y_range[:q] - top, y_range[q:] - tail)
            u = tuple(a + da for a, da in zip(u, du))
        if self.unique and self.dead.size:  # the minimum norm along the null vectors (-sym(a_i a_i^T), a_i e_i^T, -e_i)
            (b, c, d), a, i = u, self.a[self.dead], self.dead
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
        return (self._b11(u[0]), u[1], u[2]), float(residual)


@functools.lru_cache(maxsize=64)
def _tril(q):
    """The rows of np.tril_indices(q) and the arange over its entries, in one read-only array built once per q."""
    index = np.vstack([*np.tril_indices(q), np.arange(q * (q + 1) // 2)])
    index.flags.writeable = False
    return index


def _kron(a, b):
    """np.kron(a, b) of 2-D a and b: the same single multiply, without np.kron's set-up per call."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _core_factor(g, rank):
    """Inverse Cholesky factor of g; LinAlgError unless each squared pivot exceeds _CORE_RCOND times the largest."""
    try:
        pivots = np.diagonal(chol := np.linalg.cholesky(g)) ** 2
    except np.linalg.LinAlgError:
        pivots = np.zeros(1)
    if not pivots.min() > _CORE_RCOND * pivots.max():
        raise np.linalg.LinAlgError(f"core rank below {rank}")
    return np.linalg.inv(chol)


def _pinv(a, rank):
    """Pseudo-inverse of a with the rank cutoff of np.linalg.lstsq;
    LinAlgError when that numerical rank is not ``rank``."""
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    kept = int(np.sum(sv > np.finfo(float).eps * max(a.shape) * sv.max(initial=0.0)))
    if kept != rank:
        raise np.linalg.LinAlgError(f"core rank {kept}, expected {rank}")
    return (vt[:rank].T / sv[:rank]) @ u[:, :rank].T


def b_to_theta(b: SusceptanceMatrix) -> ScatteringMatrix:
    """Cayley map (I + j z0 B)^{-1} (I - j z0 B) = Q Q^T from one eigh B = V diag(lam) V^T:
    Q = V diag(e^{-j atan(z0 lam)}), as (1 - j x) / (1 + j x) = e^{-2j atan x}.  Stored as
    ScatteringMatrix(Q), it is symmetric and unitary by construction, and nothing is inverted."""
    lam, v = np.linalg.eigh(b.b)
    return ScatteringMatrix(v * np.exp(-1j * np.arctan(b.z0 * lam)))


def theta_to_b(theta, z0: float = 50.0) -> SusceptanceMatrix:
    """Inverse Cayley map B = (I + Theta)^{-1} (I - Theta) / (j z0) for a
    symmetric unitary Theta (fully connected network, q = M)."""
    _check_z0(z0)
    t = _as_matrix(theta, "theta")
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"theta must be one square matrix, got shape {t.shape}")
    m = t.shape[0]
    _check_frame(t, "unitary theta")
    if np.linalg.norm(t - t.T) > 1e-8:
        raise ValueError("theta must be symmetric")
    gap = np.min(np.abs(np.linalg.eigvals(t) + 1.0))
    if gap < 1e-8:
        raise CayleySingularityError("theta has an eigenvalue at -1; rotate it by a global phase (e.g. e^{j pi/8} "
                                     "theta, which leaves |det| and rates unchanged) and retry")
    bn = np.linalg.solve(np.eye(m) + t, np.eye(m) - t) / (1j * z0)
    imag_defect = np.linalg.norm(bn.imag)
    if imag_defect > 1e-8 * max(np.linalg.norm(bn.real), 1.0):
        raise ValueError(f"resulting susceptance is not real (defect {imag_defect:.2e})")
    return SusceptanceMatrix((bn.real + bn.real.T) / 2.0, np.zeros((m, 0)), np.zeros(0), z0)


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


def qstem_channel(channels, b: SusceptanceMatrix) -> np.ndarray:
    """F Theta_B G^H = 2 F A^{-1} G^H - F G^H, Theta_B = b_to_theta(b), in O(M q N): A = I + j z0 B
    = [[A11, C], [C^T, D]], D diagonal, is solved through the q x q Schur complement
    A11 - C D^{-1} C^T.  A is normal with eigenvalues 1 + j z0 lam, so ||A^{-1}||_2 <= 1."""
    if b.m != channels.m:
        raise ValueError(f"b must be {channels.m}x{channels.m}, got {b.m}x{b.m}")
    f, g, q, z = channels.f, channels.g, b.q, 1j * b.z0
    a11, c, d, y = z * b.b11 + np.eye(q), z * b.c, 1.0 + z * b.d, g.conj().mT
    cd = c / d
    x1 = np.linalg.solve(a11 - cd @ c.T, y[:q] - cd @ y[q:])
    x2 = (y[q:] - c.T @ x1) / d[:, None]
    return 2.0 * (f[:, :q] @ x1 + f[:, q:] @ x2) - f @ y


def _completion_core(q):
    """(E, W) of Theta_full = I - E E^T + E W W^T E^T, which has Theta_full conj(Q) = Q:
    E (M x k, k = min(2s, M)) is a real orthonormal basis containing V = span(Q) + span(conj Q),
    from one QR of [Re Q, Im Q], and W = [E^T Q, complement] is k x k unitary."""
    e, r = np.linalg.qr(np.hstack([q.real, q.imag]))
    _check_frame(e, "completion basis")
    core = r[:, :q.shape[1]] + 1j * r[:, q.shape[1]:]  # E^T Q
    return e, np.hstack([core, orthonormal_complement(core)])


def complete_to_unitary(design: ScatteringMatrix) -> ScatteringMatrix:
    """Extend a design Theta = Q Q^T, ScatteringMatrix(Q), to the full
    unitary Theta_full of ``_completion_core``, ScatteringMatrix([E W, E_perp]).

    The completion acts only on the orthogonal complement of span(Q), so
    F Theta_full G^H == F Q Q^T G^H for any channels whose dominant right
    subspaces lie inside span(Q).
    """
    e, w = _completion_core(_symmetric_frame(design))
    full = np.hstack([e @ w, np.linalg.qr(e, mode="complete")[0][:, e.shape[1]:]])  # E_perp real
    return ScatteringMatrix(full)


def fully_connected_channel(channels, design: ScatteringMatrix, z0: float = 50.0) -> tuple[np.ndarray, float]:
    """(F Theta_B G^H, phi) of the fully connected B realizing e^{j phi} Theta_full
    (``complete_to_unitary``), from its k x k core: (phi, B_core) = cayley_with_phase_fallback(W W^T),
    B = E B_core E^T - tan(phi / 2) / z0 (I - E E^T), and Theta_B = E b_to_theta(B_core) E^T
    + e^{j phi} (I - E E^T)."""
    if design.m != channels.m:
        raise ValueError(f"design must be {channels.m}x{channels.m}, got {design.m}x{design.m}")
    e, w = _completion_core(_symmetric_frame(design))
    phi, b_core = cayley_with_phase_fallback(w @ w.T, z0)
    core, fe, ge = b_to_theta(b_core), channels.f @ e, channels.g @ e
    outside = channels.f @ channels.g.conj().T - fe @ ge.conj().T  # F (I - E E^T) G^H
    return (fe @ core.left) @ (ge @ core.right).conj().T + np.exp(1j * phi) * outside, phi
