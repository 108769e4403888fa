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
blocked-link rate.  ``_ArrowSystem`` solves it in the stems' singular basis
(one SVD of the q stem rows) by block elimination in time linear in M;
``build_qstem_system`` forms the dense 2rM x nu system.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .designs import ScatteringMatrix
from .linalg import _as_matrix, _check_counts, _check_frame, _numerical_rank, orthonormal_complement


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
    _check_counts(q=q, m=m)
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
    + Im(P)||_F over the q-stem pattern, exactly up to the stem rows in the stems'
    singular basis at or below _RANK_RCOND = 1e-14 times ||Re P||_2, taken as zero
    (``_ArrowSystem``); at q >= 2r, where B is not unique, its lower-triangle
    parameters in that basis have the least norm.  alpha is 0 (P = Q) unless Re Q
    is numerically rank-deficient, as for real channels (``_realizable_target``).
    A residual at or below about 1e-8 ||Q|| is exact, generic at q >= 2r - 1.  A
    failed block solve, or a residual above ||Im P||, the residual of B = 0, raises
    ``LinAlgError``: weak stems can leave the block solve that inaccurate."""
    _check_counts(q=q)
    if not 1 <= q <= design.m:
        raise ValueError(f"q must be in [1, {design.m}]")
    _check_z0(z0)
    if "_synthesis_target" not in vars(design):  # q-independent: kept in the design's __dict__, as its theta is
        design.__dict__["_synthesis_target"] = _realizable_target(_symmetric_frame(design))
    alpha, x, y, gram, y_range = design.__dict__["_synthesis_target"]
    (b11, c, d), residual = _ArrowSystem(x, q, gram).solve(y, y_range)
    if residual > (1.0 + _CERTIFICATE_TOL) * np.linalg.norm(y):
        raise np.linalg.LinAlgError(f"block solve residual {residual:.2e} exceeds that of B = 0")
    return SusceptanceMatrix(b11 / z0, c / z0, d / z0, z0), residual, alpha


def _realizable_target(q):
    """(alpha, X = Re P, Y = -Im P, eigh(X^T X), ``_range_part`` of Y), P = e^{j alpha} Q, with Gram
    eigenvalues lam / max lam above _GRAM_RCOND: P = Q if Re Q passes, else alpha in _PHASES maximizes
    sigma_min(Re P).  Real Q = [U1, -j U2] gives Re P = [cos(alpha) U1, sin(alpha) U2]."""
    for alphas in ((0.0,), _PHASES):
        targets = [np.exp(1j * a) * q if a else q for a in alphas]
        grams = [np.linalg.eigh(p.real.T @ p.real) for p in targets]
        k = int(np.argmax([lam[0] for lam, _ in grams]))
        (lam, _), p = grams[k], targets[k]
        if lam[0] > _GRAM_RCOND * lam[-1]:
            x, y = p.real, -p.imag
            return float(alphas[k]), x, y, grams[k], _range_part(x, y, grams[k])
    raise np.linalg.LinAlgError("Re e^{j alpha} Q is numerically rank-deficient at every phase")


def _range_part(x, y, gram):
    """The orthogonal projection of Y onto {Y : X^T Y symmetric}, which
    contains range(W), as X^T Bn X is symmetric, and equals it when q >= s
    and the core has its generic rank.  The complement {X S : S skew} has
    W^T vec(X S) = 0; S solves G S + S G = X^T Y - Y^T X, G = X^T X = gram."""
    lam, v = gram
    xty = x.T @ y
    skew = v @ ((v.T @ (xty - xty.T) @ v) / (lam[:, None] + lam[None, :])) @ v.T
    return y - x @ skew


_REFINEMENT_STEPS = 2
# The global phases alpha tried when Re Q is numerically rank-deficient.
_PHASES = np.pi * np.arange(1, 8) / 16
# A Re(P) whose Gram eigenvalues lam / max lam reach this ratio is rank-deficient.
_GRAM_RCOND = 1e-8
# Zero at or below this times ||Re P||_2: a stem singular value (a dead row) or a tail row's part outside
# the stems' row space.  1e-12 already costs stems scaled by 10^U(-14, -6) residual against lstsq.
_RANK_RCOND = 1e-14
_CERTIFICATE_TOL = 1e-12
_CORE_RCOND = 1e-10  # generic k = 2r cores read >= 1e-2 (M = 12..64), a further null vector ~eps


class _ArrowSystem:
    """The synthesis system Bn X = Y (Bn = z0 B, X = Re P, Y = -Im P, s columns) of q stem
    rows X_t and tail rows X_n in the stems' singular basis X_t = U diag(sigma) V^T: Bn' = T^T Bn T,
    T = blkdiag(U, I), has the q-stem pattern and the residual, and its stem rows are sigma_j v_j^T.
    A row with sigma_j <= _RANK_RCOND ||X||_2 (every row j >= s) is dead: taken as zero, its row
    of Bn' meets only its own equation, and is (X_live^T)^+ y'_j on the live rows and 0 among the
    dead (truncated-SVD least squares: Hansen, Rank-Deficient and Discrete Ill-Posed Problems, SIAM
    1998, ch. 3).  Tail row i of the k <= s live stems X_k = diag(sigma) V_k^T gives s equations
    A_i z_i = y_i in z_i = (c_i, d_i), A_i = [X_k^T, x_i]; they are eliminated in batch, leaving a
    core for b, the lower triangle of the live B11', on the k s top equations (Bjorck, Numerical
    Methods for Least Squares Problems, SIAM 1996, ch. 6).  With P = diag(1/sigma) V_k^T = (X_k^T)^+
    and a_i = P x_i:

    * k < s: x_i's part p_i outside the stems' row space fixes d_i = p_i^T y_i / ||p_i||^2, and b
      solves the top equations weighted by (I + sum_i x_i x_i^T (x) K_i)^{-1}, K_i = diag(sigma^-2)
      + a_i a_i^T / ||p_i||^2.  A dead tail row (||p_i|| ~ 0) gets d_i = 0, and the step's part
      along the null vector it adds is removed.
    * k = s: N_i = null(A_i) = (-a_i, 1) / nu_i, nu_i^2 = 1 + ||a_i||^2; the minimum-norm (b, v) =
      W_c^T (G + c Z Z^T)^{-1} e, W_c = [tb, (x_i (x) N_i)_i], takes one Cholesky: G = tb tb^T + V^T
      V, V's rows x_i (x) a_i / nu_i, and Z spans G's null space {vec(X_k S) : S skew}.

    Both share one step: z_i^0 = (P y_i - a_i d_i, d_i), and the core's g_i = W x_i adds (K0 g_i +
    a_i t_i, -t_i), K0 = diag(sigma^-2) at k < s and 0 at k = s.  ``solve`` takes Y projected once per
    design (``_range_part``), refines in the original basis while the residual falls (rotating a large
    Bn' back rounds it), and certifies ||W^T r|| <= tol ||W|| (||r|| + ||W|| ||u||), ||W||_2 <= sqrt(2)
    ||X||_F, without forming W.  A core of non-generic rank or a failed certificate raises
    ``LinAlgError``.
    """

    def __init__(self, x, q, gram):
        self.x, self.q, self.gram = x, q, gram
        self.xt, self.xn = x[:q], x[q:]
        n, s = self.xn.shape
        self.u, sv, vt = np.linalg.svd(self.xt)
        self.k = k = int(np.sum(sv > _RANK_RCOND * np.sqrt(gram[0][-1])))
        sv, xs = sv[:k], sv[:k, None] * vt[:k]
        self.xs, self.xl = xs, np.vstack([xs, self.xn])  # the live stem rows, and every live row
        self.rows, self.cols, span = _tril(k)
        # tb[:, p] = vec(E_p X_k) for the symmetric unit matrix E_p of b[p]
        tb = np.zeros((s, k, span.size))
        tb[:, self.rows, span] = xs[self.cols].T
        tb[:, self.cols, span] = xs[self.rows].T
        self.tb = tb.reshape(s * k, span.size)
        self.pinv = vt[:k] / sv[:, None]
        self.a = self.xn @ self.pinv.T  # x_i = X_k^T a_i + p_i
        self.unique = k < s
        if self.unique:
            p = (self.xn @ vt[k:].T) @ vt[k:]
            rho = np.linalg.norm(p, axis=1)
            dead = rho <= _RANK_RCOND * np.sqrt(gram[0][-1])
            self.k0, self.dvec, self.dden = sv**-2.0, p, np.where(dead, np.inf, rho**2)  # inf keeps a dead d_i at 0
            self.dead = np.flatnonzero(dead)
        else:
            self.k0, self.dvec, self.dden = 0.0, self.a @ self.pinv, 1.0 + np.sum(self.a**2, axis=1)
        # K_i = K0 + a_i a_i^T / dden_i: a Kronecker product plus a GEMM
        v = (self.xn[:, :, None] * self.a[:, None, :]).reshape(n, s * k) / np.sqrt(self.dden)[:, None]
        if self.unique:
            core = _kron(self.xn.T @ self.xn, np.diag(self.k0)) + v.T @ v
            self.weight = np.linalg.inv(np.linalg.cholesky(core + np.eye(s * k)))
            self.core_pinv = _pinv(self.weight @ self.tb, span.size)
        else:
            ia, ib = np.triu_indices(s, 1)  # z[:, p] = vec(X_k S_p) / ||.|| for the skew S_p = v_b v_a^T - v_a v_b^T
            z = vt[ia].T[:, None] * (sv[ib] * np.eye(s)[:, ib]) - vt[ib].T[:, None] * (sv[ia] * np.eye(s)[:, ia])
            z = z.reshape(s * k, -1) / np.hypot(sv[ia], sv[ib])
            g = self.tb @ self.tb.T + v.T @ v
            self.weight = _core_factor(g + np.trace(g) / (s * k) * (z @ z.T), s * k - ia.size)

    def _b11(self, b):
        b11 = np.zeros((self.k, self.k))
        b11[self.rows, self.cols] = b11[self.cols, self.rows] = b
        return b11

    def _apply(self, u):
        b11, c, d = u
        return np.vstack([b11 @ self.xt + c @ self.xn, c.T @ self.xt + d[:, None] * self.xn])

    def _adjoint(self, r):
        """W^T r over (B11's lower triangle, C, d)."""
        rt, rn = r[:self.q], r[self.q:]
        p = rt @ self.xt.T
        return np.tril(p + p.T - np.diag(np.diag(p))), rt @ self.xn.T + self.xt @ rn.T, np.sum(rn * self.xn, axis=1)

    def _live_step(self, yt, yn):
        """The block least-squares (b, C', d) of the live system for the right-hand side (Y'_t, Y_n)."""
        k, s = self.xs.shape
        d = np.sum(self.dvec * yn, axis=1) / self.dden
        c = yn @ self.pinv.T - self.a * d[:, None]
        e = yt - c.T @ self.xn
        if self.unique:  # the top residual left by b moves each z_i by the c-columns of (A_i^T A_i)^{-1} times W x_i
            b = self.core_pinv @ (self.weight @ e.ravel(order="F"))
            w = self.weight.T @ (self.weight @ (e - self._b11(b) @ self.xs).ravel(order="F"))
        else:  # (b, v) = W_c^T w, w = G^+ e, and v_i = N_i^T W x_i
            w = self.weight.T @ (self.weight @ e.ravel(order="F"))
            b = self.tb.T @ w
        g = self.xn @ w.reshape(k, s, order="F").T
        t = np.sum(self.a * g, axis=1) / self.dden
        c, d = (c + g * self.k0 + self.a * t[:, None]).T, d - t
        if self.unique and self.dead.size:  # the minimum norm along the null vectors (-sym(a_i a_i^T), a_i e_i^T, -e_i)
            a, i = self.a[self.dead], self.dead
            sym = a[:, self.rows] * a[:, self.cols]
            t = np.linalg.solve(sym @ sym.T + np.diag(np.sum(a**2, axis=1) + 1.0),
                                np.sum(c[:, i].T * a, axis=1) - sym @ b - d[i])
            b, c[:, i], d[i] = b + sym.T @ t, c[:, i] - a.T * t, d[i] + t
        return b, c, d

    def _step(self, r):
        """The least-squares (B11, C, d) for the residual R through the singular basis: the live system's
        step and, for each dead row j, (X_live^T)^+ r'_j from X^T X, which the refinement corrects."""
        k, q, rt = self.k, self.q, self.u.T @ r[:self.q]
        b, c, d = self._live_step(rt[:k], r[q:])
        b11 = self._b11(b)
        if k < q:
            lam, v = self.gram
            beta = self.xl @ v @ ((v.T @ rt[k:].T) / lam[:, None])
            b11, c = np.block([[b11, beta[:k]], [beta[:k].T, np.zeros((q - k, q - k))]]), np.vstack([c, beta[k:].T])
        b11 = self.u @ b11 @ self.u.T
        return (b11 + b11.T) / 2.0, self.u @ c, d

    def solve(self, y, y_range):
        """((B11, C, d), residual) of the least-squares Bn for Y and its ``_range_part``, with no M x M array formed."""
        u = self._step(y_range)
        r = y_range - self._apply(u)
        for _ in range(_REFINEMENT_STEPS):
            refined = tuple(a + da for a, da in zip(u, self._step(r)))
            r_refined = y_range - self._apply(refined)
            if np.vdot(r_refined, r_refined) >= np.vdot(r, r):
                break
            u, r = refined, r_refined
        r += y - y_range
        residual = np.linalg.norm(r)
        gradient = np.sqrt(sum(np.vdot(g, g) for g in self._adjoint(r)))
        u_norm = np.sqrt(sum(np.vdot(a, a) for a in (np.tril(u[0]), u[1], u[2])))
        w_norm = np.sqrt(2.0) * np.linalg.norm(self.x)
        if not gradient <= _CERTIFICATE_TOL * w_norm * (residual + w_norm * u_norm):
            raise np.linalg.LinAlgError(f"block solve not certified (gradient {gradient:.2e})")
        return u, float(residual)


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
    if (kept := int(_numerical_rank(sv, a.shape))) != rank:
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
    = [[A11, C], [C^T, D]], D diagonal, is solved through the q x q Schur complement S = A11 - C D^{-1}
    C^T, ||A^{-1}||_2 <= 1.  S cancels terms of size ||z0 B||, which double precision would round to an
    error of Theta_B off the unitary matrices that |det| sees to first order, so S is formed in extended
    precision (np.longdouble): S = I + Zc W Zc^T + j (z0 b11 - Zc W diag(zd) Zc^T), W = diag(1 / (1 + zd^2)),
    Zc = z0 c and zd = z0 d."""
    if b.m != channels.m:
        raise ValueError(f"b must be {channels.m}x{channels.m}, got {b.m}x{b.m}")
    f, q, y = channels.f, b.q, channels.g.conj().mT
    c, d = 1j * b.z0 * b.c, 1.0 + 1j * b.z0 * b.d
    zc, zd = (b.z0 * np.asarray(a, dtype=np.longdouble) for a in (b.c, b.d))
    zcw = zc / (1.0 + zd**2)
    # np.dot: matmul has no fast loop for np.longdouble
    schur = np.eye(q) + np.dot(zcw, zc.T).astype(float) + 1j * (b.z0 * b.b11 - np.dot(zcw * zd, zc.T)).astype(float)
    x1 = np.linalg.solve(schur, y[:q] - (c / d) @ y[q:])
    x2 = (y[q:] - c.T @ x1) / d[:, None]
    return 2.0 * (f[:, :q] @ x1 + f[:, q:] @ x2) - f @ y


def _completion_core(q):
    """(E, W) of Theta_full = I - E E^T + E W W^T E^T, which has Theta_full conj(Q) = Q:
    E (M x k, k = min(2s, M)) is a real orthonormal basis containing V = span(Q) + span(conj Q),
    from one QR of [Re Q, Im Q], orthonormal by construction, and W = [E^T Q, complement] is k x k unitary."""
    e, r = np.linalg.qr(np.hstack([q.real, q.imag]))
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
