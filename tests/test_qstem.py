import os
import re
import tracemalloc
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import bdris
from bdris import designs, harness, linalg, metrics, qstem
from bdris.channel import ChannelSet
from bdris.designs import ScatteringMatrix, random_symmetric_unitary, solve_maxdet, unitary_baseline
from bdris.qstem import (
    CayleySingularityError,
    SusceptanceMatrix,
    b_to_theta,
    build_qstem_system,
    cayley_with_phase_fallback,
    complete_to_unitary,
    element_count,
    synthesize_qstem,
    theta_to_b,
)

from conftest import make_iid_channels, random_complex


def qstem_support(q, m):
    mask = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(m):
            mask[i, j] = i == j or min(i, j) < q
    return mask


def fully_connected(b, z0=50.0):
    """The q = M SusceptanceMatrix of a dense symmetric B: b11 = B, with no couplings or tail."""
    return SusceptanceMatrix(b, np.zeros((len(b), 0)), np.zeros(0), z0)


def stem_blocks(q, m=4):
    """The blocks of a valid q-stem B with distinct nonzero entries, by field name."""
    return {"b11": np.add.outer(np.arange(q), np.arange(q)) + 1.0,
            "c": np.arange(q * (m - q), dtype=float).reshape(q, m - q) + 10.0, "d": np.arange(m - q) + 20.0}


def place(q, m, values):
    """The symmetric B with the free parameters of ``_free_params`` set to values."""
    b = np.zeros((m, m))
    i, j = qstem._free_params(q, m)
    b[i, j] = b[j, i] = values
    return b


def test_import_loads_no_scipy():
    src = str(Path(bdris.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, bdris; print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestElementCount:
    def test_figure_pattern(self):
        assert element_count(2, 6) == 15

    def test_fully_connected(self):
        for m in (1, 4, 16):
            assert element_count(m, m) == m * (m + 1) // 2

    def test_two_r_minus_one(self):
        for r, m in [(1, 8), (2, 8), (4, 16), (4, 32)]:
            q = 2 * r - 1
            assert element_count(q, m) == 2 * r * m - 2 * r**2 + r

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            element_count(0, 4)
        with pytest.raises(ValueError):
            element_count(5, 4)


class TestSelectionMatrix:
    """The free-parameter coordinates that map the parameters to B."""

    def test_m2_q1_enumeration(self):
        i, j = qstem._free_params(1, 2)
        # parameters in column-major lower-triangle order: b11, b21, b22
        assert list(zip(i.tolist(), j.tolist())) == [(0, 0), (1, 0), (1, 1)]
        assert_allclose(place(1, 2, [1.0, 2.0, 3.0]), [[1.0, 2.0], [2.0, 3.0]])

    def test_m6_q2_zero_rows(self):
        b = place(2, 6, np.ones(element_count(2, 6)))
        zeros = {(i, j) for i, j in zip(*np.nonzero(b == 0))}
        assert len(zeros) == 12  # the 4x4 trailing block minus its diagonal
        assert zeros == {(i, j) for i in range(6) for j in range(6) if i != j and min(i, j) >= 2}

    @pytest.mark.parametrize("q,m", [(1, 4), (3, 8), (7, 16), (5, 5)])
    def test_support_matches_pattern(self, q, m):
        i, j = qstem._free_params(q, m)
        assert i.size == element_count(q, m)
        assert np.all(i >= j)  # each unordered pair once, from the lower triangle
        assert len(set(zip(i.tolist(), j.tolist()))) == i.size
        b = place(q, m, np.ones(i.size))
        assert np.array_equal(b != 0, qstem_support(q, m))
        assert np.array_equal(b, b.T)


class TestQStemSystem:
    def test_design_matrix_matches_direct_assembly(self, iid_channels):
        design = solve_maxdet(iid_channels(1, n_t=2, n_r=2, m=6))
        w = build_qstem_system(design, q=3)
        re_q = design.left.real
        # oracle: column p of W is vec(B_p Re(Q)) for the basis matrix B_p
        m, s = re_q.shape
        params = [(i, j) for j in range(m) for i in range(j, m) if j < 3 or i == j]
        assert w.shape == (s * m, element_count(3, m)) == (s * m, len(params))
        for p, (i, j) in enumerate(params):
            basis = np.zeros((m, m))
            basis[i, j] = 1.0
            basis[j, i] = 1.0
            col = (basis @ re_q).ravel(order="F")
            assert_allclose(w[:, p], col, atol=1e-14)

    @pytest.mark.parametrize("q", [0, 7])
    def test_q_outside_one_to_m_rejected(self, iid_channels, q):
        design = solve_maxdet(iid_channels(1, n_t=2, n_r=2, m=6))
        with pytest.raises(ValueError, match=r"q must be in \[1, 6\]"):
            build_qstem_system(design, q)
        with pytest.raises(ValueError, match=r"q must be in \[1, 6\]"):
            synthesize_qstem(design, q)

    def test_counts_are_integers(self, iid_channels):
        design = solve_maxdet(iid_channels(1, n_t=2, n_r=2, m=6))
        for call, name, value in [(lambda: element_count(2.5, 6), "q", 2.5), (lambda: element_count(2, 6.0), "m", 6.0),
                                  (lambda: synthesize_qstem(design, 2.5), "q", 2.5),
                                  (lambda: synthesize_qstem(design, 3.0), "q", 3.0)]:
            with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
                call()
        assert element_count(np.int64(2), np.int32(6)) == element_count(2, 6) == 15
        assert synthesize_qstem(design, np.int64(3))[1] == synthesize_qstem(design, 3)[1]


class TestSynthesize:
    def test_real_frame_gives_zero_susceptance(self):
        q = np.eye(4, dtype=complex)[:, :2]
        b, residual, alpha = synthesize_qstem(ScatteringMatrix(q, q.conj()), q=1)
        assert alpha == 0.0  # Re Q has full rank: no rotation
        assert residual == pytest.approx(0.0, abs=1e-15)
        assert_allclose(b.b, 0.0, atol=1e-15)
        assert_allclose(b_to_theta(b).theta, np.eye(4), atol=1e-15)

    def test_seeded_exact_at_minimum_stems(self, iid_channels):
        ch = iid_channels(2, n_t=2, n_r=2, m=8)
        b, residual, alpha = synthesize_qstem(solve_maxdet(ch), q=3)  # q = 2r - 1
        assert residual < 1e-8
        assert alpha == 0.0
        det = metrics.abs_det(metrics.equivalent_channel(ch, b_to_theta(b)))
        assert det == pytest.approx(metrics.d_max(ch), rel=1e-7)

    def test_underparameterized_has_residual(self, iid_channels):
        ch = iid_channels(3, n_t=2, n_r=2, m=8)
        _, residual, _ = synthesize_qstem(solve_maxdet(ch), q=1)
        assert residual > 1e-3

    def test_residual_monotone_in_q(self, iid_channels):
        ch = iid_channels(4, n_t=2, n_r=2, m=8)
        design = solve_maxdet(ch)
        residuals = [synthesize_qstem(design, q)[1] for q in range(1, 9)]
        assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(residuals, residuals[1:]))

    def test_rate_matches_lowrank_when_exact(self, iid_channels):
        ch = iid_channels(5, n_t=2, n_r=2, m=8)
        lowrank = solve_maxdet(ch)
        b, residual, _ = synthesize_qstem(lowrank, q=3)
        assert residual < 1e-8
        h_b = metrics.equivalent_channel(ch, b_to_theta(b))
        h_lr = metrics.equivalent_channel(ch, lowrank)
        assert np.linalg.norm(h_b - h_lr) < 1e-7
        for rho in (1.0, 100.0):
            assert metrics.achievable_rate(h_b, rho) == pytest.approx(
                metrics.achievable_rate(h_lr, rho), abs=1e-6
            )

    @pytest.mark.parametrize("n_t,n_r,m", [(2, 2, 6), (2, 4, 6), (3, 3, 5), (4, 4, 64)])
    def test_real_channels_exact_up_to_phase(self, iid_channels, n_t, n_r, m):
        # Re Q = [U1, 0] for real F and G: Q itself has no q-stem
        # realization, e^{j alpha} Q has one at q = 2r - 1
        iid = iid_channels(9, n_t=n_t, n_r=n_r, m=m)
        ch = ChannelSet(f=iid.f.real + 0j, g=iid.g.real + 0j)
        design = solve_maxdet(ch)
        q, s = design.left, design.left.shape[1]
        assert np.linalg.matrix_rank(q.real) < s
        b, residual, alpha = synthesize_qstem(design, q=s - 1)
        assert alpha in qstem._PHASES
        assert residual <= 1e-8 * np.linalg.norm(q)
        theta = b_to_theta(b)
        # Theta_B conj(Q) = e^{2j alpha} Q: the circuit realizes e^{2j alpha} Q Q^T
        assert np.linalg.norm(theta.theta @ q.conj() - np.exp(2j * alpha) * q) < 1e-8
        det = metrics.abs_det(metrics.equivalent_channel(ch, theta))
        assert det == pytest.approx(metrics.d_max(ch), rel=1e-8)

    def test_dof_margin_at_minimum_stems(self):
        for r, m in [(2, 8), (4, 16), (4, 32)]:
            nu = element_count(2 * r - 1, m)
            assert nu - (2 * r * m - 2 * r**2) == r


def stem_basis(target, q):
    """(rotated target, U): the synthesis in the stems' singular basis Re target[:q] = U diag(sigma) V^T.
    The stem rows of Re target become sigma_j v_j^T, exactly zero past the rank and where sigma_j is
    at or below _RANK_RCOND ||Re target||_2 (the dead rows of the synthesis); those of Im target are
    rotated by U^T alike."""
    u, sv, vt = np.linalg.svd(target.real[:q])
    sv[sv <= qstem._RANK_RCOND * np.linalg.norm(target.real, 2)] = 0.0
    rotated = target.copy()
    rotated[:q] = 1j * (u.T @ target.imag[:q])
    rotated.real[:sv.size] = sv[:, None] * vt[:sv.size]
    return rotated, u


def rotate_back(b, u):
    """blkdiag(U, I) B blkdiag(U, I)^T."""
    q, b = len(u), b.copy()
    b[:q] = u @ b[:q]
    b[:, :q] = b[:, :q] @ u.T
    return b


def synthesis_system(frame, q, alpha, rotate=True):
    """(W, rhs, U) of the dense system for e^{j alpha} Q in the stems' singular basis (U = I unrotated)."""
    target, u = stem_basis(np.exp(1j * alpha) * frame, q) if rotate else (np.exp(1j * alpha) * frame, np.eye(q))
    return build_qstem_system(SimpleNamespace(left=target), q), -target.imag.ravel(order="F"), u


def dense_synthesis(frame, q, alpha=0.0):
    """The oracle: the dense 2rM x nu system for e^{j alpha} Q in the stems'
    singular basis, solved by np.linalg.lstsq, and its B rotated back."""
    w, rhs, u = synthesis_system(frame, q, alpha)
    sol, *_ = np.linalg.lstsq(w, rhs, rcond=None)
    return rotate_back(place(q, len(frame), sol), u), np.linalg.norm(w @ sol - rhs)


def exact_synthesis(frame, q, alpha=0.0, rotate=True):
    """The exact oracle: the system of ``dense_synthesis`` solved in rational arithmetic.  B is the
    minimum-norm least-squares solution for the floating W and rhs, with the rank found by exact
    elimination, and the residual is exact; both are rounded at the end.  For M <= 8 and r <= 2.
    ``rotate=False`` solves the system of Q itself: only there does a tail row that copies a stem row
    stay exactly in the stems' row space, which the rounded rotation leaves by ~1e-16."""
    w, rhs, u = synthesis_system(frame, q, alpha, rotate)
    scale = max(Fraction(v).denominator for v in [*w.ravel().tolist(), *rhs.tolist()])
    wi = np.array([[int(Fraction(v) * scale) for v in row] for row in w.tolist()], dtype=object)
    bi = np.array([int(Fraction(v) * scale) for v in rhs.tolist()], dtype=object)
    wr = wi[fraction_free_echelon(wi)[0]]  # independent rows: a basis of W's row space
    k = wi @ wr.T  # the solution is wr^T t, t the least-squares solution of k t = rhs (k has full rank)
    g = fraction_free_echelon(np.hstack([k.T @ k, (k.T @ bi)[:, None]]))[1]
    t = [Fraction(0)] * len(g)
    for i in reversed(range(len(g))):  # back substitution on the echelon form
        t[i] = Fraction(g[i, -1] - sum(g[i, j] * t[j] for j in range(i + 1, len(g)))) / g[i, i]
    sol = wr.T @ np.array(t, dtype=object)
    residual = np.sqrt(float(sum(v * v for v in wi @ sol - bi) / scale**2))
    return rotate_back(place(q, len(frame), np.array(sol, dtype=float)), u), residual


def fraction_free_echelon(m):
    """(pivot rows, echelon form) of an integer matrix by Bareiss elimination with row pivoting: every
    division is exact, so the entries stay integers and the rank is exact."""
    m, order, prev, k = m.copy(), list(range(len(m))), 1, 0
    for j in range(m.shape[1]):
        p = next((i for i in range(k, len(m)) if m[i, j] != 0), None)
        if p is None:
            continue
        m[[k, p]], order[k], order[p] = m[[p, k]], order[p], order[k]
        m[k + 1:] = (m[k, j] * m[k + 1:] - np.outer(m[k + 1:, j], m[k])) // prev
        prev, k = m[k, j], k + 1
        if k == len(m):
            break
    return order[:k], m


def lifted_design(ch):
    """The Max-Det design with the frame check lifted, so that the defective
    frames of nearly coinciding subspaces are covered too."""
    def design(left, right=None):  # right None is conj left, as in ScatteringMatrix
        return SimpleNamespace(left=left, right=left.conj() if right is None else right, m=left.shape[0])

    with mock.patch.object(designs, "ScatteringMatrix", design):
        return designs.solve_maxdet(ch)


def check_against_oracle(kind, exact, q, b, res, alpha):
    b_dense, res_dense = dense_synthesis(exact, q, alpha)
    # One-sided: lstsq's own rounding reaches ~1e-10 on nearly consistent
    # systems, where the refined block solve reaches ~1e-12 (real, M = 30,
    # q = 3: 8.2e-13 vs 7.4e-11, with B equal to 1e-9).
    assert res <= res_dense + max(1e-10 * res_dense, 1e-11), (kind, q, res, res_dense)
    if kind != "weak_tail":  # B is ill-posed there
        assert np.linalg.norm(b.b - b_dense) <= 1e-9 * np.linalg.norm(b_dense), (kind, q)


def exact_frame(design, disconnected, copied=()):
    """Q with the rows of the disconnected elements exactly 0, and the row of
    an element i with the channels of element j exactly row j, for (i, j) in
    copied, as in exact arithmetic.  The oracles need it: on rows left at
    ~1e-16, lstsq's rank cutoff does not always drop b_kk = y_k / x_k, an O(1)
    ratio of noise, and the exact solve builds a B ~ 1e15 on the rounding that
    separates copied rows."""
    q = design.left.copy()
    q[disconnected] = 0.0
    for i, j in copied:
        q[i] = q[j]
    return q


SYNTHESIS_KINDS = ("generic", "near", "real", "zero_tail", "zero_head", "weak_tail", "duplicate")
EXACT_KINDS = SYNTHESIS_KINDS + ("weak_head", "near_duplicate")


def kind_channels(kind, rng, n_t, n_r, m, off, eps):
    """(F, G, switched elements, copied (element, source) pairs) of one
    synthesis case ``kind``, drawn from rng.

    kind "near" makes the two RIS subspaces nearly coincide (G's subspace is
    conj(W) + eps N, as in test_certificate.py).  "real" channels give
    Re Q = [U1, 0], which the synthesis rotates to full rank.  "zero_tail"
    and "zero_head" switch the last or the first ``off`` elements off, giving Q
    zero rows, and "weak_tail" and "weak_head" scale them by 10^U(-14, -6):
    weak tail rows leave the q < s tail blocks (nearly) singular, weak stems
    give the stems tiny singular values.  "duplicate" gives the last element
    the channels of the first, so its tail row lies in the row space of the
    stems and adds a null vector to the system.  "near_duplicate" gives
    elements 1 and 2 the channels of element 0 plus eps times fresh ones."""
    r = min(n_t, n_r)
    f = random_complex(rng, n_r, m)
    g = random_complex(rng, n_t, m)
    if kind == "near":
        w = np.linalg.qr(random_complex(rng, m, r))[0]
        f = random_complex(rng, n_r, r) @ w.conj().T
        g = random_complex(rng, n_t, r) @ (w.conj() + eps * random_complex(rng, m, r)).conj().T
    elif kind == "real":
        f, g = f.real + 0j, g.real + 0j
    elif kind in ("weak_tail", "weak_head"):
        weak = np.arange(m - off, m) if kind == "weak_tail" else np.arange(off)
        scale = 10.0 ** rng.uniform(-14.0, -6.0, off)
        f[:, weak] *= scale
        g[:, weak] *= scale
    elif kind == "duplicate" and m > r:
        f[:, -1], g[:, -1] = f[:, 0], g[:, 0]
    elif kind == "near_duplicate" and m > 2:
        f[:, 1:3] = f[:, :1] + eps * random_complex(rng, n_r, 2)
        g[:, 1:3] = g[:, :1] + eps * random_complex(rng, n_t, 2)
    switched = {"zero_tail": np.arange(m - off, m), "zero_head": np.arange(off)}.get(kind, [])
    f[:, switched] = g[:, switched] = 0.0
    return f, g, switched, [(m - 1, 0)] if kind == "duplicate" and m > r else []


@st.composite
def synthesis_cases(draw):
    """[(kind, design, oracle frame, q values)] for every kind of
    ``kind_channels`` in SYNTHESIS_KINDS on one draw of M in [r, 64], n_t !=
    n_r and the seed."""
    n_t = draw(st.integers(1, 4))
    n_r = draw(st.integers(1, 4))
    r = min(n_t, n_r)
    m = draw(st.integers(r, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    eps = 10.0 ** draw(st.floats(-8.0, -2.0))
    off = draw(st.integers(0, max(0, m - 2 * r)))
    q_drawn = draw(st.integers(1, m))
    cases = []
    for kind in SYNTHESIS_KINDS:
        f, g, switched, copied = kind_channels(kind, np.random.default_rng(seed), n_t, n_r, m, off, eps)
        design = lifted_design(ChannelSet(f=f, g=g))
        s = design.left.shape[1]
        qs = {q_drawn, max(1, s - 1), min(s, m), min(s + 2, m)}
        cases.append((kind, design, exact_frame(design, switched, copied), sorted(qs)))
    return cases


class TestBlockSolve:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(synthesis_cases())
    def test_matches_dense_least_squares(self, cases):
        for kind, design, exact, qs in cases:
            # the synthesis rotates Q when Re Q fails this Gram-eigenvalue test
            re_q = design.left.real
            lam = np.linalg.eigvalsh(re_q.T @ re_q)
            rotated = lam[0] <= qstem._GRAM_RCOND * lam[-1]
            if kind == "real":  # Re Q = [U1, 0], with exact zero columns when an angle moves
                assert rotated == (np.linalg.matrix_rank(re_q) < re_q.shape[1])
            for q in qs:
                with mock.patch.object(qstem, "build_qstem_system") as dense:
                    b, res, alpha = synthesize_qstem(design, q, z0=1.0)
                assert not dense.called
                assert (alpha != 0.0) == rotated
                check_against_oracle(kind, exact, q, b, res, alpha)

    @pytest.mark.parametrize("switched", [[], [0, 1]])
    @pytest.mark.parametrize("n_t,n_r,m", [(2, 2, 6), (3, 4, 9), (4, 4, 12)])
    def test_disconnected_and_duplicated_elements(self, switched, n_t, n_r, m):
        # every q, so that q < 2r - 1 is covered: the last element copies
        # element 2, a dead tail row once element 2 is a stem, and the
        # switched-off first elements are dead stems
        rng = np.random.default_rng(17)
        f, g = random_complex(rng, n_r, m), random_complex(rng, n_t, m)
        f[:, switched] = g[:, switched] = 0.0
        f[:, -1], g[:, -1] = f[:, 2], g[:, 2]
        design = solve_maxdet(ChannelSet(f=f, g=g))
        for q in range(1, design.left.shape[1] + 2):
            b, res, alpha = synthesize_qstem(design, q, z0=1.0)
            check_against_oracle("duplicate", exact_frame(design, switched, [(m - 1, 2)]), q, b, res, alpha)

    def test_linearly_dependent_stems_are_dead_rows(self):
        # two stems with the same channels: in the stems' singular basis one stem row is zero, a dead
        # row solved on its own, at q < 2r as at q >= 2r
        rng = np.random.default_rng(5)
        f, g = random_complex(rng, 2, 8), random_complex(rng, 2, 8)
        f[:, 1], g[:, 1] = f[:, 0], g[:, 0]
        design = solve_maxdet(ChannelSet(f=f, g=g))
        for q in range(2, 9):
            b, res, alpha = synthesize_qstem(design, q, z0=1.0)
            check_against_oracle("duplicate", exact_frame(design, [], [(1, 0)]), q, b, res, alpha)
        assert synthesize_qstem(design, q=design.left.shape[1] + 1)[1] <= 1e-8

    @pytest.mark.parametrize("copies", [2, 3])
    def test_identical_stems_at_full_width(self, copies):
        # copies - 1 dead rows in the stems' singular basis: three copies at q = 2r leave 2r - 2 live stems
        for seed in range(20):
            rng = np.random.default_rng(seed)
            f, g = random_complex(rng, 2, 12), random_complex(rng, 2, 12)
            f[:, 1:copies], g[:, 1:copies] = f[:, :1], g[:, :1]
            design = solve_maxdet(ChannelSet(f=f, g=g))
            s = design.left.shape[1]
            for q in (s, s + 1, s + 2):
                b, res, alpha = synthesize_qstem(design, q, z0=1.0)
                copied = [(i, 0) for i in range(1, copies)]
                check_against_oracle("duplicate", exact_frame(design, [], copied), q, b, res, alpha)

    def test_weak_tails_at_full_width(self):
        # tail rows scaled by 10^U(-14, -6) leave the q >= 2r tail blocks regular
        for seed in range(40):
            rng = np.random.default_rng(seed)
            f, g = random_complex(rng, 4, 32), random_complex(rng, 4, 32)
            k = rng.integers(1, 12)
            scale = 10.0 ** rng.uniform(-14.0, -6.0, k)
            f[:, 32 - k:] *= scale
            g[:, 32 - k:] *= scale
            design = solve_maxdet(ChannelSet(f=f, g=g))
            s = design.left.shape[1]
            for q in (s, s + 1, s + 2):
                try:
                    b, res, alpha = synthesize_qstem(design, q, z0=1.0)
                except np.linalg.LinAlgError:
                    continue
                y = (np.exp(1j * alpha) * design.left).imag
                assert res <= (1.0 + 1e-12) * np.linalg.norm(y), (seed, q)
                check_against_oracle("weak_tail", design.left, q, b, res, alpha)

    def test_rank_deficient_core_raises(self):
        # the q >= 2r core's Gram, shifted along its known null space, is SPD when
        # the core has its generic rank; a further null vector fails the pivot test
        rng = np.random.default_rng(2)
        a = rng.standard_normal((12, 11))
        for shift in (0.0, 1e-12):  # the Cholesky fails, or its pivot ratio is ~1e-13
            with pytest.raises(np.linalg.LinAlgError, match="core rank below 12"):
                qstem._core_factor(a @ a.T + shift * np.eye(12), 12)
        g = a @ a.T + np.eye(12)
        factor = qstem._core_factor(g, 12)
        assert_allclose(factor.T @ factor @ g, np.eye(12), atol=1e-12)

    def test_weak_stems_never_exceed_zero_residual(self):
        # stems scaled by 10^U(-14, -6) can leave the block solve far off; it
        # raises rather than return a B worse than B = 0 (seed 40, q = 2: 6e6x),
        # and each B it returns at q >= 2r is within the oracle's residual
        raised = []
        for seed in range(80):
            rng = np.random.default_rng(seed)
            f, g = random_complex(rng, 4, 32), random_complex(rng, 4, 32)
            k = rng.integers(1, 6)
            scale = 10.0 ** rng.uniform(-14.0, -6.0, k)
            f[:, :k] *= scale
            g[:, :k] *= scale
            design = solve_maxdet(ChannelSet(f=f, g=g))
            for q in range(1, 11):
                try:
                    b, res, alpha = synthesize_qstem(design, q)
                except np.linalg.LinAlgError as exc:
                    if "exceeds that of B = 0" in str(exc):
                        raised.append((seed, q))
                    continue
                y = (np.exp(1j * alpha) * design.left).imag
                assert res <= (1.0 + 1e-12) * np.linalg.norm(y), (seed, q)
                if q >= design.left.shape[1]:
                    check_against_oracle("weak_tail", design.left, q, b, res, alpha)
        assert (40, 2) in raised

    def test_no_dense_system_on_generic_path(self):
        m, r = 256, 4
        design = solve_maxdet(make_iid_channels(3, n_t=r, n_r=r, m=m))
        ops = ("lstsq", "svd", "cholesky", "qr", "inv")
        shapes = {op: [] for op in ops}

        def spy(op):
            fn = getattr(np.linalg, op)

            def wrapped(a, *args, **kwargs):
                shapes[op].append(np.shape(a))
                return fn(a, *args, **kwargs)
            return wrapped

        with mock.patch.multiple(np.linalg, **{op: spy(op) for op in ops}), \
                mock.patch.object(qstem, "build_qstem_system") as dense:
            residuals, stem_svds, cores = [], [], []
            for q in range(1, 11):
                first = len(shapes["svd"])
                residuals.append(synthesize_qstem(design, q)[1])
                stem_svds.append(shapes["svd"][first:].count((q, 2 * r)))
                cores += [shape for shape in shapes["svd"][first:] if shape != (q, 2 * r)]
        assert not dense.called
        # one 2-D operand per factorization, never a stack over the tail rows
        assert all(len(shape) == 2 for op in ops for shape in shapes[op])
        # each synthesis factorizes the q x 2r stems by one SVD, and takes no QR
        assert stem_svds == [1] * 10 and not shapes["qr"]
        every = [shape[-2:] for op in ops for shape in shapes[op]]
        assert every and max(rows for rows, _ in every) < 2 * r * m
        nus = {element_count(q, m) for q in range(1, 11)}
        assert not any(cols in nus for _, cols in every)
        # the q < 2r cores are tall SVDs, and the q >= 2r core is solved through its Gram, not a wide SVD
        assert cores and all(rows >= cols for rows, cols in cores)
        assert len(shapes["cholesky"]) == 10  # one per synthesis
        assert residuals[2 * r - 2] <= 1e-8
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))


def exact_tolerance(frame, b_exact):
    """The rounding of the exact B* in floating point, applied to X: 4 M eps ||Q||_F max(||B*||_F, 1)."""
    return 4 * len(frame) * np.finfo(float).eps * np.linalg.norm(frame) * max(np.linalg.norm(b_exact), 1.0)


# (kind, q) of the exact-oracle draw where B misses the exact B* by more than 1e-9 ||B*||: the block
# solve on two near-duplicate cases (9e-8 at q = 1, where tail rows within 1e-6 of the stem give
# B* ~ 3e5, and 2e-5 at q = 3, B* ~ 2e13), lstsq on four, which the block solve meets on three.
B_MISSES = {"block": {("near_duplicate", 1), ("near_duplicate", 3)},
            "lstsq": {("weak_tail", 3), ("weak_head", 1), ("near_duplicate", 3), ("near_duplicate", 4)}}


class TestExactOracle:
    """The dense system solved in rational arithmetic (``exact_synthesis``) judges the block solve
    two-sided: its residual is within ``exact_tolerance`` of the exact one, above and below, and its
    B within 1e-9 ||B*|| of the exact B* but on recorded ill-posed cases."""

    def test_two_sided_against_exact(self):
        n_t, n_r, m, seed = 2, 3, 6, 0  # r = 2, s = 4
        misses, checked = {"block": set(), "lstsq": set()}, 0
        for kind in EXACT_KINDS:
            f, g, switched, copied = kind_channels(kind, np.random.default_rng(seed), n_t, n_r, m, 2, 1e-6)
            design = lifted_design(ChannelSet(f=f, g=g))
            frame = exact_frame(design, switched, copied)
            for q in (1, 3, 4, 5):
                try:
                    b, res, alpha = synthesize_qstem(design, q, z0=1.0)
                except np.linalg.LinAlgError:  # weak stems can leave the block solve that inaccurate
                    continue
                # a copied stem row leaves the stems' row space under the rounded rotation: residual only
                rotate = kind != "duplicate"
                b_exact, res_exact = exact_synthesis(frame, q, alpha, rotate)
                assert abs(res - res_exact) <= exact_tolerance(frame, b_exact), (kind, q, res, res_exact)
                checked += 1
                for name, got in (("block", b.b), ("lstsq", dense_synthesis(frame, q, alpha)[0])):
                    if rotate and np.linalg.norm(got - b_exact) > 1e-9 * np.linalg.norm(b_exact):
                        misses[name].add((kind, q))
        assert checked >= 32 and misses == B_MISSES

    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7, 1e-9])
    def test_near_duplicate_stems_at_full_width(self, eps):
        # stems 1 and 2 within eps of stem 0 at q = 2r: their tiny singular values stay apart in the
        # stems' singular basis, so the residual meets the exact one to the rounding of B*
        f, g, _, _ = kind_channels("near_duplicate", np.random.default_rng(0), 2, 2, 8, 0, eps)
        design = lifted_design(ChannelSet(f=f, g=g))
        b, res, alpha = synthesize_qstem(design, 4, z0=1.0)
        b_exact, res_exact = exact_synthesis(design.left, 4, alpha)
        assert abs(res - res_exact) <= exact_tolerance(design.left, b_exact), (res, res_exact)


def per_row_step(tb, x, q, yt, yn):
    """One q >= s block step through a complete QR of every tail block [X_t;
    x_i^T], its pseudo-inverse and null space N_i, with the core Gram summed
    over the rows: the reference for ``_ArrowSystem._step``."""
    xt, xn = x[:q], x[q:]
    n, s = xn.shape
    blocks = np.concatenate([np.broadcast_to(xt, (n, q, s)), xn[:, None, :]], axis=1)
    qa, ra = np.linalg.qr(blocks, mode="complete")
    pivots = np.abs(np.diagonal(ra, axis1=1, axis2=2))
    if np.any(pivots <= qstem._RANK_RCOND * pivots.max(initial=0.0)):
        raise np.linalg.LinAlgError("singular tail block")
    block_pinv, null = qa[:, :, :s] @ np.linalg.inv(ra[:, :s]).transpose(0, 2, 1), qa[:, :, s:]
    # G[(a, k), (b, l)] = (tb tb^T)[(a, k), (b, l)] + sum_i xn[i, a] xn[i, b] (N_i N_i^T)[k, l]
    pairs = (xn[:, :, None] * xn[:, None, :]).reshape(n, s * s)
    nn = (null[:, :q] @ null[:, :q].transpose(0, 2, 1)).reshape(n, q * q)
    g = tb @ tb.T + (pairs.T @ nn).reshape(s, s, q, q).transpose(0, 2, 1, 3).reshape(s * q, s * q)
    ia, ib = np.triu_indices(s, 1)  # z[:, p] = vec(X_t S_p) for the skew unit matrix S_p
    z = np.zeros((s, q, ia.size))
    z[ib, :, np.arange(ia.size)], z[ia, :, np.arange(ia.size)] = xt[:, ia].T, -xt[:, ib].T
    z = np.linalg.qr(z.reshape(s * q, -1))[0]
    weight = qstem._core_factor(g + np.trace(g) / (s * q) * (z @ z.T), s * q - ia.size)
    zi = np.einsum("ijk,ik->ij", block_pinv, yn)
    w = weight.T @ (weight @ (yt - zi[:, :q].T @ xn).ravel(order="F"))
    zi += np.einsum("ijk,ik->ij", null, np.einsum("ikj,ik->ij", null[:, :q], xn @ w.reshape(q, s, order="F").T))
    return tb.T @ w, zi[:, :q].T, zi[:, q]


class TestOneStep:
    """One block step of the live system in the stems' singular basis, with no refinement to hide a
    wrong null space: against the per-row elimination at k = s live stems, and against the dense
    least-squares solution, unique at k < s."""

    @pytest.mark.parametrize("q,s,copies", [(8, 8, 1), (10, 8, 1), (12, 6, 1), (8, 8, 2), (9, 8, 2), (8, 8, 3),
                                            (9, 8, 3)])
    def test_matches_per_row_elimination(self, q, s, copies):
        rng = np.random.default_rng(100 * q + 10 * s + copies)
        x, y = rng.standard_normal((24, s)), rng.standard_normal((24, s))
        x[1:copies] = x[0]  # k = min(q - copies + 1, s) live stems: k < s at (8, 8, 2), (8, 8, 3) and (9, 8, 3)
        system = qstem._ArrowSystem(x, q, np.linalg.eigh(x.T @ x))
        k = system.k
        assert k == min(q - copies + 1, s)
        yt = (system.u.T @ y[:q])[:k]
        got = system._live_step(yt, y[q:])
        if k == s:
            want = per_row_step(system.tb, system.xl, k, yt, y[q:])
        else:
            live = system.xl - 1j * np.vstack([yt, y[q:]])
            sol, *_ = np.linalg.lstsq(build_qstem_system(SimpleNamespace(left=live), k),
                                      np.vstack([yt, y[q:]]).ravel(order="F"), rcond=None)
            dense = place(k, len(live), sol)
            want = dense[system.rows, system.cols], dense[:k, k:], np.diagonal(dense)[k:]
        for a, ref in zip(got, want):
            assert np.linalg.norm(a - ref) <= (1e-12 if copies == 1 else 1e-10) * np.linalg.norm(ref)


class TestQIndependentWork:
    """What does not depend on q is computed once: the synthesis target and its projection per
    design, and the lower-triangle index pattern per q."""

    def test_one_target_per_trial(self):
        q_grid = ", ".join(map(str, range(1, 11)))
        config = harness.parse_config(f"experiment = qstem_sweep\ntrials = 3\nm = 16\nq_grid = {q_grid}\n")
        target = mock.Mock(side_effect=qstem._realizable_target)
        with mock.patch.object(qstem, "_realizable_target", target):
            records = harness.run_experiment(config)
        assert records and not any(rec.error for rec in records)
        assert target.call_count == 3

    @pytest.mark.parametrize("kind", ["complex", "real", "dead"])
    def test_one_projection_per_design(self, kind):
        # Y's projection onto {Y : X^T Y symmetric} depends on X, Y and the Gram only
        iid = make_iid_channels(19, n_t=2, n_r=2, m=12)
        f, g = iid.f.copy(), iid.g.copy()
        if kind == "real":
            f, g = f.real + 0j, g.real + 0j
        elif kind == "dead":
            f[:, 0] = g[:, 0] = 0.0
        projection = mock.Mock(side_effect=qstem._range_part)
        with mock.patch.object(qstem, "_range_part", projection):
            for design in (solve_maxdet(ChannelSet(f=f, g=g)), solve_maxdet(iid)):
                for q in range(1, 11):
                    synthesize_qstem(design, q)
        assert projection.call_count == 2

    @pytest.mark.parametrize("kind", ["complex", "real", "dead"])
    def test_used_design_synthesizes_as_a_fresh_one(self, kind):
        iid = make_iid_channels(17, n_t=2, n_r=2, m=8)
        f, g = iid.f.copy(), iid.g.copy()
        if kind == "real":
            f, g = f.real + 0j, g.real + 0j
        elif kind == "dead":
            f[:, 0] = g[:, 0] = 0.0  # a disconnected element: a dead stem at every q
        used = solve_maxdet(ChannelSet(f=f, g=g))
        target = mock.Mock(side_effect=qstem._realizable_target)
        with mock.patch.object(qstem, "_realizable_target", target):
            first = [synthesize_qstem(used, q) for q in range(1, 9)]
        assert target.call_count == 1
        alpha, x = first[0][2], used.left.real
        assert (alpha != 0.0) == (kind == "real")
        assert (np.linalg.norm(x[0]) <= 1e-14 * np.linalg.norm(x, axis=1).max()) == (kind == "dead")
        for q, (want, *rest) in enumerate(first, start=1):
            # the used design again, and a fresh design of the same frame
            for b, *got in (synthesize_qstem(used, q), synthesize_qstem(ScatteringMatrix(used.left), q)):
                assert [a.tobytes() for a in (b.b11, b.c, b.d)] == [a.tobytes() for a in (want.b11, want.c, want.d)]
                assert got == rest

    def test_tril_pattern_is_built_once_and_read_only(self):
        rows, cols, span = qstem._tril(5)
        assert qstem._tril(5) is qstem._tril(5)
        assert np.array_equal(rows, np.tril_indices(5)[0]) and np.array_equal(cols, np.tril_indices(5)[1])
        assert np.array_equal(span, np.arange(15))
        for a in (rows, cols, span):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    @pytest.mark.parametrize("q", range(1, 11))
    def test_broadcast_core_is_kron(self, q):
        # the k < s core: kron(X_n^T X_n, K0), K0 = diag(sigma^-2), s = 8
        rng = np.random.default_rng(q)
        xn = rng.standard_normal((40, 8))
        k0 = rng.standard_normal((q, q))
        k0 = k0 @ k0.T
        got = qstem._kron(xn.T @ xn, k0)
        assert got.shape == (8 * q, 8 * q) and got.tobytes() == np.kron(xn.T @ xn, k0).tobytes()


class TestDesignInput:
    def test_rejects_designs_not_stored_as_q_q_transpose(self, iid_channels):
        ch = iid_channels(1, m=6)
        q = solve_maxdet(ch).left
        for design in (unitary_baseline(ch), ScatteringMatrix.from_theta(random_symmetric_unitary(6, seed=2).theta)):
            with pytest.raises(ValueError, match="not stored as"):
                synthesize_qstem(design, 3)
            with pytest.raises(ValueError, match="not stored as"):
                complete_to_unitary(design)
        with pytest.raises(ValueError, match="not orthonormal"):  # no design holds a scaled Q
            ScatteringMatrix(0.5 * q, 0.5 * q.conj())

    def test_symmetric_storage_checks_one_frame(self, iid_channels):
        # ScatteringMatrix(Q) holds the frames of ScatteringMatrix(Q, conj Q), after one Gram, not two
        q = solve_maxdet(iid_channels(2, m=6)).left
        one, grams_one = run_with_frame_spy(lambda: ScatteringMatrix(q))
        two, grams_two = run_with_frame_spy(lambda: ScatteringMatrix(q, q.conj()))
        assert (grams_one, grams_two) == (1, 2)
        assert np.array_equal(one.left, two.left) and np.array_equal(one.right, two.right)
        assert qstem._symmetric_frame(one) is one.left and qstem._symmetric_frame(two) is two.left

    def test_any_q_q_transpose_design_is_realized(self):
        design = random_symmetric_unitary(6, seed=3)
        b, residual, _ = synthesize_qstem(design, q=6)
        assert residual <= 1e-8
        assert np.linalg.norm(b_to_theta(b).theta - design.theta) <= 1e-8


class TestCayleyMaps:
    def test_zero_susceptance(self):
        b = fully_connected(np.zeros((3, 3)))
        assert_allclose(b_to_theta(b).theta, np.eye(3), atol=1e-15)

    def test_scalar_quarter_wave(self):
        b = fully_connected(np.array([[1.0 / 50.0]]), z0=50.0)
        assert b_to_theta(b).theta[0, 0] == pytest.approx(-1j, abs=1e-15)

    def test_scalar_inverse(self):
        b = theta_to_b(np.array([[-1j]]), z0=50.0)
        assert b.b[0, 0] == pytest.approx(1.0 / 50.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_susceptance_gives_symmetric_unitary(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((6, 6))
        b = fully_connected((raw + raw.T) / 2.0)
        theta = b_to_theta(b).theta
        assert np.linalg.norm(theta @ theta.conj().T - np.eye(6)) < 1e-10
        assert np.linalg.norm(theta - theta.T) < 1e-10

    @pytest.mark.parametrize("diagonal,z0", [([1e14, 0.0, -1e-3], 50.0), ([1e12, 0.0], 50.0),
                                             ([1e14, -1e-3, 0.0, 3.0, -20.0], 7.0)])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_extreme_susceptance_matches_closed_form(self, diagonal, z0, rotated):
        # each eigenvalue b maps to (1 - j z0 b) / (1 + j z0 b), however large
        # z0 b is; the rotation R = blkdiag(1, R') leaves the largest on its
        # own, as rounding R B R^T would blur the small ones
        m = len(diagonal)
        x = 1j * z0 * np.array(diagonal)
        closed = np.diag((1.0 - x) / (1.0 + x))
        r = np.eye(m)
        if rotated:
            r[1:, 1:] = np.linalg.qr(np.random.default_rng(m).standard_normal((m - 1, m - 1)))[0]
        b = r @ np.diag(diagonal) @ r.T
        theta = b_to_theta(fully_connected(0.5 * b + 0.5 * b.T, z0)).theta
        assert np.linalg.norm(theta - r @ closed @ r.T) <= 1e-14 * np.sqrt(m)
        assert np.linalg.norm(theta - theta.T) <= 1e-14
        assert np.linalg.norm(theta @ theta.conj().T - np.eye(m)) <= 1e-14

    def test_identity_theta_roundtrip(self):
        b = theta_to_b(np.eye(4, dtype=complex))
        assert_allclose(b.b, 0.0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_cayley_roundtrip(self, seed):
        theta = random_symmetric_unitary(6, seed=200 + seed).theta
        if np.min(np.abs(np.linalg.eigvals(theta) + 1.0)) < 1e-3:
            pytest.skip("spectrum too close to -1 for a clean round trip")
        back = b_to_theta(theta_to_b(theta)).theta
        assert np.linalg.norm(back - theta) < 1e-9

    def test_eigenvalue_at_minus_one_rejected(self):
        exchange = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(CayleySingularityError):
            theta_to_b(exchange)

    def test_rejects_non_unitary_and_non_symmetric(self):
        with pytest.raises(ValueError, match="unitary"):
            theta_to_b(0.5 * np.eye(2))
        rotation = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="symmetric"):
            theta_to_b(rotation)
        with pytest.raises(ValueError, match="non-finite"):
            theta_to_b(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @pytest.mark.parametrize("shape", [(4, 4, 4), (2, 4, 4)])
    def test_rejects_a_stack(self, shape):
        # a stack of symmetric unitary matrices names its shape, not a symmetry or squareness failure
        stack = np.stack([random_symmetric_unitary(4, seed).theta for seed in range(shape[0])])
        with pytest.raises(ValueError, match=re.escape(f"theta must be one square matrix, got shape {shape}")):
            theta_to_b(stack)

    def test_unitarity_is_checked_to_frame_tol(self):
        # ||T^H T - I||_F = 8e-10 exceeds FRAME_TOL, the one orthonormality tolerance
        with pytest.raises(ValueError, match="unitary"):
            theta_to_b((1.0 + 2e-10) * np.eye(4))

    def test_phase_fallback_resolves_exchange_matrix(self):
        exchange = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        phi, b = cayley_with_phase_fallback(exchange)
        assert phi > 0.0
        back = b_to_theta(b).theta
        assert np.linalg.norm(back - np.exp(1j * phi) * exchange) < 1e-9

    def test_phase_fallback_fails_at_every_phase(self):
        # e^{j phi} Theta has the eigenvalue -1 at each fallback phase phi
        phases = np.array([0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8])
        with pytest.raises(CayleySingularityError) as info:
            cayley_with_phase_fallback(np.diag(-np.exp(-1j * phases)))
        assert all(f"phi={phi:.4f}:" in str(info.value) for phi in phases)


class TestCompleteToUnitary:
    def test_full_frame_unchanged(self):
        w = np.linalg.qr(
            np.random.default_rng(8).standard_normal((5, 5))
            + 1j * np.random.default_rng(9).standard_normal((5, 5))
        )[0]
        design = ScatteringMatrix(w, w.conj())
        assert_allclose(complete_to_unitary(design).theta, w @ w.T, atol=1e-13)

    def test_maxdet_frame_extension_is_transparent(self, iid_channels):
        ch = iid_channels(7, n_t=2, n_r=2, m=8)
        design = solve_maxdet(ch)
        full = complete_to_unitary(design)
        assert np.linalg.norm(full.theta @ full.theta.conj().T - np.eye(8)) < 1e-10
        lhs = ch.f @ full.theta @ ch.g.conj().T
        rhs = ch.f @ (design.left @ design.left.T) @ ch.g.conj().T
        assert np.linalg.norm(lhs - rhs) < 1e-9


def dense_fully_connected(ch, design, z0):
    """The dense oracle of the fully connected row: the M x M completion, its
    Cayley map with phase retries and the Cayley map back."""
    phi, b = cayley_with_phase_fallback(complete_to_unitary(design).theta, z0)
    return metrics.ris_channel(ch, b_to_theta(b)), phi


@st.composite
def stem_cases(draw):
    """(channels, r, kind) over n_t, n_r in 1..4 and r <= M <= 40, M < 2r
    included: complex or real channels (Re Q rank-deficient, alpha != 0), the
    first elements switched off (dead stems), or the last element a copy of
    the first (a duplicated stem row)."""
    n_t, n_r = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    r = min(n_t, n_r)
    m = draw(st.one_of(st.integers(r, 2 * r - 1), st.integers(2 * r, 40)))
    kind = draw(st.sampled_from(["complex", "real", "dead", "duplicate"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f, g = random_complex(rng, n_r, m), random_complex(rng, n_t, m)
    if kind == "real":
        f, g = f.real + 0j, g.real + 0j
    elif kind == "dead":
        off = draw(st.integers(0, m - r))
        f[:, :off] = g[:, :off] = 0.0
    elif kind == "duplicate" and m > r:
        f[:, -1], g[:, -1] = f[:, 0], g[:, 0]
    return ChannelSet(f=f, g=g), r, kind


class TestStructuredEvaluation:
    """The harness evaluates each q-stem and fully connected row through the
    circuit's structure; the dense Cayley maps are the oracle."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(stem_cases(), st.sampled_from([1.0, 50.0]))
    def test_qstem_channel_matches_dense_cayley(self, case, z0):
        # both paths round as eps ||z0 B||: 1e-12 relative up to ||z0 B||_2 = 1e4 (a 600-draw
        # scan of this domain: at most 9e-13 to 1.6e-12 relative at ||z0 B||_2 = 2e4 to 1.4e5)
        ch, r, kind = case
        design = solve_maxdet(ch)
        for q in sorted({1, min(2 * r - 1, ch.m), ch.m}):
            b, _, alpha = synthesize_qstem(design, q, z0)
            dense = metrics.ris_channel(ch, b_to_theta(b))
            h = qstem.qstem_channel(ch, b)
            tol = 1e-12 * max(1.0, 1e-4 * np.linalg.norm(z0 * b.b, 2))
            assert np.linalg.norm(h - dense) <= tol * np.linalg.norm(dense), (kind, q)
            if kind == "complex":
                assert alpha == 0.0

    @pytest.mark.parametrize("kind,n_t,n_r,m", [("complex", 3, 3, 12), ("complex", 2, 4, 9), ("complex", 4, 4, 6),
                                                ("real", 3, 3, 12), ("real", 2, 2, 3)])
    @pytest.mark.parametrize("z0", [1.0, 50.0])
    def test_core_completion_matches_dense(self, kind, n_t, n_r, m, z0):
        # real channels give Q = [U1, -j U2], so Theta_full has the eigenvalue -1
        # and the Cayley map needs a phase retry
        iid = make_iid_channels(31, n_t=n_t, n_r=n_r, m=m)
        ch = iid if kind == "complex" else ChannelSet(f=iid.f.real + 0j, g=iid.g.real + 0j)
        design = solve_maxdet(ch)
        h, phi = qstem.fully_connected_channel(ch, design, z0)
        dense, dense_phi = dense_fully_connected(ch, design, z0)
        assert phi == dense_phi and (phi != 0.0) == (kind == "real")
        assert np.linalg.norm(h - dense) <= 1e-12 * np.linalg.norm(dense)
        # the completion leaves F Q Q^T G^H alone, up to the global phase
        lowrank = metrics.ris_channel(ch, design)
        assert np.linalg.norm(h - np.exp(1j * phi) * lowrank) <= 1e-12 * np.linalg.norm(lowrank)

    def test_core_completion_of_full_width_frame(self):
        # 2s > M: the basis E spans the whole space and the complement is empty
        design = random_symmetric_unitary(6, seed=4)
        ch = make_iid_channels(32, n_t=2, n_r=3, m=6)
        h, phi = qstem.fully_connected_channel(ch, design, 50.0)
        dense, dense_phi = dense_fully_connected(ch, design, 50.0)
        assert phi == dense_phi
        assert np.linalg.norm(h - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_qstem_sweep_has_no_mxm_operand(self):
        m = 256
        config = harness.parse_config(f"experiment = qstem_sweep\ntrials = 1\nm = {m}\nq_grid = 1, 3, 7, 10\n")
        records, shapes = run_with_operand_spy(config, SPIED_OPS + ("qr",))
        assert len(records) == 6 and not any(rec.error for rec in records)
        assert shapes and not [shape for shape in shapes if shape[-2:] == (m, m)]

    def test_disconnected_stem_forms_no_mxm_array(self):
        # a switched-off first element is a dead stem at every q: its row of B comes from the blocks,
        # so no M x M operand is factorized and no M x M array (8 MB here) is allocated
        m = 1024
        config = harness.parse_config(f"experiment = qstem_sweep\ntrials = 1\nm = {m}\nq_grid = 1, 3, 7, 10\n")
        build = harness.build_channel_set

        def disconnected(*args, **kwargs):
            channels = build(*args, **kwargs)
            f, g = channels.f.copy(), channels.g.copy()
            f[..., 0] = g[..., 0] = 0.0
            return ChannelSet(f=f, g=g, h_direct=channels.h_direct)

        tracemalloc.start()
        try:
            with mock.patch.object(harness, "build_channel_set", disconnected):
                records, shapes = run_with_operand_spy(config, SPIED_OPS + ("qr",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 6 and not any(rec.error for rec in records)
        assert shapes and not [shape for shape in shapes if shape[-2:] == (m, m)]
        assert peak < m * m * 8 / 2

    def test_qstem_sweep_never_forms_the_dense_b(self):
        q_grid = ", ".join(map(str, range(1, 11)))
        config = harness.parse_config(f"experiment = qstem_sweep\ntrials = 2\nm = 64\nq_grid = {q_grid}\n")
        synthesized = []

        def spy(*args, **kwargs):
            out = synthesize_qstem(*args, **kwargs)
            synthesized.append(out[0])
            return out

        with mock.patch.object(qstem, "synthesize_qstem", spy):
            records = harness.run_experiment(config)
        assert records and not any(rec.error for rec in records)
        assert len(synthesized) == 20 and not [b for b in synthesized if "b" in vars(b)]

    def test_size_mismatch_names_both_sizes(self):
        design = solve_maxdet(make_iid_channels(1, n_t=2, n_r=2, m=6))
        b, channels = synthesize_qstem(design, 3)[0], make_iid_channels(2, n_t=2, n_r=2, m=8)
        with pytest.raises(ValueError, match="b must be 8x8, got 6x6"):
            qstem.qstem_channel(channels, b)
        with pytest.raises(ValueError, match="design must be 8x8, got 6x6"):
            qstem.fully_connected_channel(channels, design)

    @pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
    def test_no_experiment_has_an_mxm_operand(self, experiment):
        # qr is not spied: random_symmetric draws one M x M W per trial
        extra = {"rate_vs_snr": "direct_blocked = false\ndesigns = " + ", ".join(harness.SELECTABLE_DESIGNS),
                 "qstem_sweep": "q_grid = 1, 2, 3, 4, 5, 6, 7",  # q >= 8: the 2r x 2r live stems' core Gram is 64 x 64
                 "m_sweep": "m_grid = 16, 64"}.get(experiment, "")
        config = harness.parse_config(f"experiment = {experiment}\ntrials = 2\nm = 64\n{extra}\n")
        records, shapes = run_with_operand_spy(config, SPIED_OPS)
        assert records and not any(rec.error for rec in records)
        square = {(m, m) for m in (config.m_grid if experiment == "m_sweep" else (64,))}
        assert shapes and not [shape for shape in shapes if shape[-2:] in square]

    @pytest.mark.parametrize("experiment,extra,grams", [
        # per M: the baseline's two frames and Max-Det's Q (its principal-angle inputs come from
        # the cached SVDs and are not checked again)
        ("m_sweep", "m_grid = 16, 64\ndesigns = unitary_baseline, max_det_symmetric", 2 * 3),
        # Max-Det's Q, the trial's Q, and the completion's W complement, the Cayley theta
        # W W^T and its core Q (the completion basis E is orthonormal by construction)
        ("qstem_sweep", "m = 16\nq_grid = 1, 3, 7", 5),
    ], ids=["m_sweep", "qstem_sweep"])
    def test_frame_grams_per_trial(self, experiment, extra, grams):
        config = harness.parse_config(f"experiment = {experiment}\ntrials = 1\n{extra}\n")
        records, calls = run_with_frame_spy(lambda: harness.run_experiment(config))
        assert records and not any(rec.error for rec in records)
        assert calls == grams


SPIED_OPS = ("svd", "eigh", "solve", "eigvals", "inv", "cholesky")


def run_with_frame_spy(run):
    """``run()`` and the number of frame Grams (``linalg._frame_defect`` calls) it formed."""
    calls = mock.Mock(side_effect=linalg._frame_defect)
    with mock.patch.object(linalg, "_frame_defect", calls):
        return run(), calls.call_count


def run_with_operand_spy(config, ops):
    """The records of ``config``, and the shape of the first operand of every call to ``ops`` of np.linalg."""
    shapes = []

    def spy(fn):
        def wrapped(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapped

    with mock.patch.multiple(np.linalg, **{op: spy(getattr(np.linalg, op)) for op in ops}):
        return harness.run_experiment(config), shapes


class TestSusceptanceMatrixType:
    """A SusceptanceMatrix is its circuit blocks: a B off the q-stem pattern, or with q
    outside [1, M], cannot be built, so only the blocks' shapes and values are checked."""

    @pytest.mark.parametrize("entries,q,message", [
        ({("c", (0, 2)): np.nan}, 1, "finite"),  # NaN or inf in each block
        ({("b11", (0, 0)): np.inf}, 1, "finite"),
        ({("d", 2): -np.inf}, 1, "finite"),
        ({("b11", (0, 1)): 5.0}, 2, "symmetric"),
        ({("b11", (2, 0)): -1.0}, 3, "symmetric"),
        ({("b11", (0, 1)): np.nan, ("b11", (1, 0)): np.nan}, 2, "finite"),  # before the symmetry check
    ])
    def test_first_failing_check_names_the_error(self, entries, q, message):
        blocks = stem_blocks(q)
        for (name, index), value in entries.items():
            blocks[name][index] = value
        with pytest.raises(ValueError, match=message):
            SusceptanceMatrix(**blocks)

    @pytest.mark.parametrize("shapes", [
        ((0, 0), (0, 4), (4,)),  # no stems
        ((2, 3), (2, 1), (1,)), ((2,), (2, 1), (1,)),  # b11 not square
        ((2, 2), (1, 2), (2,)), ((2, 2), (2, 3), (2,)),  # c not q x (M - q)
        ((2, 2), (2, 2), (2, 1)), ((2, 2), (2, 0), ()),  # d not a vector
    ])
    def test_rejects_mismatched_shapes(self, shapes):
        with pytest.raises(ValueError, match="blocks must be q x q"):
            SusceptanceMatrix(*(np.zeros(shape) for shape in shapes))

    @pytest.mark.parametrize("name", ["b11", "c", "d"])
    def test_rejects_complex_blocks(self, name):
        blocks = stem_blocks(2)
        blocks[name] = blocks[name] + 0j
        with pytest.raises(ValueError, match="real"):
            SusceptanceMatrix(**blocks)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            fully_connected(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_complex_and_bad_z0(self):
        with pytest.raises(ValueError):
            fully_connected(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            fully_connected(np.eye(2), z0=0.0)

    @pytest.mark.parametrize("z0", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    def test_z0_checked_before_b(self, z0):
        with pytest.raises(ValueError, match="z0"):  # before the shapes and the values
            SusceptanceMatrix(np.full((2, 2), np.nan), np.zeros((3, 1)), np.full(1, np.inf), z0)

    @pytest.mark.parametrize("q", [1, 3, 8, None])  # r = 2, M = 8: q = 1, 2r - 1, M; None: theta_to_b
    def test_blocks_are_the_circuits(self, q):
        if q is None:
            b = cayley_with_phase_fallback(random_symmetric_unitary(8, seed=2).theta)[1]
        else:
            b = synthesize_qstem(solve_maxdet(make_iid_channels(4, n_t=2, n_r=2, m=8)), q)[0]
        q, m = b.q, b.m
        assert m == 8 and b.c.shape == (q, m - q) and b.d.shape == (m - q,)
        assert element_count(q, m) == q * (q + 1) // 2 + b.c.size + b.d.size
        assert "b" not in vars(b)  # formed on first access
        dense = b.b
        assert b.b is dense
        assert np.array_equal(dense, dense.T) and not dense[~qstem_support(q, m)].any()
        assert np.array_equal(dense[:q, :q], b.b11) and np.array_equal(dense[:q, q:], b.c)
        assert np.array_equal(np.diagonal(dense)[q:], b.d)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z0", [np.inf, np.nan])
    def test_non_finite_z0_rejected_before_division(self, z0, iid_channels):
        design = solve_maxdet(iid_channels(1, m=6))
        with pytest.raises(ValueError, match="z0"):
            synthesize_qstem(design, 3, z0=z0)
        with pytest.raises(ValueError, match="z0"):
            theta_to_b(np.eye(3), z0=z0)