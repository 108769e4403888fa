"""Rate and determinant metrics plus the closed-form bounds used to audit designs.

All rates are in bits (log base 2) and are evaluated from singular values,
never from an explicit determinant of I + rho H H^H, so nothing overflows at
high SNR; |det| and d_max go to log space where a plain product under- or
overflows, and raise ArithmeticError (not a false 0 or inf) off the float range.
Over a stack of channels (leading axes) they give one value each, or raise.
"""

from __future__ import annotations

import numpy as np

from .linalg import _numerical_rank

LN2 = float(np.log(2.0))
_TINY = np.finfo(float).tiny  # the smallest normal float


def _svdvals(h) -> np.ndarray:
    return np.linalg.svd(np.asarray(h), compute_uv=False)


def _check_rho(rho):
    """A per-antenna SNR, scalar or array, as floats; ValueError unless real (not complex, str, None) in (0, inf)."""
    if (rho := np.asarray(rho)).dtype.kind not in "biuf" or not ((0.0 < rho) & (rho < np.inf)).all():
        raise ValueError("rho must be positive and finite")
    return rho.astype(float, copy=False)


def _one_rho(rho) -> float:
    """``rho`` as a float: one per-antenna SNR, which _check_rho accepts; any other count of values is rejected."""
    if np.size(rho) != 1:
        raise ValueError(f"rho must be one SNR, got {np.size(rho)} values")
    return float(_check_rho(rho).ravel()[0])


def _rate(s, rho):
    """sum_i log2(1 + rho s_i^2) over the last axis of s, broadcast against rho."""
    return np.sum(np.log2(1.0 + rho * s**2), axis=-1)


def ris_channel(channels, theta) -> np.ndarray:
    """F Theta G^H of a ScatteringMatrix Theta = L R^H, formed as (F L)(G R)^H
    in O(N M s) without the dense Theta; zero for theta None (no RIS)."""
    if theta is None:
        return np.zeros(channels.f.shape[:-2] + (channels.n_r, channels.n_t), complex)
    m = channels.m
    if theta.m != m:
        raise ValueError(f"theta must be {m}x{m}, got {theta.m}x{theta.m}")
    return (channels.f @ theta.left) @ (channels.g @ theta.right).conj().mT


def equivalent_channel(channels, theta, phase: float = 0.0) -> np.ndarray:
    """H = H_d + e^{j phase} F Theta G^H (the H_d term is absent when blocked)."""
    h = np.exp(1j * phase) * ris_channel(channels, theta)
    if channels.h_direct is not None:
        h = channels.h_direct + h
    return h


def achievable_rate(h, rho: float) -> float:
    """log2 det(I + rho H H^H) via the Gram of the smaller dimension:
    sum_i log2(1 + rho sigma_i^2)."""
    return float(_rate(_svdvals(h), _one_rho(rho)))


def abs_det(h) -> float:
    """|det| of the equivalent channel: the product of all min(N_r, N_t)
    singular values, i.e. sqrt(det(H H^H)) for wide H and |det(H)| for square H.
    It is 0, not rounding noise, when H is numerically rank-deficient."""
    return _abs_det(_svdvals(h), np.shape(h))


def _full_rank(s, shape):
    return _numerical_rank(s, shape) == s.shape[-1] if s.shape[-1] else np.zeros(s.shape[:-1], bool)


def _abs_det(s, shape):
    full = _full_rank(s, shape)
    return np.where(full, _product("|det|", np.where(full[..., None], s, 1.0)), 0.0)[()]


@np.errstate(all="ignore")
def _product(name, a, b=None):
    """Product ``name`` of the entries of a along its last axis, times those
    of b; in log space where it, or the product of a or of b, under- or
    overflows: a subnormal factor has lost digits that the product may hide."""
    value = a.prod(axis=-1)
    plain = (_TINY <= value) & (value < np.inf)
    if b is not None:
        factor = b.prod(axis=-1)
        value = value * factor
        plain &= (_TINY <= factor) & (factor < np.inf) & (_TINY <= value) & (value < np.inf)
    if plain.all():
        return value[()]
    log_value = np.log(a).sum(axis=-1) + (0.0 if b is None else np.log(b).sum(axis=-1))  # -inf for a zero factor
    outside = ~plain & (log_value > -np.inf) & ~(
        (np.log(_TINY) <= log_value) & (log_value < np.log(np.finfo(float).max)))
    if np.any(outside):
        raise ArithmeticError(f"{name} = e^{log_value[outside][0]:.6g} is outside the float range")
    return np.where(plain, value, np.exp(log_value))[()]


def _full_rank_svdvals(h):
    s = _svdvals(h)
    if not _full_rank(s, np.shape(h)):
        raise ValueError("channel is rank-deficient; log det(H H^H) is -inf")
    return s


def rate_decomposition(h, rho: float) -> tuple[float, float, float]:
    """Split the rate into (r log2 rho, log2 det(H H^H), residual error term).

    The three terms sum to ``achievable_rate(h, rho)``; requires a full-rank
    channel.
    """
    rho, s = _one_rho(rho), _full_rank_svdvals(h)
    r = s.size
    r_log_rho = r * float(np.log2(rho))
    log_det_gram = float(2.0 * np.sum(np.log2(s)))
    error_term = float(np.sum(np.log1p(1.0 / (rho * s**2))) / LN2)
    return r_log_rho, log_det_gram, error_term


def error_term_bound(h, rho: float) -> float:
    """Upper bound r / (rho sigma_min^2 ln 2) on the residual term of the
    rate decomposition, r max_i x_i / ln 2 from the term's own x_i = 1 / (rho s_i^2):
    log1p(x) <= x survives rounding, so the bound never rounds below the term."""
    rho, s = _one_rho(rho), _full_rank_svdvals(h)
    return float(s.size * np.max(1.0 / (rho * s**2)) / LN2)


def rate_gap_bound(sigma_f, sigma_g, rho):
    """Closed-form bound (in bits) on the rate gap between the eigenmode-matched unitary
    design and the symmetric Max-Det design, top = sf_1^2 sg_1^2 and bot = sf_r^2 sg_r^2
    over the r values on the last axis of sigma_f and sigma_g, broadcast against rho:

        r log2[(1 + rho bot) top / ((1 + rho top) bot)] = r log2[1 + (top/bot - 1) / (1 + rho top)]

    The second form is taken from ln(top/bot) and ln(rho top): no square or product leaves
    the float range, and the bound keeps its relative accuracy as it vanishes.
    """
    sf, sg = np.asarray(sigma_f, float), np.asarray(sigma_g, float)
    if min(sf.ndim, sg.ndim) == 0 or sf.shape[-1] != sg.shape[-1] or sf.size == 0 or sg.size == 0:
        raise ValueError("sigma_f and sigma_g must have the same nonzero length")
    if not all(((0 < s) & (s < np.inf)).all() for s in (sf, sg)):
        raise ValueError("singular values must be strictly positive and finite")
    _check_rho(rho)
    with np.errstate(divide="ignore"):  # ln 0 = -inf where top = bot, whose bound is 0
        # ln(top/bot) = 2 sum_links ln(1 + (s_1 - s_r) / s_r), where s_1 - s_r is exact for close values
        spread = 2.0 * sum(np.logaddexp(0.0, np.log(s.max(-1) - s.min(-1)) - np.log(s.min(-1))) for s in (sf, sg))
        ln_top = np.log(rho) + 2.0 * (np.log(sf.max(-1)) + np.log(sg.max(-1)))
        z = spread + np.log(-np.expm1(-spread)) - np.logaddexp(0.0, ln_top)  # ln[(top/bot - 1) / (1 + rho top)]
    return (sf.shape[-1] / LN2 * np.logaddexp(0.0, z))[()]


def d_max(channels) -> float:
    """Ceiling on |det| of the equivalent channel: the product of the r
    largest singular values of F times those of G, r = min(N_t, N_r).  It is 0
    when M < r, since every F Theta G^H then has rank <= M < r."""
    r = min(channels.n_t, channels.n_r)
    (_, sf, _), (_, sg, _) = channels.svds
    if min(sf.shape[-1], sg.shape[-1]) < r:
        return np.zeros(sf.shape[:-1])[()]
    return _product("d_max", sf[..., :r], sg[..., :r])


def evaluate_design(channels, theta, rhos, sigma=None):
    """(rate_bits, abs_det, sigma_min_h) of one design on one channel
    realization at each per-antenna SNR in ``rhos``: arrays of shapes (P,), ()
    and (P,); over a stack of channels (and of designs, or one for all) with
    ``rhos`` of shape (P,) or (..., P) each gains the stack's leading axes.

    ``theta`` is a ScatteringMatrix, or None for no RIS (H is then H_d, or
    zero when blocked).  The rate and sigma_min refer to the full channel H;
    ``abs_det`` is |det| of the RIS-only channel F Theta G^H (0 without RIS).
    ``sigma`` holds the singular values of H at each point instead, as
    ``designs.phase_correction`` returns them for H = H_d + e^{j phi} F Theta G^H.
    The SVDs run once for all of ``rhos``: one of F Theta G^H, and with a
    direct link one of H unless ``sigma`` is given.
    """
    return evaluate_channel(channels, ris_channel(channels, theta), rhos, sigma)


def evaluate_channel(channels, h, rhos, sigma=None):
    """``evaluate_design`` for a design given by its RIS channel h = F Theta G^H, stacked as the channels are
    (in any stack when they have no direct link), as the q-stem layer forms it from a circuit."""
    rhos = _check_rho(rhos)
    s = _svdvals(h)
    det = _abs_det(s, h.shape)  # 0 without RIS, as h = 0 is rank-deficient
    if sigma is None:
        sigma = s if channels.h_direct is None else _svdvals(channels.h_direct + h)
    if sigma.ndim == np.ndim(det) + 1:  # one H for every point
        sigma = sigma[..., None, :]
    rate = _rate(sigma, rhos[..., None])
    sigma_min = sigma[..., -1]
    return rate, det, sigma_min if sigma_min.shape == rate.shape else np.broadcast_to(sigma_min, rate.shape)
