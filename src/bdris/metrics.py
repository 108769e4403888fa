"""Rate and determinant metrics plus the closed-form bounds used to audit designs.

All rates are in bits (log base 2) and are evaluated from singular values,
never from an explicit determinant of I + rho H H^H, so nothing overflows at
high SNR; |det| and d_max go to log space where a plain product under- or
overflows, and raise ArithmeticError (not a false 0 or inf) off the float range.
"""

from __future__ import annotations

import numpy as np

LN2 = float(np.log(2.0))
_TINY = np.finfo(float).tiny  # the smallest normal float


def _svdvals(h) -> np.ndarray:
    return np.linalg.svd(np.asarray(h), compute_uv=False)


def _check_rho(rho):
    """Reject a per-antenna SNR, scalar or array, outside 0 < rho < inf."""
    if not all(0.0 < r < np.inf for r in np.ravel(rho).tolist()):
        raise ValueError("rho must be positive and finite")


def _rate(s, rho) -> float:
    return float(np.sum(np.log2(1.0 + rho * s**2)))


def ris_channel(channels, theta) -> np.ndarray:
    """F Theta G^H of a ScatteringMatrix Theta = L R^H, formed as (F L)(G R)^H
    in O(N M s) without the dense Theta."""
    m = channels.m
    if theta.m != m:
        raise ValueError(f"theta must be {m}x{m}, got {theta.m}x{theta.m}")
    return (channels.f @ theta.left) @ (channels.g @ theta.right).conj().T


def equivalent_channel(channels, theta, phase: float = 0.0) -> np.ndarray:
    """H = H_d + e^{j phase} F Theta G^H (the H_d term is absent when blocked)."""
    h = np.exp(1j * phase) * ris_channel(channels, theta)
    if channels.h_direct is not None:
        h = channels.h_direct + h
    return h


def achievable_rate(h, rho: float) -> float:
    """log2 det(I + rho H H^H) via the Gram of the smaller dimension:
    sum_i log2(1 + rho sigma_i^2)."""
    _check_rho(rho)
    return _rate(_svdvals(h), rho)


def abs_det(h) -> float:
    """|det| of the equivalent channel: the product of all min(N_r, N_t)
    singular values, i.e. sqrt(det(H H^H)) for wide H and |det(H)| for square H.
    It is 0, not rounding noise, when H is numerically rank-deficient."""
    return _abs_det(_svdvals(h), np.shape(h))


def _full_rank(s, shape) -> bool:  # numerical-rank cutoff max(shape) eps sigma_max
    return s.size > 0 and s[-1] > max(shape) * np.finfo(float).eps * s[0]


def _abs_det(s, shape) -> float:
    return _product("|det|", s) if _full_rank(s, shape) else 0.0


@np.errstate(all="ignore")
def _product(name, a, b=None) -> float:
    """Product ``name`` of the entries of a, times those of b; in log space where it under- or overflows."""
    value = a.prod() if b is None else a.prod() * b.prod()
    if _TINY <= value < np.inf:
        return float(value)
    log_value = np.log(a).sum() + (0.0 if b is None else np.log(b).sum())  # -inf for a zero factor
    if log_value > -np.inf and not np.log(_TINY) <= log_value < np.log(np.finfo(float).max):
        raise ArithmeticError(f"{name} = e^{log_value:.6g} is outside the float range")
    return float(np.exp(log_value))


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
    _check_rho(rho)
    s = _full_rank_svdvals(h)
    r = s.size
    r_log_rho = r * float(np.log2(rho))
    log_det_gram = float(2.0 * np.sum(np.log2(s)))
    error_term = float(np.sum(np.log2(1.0 + 1.0 / (rho * s**2))))
    return r_log_rho, log_det_gram, error_term


def error_term_bound(h, rho: float) -> float:
    """Upper bound r / (rho sigma_min^2 ln 2) on the residual term of the
    rate decomposition."""
    _check_rho(rho)
    s = _full_rank_svdvals(h)
    return float(s.size / (rho * s[-1] ** 2 * LN2))


def rate_gap_bound(sigma_f, sigma_g, rho: float) -> float:
    """Closed-form bound (in bits; ArithmeticError off the float range) on the rate
    gap between the eigenmode-matched unitary design and the symmetric Max-Det design:

        r * log2[(1 + rho sf_r^2 sg_r^2) sf_1^2 sg_1^2
                 / ((1 + rho sf_1^2 sg_1^2) sf_r^2 sg_r^2)]
    """
    sf = np.sort(np.asarray(sigma_f, float))[::-1]
    sg = np.sort(np.asarray(sigma_g, float))[::-1]
    if sf.size != sg.size or sf.size == 0:
        raise ValueError("sigma_f and sigma_g must have the same nonzero length")
    if sf[-1] <= 0 or sg[-1] <= 0:
        raise ValueError("singular values must be strictly positive")
    _check_rho(rho)
    with np.errstate(all="ignore"):
        top, bot = sf[0] ** 2 * sg[0] ** 2, sf[-1] ** 2 * sg[-1] ** 2
        gap = float(sf.size * np.log2((1.0 + rho * bot) * top / ((1.0 + rho * top) * bot)))
    if not (bot >= _TINY and np.isfinite(gap)):
        raise ArithmeticError(f"rate-gap bound leaves the float range ({bot:.3g}, {top:.3g})")
    return gap


def d_max(channels) -> float:
    """Ceiling on |det| of the equivalent channel: the product of the r
    largest singular values of F times those of G, r = min(N_t, N_r).  It is 0
    when M < r, since every F Theta G^H then has rank <= M < r."""
    r = min(channels.n_t, channels.n_r)
    (_, sf, _), (_, sg, _) = channels.svds
    if min(sf.size, sg.size) < r:
        return 0.0
    return _product("d_max", sf[:r], sg[:r])


def evaluate_design(channels, theta, rhos, phases=None) -> list[tuple[float, float, float]]:
    """(rate_bits, abs_det, sigma_min_h) of one design on one channel
    realization at each per-antenna SNR in ``rhos``.

    ``theta`` is a ScatteringMatrix, or None for no RIS (H is then H_d, or
    zero when blocked).  The rate and sigma_min refer to the full channel H;
    ``abs_det`` is |det| of the RIS-only channel F Theta G^H (0 without RIS).
    With ``phases``, point i evaluates H = H_d + e^{j phases[i]} F Theta G^H,
    as ``equivalent_channel(..., phase=)`` does.  The SVDs run once for all of
    ``rhos``: one (batched) of H, and with a direct link one of F Theta G^H.
    """
    _check_rho(rhos)
    h = np.zeros((channels.n_r, channels.n_t), complex) if theta is None else ris_channel(channels, theta)
    if channels.h_direct is None:
        s = _svdvals(h)
        det = 0.0 if theta is None else _abs_det(s, h.shape)
    else:
        det = 0.0 if theta is None else abs_det(h)
        if phases is not None:
            h = np.exp(1j * np.asarray(phases, dtype=float))[:, None, None] * h
        s = _svdvals(channels.h_direct + h)
    s = np.broadcast_to(s, (len(rhos), s.shape[-1]))
    return [(_rate(si, rho), det, float(si[-1])) for si, rho in zip(s, rhos)]
