"""Rician RIS links, Rayleigh direct link, and deployment geometry.

All generators are pure functions of (dimensions, parameters, seed); trial
and per-link seeds are derived with a stateless SplitMix64 hash so
Monte-Carlo runs reproduce bit-identically regardless of execution order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, index: int) -> int:
    """SplitMix64-style hash of (master_seed, index) onto a 64-bit seed."""
    z = (master_seed + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class Geometry:
    """Node positions in meters.  Defaults follow the simulated deployment:
    Tx at (0, 0, 1.5), RIS close to the Tx at (5, 3, 3), Rx at (50, 0, 1.5)."""

    tx_pos: tuple[float, float, float] = (0.0, 0.0, 1.5)
    ris_pos: tuple[float, float, float] = (5.0, 3.0, 3.0)
    rx_pos: tuple[float, float, float] = (50.0, 0.0, 1.5)

    def __post_init__(self):
        for name, d in (
            ("tx-ris", self.d_tx_ris),
            ("ris-rx", self.d_ris_rx),
            ("tx-rx", self.d_tx_rx),
        ):
            if not d > 0:
                raise ValueError(f"{name} distance must be positive, got {d}")

    @property
    def d_tx_ris(self) -> float:
        return _dist(self.tx_pos, self.ris_pos)

    @property
    def d_ris_rx(self) -> float:
        return _dist(self.ris_pos, self.rx_pos)

    @property
    def d_tx_rx(self) -> float:
        return _dist(self.tx_pos, self.rx_pos)


def _dist(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))


@dataclass(frozen=True)
class ChannelParams:
    """Antenna/element counts and fading parameters.

    Defaults reproduce the reference scenario: 4x4 MIMO, M = 16, Rician
    K = 2 on both RIS links with path-loss exponent 2, Rayleigh direct link
    with exponent 4.  Both RIS links share the same K-factor.
    """

    n_t: int = 4
    n_r: int = 4
    m: int = 16
    rician_k: float = 2.0
    alpha_ris: float = 2.0
    alpha_direct: float = 4.0
    direct_scale: float = 1.0

    def __post_init__(self):
        if min(self.n_t, self.n_r, self.m) < 1:
            raise ValueError("antenna and element counts must be >= 1")
        if self.rician_k < 0:
            raise ValueError("rician_k must be nonnegative")
        if self.alpha_ris < 0 or self.alpha_direct < 0:
            raise ValueError("path-loss exponents must be nonnegative")
        if self.direct_scale < 0:
            raise ValueError("direct_scale must be nonnegative")


@dataclass(frozen=True)
class ChannelSet:
    """The (F, G, H_d) channel triple.

    f: N_r x M RIS->Rx link, g: N_t x M Tx->RIS link, h_direct: N_r x N_t
    direct link or None when blocked.
    """

    f: np.ndarray
    g: np.ndarray
    h_direct: np.ndarray | None = None

    def __post_init__(self):
        f = np.asarray(self.f)
        g = np.asarray(self.g)
        if f.ndim != 2 or g.ndim != 2 or f.shape[1] != g.shape[1]:
            raise ValueError("f and g must be 2-D with a common element count M")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
            raise ValueError("channel matrices contain non-finite entries")
        if self.h_direct is not None:
            h = np.asarray(self.h_direct)
            if h.shape != (f.shape[0], g.shape[0]):
                raise ValueError("h_direct must be N_r x N_t")
            if not np.all(np.isfinite(h)):
                raise ValueError("h_direct contains non-finite entries")

    @functools.cached_property
    def svds(self):
        """Thin SVDs (U, s, Vh) of F and of G, taken once and shared by every consumer."""
        return np.linalg.svd(self.f, full_matrices=False), np.linalg.svd(self.g, full_matrices=False)

    @functools.cached_property
    def cascade_norm(self) -> float:
        """||F G^H||_F, which sets the reference SNR; taken once."""
        return np.linalg.norm(self.f @ self.g.conj().T)

    def with_direct(self, h_direct) -> "ChannelSet":
        """These F and G with another direct link; ``svds`` and ``cascade_norm`` carry over."""
        other = replace(self, h_direct=h_direct)
        other.__dict__.update((k, v) for k, v in vars(self).items() if k in ("svds", "cascade_norm"))
        return other

    @property
    def n_r(self) -> int:
        return self.f.shape[0]

    @property
    def n_t(self) -> int:
        return self.g.shape[0]

    @property
    def m(self) -> int:
        return self.f.shape[1]


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power, noise variance, and the per-antenna SNR rho = P / (N_t sigma^2)."""

    power: float
    noise_var: float
    rho: float

    def __post_init__(self):
        if not all(0.0 < v < np.inf for v in (self.power, self.noise_var, self.rho)):
            raise ValueError("power, noise_var, and rho must be positive and finite "
                             f"(power = {self.power:g}, noise_var = {self.noise_var:g}, rho = {self.rho:g})")

    @classmethod
    def from_power(cls, power: float, noise_var: float, n_t: int) -> "LinkBudget":
        return cls(power=power, noise_var=noise_var, rho=power / (n_t * noise_var))


def path_loss(distance: float, exponent: float) -> float:
    """Amplitude gain d**(-alpha/2), i.e. power gain d**(-alpha), 1 m reference."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    return float(distance ** (-exponent / 2.0))


def _complex_gaussian(rows, cols, rng):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _ula_response(n, cos_angle):
    # Half-wavelength ULA along the global x-axis; element 0 is the phase reference.
    return np.exp(-1j * np.pi * np.arange(n) * cos_angle)


def gen_rayleigh(rows: int, cols: int, seed: int) -> np.ndarray:
    """i.i.d. circular complex Gaussian entries with unit variance."""
    rng = np.random.default_rng(seed)
    return _complex_gaussian(rows, cols, rng)


def gen_rician(
    rows: int,
    cols: int,
    k_factor: float,
    seed: int,
    aoa_cos: float = 0.0,
    aod_cos: float = 0.0,
) -> np.ndarray:
    """Rician matrix: K-weighted mix of a rank-one ULA steering outer product
    and an i.i.d. CN(0, 1) component; per-entry variance is 1 for every K.

    ``aoa_cos`` / ``aod_cos`` are the direction cosines of the line-of-sight
    path at the row-side and column-side arrays.
    """
    if k_factor < 0:
        raise ValueError("k_factor must be nonnegative")
    rng = np.random.default_rng(seed)
    nlos = _complex_gaussian(rows, cols, rng)
    los = np.outer(_ula_response(rows, aoa_cos), _ula_response(cols, aod_cos).conj())
    return np.sqrt(k_factor / (k_factor + 1.0)) * los + np.sqrt(1.0 / (k_factor + 1.0)) * nlos


def _los_cosines(src, dst):
    # Direction cosine of the link seen by x-axis ULAs at each end.
    u = np.asarray(dst, float) - np.asarray(src, float)
    u = u / np.linalg.norm(u)
    return float(u[0]), float(-u[0])


def build_channel_set(
    geometry: Geometry,
    params: ChannelParams,
    seed: int,
    blocked: bool = True,
    apply_path_loss: bool = True,
) -> ChannelSet:
    """Generate the (F, G, H_d) triple for one fading realization.

    F and G are Rician with per-link path loss from the geometry; the direct
    link is Rayleigh scaled by ``direct_scale`` (absent when ``blocked``).
    The direct link consumes its own derived seed, so scaling or blocking it
    never perturbs F and G.
    """
    seed_f = derive_seed(seed, 0)
    seed_g = derive_seed(seed, 1)
    seed_h = derive_seed(seed, 2)

    cos_tx, cos_ris_from_tx = _los_cosines(geometry.tx_pos, geometry.ris_pos)
    cos_ris_to_rx, cos_rx = _los_cosines(geometry.ris_pos, geometry.rx_pos)

    g = gen_rician(params.n_t, params.m, params.rician_k, seed_g,
                   aoa_cos=cos_tx, aod_cos=cos_ris_from_tx)
    f = gen_rician(params.n_r, params.m, params.rician_k, seed_f,
                   aoa_cos=cos_rx, aod_cos=cos_ris_to_rx)
    if apply_path_loss:
        g = path_loss(geometry.d_tx_ris, params.alpha_ris) * g
        f = path_loss(geometry.d_ris_rx, params.alpha_ris) * f

    h_direct = None
    if not blocked:
        h_direct = gen_rayleigh(params.n_r, params.n_t, seed_h)
        if apply_path_loss:
            h_direct = path_loss(geometry.d_tx_rx, params.alpha_direct) * h_direct
        # direct_scale applied last so h_direct is exactly scale * (scale-1 matrix)
        h_direct = params.direct_scale * h_direct
    return ChannelSet(f=f, g=g, h_direct=h_direct)


def reference_snr_db(channels: ChannelSet, budget: LinkBudget) -> float:
    """Reference SNR 10 log10(P ||F G^H||_F^2 / (N_t N_r sigma^2)) in dB."""
    num = budget.power * channels.cascade_norm ** 2
    den = channels.n_t * channels.n_r * budget.noise_var
    return float(10.0 * np.log10(num / den))


def budget_for_reference_snr(channels: ChannelSet, snr_db: float, noise_var: float = 1.0) -> LinkBudget:
    """Link budget whose reference SNR equals ``snr_db`` for these channels."""
    with np.errstate(over="ignore", divide="ignore"):  # LinkBudget rejects a non-finite power
        power = 10.0 ** (snr_db / 10.0) * channels.n_t * channels.n_r * noise_var / channels.cascade_norm**2
    return LinkBudget.from_power(power, noise_var, channels.n_t)
