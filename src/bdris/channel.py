"""Rician RIS links, Rayleigh direct link, and deployment geometry.

All generators are pure functions of (dimensions, parameters, seed); trial
and per-link seeds are derived with a stateless SplitMix64 hash so
Monte-Carlo runs reproduce bit-identically regardless of execution order.
A block's generators are seeded in one vectorized pass of numpy's seeding
hash that reproduces ``np.random.default_rng(derive_seed(seed, link))`` bit
for bit (pinned by ``tests/test_channel.py::TestSeeding``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import _check_counts

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
# numpy's SeedSequence hash (NEP 19): hashmix call k XORs in _HASH_A[k] and multiplies by _HASH_A[k + 1], output
# word k likewise with _HASH_B; _ROUNDS[i] holds the calls 4 + 3 i, ... of mix round i for the words j != i
_HASH_A = np.cumprod([0x43B0D7E5] + [0x931E8875] * 16, dtype=np.uint32)
_HASH_B = np.cumprod([0x8B51F9DD] + [0x58F38DED] * 8, dtype=np.uint32)
_MIX_L, _MIX_R, _OTHERS = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), ~np.eye(4, dtype=bool)
_ROUNDS = list(zip(*(_HASH_A[k + _OTHERS.cumsum().reshape(4, 4)] for k in (3, 4)), _OTHERS))
_POOL_SHIFTS, _HASH_OUT = np.uint64([0, 32, 64, 64]), (_HASH_B[:8].reshape(2, 4), _HASH_B[1:].reshape(2, 4))


def derive_seed(master_seed: int, index: int) -> int:
    """SplitMix64-style hash of (master_seed, index) onto a 64-bit seed (Python or numpy integers)."""
    z = (int(master_seed) + (int(index) + 1) * _SPLITMIX_GAMMA) & _MASK64
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
        _check_counts(n_t=self.n_t, n_r=self.n_r, m=self.m)
        if min(self.n_t, self.n_r, self.m) < 1:
            raise ValueError("antenna and element counts must be >= 1")
        for name in ("rician_k", "alpha_ris", "alpha_direct", "direct_scale"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails both
                raise ValueError(f"{name} must be nonnegative and finite, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class ChannelSet:
    """The (F, G, H_d) channel triple, or a stack of them along leading axes.

    f: N_r x M RIS->Rx link, g: N_t x M Tx->RIS link, h_direct: N_r x N_t
    direct link or None when blocked; a stack of T trials has f of shape (T, N_r, M).
    """

    f: np.ndarray
    g: np.ndarray
    h_direct: np.ndarray | None = None

    def __post_init__(self):
        f = np.asarray(self.f)
        g = np.asarray(self.g)
        if f.ndim < 2 or g.ndim != f.ndim or g.shape[:-2] != f.shape[:-2] or f.shape[-1] != g.shape[-1]:
            raise ValueError("f and g must be 2-D (or stacks over the same leading axes) "
                             "with a common element count M")
        if not (np.isfinite(f).all() and np.isfinite(g).all()):
            raise ValueError("channel matrices contain non-finite entries")
        if self.h_direct is not None:
            h = np.asarray(self.h_direct)
            if h.shape != f.shape[:-1] + g.shape[-2:-1]:
                raise ValueError("h_direct must be N_r x N_t")
            if not np.isfinite(h).all():
                raise ValueError("h_direct contains non-finite entries")

    @functools.cached_property
    def svds(self):
        """Thin SVDs (U, s, Vh) of F and of G, taken once and shared by every consumer."""
        return np.linalg.svd(self.f, full_matrices=False), np.linalg.svd(self.g, full_matrices=False)

    @functools.cached_property
    def cascade_norm(self):
        """||F G^H||_F, which sets the reference SNR; taken once (an array over a stack)."""
        x = (self.f @ self.g.conj().mT).reshape(*self.f.shape[:-2], -1)  # each trial's F G^H as one vector
        return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))[()]  # np.linalg.norm's dots and sqrt

    def with_direct(self, h_direct) -> "ChannelSet":
        """These F and G with another direct link; ``svds`` and ``cascade_norm`` carry over."""
        other = replace(self, h_direct=h_direct)
        other.__dict__.update((k, v) for k, v in vars(self).items() if k in ("svds", "cascade_norm"))
        return other

    def take(self, index) -> "ChannelSet":
        """The trials ``index`` (an integer, slice or index array) of a stack;
        ``svds`` and ``cascade_norm`` carry over."""
        if isinstance(index, slice) and index == slice(0, len(self.f)):
            return self
        other = ChannelSet(self.f[index], self.g[index], None if self.h_direct is None else self.h_direct[index])
        if "svds" in vars(self):
            other.__dict__["svds"] = tuple(tuple(a[index] for a in svd) for svd in self.svds)
        if "cascade_norm" in vars(self):
            other.__dict__["cascade_norm"] = self.cascade_norm[index]
        return other

    @property
    def n_r(self) -> int:
        return self.f.shape[-2]

    @property
    def n_t(self) -> int:
        return self.g.shape[-2]

    @property
    def m(self) -> int:
        return self.f.shape[-1]


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power, noise variance, and the per-antenna SNR rho = P / (N_t sigma^2)
    (arrays over a stack of channels)."""

    power: float
    noise_var: float
    rho: float

    def __post_init__(self):
        values = np.broadcast_arrays(*map(np.ravel, (self.power, self.noise_var, self.rho)))
        if not all(((0.0 < v) & (v < np.inf)).all() for v in values):
            power, noise_var, rho = next(x for x in zip(*values) if not all(0.0 < v < np.inf for v in x))
            raise ValueError("power, noise_var, and rho must be positive and finite "
                             f"(power = {power:g}, noise_var = {noise_var:g}, rho = {rho:g})")

    @classmethod
    def from_power(cls, power: float, noise_var: float, n_t: int) -> "LinkBudget":
        """The budget of ``power`` over ``n_t`` >= 1 antennas; ValueError, not a division by zero, for a zero n_t or
        noise_var (rho then reads nan, which the check rejects)."""
        _check_counts(n_t=n_t)
        if n_t < 1:
            raise ValueError(f"n_t must be >= 1, got {n_t}")
        rho = power / (n_t * noise_var) if np.all(noise_var > 0) else math.nan
        return cls(power=power, noise_var=noise_var, rho=rho)


def path_loss(distance: float, exponent: float) -> float:
    """Amplitude gain d**(-alpha/2), i.e. power gain d**(-alpha), 1 m reference."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    return float(distance ** (-exponent / 2.0))


@functools.cache
def _seed_words_type():
    """The ISeedSequence handing PCG64 its seed's words, made on first use: ``import bdris`` skips numpy.random."""
    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for 4 np.uint64 words
            return self.words
    return SeedWords


def _generators(seeds):
    """``[np.random.default_rng(s) for s in seeds]`` for seeds 0 <= s < 2**64, bit for bit: numpy's SeedSequence
    hash runs once, as uint32 array arithmetic over the entropy pools [lo32, hi32, 0, 0] of all seeds."""
    pool = (np.asarray(seeds, np.uint64)[:, None] >> _POOL_SHIFTS).astype(np.uint32)  # numpy shifts by 64 to 0
    pool = (pool ^ _HASH_A[:4]) * _HASH_A[1:5]  # hashmix calls 0-3
    pool ^= pool >> 16
    for i, (xor, mul, others) in enumerate(_ROUNDS):  # mix(x, y) = (L x - R y) ^ ((L x - R y) >> 16), y word i's hash
        h = (pool[:, i:i + 1] ^ xor) * mul
        t = _MIX_L * pool - _MIX_R * (h ^ (h >> 16))
        np.copyto(pool, t ^ (t >> 16), where=others)
    w = (pool[:, None] ^ _HASH_OUT[0]) * _HASH_OUT[1]  # output words k = 0-7 read pool[k % 4]
    words, generator, pcg64 = _seed_words_type(), np.random.Generator, np.random.PCG64
    return [generator(pcg64(words(x))) for x in (w ^ (w >> 16)).reshape(-1, 8).view(np.uint64)]


def _complex_gaussian(rows, cols, rngs):
    """A stack of i.i.d. circular complex Gaussian matrices, one per generator: real parts, then imaginary."""
    z = np.empty((len(rngs), 2, rows, cols))
    for rng, out in zip(rngs, z):
        rng.standard_normal(out=out)
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)


def _ula_response(n, cos_angle):
    # Half-wavelength ULA along the global x-axis; element 0 is the phase reference.
    return np.exp(-1j * np.pi * np.arange(n) * cos_angle)


def gen_rayleigh(rows: int, cols: int, seed: int) -> np.ndarray:
    """i.i.d. circular complex Gaussian entries with unit variance."""
    return _complex_gaussian(rows, cols, [np.random.default_rng(seed)])[0]


def _rician_parts(k_factor, rows, cols, aoa_cos, aod_cos):
    """The K-weighted line-of-sight term of a Rician matrix and the weight of its i.i.d. term."""
    los = np.outer(_ula_response(rows, aoa_cos), _ula_response(cols, aod_cos).conj())
    return np.sqrt(k_factor / (k_factor + 1.0)) * los, np.sqrt(1.0 / (k_factor + 1.0))


def _los_cosines(src, dst):
    # Direction cosine of the link seen by x-axis ULAs at each end.
    u = np.asarray(dst, float) - np.asarray(src, float)
    u = u / np.linalg.norm(u)
    return float(u[0]), float(-u[0])


def build_channel_set(
    geometry: Geometry,
    params: ChannelParams,
    seed,
    blocked: bool = True,
    apply_path_loss: bool = True,
) -> ChannelSet:
    """Generate the (F, G, H_d) triple for one fading realization, or a stack
    of them for a sequence of seeds.

    F and G are Rician with per-link path loss from the geometry; the direct
    link is Rayleigh scaled by ``direct_scale`` (absent when ``blocked``).
    Each link of each realization draws from its own generator, so scaling or
    blocking the direct link never perturbs F and G, and stacking never
    changes a draw.  The geometry terms are computed once per call.
    """
    single = isinstance(seed, (int, np.integer))
    seeds = [seed] if single else list(seed)
    rngs = _generators([derive_seed(s, link) for link in range(2 if blocked else 3) for s in seeds])

    def draw(rows, cols, link):  # one generator per realization and link
        return _complex_gaussian(rows, cols, rngs[link * len(seeds):(link + 1) * len(seeds)])

    cos_tx, cos_ris_from_tx = _los_cosines(geometry.tx_pos, geometry.ris_pos)
    cos_ris_to_rx, cos_rx = _los_cosines(geometry.ris_pos, geometry.rx_pos)
    los_g, weight_g = _rician_parts(params.rician_k, params.n_t, params.m, cos_tx, cos_ris_from_tx)
    los_f, weight_f = _rician_parts(params.rician_k, params.n_r, params.m, cos_rx, cos_ris_to_rx)
    g = los_g + weight_g * draw(params.n_t, params.m, 1)
    f = los_f + weight_f * draw(params.n_r, params.m, 0)
    if apply_path_loss:
        g = path_loss(geometry.d_tx_ris, params.alpha_ris) * g
        f = path_loss(geometry.d_ris_rx, params.alpha_ris) * f

    h_direct = None
    if not blocked:
        h_direct = draw(params.n_r, params.n_t, 2)
        if apply_path_loss:
            h_direct = path_loss(geometry.d_tx_rx, params.alpha_direct) * h_direct
        # direct_scale applied last so h_direct is exactly scale * (scale-1 matrix)
        h_direct = params.direct_scale * h_direct
    channels = ChannelSet(f=f, g=g, h_direct=h_direct)
    return channels.take(0) if single else channels


def reference_snr_db(channels: ChannelSet, budget: LinkBudget):
    """Reference SNR 10 log10(P ||F G^H||_F^2 / (N_t N_r sigma^2)) in dB: a float for one channel set and
    one SNR, else an array over the stack and, for a budget over an SNR grid, over the grid on the last axis."""
    norm = channels.cascade_norm
    norm = norm[..., None] if np.ndim(budget.power) > np.ndim(norm) else norm
    with np.errstate(divide="ignore"):  # a zero cascade is -inf dB
        snr_db = 10.0 * np.log10(budget.power * norm ** 2 / (channels.n_t * channels.n_r * budget.noise_var))
    return float(snr_db) if np.ndim(snr_db) == 0 else snr_db


def linear_snr(snr_db: float) -> float:
    """The linear SNR 10^(dB/10) as a Python float; ValueError where it under- or overflows."""
    try:
        linear = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ValueError(f"{snr_db:g} dB under- or overflows the linear SNR")
    return linear


def budget_for_reference_snr(channels: ChannelSet, snr_db, noise_var: float = 1.0) -> LinkBudget:
    """Link budget whose reference SNR equals ``snr_db`` for these channels (for each channel set of a stack);
    an SNR grid, (P,) or (..., P), gives every (trial, point) pair in one call, points last.  Each point's
    factor linear_snr(dB) N_t N_r sigma^2 is a Python float, as for one SNR: array power rounds differently."""
    factor = np.reshape([linear_snr(db) * channels.n_t * channels.n_r * noise_var
                         for db in np.ravel(snr_db).tolist()], np.shape(snr_db))
    norm = channels.cascade_norm if factor.ndim == 0 else channels.cascade_norm[..., None]
    with np.errstate(over="ignore", divide="ignore"):  # LinkBudget rejects a non-finite power
        # float_power is C pow, as ``**`` on a scalar norm; array ** 2 squares and rounds differently
        power = factor / np.float_power(norm, 2.0)
    return LinkBudget.from_power(power, noise_var, channels.n_t)
