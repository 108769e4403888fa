"""Experiment runner: flat-text configs, seeded Monte-Carlo trials, CSV output.

Config format: ``key = value`` lines.  Blank lines are skipped and anything
after ``#`` is a comment.  ``[section]`` headers are allowed for grouping but
keys live in one global namespace.  Lists are comma-separated.  Unknown keys,
duplicate keys, and malformed values are rejected with the offending line
number.

Example::

    experiment = rate_vs_snr       # rate_vs_snr | direct_link_sweep |
    trials = 200                   # qstem_sweep | m_sweep | det_family
    master_seed = 42

    [params]
    n_t = 4
    n_r = 4
    m = 16

    [grids]
    snr_grid_db = 0, 10, 20, 30

Trial t draws its generator seed from a SplitMix64 hash of
(master_seed, t), so runs are byte-identical for a given config regardless
of the thread count.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import designs, metrics, qstem
from .channel import (
    ChannelParams,
    ChannelSet,
    Geometry,
    budget_for_reference_snr,
    build_channel_set,
    derive_seed,
)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# Designs a config may request; an experiment without default designs in
# _EXPERIMENT_DEFAULTS emits fixed rows and takes no 'designs' key.
SELECTABLE_DESIGNS = (
    "max_det_symmetric",
    "max_det_phase_corrected",
    "unitary_baseline",
    "random_symmetric",
    "identity",
    "no_ris",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings; the defaults are those every experiment
    shares, and _EXPERIMENT_DEFAULTS holds what differs per experiment."""

    experiment: str
    geometry: Geometry = Geometry()
    params: ChannelParams = ChannelParams()
    snr_grid_db: tuple = (10.0,)
    direct_scale_grid: tuple = (1e-3, 1.0, 20.0)
    q_grid: tuple = tuple(range(1, 11))
    m_grid: tuple = (16, 64)
    phi_grid: tuple = tuple(np.linspace(0.0, np.pi / 2, 31))
    trials: int = 200
    master_seed: int = 0
    designs: tuple = ()
    output_path: str = "results.csv"
    direct_blocked: bool = True
    apply_path_loss: bool = True
    snr_mode: str = "reference"
    z0: float = 50.0


_UNIT_VARIANCE = dict(apply_path_loss=False, snr_mode="rho")  # grid values are rho in dB

_EXPERIMENT_DEFAULTS = {
    "rate_vs_snr": dict(designs=("unitary_baseline", "max_det_symmetric"),
                        snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)),
    "direct_link_sweep": dict(
        designs=("max_det_symmetric", "max_det_phase_corrected", "random_symmetric"),
        direct_blocked=False),
    "qstem_sweep": {},
    "m_sweep": dict(designs=("unitary_baseline", "max_det_symmetric"), **_UNIT_VARIANCE),
    "det_family": dict(snr_grid_db=(0.0,), **_UNIT_VARIANCE),
}

EXPERIMENTS = tuple(_EXPERIMENT_DEFAULTS)


@dataclass(frozen=True)
class ResultRecord:
    experiment: str
    trial: int
    design: str
    sweep_value: float
    rate_bits: float | None
    abs_det: float | None
    d_max: float | None
    rate_gap_bound_bits: float | None
    qstem_residual: float | None = None
    sigma_min_h: float | None = None
    error: str = ""


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(ResultRecord))


# ---------------------------------------------------------------------------
# Config parsing


def _parse_int(s):
    return int(s, 0)


def _parse_float(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {s!r}")
    return v


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _split_list(s):
    items = [t.strip() for t in s.split(",")]
    if any(not t for t in items):
        raise ValueError("empty list item")
    return items


def _parse_floats(s):
    return tuple(_parse_float(t) for t in _split_list(s))


def _parse_snr_grid(s):
    # Each point must map to a positive, finite linear SNR 10^(dB/10).
    values = _parse_floats(s)
    for v in values:
        try:
            linear = 10.0 ** (v / 10.0)
        except OverflowError:
            linear = math.inf
        if not 0.0 < linear < math.inf:
            raise ValueError(f"{v:g} dB under- or overflows the linear SNR")
    return values


def _parse_ints(s):
    return tuple(int(t) for t in _split_list(s))


def _parse_vec3(s):
    v = _parse_floats(s)
    if len(v) != 3:
        raise ValueError(f"expected 3 coordinates, got {len(v)}")
    return v


def _parse_words(s):
    return tuple(t.lower() for t in _split_list(s))


_KEY_PARSERS = {
    "experiment": str,
    "trials": _parse_int,
    "master_seed": _parse_int,
    "output_path": str,
    "designs": _parse_words,
    "tx_pos": _parse_vec3,
    "ris_pos": _parse_vec3,
    "rx_pos": _parse_vec3,
    "n_t": _parse_int,
    "n_r": _parse_int,
    "m": _parse_int,
    "rician_k": _parse_float,
    "alpha_ris": _parse_float,
    "alpha_direct": _parse_float,
    "direct_scale": _parse_float,
    "snr_grid_db": _parse_snr_grid,
    "direct_scale_grid": _parse_floats,
    "q_grid": _parse_ints,
    "m_grid": _parse_ints,
    "phi_grid": _parse_floats,
    "direct_blocked": _parse_bool,
    "apply_path_loss": _parse_bool,
    "snr_mode": str,
    "z0": _parse_float,
}


def _scan(text):
    values = {}
    lines = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"line {lineno}: malformed section header {line!r}")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {lines[key]})"
            )
        try:
            values[key] = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: invalid value for {key!r}: {exc}") from exc
        lines[key] = lineno
    return values


def _pop_fields(cls, values):
    return {f.name: values.pop(f.name) for f in dataclasses.fields(cls) if f.name in values}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document; unset keys take the defaults of
    Geometry, ChannelParams, ExperimentConfig and the experiment."""
    values = _scan(text)
    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    experiment = values.pop("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}")
    try:
        geometry = Geometry(**_pop_fields(Geometry, values))
        params = ChannelParams(**_pop_fields(ChannelParams, values))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config = ExperimentConfig(experiment, geometry, params,
                              **{**_EXPERIMENT_DEFAULTS[experiment], **values})
    _validate(config)
    return config


def _validate(config: ExperimentConfig):
    if config.trials < 1:
        raise ConfigError("trials must be >= 1")
    if config.snr_mode not in ("reference", "rho"):
        raise ConfigError("snr_mode must be 'reference' or 'rho'")
    if config.z0 <= 0:
        raise ConfigError("z0 must be positive")

    exp = config.experiment
    if exp != "rate_vs_snr" and len(config.snr_grid_db) > 1:
        raise ConfigError(f"{exp} evaluates one SNR point; snr_grid_db has "
                          f"{len(config.snr_grid_db)}")
    if "designs" not in _EXPERIMENT_DEFAULTS[exp]:
        if config.designs:
            raise ConfigError(f"designs are fixed for {exp}; remove the 'designs' key")
    else:
        unknown = [d for d in config.designs if d not in SELECTABLE_DESIGNS]
        if unknown:
            raise ConfigError(f"unknown designs {unknown}; choose from {SELECTABLE_DESIGNS}")
        if "max_det_phase_corrected" in config.designs and config.direct_blocked:
            raise ConfigError("max_det_phase_corrected requires direct_blocked = false")

    if exp == "direct_link_sweep" and config.direct_blocked:
        raise ConfigError("direct_link_sweep requires direct_blocked = false")
    if exp == "qstem_sweep":
        bad = [q for q in config.q_grid if not 1 <= q <= config.params.m]
        if bad:
            raise ConfigError(f"q values {bad} outside [1, m={config.params.m}]")
    if exp == "m_sweep" and any(m < 1 for m in config.m_grid):
        raise ConfigError("m_grid entries must be >= 1")
    if exp == "det_family" and min(config.params.n_t, config.params.n_r) < 2:
        raise ConfigError("det_family needs at least 2 spatial streams (r >= 2)")


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# Experiment execution


def _rho_for(config, channels, snr_db):
    """rho at one SNR point, or the ValueError of a reference SNR whose
    calibrated power is not finite; ``_row`` reports that error in its row."""
    if config.snr_mode == "rho":
        return 10.0 ** (snr_db / 10.0)
    return _attempt(lambda: budget_for_reference_snr(channels, snr_db).rho, ValueError)


def _attempt(make, errors=Exception):
    """``make()``, or the ``errors`` exception it raised."""
    try:
        return make()
    except errors as exc:
        return exc


@dataclass(frozen=True)
class _Trial:
    """One channel realization and the figures every row of it shares."""

    config: ExperimentConfig
    index: int
    seed: int  # the trial seed; random_symmetric derives its own from it
    channels: ChannelSet
    d_max: float | ArithmeticError  # or the error of one outside the float range
    sigma_f: np.ndarray | None  # the r = min(N_t, N_r) largest singular values of F, None if M < r
    sigma_g: np.ndarray | None
    bounds: dict  # rho -> rate-gap bound, or the exception computing it raised
    built: dict  # design -> ScatteringMatrix, or the exception building it raised


def _start_trial(config, index, blocked, m=None):
    """Draw trial ``index``'s channels; m_sweep passes the RIS size, which
    also keys the channel seed."""
    seed = derive_seed(config.master_seed, index)
    params, channel_seed = config.params, seed
    if m is not None:
        params, channel_seed = dataclasses.replace(params, m=m), derive_seed(seed, 1000 + m)
    channels = build_channel_set(
        config.geometry, params, channel_seed,
        blocked=blocked, apply_path_loss=config.apply_path_loss,
    )
    r = min(channels.n_t, channels.n_r)  # M < r leaves fewer values and no bound over r streams
    sf, sg = (s[:r] for _, s, _ in channels.svds) if channels.m >= r else (None, None)
    ceiling = _attempt(lambda: metrics.d_max(channels), ArithmeticError)
    return _Trial(config, index, seed, channels, ceiling, sf, sg, {}, {})


def _row(trial, design, sweep_value, rho, evaluate):
    """The result row of one design at one sweep point.

    ``evaluate()`` returns (metrics.evaluate_design's row triple, qstem
    residual or None).  An exception from it, from the rate-gap bound, in ``rho``
    (``_rho_for``) or in the trial's ``d_max`` fills the error column instead.
    """
    ceiling = None if isinstance(trial.d_max, Exception) else trial.d_max
    common = dict(experiment=trial.config.experiment, trial=trial.index, design=design,
                  sweep_value=float(sweep_value), d_max=ceiling)
    try:
        if ceiling is None or isinstance(rho, Exception):
            raise trial.d_max if ceiling is None else rho
        (rate, det, sigma_min), residual = evaluate()
        bound = None if trial.sigma_f is None else _cached(
            trial.bounds, rho, lambda: metrics.rate_gap_bound(trial.sigma_f, trial.sigma_g, rho))
    except Exception as exc:
        return ResultRecord(**common, rate_bits=None, abs_det=None, rate_gap_bound_bits=None,
                            error=f"{type(exc).__name__}: {exc}")
    return ResultRecord(**common, rate_bits=rate, abs_det=det, rate_gap_bound_bits=bound,
                        qstem_residual=residual, sigma_min_h=sigma_min)


def _cached(cache, key, make):
    """``make()`` once per key; a failure is kept and raised again on reuse."""
    if key not in cache:
        cache[key] = _attempt(make)
    if isinstance(cache[key], Exception):
        raise cache[key]
    return cache[key]


_MAKE_DESIGN = {
    "max_det_symmetric": lambda trial: designs.solve_maxdet(trial.channels),
    "unitary_baseline": lambda trial: designs.unitary_baseline(trial.channels),
    "random_symmetric": lambda trial: designs.random_symmetric_unitary(
        trial.channels.m, derive_seed(trial.seed, 101)),
    "identity": lambda trial: designs.ScatteringMatrix.from_theta(np.eye(trial.channels.m)),
    "no_ris": lambda trial: None,
}


def _design(trial, name):
    """The trial's design ``name``, built on first use; none reads H_d."""
    return _cached(trial.built, name, lambda: _MAKE_DESIGN[name](trial))


def _design_rows(trial, design_list, points):
    """Rows of each design at each (sweep value, rho) point, point-major.  Each
    design is built once per trial (none reads H_d) and evaluated once for all
    points, the phase-corrected one included."""
    rhos = [rho for _, rho in points if not isinstance(rho, Exception)]
    evaluated = {}

    def evaluations(name):  # one per entry of rhos
        if name != "max_det_phase_corrected":
            return metrics.evaluate_design(trial.channels, _design(trial, name), rhos)
        theta = _design(trial, "max_det_symmetric")
        phases = designs.phase_correction(trial.channels, theta, rhos)
        return metrics.evaluate_design(trial.channels, theta, rhos, phases)

    def evaluate(name, rho):
        return _cached(evaluated, name, lambda: evaluations(name))[rhos.index(rho)], None

    return [_row(trial, d, value, rho, functools.partial(evaluate, d, rho))
            for value, rho in points for d in design_list]


def _with_reference_rows(designs_list, blocked):
    # identity and no-RIS reference rows ride along whenever the direct link exists
    forced = () if blocked else ("identity", "no_ris")
    return list(designs_list) + [d for d in forced if d not in designs_list]


def _trial_rate_vs_snr(config, index):
    trial = _start_trial(config, index, config.direct_blocked)
    design_list = _with_reference_rows(config.designs, config.direct_blocked)
    points = [(snr_db, _rho_for(config, trial.channels, snr_db)) for snr_db in config.snr_grid_db]
    return _design_rows(trial, design_list, points)


def _trial_direct_link_sweep(config, index):
    trial = _start_trial(config, index, blocked=False)
    channels = trial.channels
    rho = _rho_for(config, channels, config.snr_grid_db[0])
    design_list = _with_reference_rows(config.designs, blocked=False)
    records = []
    for scale in config.direct_scale_grid:  # the scaled trials share trial.built
        scaled = dataclasses.replace(trial, channels=channels.with_direct(scale * channels.h_direct))
        records += _design_rows(scaled, design_list, [(scale, rho)])
    return records


def _trial_qstem_sweep(config, index):
    trial = _start_trial(config, index, blocked=True)
    rho = _rho_for(config, trial.channels, config.snr_grid_db[0])

    def evaluate(theta):
        return metrics.evaluate_design(trial.channels, theta, [rho])[0]

    def fully_connected():
        full = qstem.complete_to_unitary(_design(trial, "max_det_symmetric"))
        _, b_full = qstem.cayley_with_phase_fallback(full.theta, config.z0)
        return evaluate(qstem.b_to_theta(b_full)), None

    def stems(q):
        # blocked link: the rate does not see the global phase of the realized Theta
        b, residual, _ = qstem.synthesize_qstem(_design(trial, "max_det_symmetric"), q, config.z0)
        return evaluate(qstem.b_to_theta(b)), residual

    records = _design_rows(trial, ("max_det_symmetric",), [(0.0, rho)])
    records.append(_row(trial, "max_det_fully_connected", config.params.m, rho, fully_connected))
    records += [_row(trial, "qstem", q, rho, lambda: stems(q)) for q in config.q_grid]
    return records


def _trial_m_sweep(config, index):
    records = []
    for m in config.m_grid:
        trial = _start_trial(config, index, blocked=True, m=m)
        rho = _rho_for(config, trial.channels, config.snr_grid_db[0])
        records += _design_rows(trial, config.designs, [(m, rho)])
    return records


def _planar_rotation(r, phi):
    u = np.eye(r, dtype=complex)
    u[0, 0] = u[1, 1] = np.cos(phi)
    u[0, 1] = -np.sin(phi)
    u[1, 0] = np.sin(phi)
    return u


def _trial_det_family(config, index):
    trial = _start_trial(config, index, blocked=True)
    channels = trial.channels
    rho = _rho_for(config, channels, config.snr_grid_db[0])
    r = min(channels.n_t, channels.n_r)
    records = _design_rows(trial, ("max_det_symmetric", "unitary_baseline"), [(0.0, rho)])
    records += [
        _row(trial, "rotated", phi, rho, lambda: (metrics.evaluate_design(
            channels, designs.rotated_family(channels, _planar_rotation(r, phi)), [rho])[0], None))
        for phi in config.phi_grid
    ]
    return records


_TRIAL_RUNNERS = {
    "rate_vs_snr": _trial_rate_vs_snr,
    "direct_link_sweep": _trial_direct_link_sweep,
    "qstem_sweep": _trial_qstem_sweep,
    "m_sweep": _trial_m_sweep,
    "det_family": _trial_det_family,
}


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[ResultRecord]:
    """Run all trials of the configured experiment.

    Trials own independent derived seeds and may run concurrently; the
    returned record list is always in canonical trial-major order, so output
    does not depend on the thread count.
    """
    runner = functools.partial(_TRIAL_RUNNERS[config.experiment], config)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_trial = list(pool.map(runner, range(config.trials)))  # map keeps trial order
    else:
        per_trial = map(runner, range(config.trials))
    return [rec for batch in per_trial for rec in batch]


# ---------------------------------------------------------------------------
# Output


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(records, path) -> None:
    """Write records as UTF-8 RFC-4180 CSV with 17-significant-digit floats."""
    if not records:
        raise ValueError("no records to write")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_csv(records, fh)


def _write_csv(records, fh):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([_fmt(getattr(rec, col)) for col in CSV_COLUMNS])


def csv_bytes(records) -> bytes:
    buf = io.StringIO()
    _write_csv(records, buf)
    return buf.getvalue().encode("utf-8")


def write_susceptance_csv(b: "qstem.SusceptanceMatrix", fh) -> None:
    """Susceptance matrix as CSV with a '# qstem q=<q> M=<M> Z0=<z0>' header."""
    fh.write(f"# qstem q={b.q} M={b.m} Z0={_fmt(float(b.z0))}\n")
    for row in b.b:
        fh.write(",".join(format(x, ".17g") for x in row) + "\n")


def m_sweep_summary(records) -> dict[int, float]:
    """Per-M mean of sigma_min(H) / M for the Max-Det rows of an m_sweep run."""
    if not records or any(rec.experiment != "m_sweep" for rec in records):
        raise ValueError("summary requires records from an m_sweep experiment")
    groups: dict[int, list[float]] = {}
    for rec in records:
        if rec.design == "max_det_symmetric" and rec.sigma_min_h is not None:
            groups.setdefault(int(rec.sweep_value), []).append(rec.sigma_min_h)
    return {m: float(np.mean(vals)) / m for m, vals in sorted(groups.items())}
