"""Experiment runner: flat-text configs, seeded Monte-Carlo trials, CSV output.

Config format: ``key = value`` lines.  Blank lines are skipped and anything
after ``#`` is a comment.  ``[section]`` headers are allowed for grouping but
keys live in one global namespace.  Lists are comma-separated.  Unknown keys,
duplicate keys, malformed values and a repeated entry of ``designs`` or a
grid list are rejected with the offending line number.

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
(master_seed, t), and runs in a block of at most BLOCK_TRIALS trials evaluated
as one stack; the blocks run in order on the calling thread, and runs are
byte-identical for a given config regardless of the block size.  A row whose
trial's d_max, rho at its SNR point, design outcome or rate-gap bound there
failed holds the first such error in place of numbers; only a failed d_max
empties the d_max cell.
"""

from __future__ import annotations

import dataclasses
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

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


class ResultRecord(NamedTuple):
    """One CSV row: a design at a sweep point of a trial, or the error in its stead."""

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


CSV_COLUMNS = ResultRecord._fields


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
    return tuple(_parse_int(t) for t in _split_list(s))


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
            if key == "designs" or "_grid" in key:  # each entry labels its own rows
                repeated = [v for i, v in enumerate(values[key]) if v in values[key][:i]]
                if repeated:
                    raise ValueError(f"{repeated[0]!r} is repeated")
            if key == "direct_scale_grid" and min(values[key]) < 0:
                raise ValueError(f"direct scales must be nonnegative, got {min(values[key]):g}")
            if key == "m_grid" and min(values[key]) < 1:
                raise ValueError(f"RIS sizes must be >= 1, got {min(values[key])}")
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
        if "max_det_phase_corrected" in config.designs and (config.direct_blocked or exp == "m_sweep"):
            raise ConfigError("max_det_phase_corrected requires a direct link: " + (
                "m_sweep always blocks it" if exp == "m_sweep" else "set direct_blocked = false"))

    if exp == "direct_link_sweep" and config.direct_blocked:
        raise ConfigError("direct_link_sweep requires direct_blocked = false")
    if exp in ("m_sweep", "qstem_sweep", "det_family") and not config.direct_blocked:
        raise ConfigError(f"{exp} always blocks the direct link; remove direct_blocked = false")
    if exp == "qstem_sweep":
        bad = [q for q in config.q_grid if not 1 <= q <= config.params.m]
        if bad:
            raise ConfigError(f"q values {bad} outside [1, m={config.params.m}]")
    if exp == "det_family" and min(config.params.n_t, config.params.n_r) < 2:
        raise ConfigError("det_family needs at least 2 spatial streams (r >= 2)")


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# Experiment execution


# The most trials drawn and evaluated as one stack; its largest arrays, the Max-Det
# frames, are BLOCK_TRIALS x M x 2r (8 MB at M = 1024, r = 4).
BLOCK_TRIALS = 64


def _per_item(make, items, errors=Exception):
    """``make(items)``, a list with an entry per item of a slice of a block's
    items; where it raises, the lists of the slice's halves, down to single
    items whose entry is the exception: each failure stays with its item."""
    try:
        return make(items)
    except errors as exc:
        if items.stop - items.start == 1:
            return [exc]
        mid = (items.start + items.stop) // 2
        return _per_item(make, slice(items.start, mid), errors) + _per_item(make, slice(mid, items.stop), errors)


class _Block(NamedTuple):
    """Trials ``first``.. of an experiment, drawn as one stack, and what each
    trial's rows share: per trial a value or the exception computing it raised."""

    config: ExperimentConfig
    first: int
    seeds: list  # trial seeds; random_symmetric derives its own from them
    channels: ChannelSet
    d_max: list  # float, or the ArithmeticError of one outside the float range
    rho: list  # per trial and SNR point: rho, or the ValueError of a non-finite reference power
    rhos: np.ndarray  # trials x points; a failed rho, which no row reports, reads 1
    bound: list  # per trial and SNR point: rate-gap bound or its exception; None if M < r
    built: dict  # (design, trial slice bounds) -> design


def _start_block(config, first, n, blocked, m=None):
    """Draw trials first..first + n - 1; m_sweep passes the RIS size, which also keys the seeds."""
    seeds = [derive_seed(config.master_seed, t) for t in range(first, first + n)]
    params, channel_seeds = config.params, seeds
    if m is not None:
        params = dataclasses.replace(params, m=m)
        channel_seeds = [derive_seed(seed, 1000 + m) for seed in seeds]
    channels = build_channel_set(config.geometry, params, channel_seeds,
                                 blocked=blocked, apply_path_loss=config.apply_path_loss)
    trials = slice(0, n)
    ceiling = _per_item(lambda t: metrics.d_max(channels.take(t)).tolist(), trials, ArithmeticError)
    rho = list(zip(*(
        [10.0 ** (snr_db / 10.0)] * n if config.snr_mode == "rho" else _per_item(
            lambda t: budget_for_reference_snr(channels.take(t), snr_db).rho.tolist(), trials, ValueError)
        for snr_db in config.snr_grid_db)))
    rhos = np.array([[1.0 if isinstance(v, Exception) else v for v in row] for row in rho])
    points, r = len(config.snr_grid_db), min(channels.n_t, channels.n_r)
    bound = [[None] * points] * n  # M < r leaves fewer values and no bound over r streams
    if channels.m >= r:  # one call over the block's (trial, point) pairs, split per pair on failure
        sf, sg = (np.repeat(s[:, :r], points, axis=0) for _, s, _ in channels.svds)
        flat = _per_item(lambda i: metrics.rate_gap_bound(sf[i], sg[i], rhos.ravel()[i]).tolist(), slice(0, n * points))
        bound = [flat[k:k + points] for k in range(0, n * points, points)]
    return _Block(config, first, seeds, channels, ceiling, rho, rhos, bound, {})


_MAKE_DESIGN = {  # design for a slice of a block's trials
    "max_det_symmetric": lambda block, items: designs.solve_maxdet(block.channels.take(items)),
    "unitary_baseline": lambda block, items: designs.unitary_baseline(block.channels.take(items)),
    "random_symmetric": lambda block, items: designs.random_symmetric_unitary(  # one trial
        block.channels.m, derive_seed(block.seeds[items.start], 101)),
    "identity": lambda block, items: (c := block.channels.take(items)).f @ c.g.conj().mT,  # F G^H, no frames
    "no_ris": lambda block, items: None,
}


def _design(block, name, items):
    """The block's design ``name`` for a slice of its trials, built once; none reads H_d."""
    key = (name, items.start, items.stop)
    if key not in block.built:
        block.built[key] = _MAKE_DESIGN[name](block, items)
    return block.built[key]


def _design_entries(block, names, values):
    """The entry of each design of ``names`` at sweep ``values`` (see ``_rows``); each is built and
    evaluated once per block.  max_det_phase_corrected is Max-Det at its corrected phases, and
    identity is evaluated on its RIS channel F G^H.  random_symmetric's M x M frames go one trial
    at a time."""

    def evaluate(name, items):
        corrected = name == "max_det_phase_corrected"
        evaluate_on = metrics.evaluate_channel if name == "identity" else metrics.evaluate_design
        channels, rhos = block.channels.take(items), block.rhos[items]
        theta = _design(block, "max_det_symmetric" if corrected else name, items)
        sigma = designs.phase_correction(channels, theta, rhos).sigma if corrected else None
        rate, det, sigma_min = evaluate_on(channels, theta, rhos, sigma=sigma)
        return list(zip(rate.tolist(), det.tolist(), sigma_min.tolist(), [None] * len(det)))

    n = len(block.seeds)
    # a stacked draw would write the same bytes, but BLOCK_TRIALS M x M complex frames are 1 GB at M = 1024
    spans = {"random_symmetric": [slice(t, t + 1) for t in range(n)]}
    return [(name, values, [value for items in spans.get(name, [slice(0, n)])
                            for value in _per_item(lambda items: evaluate(name, items), items)])
            for name in names]


def _rows(block, entries):
    """Per trial, the records of each entry at each SNR point, point-major.

    An entry is (design, its sweep value at each SNR point, per trial the outcome (rates, abs_det,
    sigma_mins, qstem residual or None; rates and sigma_mins per point) or the exception raised).  The
    first exception among the trial's d_max, its rho at the point, the outcome and the rate-gap
    bound at the point fills the error column instead of numbers; only a failed d_max empties the
    d_max cell.  A trial with no exception gets its records straight from the block's lists."""
    experiment, points = block.config.experiment, range(len(block.config.snr_grid_db))
    entries = [(design, [float(v) for v in values], outcomes) for design, values, outcomes in entries]
    rows = []
    for t, (ceiling, rho, bound) in enumerate(zip(block.d_max, block.rho, block.bound)):
        trial, number = [(design, values, outcomes[t]) for design, values, outcomes in entries], block.first + t
        if not any(isinstance(v, Exception) for v in (ceiling, *rho, *bound, *(o for _, _, o in trial))):
            rows.append([ResultRecord._make((experiment, number, design, values[p], rate[p], det, ceiling,
                                             bound[p], residual, sigma_min[p], ""))
                         for p in points for design, values, (rate, det, sigma_min, residual) in trial])
            continue
        d_max, records = None if isinstance(ceiling, Exception) else ceiling, []
        for p in points:
            for design, values, outcome in trial:
                failure = next((v for v in (ceiling, rho[p], outcome, bound[p]) if isinstance(v, Exception)), None)
                records.append(ResultRecord(experiment, number, design, values[p], None, None, d_max, None,
                                            error=f"{type(failure).__name__}: {failure}") if failure is not None else
                               ResultRecord(experiment, number, design, values[p], outcome[0][p], outcome[1], d_max,
                                            bound[p], outcome[3], outcome[2][p]))
        rows.append(records)
    return rows


def _with_reference_rows(designs_list, blocked):
    # identity and no-RIS reference rows ride along whenever the direct link exists
    forced = () if blocked else ("identity", "no_ris")
    return list(designs_list) + [d for d in forced if d not in designs_list]


def _rate_vs_snr(config, first, n):
    block = _start_block(config, first, n, config.direct_blocked)
    design_list = _with_reference_rows(config.designs, config.direct_blocked)
    return _rows(block, _design_entries(block, design_list, config.snr_grid_db))


def _direct_link_sweep(config, first, n):
    # the scaled blocks share block.built, and d_max, rho and the bounds, which do not read H_d
    block = _start_block(config, first, n, blocked=False)
    channels = block.channels
    design_list = _with_reference_rows(config.designs, blocked=False)
    return _rows(block, [entry for scale in config.direct_scale_grid for entry in _design_entries(
        block._replace(channels=channels.with_direct(scale * channels.h_direct)), design_list, [scale])])


def _qstem_sweep(config, first, n):
    """The Max-Det rows, then each trial's fully connected and q-stem rows from its Max-Det design, each on the RIS
    channel its circuit realizes.  Circuits are realized per (trial, q) on the trial's channel slice, and the block's
    RIS channels are evaluated as one stack; the blocked link's rates do not see its global phase."""
    block = _start_block(config, first, n, blocked=True)
    thetas = _per_item(lambda items: [designs.ScatteringMatrix(q) for q in
                                      _design(block, "max_det_symmetric", items).left], slice(0, n))
    circuits = [("max_det_fully_connected", config.params.m, None)] + [("qstem", q, q) for q in config.q_grid]

    def realize(channels, theta, q):  # [(RIS channel, residual)] of one trial; q None is the fully connected circuit
        if isinstance(theta, Exception):
            raise theta
        if q is None:
            return [(qstem.fully_connected_channel(channels, theta)[0], None)]
        b, residual, _ = qstem.synthesize_qstem(theta, q)
        return [(qstem.qstem_channel(channels, b), residual)]

    realized = []  # per (trial, circuit), trial-major: (RIS channel, residual) or the exception raised
    for t, theta in enumerate(thetas):
        channels = block.channels.take(t)
        realized += [r for *_, q in circuits for r in _per_item(lambda _: realize(channels, theta, q), slice(t, t + 1))]
    rhos = np.repeat(block.rhos, len(circuits), axis=0)

    def evaluate(items):  # a stack of (trial, circuit) pairs; with the link blocked the block's channels serve all
        for r in realized[items]:
            if isinstance(r, Exception):
                raise r
        h, residuals = zip(*realized[items])
        rate, det, sigma_min = metrics.evaluate_channel(block.channels, np.stack(h), rhos[items])
        return list(zip(rate.tolist(), det.tolist(), sigma_min.tolist(), residuals))

    outcomes = _per_item(evaluate, slice(0, len(realized)))
    return _rows(block, _design_entries(block, ("max_det_symmetric",), [0.0]) + [
        (design, [value], outcomes[k::len(circuits)]) for k, (design, value, _) in enumerate(circuits)])


def _m_sweep(config, first, n):
    per_m = []
    for m in config.m_grid:
        block = _start_block(config, first, n, blocked=True, m=m)
        per_m.append(_rows(block, _design_entries(block, config.designs, [m])))
    return [[rec for rows in trial for rec in rows] for trial in zip(*per_m)]  # per trial, each M in turn


def _det_family(config, first, n):
    block = _start_block(config, first, n, blocked=True)
    channels, phis = block.channels, np.asarray(config.phi_grid)
    rotations = np.tile(np.eye(min(channels.n_t, channels.n_r), dtype=complex), (phis.size, 1, 1))
    rotations[:, 0, 0] = rotations[:, 1, 1] = np.cos(phis)  # planar rotations by phi
    rotations[:, 0, 1], rotations[:, 1, 0] = -np.sin(phis), np.sin(phis)

    def rotated(items):  # items run over (trial, phi) pairs, BLOCK_TRIALS to a stack
        pairs = np.arange(items.start, items.stop)
        trials = channels.take(pairs // phis.size)
        theta = designs.rotated_family(trials, rotations[pairs % phis.size])
        rate, det, sigma_min = metrics.evaluate_design(trials, theta, block.rhos[pairs // phis.size])
        return list(zip(rate.tolist(), det.tolist(), sigma_min.tolist(), [None] * pairs.size))

    outcomes = [value for first in range(0, n * phis.size, BLOCK_TRIALS)
                for value in _per_item(rotated, slice(first, min(first + BLOCK_TRIALS, n * phis.size)))]
    return _rows(block, _design_entries(block, ("max_det_symmetric", "unitary_baseline"), [0.0]) + [
        ("rotated", [phi], outcomes[k::phis.size]) for k, phi in enumerate(config.phi_grid)])


_BLOCK_RUNNERS = {
    "rate_vs_snr": _rate_vs_snr,
    "direct_link_sweep": _direct_link_sweep,
    "qstem_sweep": _qstem_sweep,
    "m_sweep": _m_sweep,
    "det_family": _det_family,
}


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[ResultRecord]:
    """Run the experiment's trials in the fewest equal blocks of at most
    BLOCK_TRIALS, in order, and return the records trial-major.  Trials own
    derived seeds, so the block size changes no byte.  ``threads`` must be 1.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}: blocks run on the calling thread")
    count = -(-config.trials // BLOCK_TRIALS)
    size = -(-config.trials // count)
    run_block = _BLOCK_RUNNERS[config.experiment]
    return [rec for first in range(0, config.trials, size)
            for trial in run_block(config, first, min(size, config.trials - first)) for rec in trial]


# ---------------------------------------------------------------------------
# Output


# 17 significant digits: every double reads back as itself.  "%.0s" writes None as "".
_FLOAT = "%.17g"
_TEXT, _NUMBER = {str: "%s"}, {float: _FLOAT, np.float64: _FLOAT, type(None): "%.0s"}
_COLUMN_CELLS = (_TEXT, {int: "%d"}, _TEXT) + (_NUMBER,) * 7 + (_TEXT,)


def _row_template(rec):
    """The %-template of the rows shaped as tuple ``rec`` (cell types, experiment, design),
    or "" if a cell is not of its column's type or the experiment or design needs quoting."""
    cells = [column.get(type(value)) for column, value in zip(_COLUMN_CELLS, rec)]
    if not isinstance(rec, tuple) or len(cells) != len(rec) or None in cells or \
            any(c in rec[0] + rec[2] for c in ',"\r\n'):
        return ""
    return ",".join(cells) + "\n"


def emit_csv(records, path) -> None:
    """Write records as UTF-8 RFC-4180 CSV with 17-significant-digit floats."""
    if not records:
        raise ValueError("no records to write")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_csv(records, fh)


def _cell(value):
    """A cell's text, None -> "", float -> %.17g, else str, quoted as csv.writer quotes it when it
    holds a comma, a quote or \\n; and also when it holds \\r, which csv.writer with \\n line ends
    leaves bare, so that a reader would split the row there."""
    text = "" if value is None else _FLOAT % value if isinstance(value, float) else str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _write_csv(records, fh):
    """The rows of ``records`` under a header, with \\n line ends.  A row is one % of its shape's
    template; one without a template or with an error is joined from its ``_cell``s."""
    lines, templates = [",".join(CSV_COLUMNS) + "\n"], {}
    for rec in records:
        key = (type(rec), rec[0], rec[2], *map(type, rec))
        template = templates.get(key)
        if template is None:
            template = templates[key] = _row_template(rec)
        lines.append(template % rec if template and not rec[-1] else ",".join(map(_cell, rec)) + "\n")
    fh.write("".join(lines))


def csv_bytes(records) -> bytes:
    buf = io.StringIO()
    _write_csv(records, buf)
    return buf.getvalue().encode("utf-8")


def write_susceptance_csv(b: "qstem.SusceptanceMatrix", fh) -> None:
    """Susceptance matrix as CSV with a '# qstem q=<q> M=<M> Z0=<z0>' header."""
    fh.write(("# qstem q=%s M=%s Z0=" + _FLOAT + "\n") % (b.q, b.m, b.z0))
    template = ",".join([_FLOAT] * b.m) + "\n"
    fh.write("".join(template % tuple(row) for row in np.asarray(b.b, dtype=float).tolist()))


def m_sweep_summary(records) -> dict[int, float]:
    """Per-M mean of sigma_min(H) / M for the Max-Det rows of an m_sweep run."""
    if not records or any(rec.experiment != "m_sweep" for rec in records):
        raise ValueError("summary requires records from an m_sweep experiment")
    groups: dict[int, list[float]] = {}
    for rec in records:
        if rec.design == "max_det_symmetric" and rec.sigma_min_h is not None:
            groups.setdefault(int(rec.sweep_value), []).append(rec.sigma_min_h)
    return {m: float(np.mean(vals)) / m for m, vals in sorted(groups.items())}
