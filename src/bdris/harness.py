"""Experiment runner: flat-text configs, seeded Monte-Carlo trials, CSV output.

Config format: ``key = value`` lines.  Blank lines are skipped and anything
after ``#`` is a comment.  ``[section]`` headers are allowed for grouping but
keys live in one global namespace.  Each key is a field of ExperimentConfig,
Geometry or ChannelParams, read by the parser of its annotation.  Lists are
comma-separated; a grid entry passes the check of its scalar field, and an
snr_grid_db entry that of ``channel.linear_snr``.  Unknown keys, duplicate
keys, malformed values and a repeated entry of ``designs`` or a grid list are
rejected with the offending line number.

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

Trial t draws its generator seed from a SplitMix64 hash of (master_seed, t);
blocks of at most BLOCK_TRIALS trials run in order on the calling thread, and
the block size changes no byte.  A row holds a trial's outcome of a variant (a
design at a direct-link scale, a circuit or a rotation, at its sweep value) at
an SNR point.  A trial whose d_max, or rho at every point, failed is decided:
no variant is made for it.  A stack is a run of the other trials, carrying
every variant of a call; a design it builds is dropped with it, but Max-Det:
the block keeps each stack it solved and serves any slice of one as its
frames, so a run of live trials is solved once unless that solve fails.  A
stack that raises is halved by its trials, and a single failing trial by its
variants, and no call is made twice, so each failure stays in its pair's rows:
a row whose trial's d_max, rho at its point, outcome or rate-gap bound there
failed holds the first such error in place of numbers; only a failed d_max
empties the d_max cell.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import typing
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
    linear_snr,
)
from .linalg import _check_counts


class ConfigError(ValueError):
    """Invalid experiment configuration; ``key`` names the config key whose value is at fault, where one does."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings, checked when built (``_validate``); the defaults are those every
    experiment shares, and _EXPERIMENTS holds what differs per experiment."""

    experiment: str
    geometry: Geometry = Geometry()
    params: ChannelParams = ChannelParams()
    snr_grid_db: tuple[float, ...] = (10.0,)
    direct_scale_grid: tuple[float, ...] = (1e-3, 1.0, 20.0)
    q_grid: tuple[int, ...] = tuple(range(1, 11))
    m_grid: tuple[int, ...] = (16, 64)
    phi_grid: tuple[float, ...] = tuple(np.linspace(0.0, np.pi / 2, 31))
    trials: int = 200
    master_seed: int = 0
    designs: tuple[str, ...] = ()
    output_path: str = "results.csv"
    direct_blocked: bool = True
    apply_path_loss: bool = True
    snr_mode: str = "reference"

    def __post_init__(self):
        _validate(self)


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


def _parse_list(parse):
    """A parser of comma-separated entries, each read by ``parse``."""
    def parse_list(s):
        items = [t.strip() for t in s.split(",")]
        if not all(items):
            raise ValueError("empty list item")
        return tuple(map(parse, items))
    return parse_list


def _parse_vec3(s):
    v = _parse_list(_parse_float)(s)
    if len(v) != 3:
        raise ValueError(f"expected 3 coordinates, got {len(v)}")
    return v


_TYPE_PARSERS = {  # the parser of each field annotation
    int: _parse_int, float: _parse_float, bool: _parse_bool, str: str,
    tuple[float, float, float]: _parse_vec3, tuple[float, ...]: _parse_list(_parse_float),
    tuple[int, ...]: _parse_list(_parse_int), tuple[str, ...]: _parse_list(str.lower)}


def _key_parsers(*classes):
    """Each field of ``classes`` but ``geometry`` and ``params`` (which hold the other classes) as a
    key, read by the parser of its annotation; a field whose annotation has none fails the import."""
    hints = {f.name: types[f.name] for cls in classes for types in [typing.get_type_hints(cls)]
             for f in dataclasses.fields(cls) if f.name not in ("geometry", "params")}
    if unparsed := [f"{name}: {hint}" for name, hint in hints.items() if hint not in _TYPE_PARSERS]:
        raise TypeError(f"no config parser for the annotation of {', '.join(unparsed)}")
    return {name: _TYPE_PARSERS[hint] for name, hint in hints.items()}


_KEY_PARSERS = _key_parsers(ExperimentConfig, Geometry, ChannelParams)
# each grid entry passes the check of its scalar: its linear SNR, or ChannelParams' direct_scale and m
_ENTRY_CHECKS = {"snr_grid_db": linear_snr, "direct_scale_grid": lambda v: ChannelParams(direct_scale=v),
                 "m_grid": lambda v: ChannelParams(m=v)}


def _scan(text):
    values, lines = {}, {}
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
    return values, lines


def _pop_fields(cls, values):
    return {f.name: values.pop(f.name) for f in dataclasses.fields(cls) if f.name in values}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config document; unset keys take the defaults of Geometry, ChannelParams,
    ExperimentConfig and the experiment (its ``_EXPERIMENTS`` entry), and the config checks itself."""
    values, lines = _scan(text)
    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    entry = _EXPERIMENTS.get(values["experiment"], _Experiment(None, None, {}))  # an unknown one fails its check
    link = {} if entry.blocked is None else {"direct_blocked": entry.blocked}
    try:
        geometry = Geometry(**_pop_fields(Geometry, values))
        params = ChannelParams(**_pop_fields(ChannelParams, values))
        return ExperimentConfig(geometry=geometry, params=params, **{**link, **entry.defaults, **values})
    except ConfigError as exc:  # a faulty value of a key is reported at the key's line
        raise ConfigError(f"line {lines[exc.key]}: {exc}") if exc.key in lines else exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _validate(config: ExperimentConfig):
    exp = config.experiment
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}; choose from {EXPERIMENTS}")
    try:
        _check_counts(trials=config.trials, master_seed=config.master_seed,
                      **{f"{key}[{i}]": v for key in ("m_grid", "q_grid") for i, v in enumerate(getattr(config, key))})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key in (key for key in _KEY_PARSERS if key == "designs" or "_grid" in key):  # each entry labels its rows
        try:
            entries = getattr(config, key)
            if not entries and (key != "designs" or "designs" in _EXPERIMENTS[exp].defaults):  # no rows of its kind
                raise ValueError("the list is empty")
            for entry in entries if key in _ENTRY_CHECKS else ():
                _ENTRY_CHECKS[key](entry)
            if len(set(entries)) < len(entries):
                raise ValueError(f"{next(v for i, v in enumerate(entries) if v in entries[:i])!r} is repeated")
        except ValueError as exc:
            raise ConfigError(f"invalid value for {key!r}: {exc}", key) from exc
    if config.trials < 1:
        raise ConfigError("trials must be >= 1")
    if config.snr_mode not in ("reference", "rho"):
        raise ConfigError("snr_mode must be 'reference' or 'rho'")

    blocked = _EXPERIMENTS[exp].blocked
    if exp != "rate_vs_snr" and len(config.snr_grid_db) > 1:
        raise ConfigError(f"{exp} evaluates one SNR point; snr_grid_db has {len(config.snr_grid_db)}")
    if config.designs and "designs" not in _EXPERIMENTS[exp].defaults:
        raise ConfigError(f"designs are fixed for {exp}; remove the 'designs' key")
    if unknown := [d for d in config.designs if d not in SELECTABLE_DESIGNS]:
        raise ConfigError(f"unknown designs {unknown}; choose from {SELECTABLE_DESIGNS}")
    if "max_det_phase_corrected" in config.designs and (config.direct_blocked or blocked):
        raise ConfigError("max_det_phase_corrected requires a direct link: " + (
            f"{exp} always blocks it" if blocked else "set direct_blocked = false"))

    if blocked is not None and config.direct_blocked != blocked:
        raise ConfigError(f"{exp} always blocks the direct link; remove direct_blocked = false" if blocked
                          else f"{exp} requires direct_blocked = false")
    if exp == "qstem_sweep":
        if bad := [q for q in config.q_grid if not 1 <= q <= config.params.m]:
            raise ConfigError(f"q values {bad} outside [1, m={config.params.m}]")
    if exp == "det_family" and min(config.params.n_t, config.params.n_r) < 2:
        raise ConfigError("det_family needs at least 2 spatial streams (r >= 2)")


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# Experiment execution


# The most trials in a block, and so in a stack (see the module docstring); a stack's largest arrays, the
# Max-Det frames, are BLOCK_TRIALS x M x 2r (8 MB at M = 1024, r = 4).
BLOCK_TRIALS = 64


def _bisect(make, trials, variants, errors=Exception):
    """``make(trials, variants)`` for a slice of a block's trials and a slice of their variants: per trial, a list with
    an entry per variant.  Where it raises, the lists of its halves by trials, and at a single trial of its halves by
    variants, down to single pairs whose entry is the exception: each failure stays with its pair, and no call is
    made twice."""
    try:
        return make(trials, variants)
    except errors as exc:
        bisect = functools.partial(_bisect, make, errors=errors)
        if trials.stop - trials.start > 1:
            mid = (trials.start + trials.stop) // 2
            return bisect(slice(trials.start, mid), variants) + bisect(slice(mid, trials.stop), variants)
        if variants.stop - variants.start == 1:
            return [[exc]]
        mid = (variants.start + variants.stop) // 2
        return [bisect(trials, slice(variants.start, mid))[0] + bisect(trials, slice(mid, variants.stop))[0]]


class _Block(NamedTuple):
    """Trials ``first``.. of an experiment, drawn as one stack, and what each
    trial's rows share: per trial a value or the exception computing it raised."""

    config: ExperimentConfig
    first: int
    seeds: list  # trial seeds; random_symmetric derives its own from them
    channels: ChannelSet
    d_max: list  # float, or the ArithmeticError of one outside the float range
    failed: list  # per trial and SNR point: the failure of its d_max, else of its rho there, or None
    rhos: np.ndarray  # trials x points; a failed rho, which no row reports, reads 1
    bound: list  # per trial and SNR point: rate-gap bound or its exception; None if M < r
    maxdet: dict  # trial slice bounds -> the Max-Det design of a stack, which other rows are made from


def _start_block(config, first, n, m=None):
    """Draw trials first..first + n - 1; m_sweep passes the RIS size, which also keys the seeds."""
    seeds = [derive_seed(config.master_seed, t) for t in range(first, first + n)]
    params, channel_seeds = config.params, seeds
    if m is not None:
        params = dataclasses.replace(params, m=m)
        channel_seeds = [derive_seed(seed, 1000 + m) for seed in seeds]
    channels = build_channel_set(config.geometry, params, channel_seeds,
                                 blocked=config.direct_blocked, apply_path_loss=config.apply_path_loss)
    ceiling = [c for (c,) in _bisect(lambda t, _: metrics.d_max(channels.take(t))[:, None].tolist(),
                                    slice(0, n), slice(0, 1), ArithmeticError)]  # one variant: the trial's d_max
    points, r, grid = len(config.snr_grid_db), min(channels.n_t, channels.n_r), np.array(config.snr_grid_db)
    rhos = np.ones((n, points))  # a failed rho, which no row reports, reads 1

    def budgets(items, at):  # rho of a slice of the trials at the points ``at``
        rhos[items, at] = (list(map(linear_snr, grid[at])) if config.snr_mode == "rho" else  # valid (_validate)
                           budget_for_reference_snr(channels.take(items), grid[at]).rho)
        return rhos[items, at].tolist()

    whole = slice(0, n), slice(0, points)  # one call for the block: a failing trial per point
    rho, bound = _bisect(budgets, *whole, ValueError), [[None] * points] * n  # M < r leaves no bound over r streams
    if channels.m >= r:  # each trial's r values against its rho at every point
        sf, sg = (s[:, None, :r] for _, s, _ in channels.svds)
        bound = _bisect(lambda t, at: metrics.rate_gap_bound(sf[t], sg[t], rhos[t, at]).tolist(), *whole)
    failed = [[_error(c) or _error(v) for v in row] for c, row in zip(ceiling, rho)]
    return _Block(config, first, seeds, channels, ceiling, failed, rhos, bound, {})


def _maxdet(block, trials):
    """The Max-Det design of a slice of the block's trials: the frames of a stack solved before that holds the slice
    (byte-equal to a fresh solve), else a solve kept for the block, so a run of live trials is solved once."""
    for (start, stop), design in block.maxdet.items():
        if start <= trials.start and trials.stop <= stop:
            return design if (start, stop) == (trials.start, trials.stop) else designs.ScatteringMatrix(
                design.left[trials.start - start:trials.stop - start])
    block.maxdet[trials.start, trials.stop] = design = designs.solve_maxdet(block.channels.take(trials))
    return design


_MAKE_DESIGN = {  # the designs a config may request, each for a slice of a block's trials
    "max_det_symmetric": _maxdet,
    "max_det_phase_corrected": _maxdet,  # Max-Det itself, evaluated at its corrected phases
    "unitary_baseline": lambda block, items: designs.unitary_baseline(block.channels.take(items)),
    "random_symmetric": lambda block, items: np.stack([metrics.ris_channel(  # its RIS channel, a frame at a time
        block.channels.take(t), designs.random_symmetric_unitary(block.channels.m, derive_seed(block.seeds[t], 101)))
        for t in range(items.start, items.stop)]),
    "identity": lambda block, items: (c := block.channels.take(items)).f @ c.g.conj().mT,  # F G^H, no frames
    "no_ris": lambda block, items: None,
}
SELECTABLE_DESIGNS = tuple(_MAKE_DESIGN)


def _per_live_trial(block, variants, make):
    """Per variant (design, sweep values), the entry ``_rows`` reads: (design, the values as floats, per trial the
    outcome, the exception raised or the decided trial's failure).  ``make(trials, at)`` gives per variant of ``at``
    its (rates, abs_det, sigma_mins[, qstem residuals]) over a stack of live trials (see the module docstring)."""
    decided = [failed[0] if all(failed) else None for failed in block.failed]
    outcomes = [[failure] * len(variants) for failure in decided]

    def evaluate(trials, at):  # per trial, its outcome of each variant of ``at``
        per_variant = [zip(rate.tolist(), det.tolist(), sigma_min.tolist(), *(residuals or [[None] * len(det)]))
                       for rate, det, sigma_min, *residuals in make(trials, at)]
        return list(map(list, zip(*per_variant)))

    for live, run in itertools.groupby(range(len(decided)), lambda t: decided[t] is None):
        if live:
            run = list(run)
            trials = slice(run[0], run[-1] + 1)
            outcomes[trials] = _bisect(evaluate, trials, slice(0, len(variants)))
    return [(design, list(map(float, values)), column) for (design, values), column in zip(variants, zip(*outcomes))]


def _design_entries(block, names, sweeps):
    """The entry of each design of ``names`` at each of ``sweeps`` (see ``_rows``), sweep-major: a sweep is its values
    and the block's channels there.  max_det_phase_corrected is evaluated at its corrected phases, and identity and
    random_symmetric on their RIS channels.  random_symmetric's M x M frames go one trial at a time, each dropped once
    its RIS channel is formed: a block's stacked draw would write the same bytes, but is 1 GB at M = 1024."""

    def make(name, trials, at):  # the design of the stack's trials, evaluated on their channels at each sweep of ``at``
        rhos, theta = block.rhos[trials], _MAKE_DESIGN[name](block, trials)
        evaluate_on = metrics.evaluate_channel if name in ("identity", "random_symmetric") else metrics.evaluate_design
        corrected = name == "max_det_phase_corrected"
        return [evaluate_on(c, theta, rhos, sigma=designs.phase_correction(c, theta, rhos).sigma if corrected else None)
                for c in (channels.take(trials) for _, channels in sweeps[at])]

    per_design = [_per_live_trial(block, [(name, values) for values, _ in sweeps], functools.partial(make, name))
                  for name in names]
    return [entry for entries in zip(*per_design) for entry in entries]


def _error(value):
    return value if isinstance(value, Exception) else None


def _rows(block, entries):
    """Per trial, the records of each entry (see ``_per_live_trial``) at each SNR point, point-major."""
    experiment, points = block.config.experiment, range(len(block.config.snr_grid_db))
    rows = []
    for t, (ceiling, before, bound) in enumerate(zip(block.d_max, block.failed, block.bound)):
        number, d_max = block.first + t, None if isinstance(ceiling, Exception) else ceiling
        trial = [(design, values, outcomes[t], _error(outcomes[t])) for design, values, outcomes in entries]
        rows.append([ResultRecord(experiment, number, design, values[p], None, None, d_max, None,
                                  error=f"{type(failure).__name__}: {failure}")
                     if (failure := before[p] or error or _error(bound[p])) is not None else
                     ResultRecord._make((experiment, number, design, values[p], outcome[0][p], outcome[1], d_max,
                                         bound[p], outcome[3], outcome[2][p], ""))
                     for p in points for design, values, outcome, error in trial])
    return rows


def _with_reference_rows(config):
    # identity and no-RIS reference rows ride along whenever the direct link exists
    forced = () if config.direct_blocked else ("identity", "no_ris")
    return list(config.designs) + [d for d in forced if d not in config.designs]


def _rate_vs_snr(config, first, n):
    block = _start_block(config, first, n)
    return _rows(block, _design_entries(block, _with_reference_rows(config), [(config.snr_grid_db, block.channels)]))


def _direct_link_sweep(config, first, n):
    # each scale of H_d is a variant of each design; no design, and none of d_max, rho and the bounds, reads H_d
    block = _start_block(config, first, n)
    return _rows(block, _design_entries(block, _with_reference_rows(config), [
        ([scale], block.channels.with_direct(scale * block.channels.h_direct)) for scale in config.direct_scale_grid]))


def _qstem_sweep(config, first, n):
    """The Max-Det rows, then each trial's fully connected and q-stem rows from its Max-Det design, each on the RIS
    channel its circuit realizes; the blocked link's rates do not see its global phase."""
    block = _start_block(config, first, n)
    circuits = [("max_det_fully_connected", [config.params.m])] + [("qstem", [q]) for q in config.q_grid]
    realized = {}  # (trial, circuit) -> RIS channel and residual, kept for the block: a split stack re-evaluates them

    def realize(trials, at):  # each circuit of ``at`` over the stack's trials
        for t, frame in enumerate(_maxdet(block, trials).left, trials.start):
            if todo := [c for c in range(at.start, at.stop) if (t, c) not in realized]:
                channels, theta = block.channels.take(t), designs.ScatteringMatrix(frame)  # once per trial
                for c in todo:
                    design, (q,) = circuits[c]
                    if design == "qstem":
                        b, residual, _ = qstem.synthesize_qstem(theta, q)
                        realized[t, c] = qstem.qstem_channel(channels, b), residual
                    else:  # the fully connected circuit
                        realized[t, c] = qstem.fully_connected_channel(channels, theta)[0], None
        stack = range(trials.start, trials.stop)
        h, residuals = zip(*[zip(*[realized[t, c] for t in stack]) for c in range(at.start, at.stop)])  # per circuit
        return list(zip(*metrics.evaluate_channel(block.channels, np.array(h), block.rhos[trials]), residuals))

    return _rows(block, _design_entries(block, ("max_det_symmetric",), [([0.0], block.channels)]) + _per_live_trial(
        block, circuits, realize))


def _m_sweep(config, first, n):
    per_m = []
    for m in config.m_grid:
        block = _start_block(config, first, n, m=m)
        per_m.append(_rows(block, _design_entries(block, config.designs, [([m], block.channels)])))
    return [[rec for rows in trial for rec in rows] for trial in zip(*per_m)]  # per trial, each M in turn


def _det_family(config, first, n):
    block = _start_block(config, first, n)
    rotations = np.tile(np.eye(min(config.params.n_t, config.params.n_r), dtype=complex), (len(config.phi_grid), 1, 1))
    rotations[:, 0, 0] = rotations[:, 1, 1] = np.cos(config.phi_grid)  # planar rotations by phi
    rotations[:, 0, 1], rotations[:, 1, 0] = -np.sin(config.phi_grid), np.sin(config.phi_grid)

    def rotated(trials, at):  # each rotation of ``at`` over the stack's trials
        channels, rhos = block.channels.take(trials), block.rhos[trials]
        return [metrics.evaluate_design(channels, designs.rotated_family(channels, rotation), rhos)
                for rotation in rotations[at]]

    return _rows(block, _design_entries(block, ("max_det_symmetric", "unitary_baseline"), [([0.0], block.channels)])
                 + _per_live_trial(block, [("rotated", [phi]) for phi in config.phi_grid], rotated))


class _Experiment(NamedTuple):
    run: typing.Callable  # (config, first, n) -> per trial of the block, its records
    blocked: bool | None  # its direct link: True blocked, False open, None the config's direct_blocked
    defaults: dict  # the ExperimentConfig fields it sets otherwise; without designs, its rows are fixed


_UNIT_VARIANCE = dict(apply_path_loss=False, snr_mode="rho")  # grid values are rho in dB

_EXPERIMENTS = {
    "rate_vs_snr": _Experiment(_rate_vs_snr, None, dict(designs=("unitary_baseline", "max_det_symmetric"),
                                                        snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0))),
    "direct_link_sweep": _Experiment(_direct_link_sweep, False, dict(
        designs=("max_det_symmetric", "max_det_phase_corrected", "random_symmetric"))),
    "qstem_sweep": _Experiment(_qstem_sweep, True, {}),
    "m_sweep": _Experiment(_m_sweep, True, dict(designs=("unitary_baseline", "max_det_symmetric"), **_UNIT_VARIANCE)),
    "det_family": _Experiment(_det_family, True, dict(snr_grid_db=(0.0,), **_UNIT_VARIANCE)),
}

EXPERIMENTS = tuple(_EXPERIMENTS)


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[ResultRecord]:
    """Run the experiment's trials in the fewest equal blocks (see the module
    docstring) and return the records trial-major.  ``threads`` must be 1."""
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}: blocks run on the calling thread")
    count = -(-config.trials // BLOCK_TRIALS)
    size = -(-config.trials // count)
    run_block = _EXPERIMENTS[config.experiment].run
    return [rec for first in range(0, config.trials, size)
            for trial in run_block(config, first, min(size, config.trials - first)) for rec in trial]


# ---------------------------------------------------------------------------
# Output


# 17 significant digits: every double reads back as itself.
_FLOAT = "%.17g"
_FLOAT_CELLS = {float, np.float64, type(None)}


def emit_csv(records, path) -> None:
    """Write records as UTF-8 RFC-4180 CSV with 17-significant-digit floats; see ``_csv_text``."""
    if not records:
        raise ValueError("no records to write")
    text = _csv_text(records)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _cell(value):
    """A cell's text, None -> "", float -> %.17g, else str, quoted as csv.writer quotes it when it
    holds a comma, a quote or \\n; and also when it holds \\r, which csv.writer with \\n line ends
    leaves bare, so that a reader would split the row there.  A mixed column takes it per cell."""
    text = "" if value is None else _FLOAT % value if isinstance(value, float) else str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _column_text(column):
    """Each cell of a column as text, each distinct cell formatted once: floats and None as %.17g and "",
    only str or only int by ``_cell``.  A dict merges 1, 1.0 and True, 10**20 and 1e20, 0.0 and -0.0, so
    types are read off every cell, and a mixed column, or one with both zeros, takes ``_cell`` per cell."""
    kinds, text = set(map(type, column)), dict.fromkeys(column)
    if kinds <= _FLOAT_CELLS and not (
            0.0 in text and len({math.copysign(1, v) for v in column if v == 0}) > 1):
        text = {v: "" if v is None else _FLOAT % v for v in text}
    elif kinds in ({str}, {int}):
        text = {v: _cell(v) for v in text}
    else:
        return list(map(_cell, column))
    return list(map(text.__getitem__, column))


def _csv_text(records):
    """The records as rows under a header, with \\n line ends: one transpose, each column's text from
    ``_column_text``, then the rows joined.  A record of another width raises ValueError."""
    if set(map(len, records)) - {len(CSV_COLUMNS)}:
        index = next(i for i, rec in enumerate(records) if len(rec) != len(CSV_COLUMNS))
        raise ValueError(f"record {index} has {len(records[index])} cells, expected {len(CSV_COLUMNS)}")
    rows = map(",".join, zip(*map(_column_text, zip(*records))))
    return "\n".join([",".join(CSV_COLUMNS), *rows, ""])


def csv_bytes(records) -> bytes:
    """The bytes ``emit_csv`` writes for ``records``; the header alone for no records."""
    return _csv_text(records).encode("utf-8")


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
