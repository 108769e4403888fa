import csv
import dataclasses
import io
import math
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bdris
from bdris import designs, harness, metrics
from bdris.channel import ChannelParams, Geometry
from bdris.harness import (
    CSV_COLUMNS,
    EXPERIMENTS,
    SELECTABLE_DESIGNS,
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    csv_bytes,
    emit_csv,
    load_config,
    m_sweep_summary,
    parse_config,
    run_experiment,
    write_susceptance_csv,
)
from bdris.qstem import SusceptanceMatrix

from conftest import d_max_underflow_config, defective_maxdet_frame


class TestParseConfig:
    def test_minimal_applies_scenario_defaults(self):
        config = parse_config("experiment = rate_vs_snr\n")
        assert config.experiment == "rate_vs_snr"
        assert config.geometry.tx_pos == (0.0, 0.0, 1.5)
        assert config.geometry.ris_pos == (5.0, 3.0, 3.0)
        assert config.geometry.rx_pos == (50.0, 0.0, 1.5)
        assert config.params.rician_k == 2.0
        assert config.params.alpha_ris == 2.0
        assert config.params.alpha_direct == 4.0
        assert config.trials == 200
        assert config.direct_blocked is True
        assert config.snr_mode == "reference"

    def test_sections_and_comments(self):
        text = """
        # scenario
        experiment = m_sweep   # sweep the element count
        [params]
        n_t = 2
        n_r = 2
        rician_k = 0
        [grids]
        m_grid = 8, 32
        """
        config = parse_config(text)
        assert config.params.n_t == 2
        assert config.m_grid == (8, 32)
        assert config.apply_path_loss is False  # unit-variance default for m_sweep
        assert config.snr_mode == "rho"

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config("experiment = rate_vs_snr\ntrials = 0\n")

    def test_duplicate_key_names_key_and_lines(self):
        with pytest.raises(ConfigError, match="duplicate key 'trials'"):
            parse_config("experiment = rate_vs_snr\ntrials = 5\ntrials = 6\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'budget'"):
            parse_config("experiment = rate_vs_snr\nbudget = 3\n")

    def test_malformed_number_reports_line(self):
        cases = [
            ("trials", "many"),
            ("rician_k", "inf"),
            ("alpha_ris", "nan"),
            ("direct_scale", "nan"),
            ("snr_grid_db", "0, inf"),
            ("snr_grid_db", "10, -4000"),
            ("snr_grid_db", "4000"),
            ("direct_scale_grid", "-1, 2"),  # as direct_scale = -1 is rejected
            ("q_grid", "1, 2.5"),
            ("rx_pos", "50, -inf, 1.5"),
        ]
        for key, value in cases:
            with pytest.raises(ConfigError, match=f"line 2: invalid value for '{key}'"):
                parse_config(f"experiment = rate_vs_snr\n{key} = {value}\n")

    @pytest.mark.parametrize("experiment,key,value,repeated", [
        ("rate_vs_snr", "designs", "max_det_symmetric, unitary_baseline, Max_Det_Symmetric", "'max_det_symmetric'"),
        ("rate_vs_snr", "snr_grid_db", "0, 10, 10", "10.0"),
        ("direct_link_sweep", "direct_scale_grid", "1, 0.5, 1.0", "1.0"),
        ("qstem_sweep", "q_grid", "3, 3", "3"),
        ("m_sweep", "m_grid", "16, 16", "16"),
        ("det_family", "phi_grid", "0, 0.5, -0.0", "-0.0"),
    ])
    def test_rejects_a_repeated_list_entry(self, experiment, key, value, repeated):
        # each entry labels its own CSV rows: a repeat would write identical duplicate rows
        with pytest.raises(ConfigError, match=f"line 2: invalid value for '{key}': {repeated} is repeated"):
            parse_config(f"experiment = {experiment}\n{key} = {value}\n")

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("trials = 5\n")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config("experiment = warp_drive\n")

    def test_bad_designs_rejected(self):
        with pytest.raises(ConfigError, match="unknown designs"):
            parse_config("experiment = rate_vs_snr\ndesigns = max_det_symmetric, psychic\n")

    def test_phase_correction_needs_direct_link(self):
        with pytest.raises(ConfigError, match="direct_blocked"):
            parse_config("experiment = rate_vs_snr\ndesigns = max_det_phase_corrected\n")

    def test_m_sweep_rejects_phase_correction(self):
        # m_sweep always blocks the direct link, whatever direct_blocked says
        with pytest.raises(ConfigError, match="m_sweep always blocks it"):
            parse_config("experiment = m_sweep\ntrials = 1\ndirect_blocked = false\n"
                         "designs = max_det_phase_corrected, max_det_symmetric\n")

    @pytest.mark.parametrize("experiment", ["m_sweep", "qstem_sweep", "det_family"])
    def test_blocked_only_experiments_reject_direct_link(self, experiment):
        # each of them runs blocked-link trials, so the key would be ignored
        with pytest.raises(ConfigError, match=f"{experiment} always blocks the direct link"):
            parse_config(f"experiment = {experiment}\ntrials = 1\ndirect_blocked = false\n")
        assert parse_config(f"experiment = {experiment}\ntrials = 1\ndirect_blocked = true\n").direct_blocked

    def test_q_grid_bounds_checked(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("experiment = qstem_sweep\nm = 8\nq_grid = 1, 9\n")

    def test_det_family_needs_two_streams(self):
        with pytest.raises(ConfigError, match="r >= 2"):
            parse_config("experiment = det_family\nn_t = 1\n")

    def test_malformed_lines(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("this is not a config\n")
        with pytest.raises(ConfigError, match="section"):
            parse_config("[oops\nexperiment = rate_vs_snr\n")

    @pytest.mark.parametrize("experiment", ["direct_link_sweep", "qstem_sweep", "m_sweep", "det_family"])
    def test_single_point_experiments_reject_snr_grids(self, experiment):
        with pytest.raises(ConfigError, match=f"{experiment} evaluates one SNR point; snr_grid_db has 3"):
            parse_config(f"experiment = {experiment}\nsnr_grid_db = 0, 10, 20\n")

    def test_unknown_snr_mode(self):
        with pytest.raises(ConfigError, match="snr_mode"):
            parse_config("experiment = rate_vs_snr\nsnr_mode = db\n")

    def test_zero_z0_rejected(self):
        # z0 is not a config key: rates, |det| and residuals do not depend on it
        for value in ("0", "nan", "50"):
            with pytest.raises(ConfigError, match="line 2: unknown key 'z0'"):
                parse_config(f"experiment = qstem_sweep\nz0 = {value}\n")

    def test_integer_grids_parse_as_integer_keys(self):
        # q_grid and m_grid entries read like trials: base prefixes included
        assert parse_config("experiment = qstem_sweep\ntrials = 0x3\nq_grid = 0x3, 0b101\n").q_grid == (3, 5)
        assert parse_config("experiment = m_sweep\nm_grid = 0x10, 32\n").m_grid == (16, 32)

    @pytest.mark.parametrize("experiment", ["qstem_sweep", "det_family"])
    def test_fixed_row_experiments_reject_designs(self, experiment):
        with pytest.raises(ConfigError, match=f"designs are fixed for {experiment}"):
            parse_config(f"experiment = {experiment}\ndesigns = max_det_symmetric\n")

    def test_direct_link_sweep_needs_direct_link(self):
        with pytest.raises(ConfigError, match="direct_link_sweep requires direct_blocked = false"):
            parse_config("experiment = direct_link_sweep\ndirect_blocked = true\n"
                         "designs = max_det_symmetric\n")

    def test_m_grid_entries_at_least_one(self):
        # a grid entry fails as its scalar field would
        for experiment, key, value, message in [
            ("m_sweep", "m_grid", "8, 0", "antenna and element counts must be >= 1"),
            ("direct_link_sweep", "direct_scale_grid", "1, -0.5", "direct_scale must be nonnegative"),
            ("rate_vs_snr", "snr_grid_db", "10, -4000", "-4000 dB under- or overflows the linear SNR"),
        ]:
            with pytest.raises(ConfigError, match=f"line 2: invalid value for '{key}': {message}"):
                parse_config(f"experiment = {experiment}\n{key} = {value}\n")

    @pytest.mark.parametrize(
        "key", ["designs", "snr_grid_db", "direct_scale_grid", "q_grid", "m_grid", "phi_grid"])
    def test_empty_list_rejected_by_parser(self, key):
        with pytest.raises(ConfigError, match=f"line 2: invalid value for '{key}': empty list item"):
            parse_config(f"experiment = rate_vs_snr\n{key} =\n")

    @pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
    def test_scenario_defaults_are_the_channel_defaults(self, experiment):
        config = parse_config(f"experiment = {experiment}\n")
        assert config.geometry == Geometry()
        assert config.params == ChannelParams()

    @pytest.mark.parametrize("line,message", [
        ("m = 0", "antenna and element counts must be >= 1"),
        ("tx_pos = 5, 3, 3", "tx-ris distance must be positive"),
        ("rx_pos = 50, 0", "line 2: invalid value for 'rx_pos': expected 3 coordinates, got 2"),
    ])
    def test_scenario_errors_are_config_errors(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(f"experiment = rate_vs_snr\n{line}\n")

    def test_keys_are_the_config_fields(self):
        fields = [f.name for cls in (ExperimentConfig, Geometry, ChannelParams) for f in dataclasses.fields(cls)]
        assert sorted(harness._KEY_PARSERS) == sorted(set(fields) - {"geometry", "params"})
        assert len(harness._KEY_PARSERS) == 23
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        sentence = readme[readme.index("\nKeys: "):].split(". ", 1)[0]
        assert sorted(re.findall(r"`(\w+)`", sentence)) == sorted(harness._KEY_PARSERS)

    def test_each_key_reads_by_its_annotation(self):
        assert harness._KEY_PARSERS["trials"] is harness._KEY_PARSERS["n_t"] is harness._parse_int
        assert harness._KEY_PARSERS["rician_k"] is harness._parse_float
        assert harness._KEY_PARSERS["tx_pos"] is harness._parse_vec3
        config = parse_config("experiment = det_family\nphi_grid = 0, 0.5\nsnr_mode = rho\n")
        assert config.phi_grid == (0.0, 0.5) and config.snr_mode == "rho"
        assert parse_config("experiment = rate_vs_snr\ndesigns = Identity, NO_RIS\n").designs == ("identity", "no_ris")

    def test_a_field_without_a_parser_fails(self):
        @dataclasses.dataclass(frozen=True)
        class Extended:
            experiment: str
            geometry: Geometry = Geometry()
            weights: dict = dataclasses.field(default_factory=dict)

        assert list(harness._key_parsers(ExperimentConfig)) == [
            f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in ("geometry", "params")]
        with pytest.raises(TypeError, match="no config parser for the annotation of weights"):
            harness._key_parsers(Extended)

    def test_bool_values(self):
        config = parse_config(
            "experiment = rate_vs_snr\ndirect_blocked = off\n"
            "designs = max_det_symmetric\n"
        )
        assert config.direct_blocked is False
        with pytest.raises(ConfigError, match="boolean"):
            parse_config("experiment = rate_vs_snr\ndirect_blocked = maybe\n")


def _config_text(fields):
    return "".join(f"{key} = {', '.join(map(str, value)) if isinstance(value, tuple) else str(value).lower()}\n"
                   for key, value in fields.items())


@pytest.mark.parametrize("experiment, changes, message", [
    ("rate_vs_snr", dict(trials=0), "trials must be >= 1"),
    ("rate_vs_snr", dict(experiment="bogus"), "unknown experiment 'bogus'"),
    ("rate_vs_snr", dict(snr_mode="db"), "snr_mode must be 'reference' or 'rho'"),
    ("rate_vs_snr", dict(designs=("nope",)), "unknown designs ['nope']"),
    ("qstem_sweep", dict(direct_blocked=False), "qstem_sweep always blocks the direct link"),
    ("direct_link_sweep", dict(direct_scale_grid=(-1.0,)),
     "line 2: invalid value for 'direct_scale_grid': direct_scale must be nonnegative"),
    ("m_sweep", dict(m_grid=(16, 16)), "line 2: invalid value for 'm_grid': 16 is repeated"),
    ("m_sweep", dict(m_grid=(0,)), "line 2: invalid value for 'm_grid': antenna and element counts must be >= 1"),
])
def test_a_config_made_in_code_meets_the_parsers_rules(experiment, changes, message):
    with pytest.raises(ConfigError, match=re.escape(message)) as parsed:
        parse_config(_config_text({"experiment": experiment, **changes}))
    with pytest.raises(ConfigError) as built:
        dataclasses.replace(parse_config(f"experiment = {experiment}\n"), **changes)
    assert str(parsed.value).removeprefix("line 2: ") == str(built.value)  # the parser names a faulty value's line


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_direct_scale_entry_fails_when_built(value):
    # a NaN or infinite entry used to pass and fail run_experiment with "h_direct contains non-finite entries"
    config = parse_config("experiment = direct_link_sweep\ntrials = 1\n")
    with pytest.raises(ConfigError, match=re.escape(
            f"invalid value for 'direct_scale_grid': direct_scale must be nonnegative and finite, got {value!r}")):
        dataclasses.replace(config, direct_scale_grid=(1.0, value))


@pytest.mark.parametrize("experiment, key", [
    ("rate_vs_snr", "snr_grid_db"), ("direct_link_sweep", "direct_scale_grid"), ("m_sweep", "m_grid"),
    ("qstem_sweep", "q_grid"), ("det_family", "phi_grid"),
    ("rate_vs_snr", "designs"), ("direct_link_sweep", "designs"), ("m_sweep", "designs"),
])
def test_an_empty_list_fails_when_built(experiment, key):
    # an empty grid or design list used to run to no rows of its kind: to no rows at all, which emit_csv
    # rejects, or to rows without that family; the parser rejects an empty list as an empty list item
    config = parse_config(f"experiment = {experiment}\ntrials = 1\n")
    with pytest.raises(ConfigError, match=re.escape(f"invalid value for '{key}': the list is empty")):
        dataclasses.replace(config, **{key: ()})


@pytest.mark.parametrize("experiment, changes, message, twin", [
    ("m_sweep", dict(trials=2.0), "trials must be an integer, got 2.0", dict(trials=np.int64(2))),
    ("m_sweep", dict(master_seed=1.5), "master_seed must be an integer, got 1.5", dict(master_seed=np.uint64(3))),
    ("m_sweep", dict(m_grid=(8.0,)), "m_grid[0] must be an integer, got 8.0", dict(m_grid=(np.int32(8),))),
    ("qstem_sweep", dict(q_grid=(1, 2.0)), "q_grid[1] must be an integer, got 2.0", dict(q_grid=(1, np.int64(2)))),
], ids=["trials", "master_seed", "m_grid", "q_grid"])
def test_a_config_made_in_code_has_integer_counts(experiment, changes, message, twin):
    # a float count used to pass construction and fail the run with TypeError (trials, master_seed)
    # or ValueError (m_grid); a numpy integer runs as the Python integer it equals
    config = parse_config(f"experiment = {experiment}\ntrials = 2\nn_t = 2\nn_r = 2\nm = 8\nq_grid = 1, 2\n")
    with pytest.raises(ConfigError, match=re.escape(message)):
        dataclasses.replace(config, **changes)
    same = {k: tuple(map(int, v)) if isinstance(v, tuple) else int(v) for k, v in twin.items()}
    records = run_experiment(dataclasses.replace(config, **twin))
    assert records == run_experiment(dataclasses.replace(config, **same))
    assert records and not any(r.error for r in records)


# the error classes of the failure taxonomy: bad input and numerical failure, with the package's subclasses
_TAXONOMY = {"ValueError", "ArithmeticError", "LinAlgError"} | {
    cls.__name__ for module in (bdris.channel, designs, harness, bdris.linalg, metrics, bdris.qstem)
    for cls in vars(module).values() if isinstance(cls, type) and issubclass(cls, (ValueError, ArithmeticError))
    and cls.__module__.startswith("bdris.")}


@settings(max_examples=200, deadline=None, derandomize=True)
@example(experiment="rate_vs_snr", trials=2, snr_mode="reference", direct_blocked=False,
         names=["max_det_phase_corrected", "random_symmetric"], q_grid=[0])
@example(experiment="direct_link_sweep", trials=1, snr_mode="rho", direct_blocked=False, names=[], q_grid=[20])
@example(experiment="qstem_sweep", trials=2, snr_mode="reference", direct_blocked=True, names=[], q_grid=[1, 3])
@example(experiment="m_sweep", trials=1, snr_mode="reference", direct_blocked=True, names=["identity"], q_grid=[1])
@example(experiment="det_family", trials=1, snr_mode="rho", direct_blocked=True, names=[], q_grid=[1])
@given(experiment=st.sampled_from(EXPERIMENTS + ("bogus",)), trials=st.integers(-1, 2),
       snr_mode=st.sampled_from(("reference", "rho", "db")), direct_blocked=st.booleans(),
       names=st.lists(st.sampled_from(SELECTABLE_DESIGNS + ("nope",)), unique=True, max_size=3),
       q_grid=st.lists(st.integers(0, 20), min_size=1, max_size=3, unique=True))
def test_a_config_made_in_code_is_rejected_or_runs(experiment, trials, snr_mode, direct_blocked, names, q_grid):
    # each field drawn from values of its type: construction rejects the config, or every
    # error cell of its run names a class of the failure taxonomy
    try:
        config = ExperimentConfig(experiment, params=ChannelParams(n_t=2, n_r=2, m=8), trials=trials,
                                  snr_mode=snr_mode, designs=tuple(names), direct_blocked=direct_blocked,
                                  q_grid=tuple(q_grid), m_grid=(8, 12))
    except ConfigError:
        return
    errors = {rec.error.split(":")[0] for rec in run_experiment(config) if rec.error}
    assert errors <= _TAXONOMY  # so no KeyError, IndexError, TypeError, ZeroDivisionError or OverflowError


def tiny_config(text):
    return parse_config(text)


def _reference_csv(records):
    """The writer the row templates replace: csv.writer over one formatted cell each.  Its line
    terminator \\r\\n makes it quote a cell holding \\r as well as one holding \\n; each row then
    ends in \\n."""
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return format(value, ".17g")
        return str(value)

    def row(cells):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(cells)
        return buf.getvalue()[:-2] + "\n"

    return "".join([row(CSV_COLUMNS)] + [row([cell(value) for value in rec]) for rec in records]).encode("utf-8")


_EXTREMES = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308)
_floats = st.floats() | st.sampled_from(_EXTREMES)
_cells = st.none() | st.integers() | st.booleans() | _floats | _floats.map(np.float64)
_names = st.sampled_from(EXPERIMENTS + SELECTABLE_DESIGNS + ("qstem", "rotated"))
# quoting characters, spaces to lead and trail, non-ASCII text; no lone surrogates, which UTF-8 cannot encode
_text = _names | st.text(st.sampled_from(',"\r\n ax_:é漢') | st.characters(blacklist_categories=("Cs",)), max_size=10)
# every column of any type: most of these rows go through csv.writer
_any_records = st.builds(ResultRecord, _text, _cells, _text, *[_cells] * 7, _text)
# rows of the harness's cell types: those without an error or text to quote take a template
_harness_records = st.builds(ResultRecord, _text, st.integers(0, 10**6), _text,
                             *[st.none() | _floats | _floats.map(np.float64)] * 7, st.just("") | _text)
# such a row with one cell of another type
_odd_cell_records = st.builds(lambda rec, column, value: rec._replace(**{CSV_COLUMNS[column]: value}),
                              _harness_records, st.integers(1, 9), st.none() | st.integers() | st.booleans())
# groups of cells that a dict merges although they print differently, and NaNs that it keeps apart
_MERGING = ((0.0, -0.0, np.float64(0.0), np.float64(-0.0), None), (0, False, 0.0), (1, 1.0, True, np.float64(1.0)),
            (10**20, 1e20), (float("nan"), float("nan"), np.float64("nan")))
_pools = st.lists(_cells | _text, min_size=1, max_size=3) | st.sampled_from(_MERGING).flatmap(
    lambda group: st.lists(st.sampled_from(group), min_size=1, max_size=3))


@st.composite
def _repeating_records(draw):
    """Records whose every column draws from a pool of at most three cells, so cells repeat down it."""
    pools = [draw(_pools) for _ in CSV_COLUMNS]
    return [ResultRecord(*[draw(st.sampled_from(pool)) for pool in pools])
            for _ in range(draw(st.integers(0, 12)))]


def _down_column(column, values):
    """Harness-shaped records alike but in ``column``, which holds ``values`` down the rows."""
    base = ResultRecord("rate_vs_snr", 3, "max_det_symmetric", 10.0, 2.5, 0.75, 1.25, 0.5, None, 0.125)
    return [base._replace(**{column: value}) for value in values]


_ODD_RECORDS = (
    ResultRecord("rate_vs_snr", 3, "identity", -0.0, math.nan, math.inf, -math.inf, 5e-324,
                 1.7976931348623157e308, np.float64(0.1)),
    ResultRecord("rate_vs_snr", True, "identity", np.float64(-0.0), 1, None, False, np.float64(math.nan)),
    ResultRecord("m_sweep", 7, "no_ris", 16.0, 10**20, 0.0, 1.0, None),  # str(10**20) is not "%.17g"
    ResultRecord(" a,b ", 4, 'say "hi"\r\n', 1.5, None, None, 2.0, None, error="ValueError: x, \"y\"\n"),
    ResultRecord("été", 5, "漢字", 0.25, 1.0, 2.0, 3.0, 4.0, error="plain"),
)


class TestRunRateVsSnr:
    CONFIG = """
    experiment = rate_vs_snr
    trials = 4
    master_seed = 11
    n_t = 2
    n_r = 2
    m = 8
    snr_grid_db = 0, 20
    designs = unitary_baseline, max_det_symmetric, random_symmetric
    """

    def test_structure_and_invariants(self):
        config = tiny_config(self.CONFIG)
        records = run_experiment(config)
        assert len(records) == 4 * 2 * 3
        assert all(not rec.error for rec in records)
        for rec in records:
            if rec.design == "max_det_symmetric":
                assert abs(rec.abs_det - rec.d_max) / rec.d_max <= 1e-8
            assert rec.rate_bits >= 0.0

    def test_reference_snr_calibration(self):
        config = tiny_config(self.CONFIG)
        records = [r for r in run_experiment(config) if r.design == "unitary_baseline"]
        # 20 dB rows carry a 100x larger rho, so rates must be strictly higher
        by_trial = {}
        for rec in records:
            by_trial.setdefault(rec.trial, {})[rec.sweep_value] = rec.rate_bits
        for rates in by_trial.values():
            assert rates[20.0] > rates[0.0]

    def test_byte_identical_reruns_and_thread_invariance(self):
        config = tiny_config(self.CONFIG)
        first = csv_bytes(run_experiment(config))
        second = csv_bytes(run_experiment(config))
        assert first == second

    def test_error_column_instead_of_abort(self, monkeypatch):
        config = tiny_config(self.CONFIG)

        def explode(channels):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(harness.designs, "solve_maxdet", explode)
        records = run_experiment(config)
        failed = [r for r in records if r.design == "max_det_symmetric"]
        assert failed and all("synthetic failure" in r.error for r in failed)
        assert all(r.rate_bits is None for r in failed)
        ok = [r for r in records if r.design == "unitary_baseline"]
        assert ok and all(not r.error for r in ok)

    def test_overflowing_reference_power_fills_error_column(self):
        # with path loss, the power calibrated for 3070 dB overflows to inf
        config = tiny_config(self.CONFIG.replace("snr_grid_db = 0, 20", "snr_grid_db = 3070, 20"))
        records = run_experiment(config)
        for rec in records:
            if rec.sweep_value == 3070.0:
                assert "positive and finite" in rec.error and rec.rate_bits is None
            else:
                assert not rec.error and np.isfinite(rec.rate_bits)

    @pytest.mark.parametrize("snr_mode", ["reference", "rho"])
    def test_snr_off_the_linear_range_is_rejected_when_built(self, snr_mode):
        # a config built without parse_config meets the parser's check of each grid entry
        with pytest.raises(ConfigError, match=re.escape(
                "invalid value for 'snr_grid_db': 4000 dB under- or overflows the linear SNR")):
            dataclasses.replace(tiny_config(self.CONFIG), snr_grid_db=(4000.0, 20.0), snr_mode=snr_mode)


# the rows of one trial of each experiment's d_max_underflow_config
_UNDERFLOW_ROWS = {"rate_vs_snr": 2, "direct_link_sweep": 3 * 5, "qstem_sweep": 2 + 2, "m_sweep": 2 * 2,
                   "det_family": 2 + 31}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_d_max_outside_float_range_fills_error_column(experiment):
    # path-loss exponent 200: d_max = e^-2234 underflows, and the rate-gap bound
    # would divide 0 by 0; every row reports the error, none a false 0, and the
    # outcomes computed for the trial anyway warn of nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = run_experiment(parse_config(d_max_underflow_config(experiment)))
    assert not caught
    assert len(records) == _UNDERFLOW_ROWS[experiment]
    for rec in records:
        assert rec.error.startswith("ArithmeticError: d_max = e^-")
        assert rec.d_max is rec.abs_det is rec.rate_gap_bound_bits is rec.rate_bits is None
        assert rec.qstem_residual is rec.sigma_min_h is None


class TestFactorOncePerTrial:
    """Nothing that does not depend on rho runs once per SNR point."""

    SEVEN_POINTS = """
    experiment = rate_vs_snr
    trials = 1
    master_seed = 3
    snr_grid_db = 0, 5, 10, 15, 20, 25, 30
    designs = max_det_symmetric, max_det_phase_corrected
    direct_blocked = {blocked}
    """

    @staticmethod
    def svd_operands(config):
        svd = np.linalg.svd
        operands = []

        def spy(a, *args, **kwargs):
            operands.append(np.shape(a))
            return svd(a, *args, **kwargs)

        rates = mock.Mock(side_effect=metrics.achievable_rate)
        with mock.patch.object(np.linalg, "svd", spy), \
                mock.patch.object(metrics, "achievable_rate", rates):
            records = run_experiment(config)
        assert records and all(not rec.error for rec in records)
        return operands, rates.call_count

    def test_direct_link_trial_samples_one_polynomial(self):
        # 4x4: det(I + rho H H^H) is a trigonometric polynomial of degree
        # r = 4 in the phase, fixed by 2r + 1 = 9 samples
        config = parse_config(self.SEVEN_POINTS.format(blocked="false"))
        operands, rate_calls = self.svd_operands(config)
        assert [shape for shape in operands if 9 in shape] == [(1, 9, 4, 4)]  # a block of one trial
        # the corrected rows read the singular values that chose their phases
        assert [shape for shape in operands if shape[-3:] == (7, 4, 4)] == [(1, 7, 4, 4)]
        assert not [shape for shape in operands if 360 in shape]  # the old phase grid
        assert sum(int(np.prod(shape[:-2])) for shape in operands) <= 40
        assert rate_calls == 0

    def test_blocked_trial_takes_at_most_five_svds(self):
        config = parse_config(self.SEVEN_POINTS.format(blocked="true").replace(
            "max_det_phase_corrected", "unitary_baseline"))
        operands, _ = self.svd_operands(config)
        assert len(operands) <= 5

    def test_collinear_geometry_has_no_error_rows(self):
        # Tx, RIS and Rx on one line with a strong line of sight: the two RIS
        # subspaces share a direction up to ~1e-3 rad
        records = run_experiment(parse_config(
            "experiment = rate_vs_snr\ntrials = 10\nm = 16\nrician_k = 1e6\n"
            "tx_pos = 0, 0, 1.5\nris_pos = 5, 0, 1.5\nrx_pos = 10, 0, 1.5\n"))
        assert len(records) == 10 * 7 * 2
        assert all(not rec.error for rec in records)
        for rec in records:
            if rec.design == "max_det_symmetric":
                assert abs(rec.abs_det - rec.d_max) <= 1e-8 * rec.d_max


class TestRunDirectLinkSweep:
    CONFIG = """
    experiment = direct_link_sweep
    trials = 3
    master_seed = 5
    n_t = 2
    n_r = 2
    m = 8
    snr_grid_db = 10
    direct_scale_grid = 0.001, 1, 20
    designs = max_det_symmetric, max_det_phase_corrected
    """

    def test_reference_rows_forced_and_phase_helps(self):
        records = run_experiment(tiny_config(self.CONFIG))
        designs_seen = {rec.design for rec in records}
        assert {"identity", "no_ris"} <= designs_seen
        assert all(not rec.error for rec in records)
        # phase-corrected never loses to the uncorrected design, per trial and scale
        uncorrected = {(r.trial, r.sweep_value): r.rate_bits
                       for r in records if r.design == "max_det_symmetric"}
        for rec in records:
            if rec.design == "max_det_phase_corrected":
                assert rec.rate_bits >= uncorrected[(rec.trial, rec.sweep_value)] - 1e-12

    def test_designs_built_once_per_trial(self):
        # no design depends on H_d: the default 3-point direct_scale_grid takes
        # one solve and one SVD each of F and G per trial, for the block of both
        config = parse_config("experiment = direct_link_sweep\ntrials = 2\nmaster_seed = 5\n")
        svd, link_svds = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            if np.shape(a)[-2:] == (4, 16):
                link_svds.append(np.shape(a))
            return svd(a, *args, **kwargs)

        solves = mock.Mock(side_effect=designs.solve_maxdet)
        with mock.patch.object(np.linalg, "svd", spy), \
                mock.patch.object(designs, "solve_maxdet", solves):
            records = run_experiment(config)
        assert len(config.direct_scale_grid) == 3 and all(not rec.error for rec in records)
        assert [call.args[0].f.shape[0] for call in solves.call_args_list] == [2]
        assert link_svds == [(2, 4, 16)] * 2

    def test_no_ris_rate_independent_of_theta_designs(self):
        records = run_experiment(tiny_config(self.CONFIG))
        # no-RIS rows must scale with the direct link only
        rows = [r for r in records if r.design == "no_ris" and r.trial == 0]
        rates = {r.sweep_value: r.rate_bits for r in rows}
        assert rates[0.001] < rates[1.0] < rates[20.0]
        assert all(r.abs_det == 0.0 for r in rows)


# rho s^2 overflows a float in every rate: a 1e160 direct link, and rho = 1e308 on unit-variance links
OVERFLOWING_RATES = {
    "direct_link_sweep": "experiment = direct_link_sweep\ntrials = 3\ndirect_scale_grid = 1e160\n"
                         "designs = max_det_symmetric, max_det_phase_corrected\n",
    "rate_vs_snr": "experiment = rate_vs_snr\ntrials = 3\nsnr_mode = rho\nsnr_grid_db = 3080\n"
                   "apply_path_loss = false\n",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(OVERFLOWING_RATES))
def test_rates_do_not_overflow(name):
    # each rate is finite, warns of nothing, and is the sum of its decomposition r log2 rho + log2 det + error
    config = parse_config(OVERFLOWING_RATES[name])
    records = run_experiment(config)
    block = harness._start_block(config, 0, config.trials)
    channels = block.channels if config.direct_blocked else block.channels.with_direct(
        config.direct_scale_grid[0] * block.channels.h_direct)
    for rec in records:
        assert not rec.error
        assert all(math.isfinite(cell) for cell in (rec.rate_bits, rec.d_max, rec.rate_gap_bound_bits,
                                                     rec.sigma_min_h, rec.abs_det))
        ch, rho = channels.take(slice(rec.trial, rec.trial + 1)), block.rhos[rec.trial, 0]
        if rec.design in ("identity", "no_ris"):
            h = ch.h_direct + (ch.f @ ch.g.conj().mT if rec.design == "identity" else 0.0)
        else:
            theta = designs.unitary_baseline(ch) if rec.design == "unitary_baseline" else designs.solve_maxdet(ch)
            phases = designs.phase_correction(ch, theta, [rho]).phases if "corrected" in rec.design else 0.0
            h = metrics.equivalent_channel(ch, theta, np.ravel(phases)[0])
        assert rec.rate_bits > 4000.0
        assert math.isclose(rec.rate_bits, sum(metrics.rate_decomposition(h[0], rho)), rel_tol=1e-12)


class TestIdentityRows:
    CONFIGS = {name: f"experiment = {name}\ntrials = 2\nmaster_seed = 3\n" for name in EXPERIMENTS}
    CONFIGS["rate_vs_snr_direct"] = ("experiment = rate_vs_snr\ntrials = 3\ndirect_blocked = false\n"
                                     "snr_grid_db = 0, 20\n"
                                     "designs = identity, no_ris, max_det_phase_corrected, random_symmetric\n")
    CONFIGS["m_sweep_identity"] = "experiment = m_sweep\ntrials = 2\nm_grid = 2, 16\ndesigns = identity, no_ris\n"

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_no_run_builds_frames_from_a_dense_theta(self, name, monkeypatch):
        from_theta = mock.Mock(side_effect=designs.ScatteringMatrix.from_theta)
        monkeypatch.setattr(designs.ScatteringMatrix, "from_theta", from_theta)
        records = run_experiment(parse_config(self.CONFIGS[name]))
        assert records and not any(rec.error for rec in records)
        assert from_theta.call_count == 0

    def test_identity_rows_are_those_of_the_identity_frames(self):
        config = parse_config(self.CONFIGS["rate_vs_snr_direct"])
        block = harness._start_block(config, 0, config.trials)
        rate, det, sigma_min = metrics.evaluate_design(
            block.channels, designs.ScatteringMatrix.from_theta(np.eye(config.params.m)), block.rhos)
        rows = [rec for rec in run_experiment(config) if rec.design == "identity"]
        assert [(rec.rate_bits, rec.abs_det, rec.sigma_min_h) for rec in rows] == \
            [(rate[t, p], det[t], sigma_min[t, p]) for t in range(3) for p in range(2)]


class TestRunQstemSweep:
    CONFIG = """
    experiment = qstem_sweep
    trials = 3
    master_seed = 7
    n_t = 2
    n_r = 2
    m = 8
    snr_grid_db = 10
    q_grid = 1, 2, 3, 4
    """

    def test_exact_recovery_at_minimum_stems(self):
        records = run_experiment(tiny_config(self.CONFIG))
        assert all(not rec.error for rec in records)
        full = {r.trial: r.rate_bits for r in records if r.design == "max_det_fully_connected"}
        ideal = {r.trial: r.rate_bits for r in records if r.design == "max_det_symmetric"}
        for rec in records:
            if rec.design == "qstem" and rec.sweep_value >= 3:  # q >= 2r - 1
                assert rec.qstem_residual < 1e-8
                assert rec.rate_bits == pytest.approx(full[rec.trial], abs=1e-6)
                assert rec.rate_bits == pytest.approx(ideal[rec.trial], abs=1e-6)

    def test_residual_monotone_per_trial(self):
        records = run_experiment(tiny_config(self.CONFIG))
        for trial in range(3):
            residuals = [r.qstem_residual for r in records
                         if r.design == "qstem" and r.trial == trial]
            assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    @pytest.mark.parametrize("trials", [9, 64])
    def test_decided_trials_are_not_realized(self, trials, monkeypatch):
        # every row of a trial whose d_max failed shows that failure, so none of its designs is built
        # and none of its circuits is synthesized or evaluated
        config = parse_config(d_max_underflow_config("qstem_sweep", trials=trials))
        solve = mock.Mock(side_effect=designs.solve_maxdet)
        synthesize = mock.Mock(side_effect=harness.qstem.synthesize_qstem)
        evaluate = mock.Mock(side_effect=metrics.evaluate_channel)
        monkeypatch.setattr(harness.designs, "solve_maxdet", solve)
        monkeypatch.setattr(harness.qstem, "synthesize_qstem", synthesize)
        monkeypatch.setattr(metrics, "evaluate_channel", evaluate)
        records = run_experiment(config)
        assert len(records) == trials * (2 + 2)
        assert all(rec.error.startswith("ArithmeticError: d_max = e^-") for rec in records)
        assert (solve.call_count, synthesize.call_count, evaluate.call_count) == (0, 0, 0)

    def test_trial_failed_at_every_point_is_not_realized(self, monkeypatch):
        # with path loss, the power calibrated for 3070 dB overflows: rho fails at the one point of every trial
        config = dataclasses.replace(tiny_config(self.CONFIG), snr_grid_db=(3070.0,))
        synthesize = mock.Mock(side_effect=harness.qstem.synthesize_qstem)
        monkeypatch.setattr(harness.qstem, "synthesize_qstem", synthesize)
        records = run_experiment(config)
        assert len(records) == 3 * (2 + 4) and synthesize.call_count == 0
        assert all(rec.error == "ValueError: power, noise_var, and rho must be positive and finite "
                   "(power = inf, noise_var = 1, rho = inf)" for rec in records)

    def test_solve_failure_fills_every_row(self, monkeypatch):
        def explode(channels):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(harness.designs, "solve_maxdet", explode)
        records = run_experiment(tiny_config(self.CONFIG))
        assert len(records) == 3 * (2 + 4)
        for rec in records:
            assert rec.error == "RuntimeError: synthetic failure"
            assert rec.rate_bits is None and rec.abs_det is None
            assert rec.d_max > 0.0

    def test_defective_maxdet_frame_is_an_error_row(self):
        # one solve per trial serves the Max-Det row, its completion and every q-stem row
        with defective_maxdet_frame():
            records = run_experiment(tiny_config(self.CONFIG))
        assert len(records) == 3 * (2 + 4)
        assert all(rec.error.startswith("ArithmeticError: Max-Det frame") for rec in records)

    def test_synthesis_failure_fills_only_its_row(self, monkeypatch):
        synthesize = harness.qstem.synthesize_qstem

        def fail_at_two(design, q, z0=50.0):
            if q == 2:
                raise ArithmeticError("synthetic failure")
            return synthesize(design, q, z0)

        monkeypatch.setattr(harness.qstem, "synthesize_qstem", fail_at_two)
        records = run_experiment(tiny_config(self.CONFIG))
        failed = [r for r in records if r.error]
        assert [(r.trial, r.design, r.sweep_value) for r in failed] == [
            (t, "qstem", 2.0) for t in range(3)
        ]
        assert all(r.error == "ArithmeticError: synthetic failure" for r in failed)
        assert all(r.rate_bits is None and r.qstem_residual is None for r in failed)
        assert all(r.rate_bits is not None for r in records if not r.error)

    def test_fully_connected_failure_fills_only_its_row(self, monkeypatch):
        config = tiny_config(self.CONFIG)
        clean = run_experiment(config)
        spoiled_f = harness._start_block(config, 0, 3).channels.f[1]
        realize = harness.qstem.fully_connected_channel

        def fail_at_trial_one(channels, design, z0=50.0):
            if np.array_equal(channels.f, spoiled_f):
                raise ArithmeticError("synthetic failure")
            return realize(channels, design, z0)

        monkeypatch.setattr(harness.qstem, "fully_connected_channel", fail_at_trial_one)
        records = run_experiment(config)
        assert len(records) == len(clean)
        for got, want in zip(records, clean):
            if (got.trial, got.design) == (1, "max_det_fully_connected"):
                assert got.error == "ArithmeticError: synthetic failure"
                assert got.rate_bits is got.abs_det is got.sigma_min_h is None and got.d_max == want.d_max
            else:
                assert got == want and not got.error

    @pytest.mark.parametrize("target,failed", [
        ("qstem_channel", [(t, "qstem", 2.0) for t in range(3)]),
        ("fully_connected_channel", [(1, "max_det_fully_connected", 8.0)]),
    ])
    def test_evaluation_failure_fills_only_its_row(self, target, failed, monkeypatch):
        # the block's RIS channels are evaluated as one stack; an h whose |det| overflows is split off to its row
        config = tiny_config(self.CONFIG)
        clean = csv_bytes(run_experiment(config)).splitlines()
        spoiled_f = harness._start_block(config, 0, 3).channels.f[1]
        realize = getattr(harness.qstem, target)

        def overflowing(channels, circuit, z0=50.0):
            if target == "qstem_channel":
                h = realize(channels, circuit)
                return 1e200 * h if circuit.q == 2 else h
            h, phi = realize(channels, circuit, z0)
            return (1e200 * h if np.array_equal(channels.f, spoiled_f) else h), phi

        monkeypatch.setattr(harness.qstem, target, overflowing)
        records = run_experiment(config)
        assert [(r.trial, r.design, r.sweep_value) for r in records if r.error] == failed
        assert all(r.error.startswith("ArithmeticError: |det| = e^") and r.rate_bits is None
                   for r in records if r.error)
        lines = csv_bytes(records).splitlines()
        assert len(lines) == len(clean)
        assert [line for line, r in zip(lines[1:], records) if not r.error] == \
            [line for line, r in zip(clean[1:], records) if not r.error]

    def test_one_maxdet_solve_per_block(self, monkeypatch):
        # the Max-Det rows and every circuit are made from one stack per block: the 200 default trials run
        # in four blocks of 50 (the q-stem circuits used to be stacked apart, 44 solves)
        solve = mock.Mock(side_effect=designs.solve_maxdet)
        monkeypatch.setattr(harness.designs, "solve_maxdet", solve)
        records = run_experiment(parse_config("experiment = qstem_sweep\ntrials = 200\n"))
        assert len(records) == 200 * 12 and not any(rec.error for rec in records)
        assert [call.args[0].f.shape[0] for call in solve.call_args_list] == [50] * 4

    @staticmethod
    def run_failing_at_one_circuit(monkeypatch):
        """The default 50-trial block with a LinAlgError at (trial 20, q = 3), checked to change no other row:
        its synthesis calls per (trial, q) and its count of Max-Det solves."""
        config = parse_config("experiment = qstem_sweep\ntrials = 50\n")
        clean = run_experiment(config)
        frames = designs.solve_maxdet(harness._start_block(config, 0, 50).channels).left
        trial_of = {frame.tobytes(): t for t, frame in enumerate(frames)}
        synthesize, calls = harness.qstem.synthesize_qstem, {}

        def fail_at_one_pair(design, q, z0=50.0):
            pair = trial_of[design.left.tobytes()], q
            calls[pair] = calls.get(pair, 0) + 1
            if pair == (20, 3):
                raise np.linalg.LinAlgError("synthetic failure")
            return synthesize(design, q, z0)

        solve = mock.Mock(side_effect=designs.solve_maxdet)
        monkeypatch.setattr(harness.qstem, "synthesize_qstem", fail_at_one_pair)
        monkeypatch.setattr(harness.designs, "solve_maxdet", solve)
        records = run_experiment(config)
        assert len(records) == len(clean)
        for got, want in zip(records, clean):
            if (got.trial, got.design, got.sweep_value) == (20, "qstem", 3.0):
                assert got.error == "LinAlgError: synthetic failure" and got.rate_bits is None
            else:
                assert got == want and not got.error
        return calls, solve.call_count

    def test_a_failing_circuit_resynthesizes_no_other(self, monkeypatch):
        # one (trial, q) raises in a block of 50: its stack is split down to it, and each other pair is
        # synthesized once, its realized channel kept for the block
        calls, _ = self.run_failing_at_one_circuit(monkeypatch)
        assert {pair: n for pair, n in calls.items() if n > 1}.keys() == {(20, 3)}
        # the failing pair once in each of its 10 stacks: 7 halvings of the trials, 3 of its trial's circuits
        assert len(calls) == 50 * 10 and sum(calls.values()) <= 510

    def test_a_failing_circuit_solves_maxdet_once(self, monkeypatch):
        # the block is one run of live trials, and its split stacks take their frames from its one solve
        _, solves = self.run_failing_at_one_circuit(monkeypatch)
        assert solves == 1

    @pytest.mark.parametrize("seed", [7, 8])
    def test_minimum_stems_attain_d_max(self, seed):
        # q = 2r - 1 rows of the M = 64 qstem benchmark config, trials 0..19
        # (its q = 7 rows do not depend on the other q)
        records = run_experiment(parse_config(
            f"experiment = qstem_sweep\ntrials = 20\nmaster_seed = {seed}\n"
            "n_t = 4\nn_r = 4\nm = 64\nq_grid = 7\n"))
        rows = [rec for rec in records if rec.design == "qstem"]
        assert len(rows) == 20 and not any(rec.error for rec in records)
        assert max(abs(rec.abs_det - rec.d_max) / rec.d_max for rec in rows) <= 1e-13

    def test_mean_rate_nondecreasing_in_q(self):
        config = tiny_config(
            "experiment = qstem_sweep\ntrials = 30\nmaster_seed = 13\n"
            "snr_grid_db = 10\nq_grid = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10\n"
        )
        records = run_experiment(config)
        by_q = {}
        for rec in records:
            if rec.design == "qstem":
                by_q.setdefault(rec.sweep_value, []).append(rec.rate_bits)
        means = [np.mean(by_q[q]) for q in sorted(by_q)]
        assert all(b >= a - 1e-9 for a, b in zip(means, means[1:]))
        # saturation: from q = 2r - 1 on, nothing changes
        assert means[-1] == pytest.approx(means[6], abs=1e-6)


class TestRunMSweep:
    CONFIG = """
    experiment = m_sweep
    trials = 40
    master_seed = 3
    n_t = 2
    n_r = 2
    rician_k = 0
    m_grid = 8, 32
    snr_grid_db = 10
    """

    def test_summary_grows_with_m(self):
        records = run_experiment(tiny_config(self.CONFIG))
        summary = m_sweep_summary(records)
        assert set(summary) == {8, 32}
        means = {m: np.mean([r.sigma_min_h for r in records
                             if r.design == "max_det_symmetric" and r.sweep_value == m])
                 for m in (8, 32)}
        assert means[32] > means[8]

    def test_random_symmetric_frames_do_not_grow_with_trials(self):
        # random_symmetric's M x M frames are made one trial at a time, each dropped once its RIS channel is
        # formed, so the traced peak of 32 trials stays near that of one (9.8x when the block kept every frame)
        def peak(trials):
            config = parse_config(f"experiment = m_sweep\ntrials = {trials}\nm_grid = 128\n"
                                  "designs = random_symmetric\n")
            tracemalloc.start()
            try:
                assert not any(rec.error for rec in run_experiment(config))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(32) <= 2 * peak(1)

    def test_summary_rejects_other_experiments(self):
        records = run_experiment(tiny_config(TestRunQstemSweep.CONFIG))
        with pytest.raises(ValueError, match="m_sweep"):
            m_sweep_summary(records)


class TestRunDetFamily:
    CONFIG = """
    experiment = det_family
    trials = 2
    master_seed = 9
    n_t = 2
    n_r = 2
    m = 16
    rician_k = 0
    phi_grid = 0, 0.3926990816987241, 0.7853981633974483, 1.1780972450961724, 1.5707963267948966
    """

    def test_rotations_preserve_det_and_majorize_maxdet(self):
        records = run_experiment(tiny_config(self.CONFIG))
        assert all(not rec.error for rec in records)
        for trial in range(2):
            rows = [r for r in records if r.trial == trial]
            dets = [r.abs_det for r in rows if r.design == "rotated"]
            assert len(dets) == 5
            assert max(dets) - min(dets) <= 1e-8 * max(dets)
            rate_base = [r.rate_bits for r in rows if r.design == "unitary_baseline"][0]
            for r in rows:
                if r.design == "rotated":
                    assert r.rate_bits <= rate_base + 1e-9

    @pytest.mark.parametrize("trials", [9, 64])
    def test_decided_trials_are_not_rotated(self, trials, monkeypatch):
        # every row of a trial whose d_max failed shows that failure, so none of its designs or rotations is built
        # or evaluated
        config = parse_config(d_max_underflow_config("det_family", trials=trials))
        rotated = mock.Mock(side_effect=designs.rotated_family)
        evaluate = mock.Mock(side_effect=metrics.evaluate_design)
        monkeypatch.setattr(harness.designs, "rotated_family", rotated)
        monkeypatch.setattr(metrics, "evaluate_design", evaluate)
        records = run_experiment(config)
        assert len(records) == trials * (2 + 31)
        assert all(rec.error.startswith("ArithmeticError: d_max = e^-") for rec in records)
        assert (rotated.call_count, evaluate.call_count) == (0, 0)

    def test_rotation_failure_fills_only_its_row(self, monkeypatch):
        config = tiny_config(self.CONFIG)
        clean = run_experiment(config)
        spoiled_f = harness._start_block(config, 0, 2).channels.f[1]
        spoiled_sin = np.sin(config.phi_grid[2])
        rotated_family = harness.designs.rotated_family

        def fail_at_one_pair(channels, rotation):  # trial 1 at the third phi
            if rotation[1, 0] == spoiled_sin and any(np.array_equal(f, spoiled_f) for f in channels.f):
                raise ArithmeticError("synthetic failure")
            return rotated_family(channels, rotation)

        monkeypatch.setattr(harness.designs, "rotated_family", fail_at_one_pair)
        records = run_experiment(config)
        assert len(records) == len(clean)
        for got, want in zip(records, clean):
            if (got.trial, got.design, got.sweep_value) == (1, "rotated", config.phi_grid[2]):
                assert got.error == "ArithmeticError: synthetic failure"
                assert got.rate_bits is got.abs_det is got.sigma_min_h is None and got.d_max == want.d_max
            else:
                assert got == want and not got.error


class TestCsvOutput:
    def test_empty_records_rejected(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(ValueError):
            emit_csv([], target)
        assert not target.exists()

    def test_single_record_two_lines(self, tmp_path):
        rec = ResultRecord(
            experiment="rate_vs_snr", trial=0, design="identity", sweep_value=0.0,
            rate_bits=1.25, abs_det=0.5, d_max=1.0, rate_gap_bound_bits=0.1,
        )
        target = tmp_path / "one.csv"
        emit_csv([rec], target)
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("experiment,trial,design,sweep_value,rate_bits")

    def test_round_trip_preserves_floats(self, tmp_path):
        config = tiny_config(TestRunRateVsSnr.CONFIG)
        records = run_experiment(config)
        target = tmp_path / "run.csv"
        emit_csv(records, target)
        with open(target, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert float(row["rate_bits"]) == rec.rate_bits
            assert float(row["abs_det"]) == rec.abs_det
            assert int(row["trial"]) == rec.trial
            assert row["qstem_residual"] == ""

    def test_rfc4180_quoting_of_error_field(self, tmp_path):
        rec = ResultRecord(
            experiment="rate_vs_snr", trial=0, design="identity", sweep_value=0.0,
            rate_bits=None, abs_det=None, d_max=None, rate_gap_bound_bits=None,
            error='ValueError: bad, "quoted" value',
        )
        target = tmp_path / "err.csv"
        emit_csv([rec], target)
        with open(target, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["error"] == 'ValueError: bad, "quoted" value'

    def test_bare_carriage_return_stays_in_its_row(self):
        recs = [ResultRecord("rate_vs_snr", 0, "identity", 0.0, None, None, 1.5, None, error="ValueError: a\rb"),
                ResultRecord("rate\rvs", 1, "max\rdet", 0.5, 2.0, 1.0, 1.5, 0.25, sigma_min_h=0.5)]
        data = csv_bytes(recs)
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
        assert rows == [list(CSV_COLUMNS),
                        ["rate_vs_snr", "0", "identity", "0", "", "", "1.5", "", "", "", "ValueError: a\rb"],
                        ["rate\rvs", "1", "max\rdet", "0.5", "2", "1", "1.5", "0.25", "", "0.5", ""]]
        assert data.count(b"\n") == 3 and b'"ValueError: a\rb"' in data

    def test_emit_csv_writes_the_bytes_of_csv_bytes(self, tmp_path):
        records = run_experiment(tiny_config(TestRunRateVsSnr.CONFIG)) + list(_ODD_RECORDS)
        target = tmp_path / "run.csv"
        emit_csv(records, target)
        assert target.read_bytes() == csv_bytes(records) == _reference_csv(records)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(_harness_records, _odd_cell_records, _any_records), max_size=12))
    @example(list(_ODD_RECORDS))
    def test_template_writer_matches_csv_writer(self, records):
        assert csv_bytes(records) == _reference_csv(records)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_repeating_records())
    @example(_down_column("rate_bits", [0.0, -0.0, 0.0]))
    @example(_down_column("abs_det", [-0.0, 0.0]))
    @example(_down_column("d_max", [np.float64(0.0), np.float64(-0.0)]))
    @example(_down_column("sweep_value", [np.float64(-0.0), 0.0, np.float64(0.0)]))
    @example(_down_column("sigma_min_h", [0.0, np.float64(-0.0), None]))
    @example(_down_column("rate_gap_bound_bits", [1, 1.0, True]))
    @example(_down_column("trial", [True, 1, 1.0]))
    @example(_down_column("abs_det", [10**20, 1e20]))
    @example(_down_column("trial", [1e20, 10**20]))
    @example(_down_column("rate_bits", [float("nan"), float("nan"), np.float64("nan")]))
    @example(_down_column("d_max", [0.1] * 14))
    def test_column_writer_keeps_cells_a_dict_merges(self, records):
        assert csv_bytes(records) == _reference_csv(records)

    @pytest.mark.parametrize("cells", [2, 12])
    def test_record_of_another_width_raises(self, tmp_path, cells):
        good = ResultRecord("rate_vs_snr", 0, "identity", 0.0, 1.0, 2.0, 3.0, 4.0)
        bad = tuple(good) + ("extra",) if cells == 12 else ("rate_vs_snr", 1)
        records = [good, good, bad, good]
        with pytest.raises(ValueError, match=f"record 2 has {cells} cells, expected 11"):
            csv_bytes(records)
        with pytest.raises(ValueError, match=f"record 2 has {cells} cells, expected 11"):
            emit_csv(records, tmp_path / "bad.csv")
        assert not (tmp_path / "bad.csv").exists()

    def test_susceptance_csv_header(self):
        b = SusceptanceMatrix(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), z0=50.0)
        buf = io.StringIO()
        write_susceptance_csv(b, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# qstem q=2 M=4 Z0=50"
        assert len(lines) == 5

    def test_susceptance_csv_cells_are_17_digit_floats(self):
        b = np.random.default_rng(2).standard_normal((5, 5)) * np.logspace(-300, 300, 5)
        b = b + b.T
        b[0, 1] = b[1, 0] = -0.0
        buf = io.StringIO()
        write_susceptance_csv(SusceptanceMatrix(b, np.zeros((5, 0)), np.zeros(0), z0=37.3), buf)
        assert buf.getvalue() == "# qstem q=5 M=5 Z0=37.299999999999997\n" + "".join(
            ",".join(format(x, ".17g") for x in row) + "\n" for row in b)


class TestLoadConfig(object):
    def test_reads_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("experiment = rate_vs_snr\ntrials = 2\n")
        assert load_config(path).trials == 2
