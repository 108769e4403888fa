"""Trials run in blocks evaluated as one stack, in order on one thread.  The
block size and a failing trial in the block must not change any other trial's
bytes, and a failure must stay in the rows of the trial that raised it."""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from bdris import channel, designs, harness
from bdris.channel import ChannelSet, derive_seed

from conftest import d_max_underflow_config

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.cfg"))


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


# A block of nine trials, three of them spoiled: trial 2 has a rank-one F,
# trial 4 a G whose conjugate shares F's row space (every principal angle is
# zero, so its Max-Det frame is r columns narrower than the others'), and
# trial 6 an F so weak that the power calibrated for 3040 dB overflows.
SPOILED = """
experiment = rate_vs_snr
trials = 9
master_seed = 3
apply_path_loss = false
snr_grid_db = 3040, 10
designs = unitary_baseline, max_det_symmetric, random_symmetric
"""

CONFIGS = {f"workload-{name}": w.config_text(7) for name, w in sorted(_workloads().items())}
CONFIGS.update((f"golden-{path.stem}", path.read_text()) for path in GOLDEN)
# failing trials in every experiment (nine whose d_max underflows), and SPOILED's trials as drawn
CONFIGS.update((f"d_max_underflow-{exp}", d_max_underflow_config(exp, trials=9)) for exp in harness.EXPERIMENTS)
CONFIGS["spoiled"] = SPOILED
# each experiment's defaults: the 31-phi grid, ten q-stem circuits, random_symmetric with a direct link
CONFIGS.update((f"default-{exp}", f"experiment = {exp}\ntrials = 5\n") for exp in harness.EXPERIMENTS)


def run_csv(text, **kwargs):
    return harness.csv_bytes(harness.run_experiment(harness.parse_config(text), **kwargs))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_block_size_and_threads_do_not_change_output(name, monkeypatch):
    reference = run_csv(CONFIGS[name], threads=1)  # the one thread count, as the benchmark passes it
    for block in (1, 7, harness.BLOCK_TRIALS):
        monkeypatch.setattr(harness, "BLOCK_TRIALS", block)
        assert run_csv(CONFIGS[name]) == reference, block


@pytest.mark.parametrize("name", ["snr_sweep", "direct_link"])
@pytest.mark.parametrize("block", [2, harness.BLOCK_TRIALS])
def test_one_link_budget_per_block(name, block, monkeypatch):
    # a block's rho at every (trial, SNR point) pair comes from one call
    text = _workloads()[name].config_text(7)
    reference = run_csv(text)
    budgets = mock.Mock(side_effect=harness.budget_for_reference_snr)
    monkeypatch.setattr(harness, "budget_for_reference_snr", budgets)
    monkeypatch.setattr(harness, "BLOCK_TRIALS", block)
    assert run_csv(text) == reference
    trials = harness.parse_config(text).trials
    assert budgets.call_count == -(-trials // block)


@pytest.mark.parametrize("trials, sizes", [(20, [20]), (200, [50] * 4), (65, [33, 32])])
def test_equal_blocks(trials, sizes, monkeypatch):
    # the fewest blocks of at most BLOCK_TRIALS trials, of equal sizes, in trial order
    runner = mock.Mock(side_effect=lambda config, first, n: [[] for _ in range(n)])
    monkeypatch.setitem(harness._EXPERIMENTS, "rate_vs_snr", harness._EXPERIMENTS["rate_vs_snr"]._replace(run=runner))
    harness.run_experiment(harness.parse_config(f"experiment = rate_vs_snr\ntrials = {trials}\n"))
    assert [(c.args[1], c.args[2]) for c in runner.call_args_list] == \
        [(sum(sizes[:i]), n) for i, n in enumerate(sizes)]


@pytest.mark.parametrize("threads", [0, 2, 4])
def test_only_one_thread(threads):
    with pytest.raises(ValueError, match="threads must be 1"):
        harness.run_experiment(harness.parse_config("experiment = rate_vs_snr\ntrials = 2\n"), threads)


RANK = "DegenerateChannelError: channel rank below degrees of freedom r=4 (rank F = 1, rank G = 4)"
POWER = ("ValueError: power, noise_var, and rho must be positive and finite "
         "(power = inf, noise_var = 1, rho = inf)")
# the error column of every failed row, as the per-trial harness wrote it
EXPECTED_ERRORS = {
    (2, "unitary_baseline", 3040.0): RANK,
    (2, "max_det_symmetric", 3040.0): RANK,
    (2, "unitary_baseline", 10.0): RANK,
    (2, "max_det_symmetric", 10.0): RANK,
    (6, "unitary_baseline", 3040.0): POWER,
    (6, "max_det_symmetric", 3040.0): POWER,
    (6, "random_symmetric", 3040.0): POWER,
}


def _spoil(f, g, kind):
    if kind == "rank":
        return np.outer(f[:, 0], f[0]), g
    if kind == "zero_angle":
        return f, np.conj(np.random.default_rng(1).standard_normal((g.shape[0], f.shape[0])) @ f)
    return 1e-3 * f, g


def _spoiled_build(build):
    spoiled = {derive_seed(3, 2): "rank", derive_seed(3, 4): "zero_angle", derive_seed(3, 6): "weak"}

    def spoiled_build(geometry, params, seeds, **kwargs):
        channels = build(geometry, params, seeds, **kwargs)
        f, g = channels.f.copy(), channels.g.copy()
        for i, seed in enumerate(seeds):
            if seed in spoiled:
                f[i], g[i] = _spoil(f[i], g[i], spoiled[seed])
        return ChannelSet(f, g)

    return spoiled_build


# SPOILED's block in the experiments that stack (trial, variant) pairs: trial 2 fails every stack it is
# in, trial 4 splits the Max-Det stack by frame width, and trial 6's rho fails at the one point, so
# that it is decided
SPOILED_STACKS = {
    "qstem_sweep": "experiment = qstem_sweep\ntrials = 9\nmaster_seed = 3\napply_path_loss = false\n"
                   "snr_grid_db = 3040\nq_grid = 1, 3, 7, 8\n",
    "det_family": "experiment = det_family\ntrials = 9\nmaster_seed = 3\nsnr_mode = reference\nsnr_grid_db = 3040\n",
}


@pytest.mark.parametrize("name", sorted(SPOILED_STACKS))
def test_block_size_does_not_change_spoiled_stacks(name, monkeypatch):
    monkeypatch.setattr(harness, "build_channel_set", _spoiled_build(harness.build_channel_set))
    reference = run_csv(SPOILED_STACKS[name])
    assert b"DegenerateChannelError" in reference and b"ValueError: power" in reference
    for block in (1, 7, harness.BLOCK_TRIALS):
        monkeypatch.setattr(harness, "BLOCK_TRIALS", block)
        assert run_csv(SPOILED_STACKS[name]) == reference, block


def test_errors_stay_in_their_own_trial(monkeypatch):
    clean = harness.run_experiment(harness.parse_config(SPOILED))
    monkeypatch.setattr(harness, "build_channel_set", _spoiled_build(harness.build_channel_set))
    solves = mock.Mock(side_effect=designs.solve_maxdet)
    with mock.patch.object(designs, "solve_maxdet", solves):
        records = harness.run_experiment(harness.parse_config(SPOILED))
    assert solves.call_args_list[0].args[0].f.shape[0] == 9  # the nine trials were one stack first
    errors = {(rec.trial, rec.design, rec.sweep_value): rec.error for rec in records if rec.error}
    assert errors == EXPECTED_ERRORS
    for rec in records:
        if rec.error:
            assert rec.rate_bits is rec.abs_det is rec.rate_gap_bound_bits is None
    # the narrower Max-Det frame still attains d_max
    (zero_angle,) = [rec for rec in records if rec.trial == 4 and rec.design == "max_det_symmetric"
                     and rec.sweep_value == 10.0]
    assert abs(zero_angle.abs_det - zero_angle.d_max) <= 1e-8 * zero_angle.d_max
    for got, want in zip(records, clean):
        if got.trial not in (2, 4, 6):
            assert got == want
    monkeypatch.setattr(harness, "BLOCK_TRIALS", 1)
    assert harness.csv_bytes(harness.run_experiment(harness.parse_config(SPOILED))) == \
        harness.csv_bytes(records)


def test_zero_angle_trial_is_solved_in_its_own_stack():
    # mixed frame widths cannot share a stack: solve_maxdet says so, and the
    # harness solves the trials in stacks of one width
    f = np.random.default_rng(5).standard_normal((2, 4, 16)) + 1j
    g = np.random.default_rng(6).standard_normal((2, 4, 16)) + 0j
    g[1] = np.conj(np.random.default_rng(7).standard_normal((4, 4)) @ f[1])
    stack = ChannelSet(f, g)
    with pytest.raises(ValueError, match="differ in width"):
        designs.solve_maxdet(stack)
    assert [designs.solve_maxdet(stack.take(slice(i, i + 1))).left.shape[-1] for i in (0, 1)] == [8, 4]


def test_det_family_rotations_are_stacked():
    # a stack is the block's run of live trials: each rotation is evaluated once, over both trials
    config = harness.parse_config("experiment = det_family\ntrials = 2\nmaster_seed = 2\n")
    rotated = mock.Mock(side_effect=designs.rotated_family)
    svd, shapes = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    with mock.patch.object(designs, "rotated_family", rotated), mock.patch.object(np.linalg, "svd", spy):
        records = harness.run_experiment(config)
    assert len(records) == 2 * (2 + 31) and not any(rec.error for rec in records)
    assert [(call.args[0].f.shape[0], np.shape(call.args[1])) for call in rotated.call_args_list] == [(2, (4, 4))] * 31
    assert [call.args[1][1, 0] for call in rotated.call_args_list] == list(np.sin(config.phi_grid))
    # Max-Det's principal angles, then the Max-Det, unitary and rotated RIS channels: a stack each
    assert shapes.count((2, 4, 4)) == 1 + 2 + 31


@pytest.mark.parametrize("block, stacks", [(harness.BLOCK_TRIALS, [3] * 31 + [6] * 31),
                                           (7, [3] * 31 + [1] * 31 + [5] * 31)])
def test_a_stack_is_a_run_of_live_trials(block, stacks, monkeypatch):
    # ten trials, trial 3 decided by its d_max: the runs 0-2 and 4-9 in one block, or 0-2, 4 and 5-9 in
    # blocks of five; every rotation is evaluated over each run
    config = harness.parse_config("experiment = det_family\ntrials = 10\n")
    spoiled_f = harness._start_block(config, 0, 10).channels.f[3]
    d_max = harness.metrics.d_max

    def failing_d_max(channels):
        if any(np.array_equal(f, spoiled_f) for f in channels.f):
            raise ArithmeticError("spoiled trial")
        return d_max(channels)

    rotated = mock.Mock(side_effect=designs.rotated_family)
    monkeypatch.setattr(harness.metrics, "d_max", failing_d_max)
    monkeypatch.setattr(harness, "BLOCK_TRIALS", block)
    with mock.patch.object(designs, "rotated_family", rotated):
        records = harness.run_experiment(config)
    assert [len(call.args[0].f) for call in rotated.call_args_list] == stacks
    assert {rec.trial for rec in records if rec.error} == {3}


def test_geometry_terms_once_per_block():
    steering = mock.Mock(side_effect=channel._ula_response)
    with mock.patch.object(channel, "_ula_response", steering):
        harness.run_experiment(harness.parse_config("experiment = rate_vs_snr\ntrials = 130\n"))
    assert steering.call_count == 3 * 4  # two arrays per RIS link, for each of three blocks


def test_a_failing_bound_stays_at_its_point(monkeypatch):
    # the block's rate-gap bounds are one call over its (trial, point) pairs; one
    # pair that raises is split off, and its trial's other points keep their bounds
    config = harness.parse_config("experiment = rate_vs_snr\ntrials = 5\nmaster_seed = 4\n"
                                  "snr_grid_db = 0, 10, 20\n")
    clean = harness.run_experiment(config)
    block = harness._start_block(config, 0, 5)
    spoiled_sf, spoiled_rho = block.channels.svds[0][1][2, 0], block.rhos[2, 1]  # trial 2 at 10 dB
    bound = harness.metrics.rate_gap_bound

    def spoiled_bound(sigma_f, sigma_g, rho):
        if np.any((np.asarray(sigma_f)[..., 0] == spoiled_sf) & (np.asarray(rho) == spoiled_rho)):
            raise ArithmeticError("spoiled pair")
        return bound(sigma_f, sigma_g, rho)

    monkeypatch.setattr(harness.metrics, "rate_gap_bound", spoiled_bound)
    records = harness.run_experiment(config)
    assert len(records) == len(clean) == 5 * 3 * 2
    for got, want in zip(records, clean):
        if (got.trial, got.sweep_value) == (2, 10.0):
            assert got.error == "ArithmeticError: spoiled pair"
            assert got.rate_bits is got.rate_gap_bound_bits is None and got.d_max == want.d_max
        else:
            assert got == want and not got.error
    monkeypatch.setattr(harness, "BLOCK_TRIALS", 1)
    assert harness.csv_bytes(harness.run_experiment(config)) == harness.csv_bytes(records)


def test_no_call_is_repeated(monkeypatch):
    # a failing trial is split by its SNR points or designs at once: the call that failed is not made again
    monkeypatch.setattr(harness, "build_channel_set", _spoiled_build(harness.build_channel_set))
    budgets = mock.Mock(side_effect=harness.budget_for_reference_snr)
    baselines = mock.Mock(side_effect=designs.unitary_baseline)
    monkeypatch.setattr(harness, "budget_for_reference_snr", budgets)
    monkeypatch.setattr(designs, "unitary_baseline", baselines)
    harness.run_experiment(harness.parse_config(SPOILED))
    budget_args = [(call.args[0].f.tobytes(), np.asarray(call.args[1]).tobytes()) for call in budgets.call_args_list]
    baseline_args = [call.args[0].f.tobytes() for call in baselines.call_args_list]
    assert len(set(budget_args)) == len(budget_args) > 1 and len(set(baseline_args)) == len(baseline_args) > 1
