import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import bdris
from bdris import harness, qstem
from bdris.channel import (
    _generators,
    ChannelParams,
    ChannelSet,
    Geometry,
    LinkBudget,
    budget_for_reference_snr,
    build_channel_set,
    derive_seed,
    gen_rayleigh,
    linear_snr,
    path_loss,
    reference_snr_db,
)


class TestPathLoss:
    def test_unit_distance(self):
        assert path_loss(1.0, 2.0) == 1.0

    def test_ten_meters_exponent_two(self):
        assert path_loss(10.0, 2.0) == pytest.approx(0.1, rel=1e-15)

    def test_fifty_meters_exponent_four(self):
        assert path_loss(50.0, 4.0) == pytest.approx(4e-4, rel=1e-12)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_loss(0.0, 2.0)
        with pytest.raises(ValueError):
            path_loss(-1.0, 2.0)


class TestGenerators:
    def test_rayleigh_moments(self):
        h = gen_rayleigh(100, 100, seed=5)
        # 1e4 unit-variance samples: mean within 3 standard errors of zero
        assert abs(h.mean()) < 3.0 / np.sqrt(h.size)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_rayleigh_deterministic(self):
        assert np.array_equal(gen_rayleigh(4, 6, 9), gen_rayleigh(4, 6, 9))

    def test_rician_k_zero_is_rayleigh_variance(self):
        for h in rician_links(100, 100, k_factor=0.0, seed=3):
            assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_rician_los_limit_rank_one(self):
        for h in rician_links(8, 16, k_factor=1e6, seed=4):
            s = np.linalg.svd(h, compute_uv=False)
            assert s[1] / s[0] < 1e-2

    def test_rician_unit_entry_variance_any_k(self):
        for h in rician_links(120, 120, k_factor=2.0, seed=11):
            assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.05)


def rician_links(rows, cols, k_factor, seed):
    """F and G, rows x cols each, of build_channel_set without path loss."""
    ch = build_channel_set(Geometry(), ChannelParams(n_t=rows, n_r=rows, m=cols, rician_k=k_factor),
                           seed=seed, apply_path_loss=False)
    assert ch.f.shape == ch.g.shape == (rows, cols)
    return ch.f, ch.g


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)
        seeds = {derive_seed(master, t) for master in (0, 1, 42) for t in range(50)}
        assert len(seeds) == 150

    def test_64_bit_range(self):
        s = derive_seed(2**63, 123456)
        assert 0 <= s < 2**64


def _per_seed_draw(seeds, link, rows, cols):
    """The complex Gaussian stack as drawn one generator at a time: np.random.default_rng(derive_seed(s, link))
    for each seed s, drawing the real part and then the imaginary part."""
    draws = []
    for s in seeds:
        rng = np.random.default_rng(derive_seed(s, link))
        re = rng.standard_normal((rows, cols))
        draws.append(re + 1j * rng.standard_normal((rows, cols)))
    return np.array(draws) / np.sqrt(2.0)


class TestSeeding:
    """The one-pass seeding must stay numpy's: if numpy changes its seeding, these fail."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @example(seeds=[0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    def test_words_and_draws_are_those_of_default_rng(self, seeds):
        for s, rng in zip(seeds, _generators(seeds), strict=True):
            words = rng.bit_generator.seed_seq.words  # what PCG64 was seeded with
            assert words.dtype == np.uint64
            assert np.array_equal(words, np.random.SeedSequence(s).generate_state(4, np.uint64))
            assert np.array_equal(rng.standard_normal((4, 16)), np.random.default_rng(s).standard_normal((4, 16)))

    @pytest.mark.parametrize("n_t, n_r, m", [(4, 4, 16), (3, 5, 7)])
    @pytest.mark.parametrize("blocked", [True, False])
    @pytest.mark.parametrize("trials", [1, 2, 64])
    def test_build_channel_set_draws_what_per_seed_generators_draw(self, n_t, n_r, m, blocked, trials):
        # with K = 0 and no path loss each link is its Gaussian draw, bit for bit
        seeds = [derive_seed(7, t) for t in range(trials)]
        params = ChannelParams(n_t=n_t, n_r=n_r, m=m, rician_k=0.0)
        ch = build_channel_set(Geometry(), params, seeds, blocked=blocked, apply_path_loss=False)
        assert np.array_equal(ch.f, _per_seed_draw(seeds, 0, n_r, m))
        assert np.array_equal(ch.g, _per_seed_draw(seeds, 1, n_t, m))
        if blocked:
            assert ch.h_direct is None
        else:
            assert np.array_equal(ch.h_direct, _per_seed_draw(seeds, 2, n_r, n_t))

    def test_import_leaves_numpy_random_unimported(self):
        src = str(Path(bdris.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, bdris; print('numpy.random' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestGeometry:
    def test_paper_distances(self):
        geo = Geometry()
        assert geo.d_tx_ris == pytest.approx(np.sqrt(36.25), rel=1e-12)  # ~6.021 m
        assert geo.d_tx_rx == pytest.approx(50.0, rel=1e-12)

    def test_rejects_coincident_nodes(self):
        with pytest.raises(ValueError):
            Geometry(tx_pos=(1.0, 2.0, 3.0), ris_pos=(1.0, 2.0, 3.0))


class TestChannelParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_t": 0},
            {"m": 0},
            {"rician_k": -1.0},
            {"alpha_ris": -2.0},
            {"direct_scale": -0.1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["rician_k", "alpha_ris", "alpha_direct", "direct_scale"])
    def test_float_fields_are_finite(self, name, value):
        # NaN in any field, and inf rician_k or direct_scale, used to pass here and fail the run
        # with "non-finite entries"; an inf alpha_ris ran to error rows only
        with pytest.raises(ValueError, match=f"{name} must be nonnegative and finite, got {value!r}"):
            ChannelParams(**{name: value})

    @pytest.mark.parametrize("name", ["n_t", "n_r", "m"])
    def test_counts_are_integers(self, name):
        # m = 16.0 used to pass here and fail in build_channel_set with a TypeError
        for value in (16.0, 2.5, "4"):
            with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
                ChannelParams(**{name: value})
        assert getattr(ChannelParams(**{name: np.int64(2)}), name) == 2


class TestBuildChannelSet:
    def test_blocked_direct_absent(self):
        params = ChannelParams(direct_scale=0.0)
        ch = build_channel_set(Geometry(), params, seed=1, blocked=True)
        assert ch.h_direct is None

    def test_shapes_and_direct(self):
        params = ChannelParams(n_t=3, n_r=5, m=12)
        ch = build_channel_set(Geometry(), params, seed=2, blocked=False)
        assert ch.f.shape == (5, 12)
        assert ch.g.shape == (3, 12)
        assert ch.h_direct.shape == (5, 3)
        assert (ch.n_r, ch.n_t, ch.m) == (5, 3, 12)

    def test_path_loss_is_scalar_amplitude(self):
        geo = Geometry()
        params = ChannelParams()
        with_pl = build_channel_set(geo, params, seed=3, blocked=False)
        without = build_channel_set(geo, params, seed=3, blocked=False, apply_path_loss=False)
        assert_allclose(with_pl.g, path_loss(geo.d_tx_ris, params.alpha_ris) * without.g, rtol=1e-15)
        assert_allclose(with_pl.f, path_loss(geo.d_ris_rx, params.alpha_ris) * without.f, rtol=1e-15)
        assert_allclose(
            with_pl.h_direct,
            path_loss(geo.d_tx_rx, params.alpha_direct) * without.h_direct,
            rtol=1e-15,
        )

    def test_deterministic(self):
        a = build_channel_set(Geometry(), ChannelParams(), seed=4, blocked=False)
        b = build_channel_set(Geometry(), ChannelParams(), seed=4, blocked=False)
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.h_direct, b.h_direct)

    def test_direct_scale_is_exact_multiplier(self):
        base = build_channel_set(Geometry(), ChannelParams(direct_scale=1.0), seed=5, blocked=False)
        scaled = build_channel_set(Geometry(), ChannelParams(direct_scale=2.5), seed=5, blocked=False)
        assert np.array_equal(scaled.h_direct, 2.5 * base.h_direct)
        assert np.array_equal(scaled.f, base.f)
        assert np.array_equal(scaled.g, base.g)

    def test_channel_set_validates_dimensions(self):
        with pytest.raises(ValueError):
            ChannelSet(f=np.ones((2, 8)), g=np.ones((2, 6)))
        with pytest.raises(ValueError):
            ChannelSet(f=np.ones((2, 8)), g=np.ones((2, 8)), h_direct=np.ones((3, 2)))

    @pytest.mark.parametrize("link", ["f", "g"])
    def test_channel_set_rejects_non_finite_links(self, link):
        links = {"f": np.ones((2, 8)), "g": np.ones((2, 8))}
        links[link][1, 3] = np.nan
        with pytest.raises(ValueError, match="channel matrices contain non-finite entries"):
            ChannelSet(**links)

    def test_channel_set_rejects_non_finite_direct_link(self):
        with pytest.raises(ValueError, match="h_direct contains non-finite entries"):
            ChannelSet(f=np.ones((2, 8)), g=np.ones((2, 8)), h_direct=np.full((2, 2), np.inf))


class TestLinkBudget:
    def test_from_power(self):
        budget = LinkBudget.from_power(power=8.0, noise_var=2.0, n_t=4)
        assert budget.rho == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LinkBudget(power=0.0, noise_var=1.0, rho=1.0)

    @pytest.mark.parametrize("power,rho", [(np.inf, np.inf), (np.nan, 1.0), (1.0, np.nan), (1.0, np.inf)])
    def test_rejects_nonfinite(self, power, rho):
        with pytest.raises(ValueError, match="positive and finite"):
            LinkBudget(power=power, noise_var=1.0, rho=rho)

    def test_grid_call_matches_calls_per_point(self):
        # one call over every (trial, point) pair gives, bit for bit, the rho of a call per point
        ch = build_channel_set(Geometry(), ChannelParams(), seed=range(50))
        grid = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
        rho = budget_for_reference_snr(ch, grid).rho
        assert rho.shape == (50, 7)
        assert np.array_equal(rho, np.stack([budget_for_reference_snr(ch, db).rho for db in grid], axis=-1))

    def test_overflowing_reference_power_rejected(self):
        ch = ChannelSet(f=np.full((2, 4), 1e-3 + 0j), g=np.full((2, 4), 1e-3 + 0j))
        with pytest.raises(ValueError, match="power = inf"):
            budget_for_reference_snr(ch, 3070.0)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, np.nan])
    def test_snr_off_the_linear_range_is_bad_input(self, snr_db):
        # a ValueError, not the ArithmeticError of a numerical failure (OverflowError at 4000 dB)
        ch = build_channel_set(Geometry(), ChannelParams(), seed=1)
        with pytest.raises(ValueError, match="dB under- or overflows the linear SNR"):
            budget_for_reference_snr(ch, snr_db)
        with pytest.raises(ValueError, match="dB under- or overflows the linear SNR"):
            linear_snr(snr_db)

    def test_linear_snr_is_the_python_float_power(self):
        for snr_db in (0.0, 10.0, -3.0, 3000.0, np.float64(17.5)):
            assert type(linear_snr(snr_db)) is float
            assert linear_snr(snr_db) == 10.0 ** (float(snr_db) / 10.0)


@pytest.mark.parametrize("bad_input", [
    lambda: LinkBudget.from_power(1.0, 1.0, 0),  # rho = P / (n_t sigma^2) would divide by zero
    lambda: LinkBudget.from_power(1.0, 0.0, 4),
    lambda: harness.ExperimentConfig("rate_vs_snr", trials=True, designs=("max_det_symmetric",)),  # True is an int
    lambda: ChannelParams(n_t=True, n_r=True, m=True),
    lambda: qstem.element_count(True, 4),
], ids=["no_antennas", "no_noise", "bool_trials", "bool_params", "bool_q"])
def test_bad_input_raises_value_error(bad_input):
    with pytest.raises(ValueError):
        bad_input()


class TestReferenceSnr:
    def test_zero_cascade_is_minus_inf_without_a_warning(self):
        ch = ChannelSet(f=np.zeros((2, 8), complex), g=np.ones((2, 8), complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reference_snr_db(ch, LinkBudget.from_power(1.0, 1.0, 2)) == -np.inf

    def test_all_scalars_zero_db(self):
        ch = ChannelSet(f=np.array([[1.0 + 0j]]), g=np.array([[1.0 + 0j]]))
        budget = LinkBudget.from_power(1.0, 1.0, 1)
        assert reference_snr_db(ch, budget) == pytest.approx(0.0, abs=1e-12)

    def test_power_100_is_20_db(self):
        ch = ChannelSet(f=np.array([[1.0 + 0j]]), g=np.array([[1.0 + 0j]]))
        budget = LinkBudget.from_power(100.0, 1.0, 1)
        assert reference_snr_db(ch, budget) == pytest.approx(20.0, abs=1e-12)

    def test_seeded_formula(self):
        params = ChannelParams(n_t=4, n_r=4, m=16)
        ch = build_channel_set(Geometry(), params, seed=6)
        budget = LinkBudget.from_power(3.0, 0.5, 4)
        expected = 10.0 * np.log10(
            3.0 * np.linalg.norm(ch.f @ ch.g.conj().T) ** 2 / (4 * 4 * 0.5)
        )
        assert reference_snr_db(ch, budget) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(st.integers(1, 70), *[st.integers(1, 9)] * 2),
           m=st.integers(1, 40), exponent=st.floats(-75.0, 75.0))
    def test_cascade_norm_is_each_trials_linalg_norm(self, seed, shape, m, exponent):
        # bit for bit, at any scale: ||F G^H||_F sets the reference SNR, so rho and every rate read it
        rng = np.random.default_rng(seed)
        trials, n_r, n_t = shape
        f, g = (10.0**exponent * (rng.standard_normal((trials, n, m)) + 1j * rng.standard_normal((trials, n, m)))
                for n in (n_r, n_t))
        norm = ChannelSet(f, g).cascade_norm
        assert np.array_equal(norm, [np.linalg.norm(fg) for fg in f @ g.conj().mT])
        assert norm.dtype == np.float64 and norm.shape == (trials,)

    def test_cascade_norm_is_cached_and_shared_by_with_direct(self):
        ch = build_channel_set(Geometry(), ChannelParams(), seed=8, blocked=False)
        assert ch.cascade_norm == np.linalg.norm(ch.f @ ch.g.conj().T)
        svds, norm = ch.svds, ch.cascade_norm
        scaled = ch.with_direct(2.0 * ch.h_direct)
        assert scaled.svds is svds and scaled.cascade_norm is norm
        assert np.array_equal(scaled.h_direct, 2.0 * ch.h_direct)
        assert scaled.f is ch.f and scaled.g is ch.g

    def test_budget_for_reference_snr_roundtrip(self):
        ch = build_channel_set(Geometry(), ChannelParams(), seed=7)
        budget = budget_for_reference_snr(ch, 10.0)
        assert reference_snr_db(ch, budget) == pytest.approx(10.0, abs=1e-10)

    def test_roundtrip_over_stack_and_grid(self):
        ch = build_channel_set(Geometry(), ChannelParams(), seed=range(50))
        grid = np.array([0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
        snr_db = reference_snr_db(ch, budget_for_reference_snr(ch, grid))
        assert snr_db.shape == (50, 7)
        assert np.abs(snr_db - grid).max() <= 1e-12
        assert reference_snr_db(ch, budget_for_reference_snr(ch, 10.0)).shape == (50,)
        assert type(reference_snr_db(ch.take(3), budget_for_reference_snr(ch.take(3), 10.0))) is float
