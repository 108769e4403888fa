import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.testing import assert_allclose

from bdris import designs, metrics
from bdris.channel import ChannelSet
from bdris.designs import ScatteringMatrix


def dense(theta):
    return ScatteringMatrix.from_theta(theta)


_EXACT = decimal.Context(prec=80)


def exact_log2_1p(x):
    """log2(1 + x) of a Decimal x to 80 digits, without cancelling for small x."""
    with decimal.localcontext(_EXACT):
        ln = x - x * x / 2 + x * x * x / 3 if abs(x) < decimal.Decimal("1e-30") else (1 + x).ln()
        return ln / decimal.Decimal(2).ln()


def exact_rate_gap_bound(sigma_f, sigma_g, rho):
    """r log2[(1 + 1/(rho bot)) / (1 + 1/(rho top))] of the float inputs, exactly to 80 digits."""
    with decimal.localcontext(_EXACT):
        top, bot = ((pick(map(decimal.Decimal, sigma_f)) * pick(map(decimal.Decimal, sigma_g))) ** 2
                    for pick in (max, min))
        a, b = 1 / (decimal.Decimal(rho) * bot), 1 / (decimal.Decimal(rho) * top)
        return float(len(sigma_f) * exact_log2_1p((a - b) / (1 + b)))


@st.composite
def link_values(draw, r):
    """r singular values of one link, over 10^(+-170), or nearly equal to the first."""
    first = 10.0 ** draw(st.floats(-170, 170))
    if draw(st.booleans()):
        return [first] + [first * (1.0 - 10.0 ** draw(st.floats(-12, -1))) for _ in range(r - 1)]
    return [first] + [10.0 ** draw(st.floats(-170, 170)) for _ in range(r - 1)]


@st.composite
def gap_bound_inputs(draw):
    r = draw(st.integers(1, 4))
    return draw(link_values(r)), draw(link_values(r)), 10.0 ** draw(st.floats(-3, 17))


class TestEquivalentChannel:
    def test_zero_theta_blocked(self, iid_channels):
        # theta None is no RIS: a blocked link leaves H = 0, a direct one H = H_d
        ch = iid_channels(1, with_direct=True)
        assert_allclose(metrics.equivalent_channel(ChannelSet(f=ch.f, g=ch.g), None), 0.0)
        assert_allclose(metrics.equivalent_channel(ch, None, phase=1.0), ch.h_direct)

    def test_identity_theta(self, iid_channels):
        ch = iid_channels(2)
        assert_allclose(metrics.equivalent_channel(ch, dense(np.eye(8))), ch.f @ ch.g.conj().T)

    def test_phase_pi_flips_ris_term(self, iid_channels):
        ch = iid_channels(3, with_direct=True)
        theta = np.eye(8)
        h = metrics.equivalent_channel(ch, dense(theta), phase=np.pi)
        expected = ch.h_direct - ch.f @ theta @ ch.g.conj().T
        assert np.linalg.norm(h - expected) < 1e-14 * np.linalg.norm(expected)

    def test_dimension_mismatch(self, iid_channels):
        with pytest.raises(ValueError):
            metrics.equivalent_channel(iid_channels(4), dense(np.eye(5)))


class TestAchievableRate:
    def test_identity(self):
        assert metrics.achievable_rate(np.eye(2), 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_zero_channel(self):
        assert metrics.achievable_rate(np.zeros((2, 3)), 1.0) == 0.0

    def test_diagonal(self):
        h = np.diag([1.0, 2.0])
        assert metrics.achievable_rate(h, 1.0) == pytest.approx(math.log2(10.0), abs=1e-12)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            metrics.achievable_rate(np.eye(2), 0.0)

    def test_monotone_in_rho_and_gain(self, complex_matrix):
        h = complex_matrix(5, 3, 4)
        rates = [metrics.achievable_rate(h, rho) for rho in (0.1, 1.0, 10.0, 100.0)]
        assert np.all(np.diff(rates) > 0)
        assert metrics.achievable_rate(2.0 * h, 1.0) > metrics.achievable_rate(h, 1.0)

    def test_no_overflow_at_extreme_snr(self):
        rate = metrics.achievable_rate(1e3 * np.eye(4), 1e12)
        assert np.isfinite(rate)
        assert rate == pytest.approx(4 * math.log2(1e18), rel=1e-12)


class TestRateDecomposition:
    def test_diag_example(self):
        h = np.diag([1.0, 2.0])
        r_log_rho, log_det, err = metrics.rate_decomposition(h, 4.0)
        assert r_log_rho == pytest.approx(4.0, abs=1e-12)
        assert log_det == pytest.approx(2.0, abs=1e-12)
        assert err == pytest.approx(math.log2(1.25) + math.log2(1.0625), abs=1e-12)
        total = r_log_rho + log_det + err
        assert total == pytest.approx(math.log2(85.0), abs=1e-12)
        assert total == pytest.approx(metrics.achievable_rate(h, 4.0), abs=1e-10)

    def test_identity_channel(self):
        r_log_rho, log_det, err = metrics.rate_decomposition(np.eye(3), 1.0)
        assert (r_log_rho, log_det) == (0.0, 0.0)
        assert err == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_identity_holds(self, complex_matrix, seed):
        h = complex_matrix(seed, 3, 5)
        rho = [0.5, 1.0, 30.0, 1e3, 1e6][seed]
        parts = metrics.rate_decomposition(h, rho)
        assert sum(parts) == pytest.approx(metrics.achievable_rate(h, rho), abs=1e-10)

    def test_rank_deficient_rejected(self):
        h = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="rank-deficient"):
            metrics.rate_decomposition(h, 1.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(s=st.floats(-1, 0).map(lambda e: 10.0**e), rho=st.floats(6, 15).map(lambda e: 10.0**e))
    def test_error_term_keeps_its_digits_at_high_snr(self, s, rho):
        # log2(1 + 1/(rho s^2)) of one stream: a term near 1e-15 is not lost to 1 + x
        err = metrics.rate_decomposition(np.array([[s]]), rho)[2]
        want = float(exact_log2_1p(1 / (decimal.Decimal(rho) * decimal.Decimal(s) ** 2)))
        assert err <= metrics.error_term_bound(np.array([[s]]), rho)
        assert err == pytest.approx(want, rel=1e-14)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s, rho", [(1e200, 1.0), (1e160, 1e10), (1e155, 1e-300)])
    def test_squares_past_the_float_range(self, s, rho):
        # rho s^2, or s^2 alone, overflows: each term is taken from log2 rho + 2 log2 s, and nothing warns
        h = np.diag([s, 2.0 * s])
        gains = [decimal.Decimal(rho) * decimal.Decimal(x) ** 2 for x in (s, 2.0 * s)]
        rate, err = metrics.achievable_rate(h, rho), metrics.rate_decomposition(h, rho)[2]
        assert rate == pytest.approx(float(sum(exact_log2_1p(g) for g in gains)), rel=1e-14)
        assert sum(metrics.rate_decomposition(h, rho)) == pytest.approx(rate, rel=1e-12)
        assert err == pytest.approx(float(sum(exact_log2_1p(1 / g) for g in gains)), rel=1e-12)
        assert err <= metrics.error_term_bound(h, rho)


class TestErrorTermBound:
    def test_diag_example(self):
        h = np.diag([1.0, 2.0])
        bound = metrics.error_term_bound(h, 1.0)
        assert bound == pytest.approx(2.0 / math.log(2.0), abs=1e-12)  # 2.88539...
        actual = metrics.rate_decomposition(h, 1.0)[2]
        assert actual == pytest.approx(1.0 + math.log2(1.25), abs=1e-12)  # 1.32193...
        assert bound >= actual

    def test_inverse_linear_in_rho(self):
        h = np.diag([1.0, 2.0])
        assert metrics.error_term_bound(h, 10.0) == pytest.approx(
            metrics.error_term_bound(h, 1.0) / 10.0, rel=1e-12
        )

    def test_identity_channel(self):
        bound = metrics.error_term_bound(np.eye(3), 1.0)
        assert bound == pytest.approx(3.0 / math.log(2.0), abs=1e-12)
        assert bound >= metrics.rate_decomposition(np.eye(3), 1.0)[2]

    @pytest.mark.parametrize("seed", range(5))
    def test_dominates_actual_error(self, complex_matrix, seed):
        h = complex_matrix(seed + 20, 4, 6)
        for rho in (0.5, 1.0, 100.0):
            assert metrics.error_term_bound(h, rho) >= metrics.rate_decomposition(h, rho)[2]

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            metrics.error_term_bound(np.zeros((2, 2)), 1.0)

    def test_never_rounds_below_the_term(self):
        # r = 1..4 streams with rho s_min^2 in 10^U(0, 30): above ~1e15 the bound's slack, x/2 relative,
        # is below a rounding of 1/(rho s^2 ln 2), and only the shared x_i keep the bound on top
        rng = np.random.default_rng(2024)
        for _ in range(5000):
            rho = 10.0 ** rng.uniform(-3.0, 3.0)
            s_min = np.sqrt(10.0 ** rng.uniform(0.0, 30.0) / rho)
            h = np.diag(s_min * 10.0 ** np.append(rng.uniform(0.0, 2.0, rng.integers(0, 4)), 0.0))
            assert metrics.rate_decomposition(h, rho)[2] <= metrics.error_term_bound(h, rho)


class TestRateGapBound:
    def test_equal_singular_values_collapse(self):
        assert metrics.rate_gap_bound([2.0, 2.0], [0.5, 0.5], 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        bound = metrics.rate_gap_bound([2.0, 1.0], [3.0, 1.0], 1.0)
        assert bound == pytest.approx(2.0 * math.log2(72.0 / 37.0), abs=1e-12)  # 1.9210...

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            metrics.rate_gap_bound([1.0, 0.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            metrics.rate_gap_bound([1.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            metrics.rate_gap_bound([1.0], [1.0], -1.0)
        for sigma_f, sigma_g in ((1.0, 2.0), ([1.0], 2.0), (1.0, [2.0])):  # a 0-d array has no last axis
            with pytest.raises(ValueError, match="same nonzero length"):
                metrics.rate_gap_bound(sigma_f, sigma_g, 1.0)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(gap_bound_inputs())
    @example(([2.0, 1.0], [3.0, 1.0], 1e16))  # 2.8e-16 bits
    def test_matches_exact_reference(self, inputs):
        # to 1e-13, or where the logs the bound is formed from are large, to their rounding:
        # a bound e^z with |z| in the hundreds carries z's absolute error, ~eps |z|, as relative error
        sigma_f, sigma_g, rho = inputs
        logs = abs(math.log(rho)) + 2.0 * sum(max(abs(math.log(s)) for s in link) for link in (sigma_f, sigma_g))
        want = exact_rate_gap_bound(sigma_f, sigma_g, rho)
        got = metrics.rate_gap_bound(sigma_f, sigma_g, rho)
        assert abs(got - want) <= max(1e-13, 4.0 * np.finfo(float).eps * logs) * want + np.finfo(float).tiny

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma", [[1e-100, 1e-100], [1e100, 1.0]])
    def test_float_range_errors(self, sigma):
        # sf_r^2 sg_r^2 = 1e-800 would underflow, or sf_1^2 sg_1^2 = 1e800 overflow: the bound
        # forms no square, so it raises no error and no warning and gives the exact value
        bound = metrics.rate_gap_bound(sigma, sigma, 10.0)
        assert bound == pytest.approx(exact_rate_gap_bound(sigma, sigma, 10.0), rel=1e-13, abs=0.0)
        # equal values give 0; top = 1e400, bot = 1 give 2 log2[(1 + 1/10) / (1 + 1e-401)]
        hand = 0.0 if sigma[0] == sigma[1] else 2.0 * math.log2(1.1)
        assert bound == pytest.approx(hand, rel=1e-13, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_squares_take_log_path(self):
        # sg_r^2 = 9e-318 is subnormal while sf_r^2 sg_r^2 = 2.25e-118 is not; the
        # same products from normal squares give the bound to rounding
        bound = metrics.rate_gap_bound([1e100, 5e99], [1e-158, 3e-159], 10.0)
        rescaled = metrics.rate_gap_bound([1e-29, 5e-30], [1e-29, 3e-30], 10.0)
        assert bound == pytest.approx(rescaled, rel=1e-12)
        stacked = metrics.rate_gap_bound([[1e100, 5e99], [2.0, 1.0]], [[1e-158, 3e-159], [3.0, 1.0]], 1.0)
        assert stacked.tolist() == [metrics.rate_gap_bound([1e100, 5e99], [1e-158, 3e-159], 1.0),
                                    metrics.rate_gap_bound([2.0, 1.0], [3.0, 1.0], 1.0)]

    def test_vanishes_at_high_snr(self):
        bounds = [metrics.rate_gap_bound([2.0, 1.0], [3.0, 1.0], rho) for rho in (1, 1e2, 1e4)]
        assert bounds[0] > bounds[1] > bounds[2]
        assert bounds[2] < 1e-3


class TestDMax:
    def test_scalar_rows(self):
        ch = ChannelSet(f=np.array([[2.0, 0.0]], dtype=complex),
                        g=np.array([[3.0, 0.0]], dtype=complex))
        assert metrics.d_max(ch) == pytest.approx(6.0, abs=1e-12)

    def test_identity_links(self):
        ch = ChannelSet(f=np.eye(2, dtype=complex), g=np.eye(2, dtype=complex))
        assert metrics.d_max(ch) == pytest.approx(1.0, abs=1e-12)

    def test_seeded_against_independent_svd(self, iid_channels):
        ch = iid_channels(9, n_t=4, n_r=4, m=16)
        sf = np.sqrt(np.linalg.eigvalsh(ch.f @ ch.f.conj().T))[::-1]
        sg = np.sqrt(np.linalg.eigvalsh(ch.g @ ch.g.conj().T))[::-1]
        assert metrics.d_max(ch) == pytest.approx(np.prod(sf[:4]) * np.prod(sg[:4]), rel=1e-10)

    def test_asymmetric_uses_min_dof(self, iid_channels):
        ch = iid_channels(10, n_t=2, n_r=5, m=12)
        sf = np.linalg.svd(ch.f, compute_uv=False)
        sg = np.linalg.svd(ch.g, compute_uv=False)
        assert metrics.d_max(ch) == pytest.approx(sf[0] * sf[1] * sg[0] * sg[1], rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_log_space_where_the_plain_product_fails(self):
        # prod(sigma_f) = 1e-400 underflows and prod(sigma_g) = 1e400 overflows
        ch = ChannelSet(f=1e-200 * np.eye(2, dtype=complex), g=1e200 * np.eye(2, dtype=complex))
        assert metrics.d_max(ch) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_subnormal_link_product_takes_log_path(self, seed):
        # n_t = 4, n_r = 3, M = 5 with F scaled by 1.2e77 and G by 1.7e-107: prod(sigma_g[:3])
        # is subnormal, and d_max = prod(sigma_f[:3]) prod(sigma_g[:3]) ~ 1e-87 is not
        rng = np.random.default_rng(seed)
        f = 1.2e77 * (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
        g = 1.7e-107 * (rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)))
        ch = ChannelSet(f=f, g=g)
        ceiling = metrics.d_max(ch)
        log_ceiling = sum(np.sum(np.log(s[:3])) for _, s, _ in ch.svds)
        assert ceiling == pytest.approx(np.exp(log_ceiling), rel=1e-12)
        det = metrics.abs_det(metrics.ris_channel(ch, designs.solve_maxdet(ch)))
        assert abs(det - ceiling) <= 1e-8 * ceiling  # criterion 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_outside_float_range_raises(self, scale):
        ch = ChannelSet(f=scale * np.eye(2, dtype=complex), g=scale * np.eye(2, dtype=complex))
        with pytest.raises(ArithmeticError, match="d_max = e\\^.* outside the float range"):
            metrics.d_max(ch)
        with pytest.raises(ArithmeticError, match="float range"):
            metrics.abs_det(scale**2 * np.eye(2))

    def test_zero_when_fewer_elements_than_streams(self, iid_channels):
        ch = iid_channels(12, n_t=4, n_r=4, m=3)
        assert metrics.d_max(ch) == 0.0
        assert metrics.abs_det(metrics.ris_channel(ch, dense(np.eye(3)))) == 0.0


class TestAbsDet:
    def test_square_matches_determinant(self, complex_matrix):
        h = complex_matrix(40, 3, 3)
        assert metrics.abs_det(h) == pytest.approx(abs(np.linalg.det(h)), rel=1e-12)

    def test_wide_matches_gram_determinant(self, complex_matrix):
        h = complex_matrix(41, 2, 6)
        gram = np.real(np.linalg.det(h @ h.conj().T))
        assert metrics.abs_det(h) == pytest.approx(np.sqrt(gram), rel=1e-12)

    def test_rank_deficient_is_zero(self, complex_matrix):
        # a rank-one product has two singular values at rounding level
        h = complex_matrix(42, 3, 1) @ complex_matrix(43, 1, 3)
        assert metrics.abs_det(h) == 0.0
        assert metrics.abs_det(np.zeros((2, 3))) == 0.0


class TestEvaluateDesign:
    def test_fields_consistent_with_scalar_ops(self, iid_channels):
        ch = iid_channels(50, n_t=2, n_r=2, m=8)
        theta = dense(np.eye(8))
        (rate,), det, (sigma_min,) = metrics.evaluate_design(ch, theta, [2.0])
        h = metrics.equivalent_channel(ch, theta)
        assert rate == pytest.approx(metrics.achievable_rate(h, 2.0), abs=1e-12)
        assert det == pytest.approx(metrics.abs_det(h), rel=1e-12)
        assert sigma_min == pytest.approx(np.linalg.svd(h, compute_uv=False)[-1], rel=1e-12)

    def test_direct_link_det_is_ris_only(self, iid_channels):
        ch = iid_channels(52, n_t=2, n_r=2, m=8, with_direct=True)
        theta = dense(np.eye(8))
        (rate,), det, (sigma_min,) = metrics.evaluate_design(ch, theta, [2.0])
        h = metrics.equivalent_channel(ch, theta)
        assert det == metrics.abs_det(metrics.ris_channel(ch, theta))
        assert_allclose(metrics.ris_channel(ch, theta), ch.f @ ch.g.conj().T, rtol=1e-14)
        assert det != pytest.approx(metrics.abs_det(h), rel=1e-6)
        assert rate == pytest.approx(metrics.achievable_rate(h, 2.0), abs=1e-12)
        assert sigma_min == pytest.approx(np.linalg.svd(h, compute_uv=False)[-1], rel=1e-12)

    def test_no_ris_is_direct_link_only(self, iid_channels):
        ch = iid_channels(53, n_t=2, n_r=2, m=8, with_direct=True)
        (rate,), det, _ = metrics.evaluate_design(ch, None, [2.0])
        assert rate == pytest.approx(metrics.achievable_rate(ch.h_direct, 2.0), abs=1e-12)
        assert det == 0.0
        blocked = ChannelSet(f=ch.f, g=ch.g)
        assert [x.tolist() for x in metrics.evaluate_design(blocked, None, [2.0])] == [[0.0], 0.0, [0.0]]

    def test_rank_deficient_design(self, iid_channels):
        # a rank-1 Theta on two streams: H = F Theta G^H has rank 1, so |det| is exactly 0
        ch = iid_channels(51, n_t=2, n_r=2, m=8)
        e1 = np.eye(8)[:, :1]
        (rate,), det, (sigma_min,) = metrics.evaluate_design(ch, ScatteringMatrix(e1, e1), [1.0])
        s = np.linalg.svd(np.outer(ch.f[:, 0], ch.g[:, 0].conj()), compute_uv=False)
        assert det == 0.0 and sigma_min <= 1e-15 * s[0]
        assert rate == pytest.approx(np.log2(1.0 + s[0] ** 2), rel=1e-13)

    def test_rejects_nonpositive_rho(self, iid_channels):
        with pytest.raises(ValueError, match="rho"):
            metrics.evaluate_design(iid_channels(54), dense(np.eye(8)), [0.0])

    def test_phases_match_per_point_equivalent_channel(self, iid_channels):
        ch = iid_channels(55, n_t=3, n_r=2, m=8, with_direct=True)
        theta = ScatteringMatrix.from_theta(np.eye(8))
        rhos, phases = [0.5, 2.0, 40.0], [0.0, 1.3, 4.0]
        # the singular values of H_d + e^{j phase} F Theta G^H at each point, as phase_correction gives them
        sigma = np.array([np.linalg.svd(metrics.equivalent_channel(ch, theta, phase=phase), compute_uv=False)
                          for phase in phases])
        rates, got_det, sigma_mins = metrics.evaluate_design(ch, theta, rhos, sigma=sigma)
        det = metrics.abs_det(metrics.ris_channel(ch, theta))
        assert got_det == det
        for rate, sigma_min, rho, phase in zip(rates, sigma_mins, rhos, phases):
            h = metrics.equivalent_channel(ch, theta, phase=phase)
            assert rate == pytest.approx(metrics.achievable_rate(h, rho), rel=1e-13)
            assert sigma_min == pytest.approx(np.linalg.svd(h, compute_uv=False)[-1], rel=1e-12)
        assert rates[0] == metrics.evaluate_design(ch, theta, rhos[:1])[0][0]

    @pytest.mark.parametrize("with_direct", [False, True])
    def test_stack_matches_each_channel_set(self, iid_channels, with_direct):
        # a stack of channels and designs evaluates each pair to the bit
        sets = [iid_channels(seed, n_t=3, n_r=4, m=8, with_direct=with_direct) for seed in (57, 58)]
        keys = ("f", "g", "h_direct") if with_direct else ("f", "g")
        stack = ChannelSet(*(np.stack([getattr(ch, k) for ch in sets]) for k in keys))
        rhos = np.array([[0.5, 20.0], [3.0, 1e4]])
        stacked = metrics.evaluate_design(stack, designs.solve_maxdet(stack), rhos)
        for i, ch in enumerate(sets):
            own = metrics.evaluate_design(ch, designs.solve_maxdet(ch), rhos[i])
            assert all(np.array_equal(a[i], b) for a, b in zip(stacked, own))


RHO_CHECKS = {
    "achievable_rate": lambda ch, rho: metrics.achievable_rate(np.eye(2), rho),
    "rate_decomposition": lambda ch, rho: metrics.rate_decomposition(np.eye(2), rho),
    "error_term_bound": lambda ch, rho: metrics.error_term_bound(np.eye(2), rho),
    "rate_gap_bound": lambda ch, rho: metrics.rate_gap_bound([2.0, 1.0], [3.0, 1.0], rho),
    "evaluate_design": lambda ch, rho: metrics.evaluate_design(ch, dense(np.eye(8)), [1.0, rho]),
    "phase_correction": lambda ch, rho: designs.phase_correction(ch, dense(np.eye(8)), [1.0, rho]),
}


@pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf, 1j, "10", None])
@pytest.mark.parametrize("name", RHO_CHECKS)
def test_rho_must_be_positive_and_finite(iid_channels, name, rho):
    # a complex, str or None rho is a ValueError too, not the TypeError of comparing it with 0
    ch = iid_channels(56, n_t=2, n_r=2, m=8, with_direct=True)
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        RHO_CHECKS[name](ch, rho)


_REAL_DTYPES = st.sampled_from([np.float64, np.float32, np.float16, np.longdouble, np.int64, np.uint64, np.int8, bool])
_real_rhos = (st.floats() | st.integers(-2**63, 2**64 - 1) | st.booleans() | st.lists(st.floats(), max_size=4)
              | _REAL_DTYPES.flatmap(lambda dtype: arrays(dtype, array_shapes(min_dims=0, max_dims=3, max_side=3))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rho=_real_rhos)
@example(rho=[5e-324, 1.7976931348623157e308])
@example(rho=np.array([1.0, -0.0]))
@example(rho=np.zeros((0, 3)))
def test_array_rho_check_keeps_the_per_value_rule(rho):
    # the rule value by value, as the check ran it over np.ravel(rho).tolist()
    if all(0.0 < r < np.inf for r in np.ravel(rho).tolist()):
        assert np.array_equal(metrics._check_rho(rho), np.asarray(rho, dtype=float))
    else:
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            metrics._check_rho(rho)


@pytest.mark.parametrize("name", ["achievable_rate", "rate_decomposition", "error_term_bound"])
def test_one_snr_means_one_snr(name):
    # diag(1, 2) has no one rate at rho = [1, 2] (3.32 bits at 1, 4.75 at 2); a single entry reads as its value
    h, function = np.diag([1.0, 2.0]), getattr(metrics, name)
    for rho in ([1.0, 2.0], [], np.ones((1, 2))):
        with pytest.raises(ValueError, match="rho must be one SNR"):
            function(h, rho)
    assert function(h, [2.0]) == function(h, np.array([[2.0]])) == function(h, np.float64(2.0)) == function(h, 2.0)
    assert metrics.achievable_rate(h, 1.0) == pytest.approx(math.log2(10.0), rel=1e-15)
