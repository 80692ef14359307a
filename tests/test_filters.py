import math

import mpmath
import numpy as np
import pytest

from lindbladprep.filters import (
    FilterParams,
    default_params,
    f_hat,
    f_l1_estimate,
    f_time,
    quadrature_grid,
)
from lindbladprep.linalg import hermitian_eig
from lindbladprep.models import build_tfim

# frozen oracle values, computed with mpmath at 50 digits:
#   0.5*(erf(5) - erf(1))       and   1.5/(2*pi)
F_HAT_AT_ZERO = 0.07864960352437385
F_TIME_AT_ZERO = 0.23873241463784300


class TestDefaultParams:
    def test_unit_case(self):
        p = default_params(1.0, 1.0)
        assert p.a == 2.5 and p.delta_a == 0.5
        assert p.b == 1.0 and p.delta_b == 1.0
        assert p.s_radius == 5.0
        assert p.tau_s == pytest.approx(math.pi / 5)
        assert p.m_half == math.ceil(25 / math.pi)

    def test_scaled_case(self):
        p = default_params(10.0, 1.0)
        assert p.tau_s == pytest.approx(math.pi / 50)
        assert p.s_radius == 5.0
        assert p.m_half == 80  # ceil(5 * 50 / pi)

    def test_zero_gap_refused(self):
        with pytest.raises(ValueError, match="gap"):
            default_params(1.0, 0.0)

    def test_sampling_bound(self):
        # spacing below the reciprocal of the filter's frequency support
        for norm_h, gap in [(1.0, 1.0), (5.43, 1.03), (5.95, 0.54)]:
            p = default_params(norm_h, gap)
            assert p.tau_s < math.pi / max(2 * norm_h, p.a + 3 * p.delta_a)


class TestFHat:
    def test_far_negative_limit(self):
        p = default_params(1.0, 1.0)
        assert abs(f_hat(-1e6, p)) <= 1e-15

    def test_value_at_zero_against_mpmath(self):
        p = default_params(1.0, 1.0)
        oracle = float(0.5 * (mpmath.erf(5) - mpmath.erf(1)))
        assert f_hat(0.0, p) == pytest.approx(oracle, abs=1e-15)
        assert f_hat(0.0, p) == pytest.approx(F_HAT_AT_ZERO, abs=1e-12)

    @pytest.mark.parametrize("clamp", [False, True])
    def test_matches_scipy_erf_formula(self, clamp):
        from scipy.special import erf

        p = default_params(4.0, 1.0, clamp=clamp)
        w = np.linspace(-30.0, 30.0, 6001)
        oracle = 0.5 * (erf((w + p.a) / p.delta_a) - erf((w + p.b) / p.delta_b))
        if clamp:
            oracle = np.where(w >= 0, 0.0, oracle)
        assert np.max(np.abs(f_hat(w, p) - oracle)) <= 1e-15
        assert type(f_hat(-1.3, p)) is float

    def test_erf_table_matches_math_erf(self):
        """The grid visits every centre of the Taylor table, spans more than
        one evaluation chunk and keeps its 2-D shape; measured 1.1e-16."""
        from lindbladprep.filters import _erf

        x = np.linspace(-7.0, 7.0, 140000).reshape(-1, 7)
        exact = np.array([math.erf(v) for v in x.ravel()]).reshape(x.shape)
        assert np.max(np.abs(_erf(x) - exact)) <= 1e-15
        ends = _erf(np.array([np.inf, -np.inf, np.nan]))
        assert ends[:2].tolist() == [1.0, -1.0] and np.isnan(ends[2])

    def test_clamp(self):
        p = default_params(1.0, 1.0, clamp=True)
        assert f_hat(0.0, p) == 0.0
        assert f_hat(1.7, p) == 0.0
        assert f_hat(-1.7, p) == f_hat(-1.7, p.with_clamp(False))

    def test_nonnegative_on_benchmark_defaults(self):
        for sites in (2, 4):
            spec = hermitian_eig(build_tfim(sites, 1.2).dense())
            p = default_params(spec.spectral_norm, spec.gap)
            grid = np.linspace(-2 * p.a, 2 * p.a, 4001)
            assert float(np.min(f_hat(grid, p))) >= -1e-15

    def test_support_property(self):
        spec = hermitian_eig(build_tfim(4, 1.2).dense())
        gap = spec.gap
        p = default_params(spec.spectral_norm, gap)
        grid = np.linspace(gap, 3 * p.a, 2001)
        vals = f_hat(grid, p)
        assert float(np.max(vals)) <= f_hat(gap, p) + 1e-15
        full = np.linspace(-3 * p.a, 3 * p.a, 8001)
        assert f_hat(gap, p) / float(np.max(f_hat(full, p))) <= 0.01


class TestFTime:
    def test_zero_limit(self):
        p = default_params(1.0, 1.0)
        assert f_time(0.0, p) == pytest.approx((p.a - p.b) / (2 * math.pi), abs=1e-15)
        assert f_time(0.0, p).real == pytest.approx(F_TIME_AT_ZERO, abs=1e-12)
        assert f_time(0.0, p).imag == 0.0

    def test_taylor_branch_against_mpmath(self):
        p = default_params(1.0, 1.0)
        for s in (1e-9, -3e-9, 9.9e-9):
            with mpmath.workdps(60):
                sm = mpmath.mpf(s)
                num = mpmath.e ** (-((p.delta_a * sm) ** 2) / 4) * mpmath.e ** (
                    1j * p.a * sm
                ) - mpmath.e ** (-((p.delta_b * sm) ** 2) / 4) * mpmath.e ** (1j * p.b * sm)
                oracle = complex(num / (2j * mpmath.pi * sm))
            got = f_time(s, p)
            assert got == pytest.approx(oracle, abs=1e-15)

    def test_branch_continuity(self):
        # the closed form loses ~|roundoff / (2 pi s)| ~ 1e-8 of absolute
        # accuracy right at the switchover; the branches agree to that level
        p = default_params(1.0, 1.0)
        assert f_time(1.001e-8, p) == pytest.approx(f_time(0.999e-8, p), abs=1e-8)

    def test_transform_consistency(self):
        """f(s) matches the numerical inverse Fourier transform of fhat.

        Simpson quadrature over the filter's full numerical support; the
        upper limit must extend past 0 because the erf tail leaks into
        positive frequencies.
        """
        spec = hermitian_eig(build_tfim(2, 1.2).dense())
        p = default_params(spec.spectral_norm, spec.gap)
        lo, hi = -(p.a + 6 * p.delta_a), 6 * p.delta_b
        n = 2**16 + 1
        omega = np.linspace(lo, hi, n)
        h = omega[1] - omega[0]
        weights = np.full(n, 2.0)
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        weights *= h / 3
        fw = f_hat(omega, p) * weights
        svals = np.linspace(-p.s_radius, p.s_radius, 1001)
        worst = 0.0
        for chunk in np.array_split(svals, 20):
            kernel = np.exp(-1j * np.outer(chunk, omega))
            oracle = kernel @ fw / (2 * math.pi)
            worst = max(worst, float(np.max(np.abs(oracle - f_time(chunk, p)))))
        assert worst <= 1e-6

    def test_envelope_decay(self):
        spec = hermitian_eig(build_tfim(4, 1.2).dense())
        p = default_params(spec.spectral_norm, spec.gap)
        ss = np.linspace(1.0, 3 * p.s_radius, 500)
        vals = np.abs(f_time(ss, p))
        assert np.all(vals <= 2.0 / (2 * math.pi * ss) + 1e-15)
        assert abs(f_time(p.s_radius, p)) <= 1e-4 * abs(f_time(0.0, p))


class TestQuadratureGrid:
    def test_minimal_grid(self):
        p = FilterParams(a=2.5, delta_a=0.5, b=1.0, delta_b=1.0, s_radius=1.0, tau_s=1.0)
        nodes, weights = quadrature_grid(p)
        assert np.array_equal(nodes, [-1.0, 0.0, 1.0])
        assert np.array_equal(weights, [0.5, 1.0, 0.5])

    def test_weight_sum_telescopes(self):
        for m in range(1, 101):
            p = FilterParams(
                a=2.5, delta_a=0.5, b=1.0, delta_b=1.0, s_radius=m * 0.37, tau_s=0.37
            )
            assert p.m_half == m
            _, weights = quadrature_grid(p)
            assert math.fsum(weights) == pytest.approx(2 * p.grid_radius, abs=1e-12)

    def test_constant_integrand_exact(self):
        p = default_params(2.0, 0.5)
        nodes, weights = quadrature_grid(p)
        assert np.sum(weights * np.ones_like(nodes)) == pytest.approx(2 * p.grid_radius)

    def test_m_half_consistency(self):
        p = default_params(10.0, 1.0)
        assert p.m_half == math.ceil(p.s_radius / p.tau_s)
        assert p.grid_radius >= p.s_radius

    def test_with_s_radius_recomputes_m_half(self):
        p = default_params(10.0, 1.0)
        q = p.with_s_radius(2 * p.s_radius)
        assert q.m_half == math.ceil(q.s_radius / q.tau_s) > p.m_half
        assert q.with_s_radius(p.s_radius) == p

    def test_l1_estimate_positive(self):
        p = default_params(1.0, 1.0)
        assert f_l1_estimate(p) > 0


class TestValidation:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            FilterParams(a=1.0, delta_a=0.5, b=2.0, delta_b=1.0, s_radius=1.0, tau_s=0.1)
        with pytest.raises(ValueError):
            FilterParams(a=2.0, delta_a=-0.5, b=1.0, delta_b=1.0, s_radius=1.0, tau_s=0.1)
        with pytest.raises(ValueError):
            FilterParams(a=2.0, delta_a=0.5, b=1.0, delta_b=1.0, s_radius=1.0, tau_s=-0.1)
