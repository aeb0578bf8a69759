"""Schedule coefficients against quadrature and closed-form oracles."""

import numpy as np
import pytest

from bridgelab.schedule import NoiseSchedule


def quadrature_sigma2(schedule: NoiseSchedule, t: float, n: int = 20000) -> float:
    """Independent oracle: trapezoid integration of g^2(tau) = c k^(2 tau)."""
    taus = np.linspace(0.0, t, n + 1)
    g2 = schedule.c * schedule.k ** (2.0 * taus)
    return float(np.trapezoid(g2, taus))


class TestSigma2:
    def test_zero_at_origin(self):
        assert NoiseSchedule().sigma2(0.0) == 0.0

    def test_total_variance_matches_quadrature_oracle(self):
        sch = NoiseSchedule()
        # frozen from the quadrature oracle at defaults c=0.40, k=2.6
        assert sch.sigma2(1.0) == pytest.approx(1.20564, abs=1e-5)
        assert sch.sigma2(1.0) == pytest.approx(quadrature_sigma2(sch, 1.0), rel=1e-7)

    def test_midpoint_matches_quadrature_oracle(self):
        sch = NoiseSchedule()
        assert sch.sigma2(0.5) == pytest.approx(0.33490, abs=1e-5)
        assert sch.sigma2(0.5) == pytest.approx(quadrature_sigma2(sch, 0.5), rel=1e-7)

    def test_quadrature_equivalence_on_grid(self):
        sch = NoiseSchedule()
        for t in np.linspace(0.01, 1.0, 100):
            closed = sch.sigma2(float(t))
            numeric = quadrature_sigma2(sch, float(t))
            assert abs(closed - numeric) / closed < 1e-6

    def test_strictly_increasing(self):
        sch = NoiseSchedule()
        values = [sch.sigma2(float(t)) for t in np.linspace(0.0, 1.0, 200)]
        assert np.all(np.diff(values) > 0)

    def test_domain_errors(self):
        sch = NoiseSchedule()
        with pytest.raises(ValueError):
            sch.sigma2(-0.1)
        with pytest.raises(ValueError):
            sch.sigma2(1.1)
        with pytest.raises(ValueError):
            sch.sigma2(np.array([0.5, 1.1]))
        with pytest.raises(ValueError):
            sch.sigma2(np.array([np.nan]))


class TestCoefficients:
    def test_endpoint_t1(self):
        w0, w1, var = NoiseSchedule().coefficients(1.0)
        assert w0 == 0.0
        assert w1 == 1.0
        assert var == 0.0

    def test_endpoint_t0(self):
        w0, w1, var = NoiseSchedule().coefficients(0.0)
        assert w0 == 1.0
        assert w1 == 0.0
        assert var == 0.0

    def test_midpoint_weights_closed_form(self):
        # w_x0 = (k^2 - k^(2t)) / (k^2 - 1) for the VE schedule
        sch = NoiseSchedule()
        w0, w1, _ = sch.coefficients(0.5)
        k = sch.k
        assert w0 == pytest.approx((k**2 - k) / (k**2 - 1), rel=1e-12)
        assert w0 == pytest.approx(0.72222, abs=1e-5)
        assert w1 == pytest.approx(0.27778, abs=1e-5)

    def test_midpoint_variance(self):
        # frozen from the moment-matching oracle (see test_sampler composition)
        _, _, var = NoiseSchedule().coefficients(0.5)
        assert var == pytest.approx(0.24187, abs=1e-4)

    def test_variance_splits_exactly(self):
        # w_x0 = bar_sigma2_t / sigma2_1, w_x1 = sigma2_t / sigma2_1 and
        # var = sigma2_t * bar_sigma2_t / sigma2_1 with bar_sigma2_t = sigma2_1 - sigma2_t,
        # at scalar times and over an array of times
        sch = NoiseSchedule()
        grid = np.linspace(0.0, 1.0, 50)
        for t in [*[float(t) for t in grid], grid]:
            w0, w1, var = sch.coefficients(t)
            s2_t = sch.sigma2(t)
            bar = sch.sigma2_1 - s2_t
            np.testing.assert_array_equal(w0, bar / sch.sigma2_1)
            np.testing.assert_array_equal(w1, s2_t / sch.sigma2_1)
            np.testing.assert_array_equal(var, s2_t * bar / sch.sigma2_1)
            np.testing.assert_allclose(w0 + w1, 1.0, rtol=0, atol=1e-15)

    def test_weight_monotonicity(self):
        sch = NoiseSchedule()
        grid = np.linspace(0.0, 1.0, 100)
        scalar = np.array([sch.coefficients(float(t))[:2] for t in grid]).T
        for w0, w1 in (scalar, sch.coefficients(grid)[:2]):
            assert np.all(np.diff(w0) < 0)
            assert np.all(np.diff(w1) > 0)
            assert w0[0] == 1.0 and w0[-1] == 0.0
            assert w1[0] == 0.0 and w1[-1] == 1.0

    def test_variance_positive_interior_zero_at_ends(self):
        sch = NoiseSchedule()
        for t in np.linspace(0.05, 0.95, 30):
            assert sch.coefficients(float(t))[2] > 0
        assert np.all(sch.coefficients(np.linspace(0.05, 0.95, 30))[2] > 0)
        assert sch.coefficients(0.0)[2] == 0.0
        assert sch.coefficients(1.0)[2] == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            NoiseSchedule().coefficients(2.0)
        with pytest.raises(ValueError):
            NoiseSchedule().coefficients(np.array([0.5, -0.1]))


class TestScheduleValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c": 0.0},
            {"c": -1.0},
            {"k": 1.0},
            {"k": 0.5},
            {"t_eps": 0.0},
            {"t_eps": 1.0},
        ],
    )
    def test_invalid_constants(self, kwargs):
        with pytest.raises(ValueError):
            NoiseSchedule(**kwargs)

    def test_defaults(self):
        sch = NoiseSchedule()
        assert (sch.c, sch.k, sch.t_eps) == (0.40, 2.6, 1e-4)
