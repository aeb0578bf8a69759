"""Bridge marginals and the interpolation perturbation, on batches of rows."""

import numpy as np
import pytest

from bridgelab.bridge import bridge_marginal, perturb, perturbation_weight
from bridgelab.schedule import NoiseSchedule

SCH = NoiseSchedule()


def row(values):
    """One batch row (1, d) from a scalar or a vector."""
    return np.atleast_1d(np.asarray(values, dtype=float))[None, :]


def times(t, n=1):
    return np.full(n, float(t))


class TestSampleMarginal:
    def test_collapses_to_x1_at_t1(self):
        rng = np.random.default_rng(0)
        x0, x1 = row([3.0, -2.0]), row([0.5, 0.5])
        out = bridge_marginal(SCH, x0, x1, times(1.0), rng.standard_normal(x0.shape))
        np.testing.assert_array_equal(out, x1)

    def test_collapses_to_x0_at_t0(self):
        rng = np.random.default_rng(0)
        x0, x1 = row([3.0, -2.0]), row([0.5, 0.5])
        out = bridge_marginal(SCH, x0, x1, times(0.0), rng.standard_normal(x0.shape))
        np.testing.assert_array_equal(out, x0)

    def test_midpoint_moments_match_coefficients(self):
        # Monte Carlo against the coefficients op: x0 = 0, x1 = 1 scalar,
        # 1e5 rows drawn in one batch
        rng = np.random.default_rng(42)
        n = 100_000
        draws = bridge_marginal(SCH, np.zeros((n, 1)), np.ones((n, 1)), times(0.5, n), rng.standard_normal((n, 1)))
        assert draws.mean() == pytest.approx(0.27778, abs=0.005)
        assert draws.var() == pytest.approx(0.24187, rel=0.02)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            bridge_marginal(SCH, np.zeros((1, 2)), np.zeros((1, 3)), times(0.5), rng.standard_normal((1, 2)))
        with pytest.raises(ValueError):
            bridge_marginal(SCH, np.zeros((1, 2)), np.zeros((2, 2)), times(0.5, 2), rng.standard_normal((1, 2)))
        with pytest.raises(ValueError):
            bridge_marginal(SCH, np.zeros((2, 2)), np.zeros((2, 2)), times(0.5, 2), rng.standard_normal((2, 1)))


class TestPerturbationWeight:
    def test_zero_at_start(self):
        assert perturbation_weight(0.0) == 0.0

    def test_one_at_end(self):
        assert perturbation_weight(1.0) == 1.0

    def test_quadratic_midpoint(self):
        assert perturbation_weight(0.5) == 0.25

    def test_monotone_and_convex(self):
        w = perturbation_weight(np.linspace(0.0, 1.0, 101))
        assert np.all(np.diff(w) >= 0)
        assert np.all(np.diff(w, 2) >= -1e-12)


class TestPerturbedTarget:
    def test_clean_at_t0(self):
        x, x_star = row(1.5), row(-3.0)
        np.testing.assert_array_equal(perturb(x, x_star, times(0.0)), x)

    def test_posterior_mean_at_t1(self):
        x, x_star = row(1.5), row(-3.0)
        np.testing.assert_array_equal(perturb(x, x_star, times(1.0)), x_star)

    def test_hand_value_midpoint(self):
        # x = 0, x_star = 2, omega = 0.25 -> 0.5
        assert perturb(row(0.0), row(2.0), times(0.5))[0, 0] == pytest.approx(0.5)

    def test_affine_in_t_squared(self):
        ts = np.linspace(0.0, 1.0, 17)
        x = np.tile([1.0, -2.0], (17, 1))
        x_star = np.tile([0.5, 0.5], (17, 1))
        expected = x + (ts**2)[:, None] * (x_star - x)
        np.testing.assert_allclose(perturb(x, x_star, ts), expected, atol=1e-15)

    def test_convex_combination_bounded(self):
        ts = np.linspace(0.0, 1.0, 21)
        x = np.tile([1.0, -2.0], (21, 1))
        x_star = np.tile([0.5, 3.0], (21, 1))
        bound = max(np.max(np.abs(x)), np.max(np.abs(x_star)))
        assert np.max(np.abs(perturb(x, x_star, ts))) <= bound + 1e-12

    def test_simulated_error_nondecreasing(self):
        ts = np.linspace(0.0, 1.0, 50)
        x = np.tile([1.0, -2.0], (50, 1))
        x_star = np.tile([0.5, 0.5], (50, 1))
        errs = np.linalg.norm(perturb(x, x_star, ts) - x, axis=1)
        assert np.all(np.diff(errs) >= -1e-12)


class TestPerturbedState:
    def test_equals_y_at_t1(self):
        rng = np.random.default_rng(0)
        x, y, x_star = row([0.0, 1.0]), row([0.3, -0.7]), row([0.1, 0.1])
        ts = times(1.0)
        state = bridge_marginal(SCH, perturb(x, x_star, ts), y, ts, rng.standard_normal(x.shape))
        np.testing.assert_array_equal(state, y)

    def test_reduces_to_marginal_when_x_star_equals_x(self):
        x, y = row([0.4, -1.2]), row([1.0, 1.0])
        ts = times(0.6)
        noise = np.random.default_rng(7).standard_normal(x.shape)
        s1 = bridge_marginal(SCH, perturb(x, x, ts), y, ts, noise)
        s2 = bridge_marginal(SCH, x, y, ts, noise)
        np.testing.assert_array_equal(s1, s2)

    def test_midpoint_mean_monte_carlo(self):
        # x = 0, x_star = 2, y = 1, t = 0.5: mean = 0.72222*0.5 + 0.27778*1
        n = 5000
        ts = times(0.5, n)
        rng = np.random.default_rng(3)
        x0 = perturb(np.zeros((n, 1)), np.full((n, 1), 2.0), ts)
        draws = bridge_marginal(SCH, x0, np.ones((n, 1)), ts, rng.standard_normal((n, 1)))
        sem = draws.std() / np.sqrt(n)
        assert sem < 0.01
        assert draws.mean() == pytest.approx(0.63889, abs=0.005)
