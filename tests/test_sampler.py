"""Reverse samplers: marginal preservation, mean consistency, determinism."""

import numpy as np
import pytest

from bridgelab.sampler import (
    SamplerConfig,
    SamplerKind,
    ode_step,
    sample_trajectory_batch,
    sde_step,
)
from bridgelab.schedule import NoiseSchedule

SCH = NoiseSchedule()


def marginal_mean(t, x0, x1):
    w0, w1, _ = SCH.coefficients(t)
    return w0 * x0 + w1 * x1


def sde(x_tau, tau, t, x0_hat, rng):
    """sde_step from time tau down to time t."""
    return sde_step(x_tau, x0_hat, SCH.sigma2(tau), SCH.sigma2(t), rng)


def ode(x_tau, tau, t, x0_hat, x1):
    """ode_step from time tau down to time t."""
    return ode_step(x_tau, x0_hat, x1, SCH.sigma2(tau), SCH.sigma2(t), SCH.sigma2_1)


class TestSdeStep:
    def test_near_degenerate_step_keeps_state(self):
        rng = np.random.default_rng(0)
        x_tau = np.array([1.7, -0.3])
        out = sde(x_tau, 0.8, 0.8 - 1e-12, x_tau * 0.0, rng)
        np.testing.assert_allclose(out, x_tau, atol=1e-6)

    def test_returns_prediction_at_t0(self):
        rng = np.random.default_rng(0)
        x0_hat = np.array([0.25, -4.0])
        out = sde(np.array([9.0, 9.0]), 0.7, 0.0, x0_hat, rng)
        np.testing.assert_array_equal(out, x0_hat)

    def test_ordering_error(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sde(np.zeros(1), 0.5, 0.5, np.zeros(1), rng)
        with pytest.raises(ValueError):
            sde(np.zeros(1), 0.5, 0.7, np.zeros(1), rng)

    def test_zero_tau_guard(self):
        # a step from sigma2 = 0 has no time to go down to: no variance is both >= 0 and < 0
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sde(np.zeros(1), 0.0, 0.0, np.zeros(1), rng)
        with pytest.raises(ValueError):
            sde_step(np.zeros(1), np.zeros(1), 0.0, -0.1, rng)

    def test_one_step_composition_from_t1(self):
        # From the exact (degenerate) marginal at tau = 1, one step with the
        # oracle prediction must reproduce the t = 0.5 marginal moments.
        # This is the moment-matching oracle behind the schedule's variance
        # convention (squared quantities).
        rng = np.random.default_rng(123)
        n = 100_000
        x0, y = 0.0, 1.0
        out = sde(np.full(n, y), 1.0, 0.5, np.full(n, x0), rng)
        w0, w1, var = SCH.coefficients(0.5)
        expected_mean = w0 * x0 + w1 * y
        assert out.mean() == pytest.approx(expected_mean, abs=4 * np.sqrt(var / n))
        assert out.var() == pytest.approx(var, rel=0.02)

    @pytest.mark.parametrize("tau", [1.0, 0.75, 0.5])
    @pytest.mark.parametrize("t", [0.45, 0.25, 0.1])
    def test_marginal_preservation(self, tau, t):
        # Exact marginal samples at tau, pushed one step with the oracle
        # prediction, reproduce the marginal at t.
        rng = np.random.default_rng(7)
        n = 100_000
        x0, y = -0.8, 1.4
        w0_tau, w1_tau, var_tau = SCH.coefficients(tau)
        at_tau = w0_tau * x0 + w1_tau * y + np.sqrt(var_tau) * rng.standard_normal(n)
        out = sde(at_tau, tau, t, np.full(n, x0), rng)
        w0_t, w1_t, var_t = SCH.coefficients(t)
        expected_mean = w0_t * x0 + w1_t * y
        assert out.mean() == pytest.approx(expected_mean, abs=4 * np.sqrt(var_t / n))
        assert out.var() == pytest.approx(var_t, rel=0.02)


class TestOdeStep:
    def test_mean_consistency_identity(self):
        # With the oracle prediction and the marginal mean as input, the
        # output is the marginal mean at the target time, to float precision.
        x0 = np.array([0.3, -1.1])
        x1 = np.array([1.0, 0.4])
        for tau, t in [(0.9, 0.5), (0.7, 0.3), (0.5, 0.01), (0.999, 0.9)]:
            out = ode(marginal_mean(tau, x0, x1), tau, t, x0, x1)
            np.testing.assert_allclose(out, marginal_mean(t, x0, x1), atol=1e-10)

    def test_limit_form_from_t1(self):
        x0 = np.array([0.3, -1.1])
        x1 = np.array([1.0, 0.4])
        out = ode(x1, 1.0, 0.6, x0, x1)
        np.testing.assert_allclose(out, marginal_mean(0.6, x0, x1), atol=1e-12)

    def test_returns_prediction_at_t0(self):
        x0_hat = np.array([2.0])
        out = ode(np.array([0.7]), 0.5, 0.0, x0_hat, np.array([1.0]))
        np.testing.assert_allclose(out, x0_hat, atol=1e-15)

    def test_full_oracle_trajectory_tracks_means(self):
        # Scalar task: starting from y at t = 1, the ODE path with the oracle
        # prediction equals the marginal mean at every grid time, and the
        # final solution recovers x0.
        x0, y = np.array([-0.4]), np.array([0.9])
        config = SamplerConfig(n_steps=50, kind=SamplerKind.ODE)
        predictor = lambda s, t, c: np.broadcast_to(x0, s.shape)
        times, states, preds = sample_trajectory_batch(
            predictor, y[None, :], y[None, :], config, SCH, np.random.default_rng(0)
        )
        for i, t in enumerate(times):
            np.testing.assert_allclose(states[i, 0], marginal_mean(float(t), x0, y), atol=1e-10)
        assert float(np.mean((preds[-1, 0] - x0) ** 2)) < 1e-6

    def test_deterministic(self):
        args = (np.array([0.5]), 0.8, 0.3, np.array([-0.2]), np.array([1.0]))
        a = ode(*args)
        b = ode(*args)
        np.testing.assert_array_equal(a, b)

    def test_ordering_error(self):
        with pytest.raises(ValueError):
            ode(np.zeros(1), 0.3, 0.3, np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError):
            ode(np.zeros(1), 0.3, 0.5, np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError):
            ode_step(np.zeros(1), np.zeros(1), np.zeros(1), 0.0, 0.0, SCH.sigma2_1)


class TestSampleTrajectory:
    def test_single_step_returns_prediction_at_t1(self):
        y = np.array([[0.7, -0.2]])
        predictor = lambda s, t, c: 0.5 * s + 0.1
        config = SamplerConfig(n_steps=1)
        _, _, preds = sample_trajectory_batch(predictor, y, y, config, SCH, rng=np.random.default_rng(0))
        np.testing.assert_allclose(preds[-1], 0.5 * y + 0.1, atol=1e-15)

    def test_lengths_and_final(self):
        y = np.array([[1.0]])
        predictor = lambda s, t, c: np.zeros_like(s)
        config = SamplerConfig(n_steps=10)
        times, states, preds = sample_trajectory_batch(predictor, y, y, config, SCH, rng=np.random.default_rng(0))
        assert times.shape == (11,)
        assert states.shape == (11, 1, 1)
        assert preds.shape == (10, 1, 1)
        np.testing.assert_array_equal(states[0], y)
        assert times[0] == 1.0
        assert times[-1] == pytest.approx(SCH.t_eps)

    def test_oracle_sde_recovery(self):
        x0 = np.array([0.6])
        y = np.array([[-1.0]])
        predictor = lambda s, t, c: np.broadcast_to(x0, s.shape)
        config = SamplerConfig(n_steps=50)
        _, _, preds = sample_trajectory_batch(predictor, y, y, config, SCH, rng=np.random.default_rng(5))
        assert float(np.mean((preds[-1] - x0) ** 2)) < 1e-4

    def test_init_override_changes_states_not_final(self):
        # starting from x_star instead of y moves the states, not the solution
        x0 = np.array([0.6])
        y = np.array([[-1.0]])
        x_star = np.array([[0.2]])
        predictor = lambda s, t, c: np.broadcast_to(x0, s.shape)
        config = SamplerConfig(n_steps=20)
        _, states_y, preds_y = sample_trajectory_batch(predictor, y, y, config, SCH, rng=np.random.default_rng(1))
        _, states_star, preds_star = sample_trajectory_batch(
            predictor, x_star, y, config, SCH, rng=np.random.default_rng(1)
        )
        assert not np.allclose(states_y[0], states_star[0])
        np.testing.assert_array_equal(preds_y[-1], preds_star[-1])

    def test_grid_refinement_stability(self):
        # Oracle-predictor final error is nonincreasing (within noise) in the
        # step count; with the exact oracle it is identically zero.
        x0 = np.array([0.3])
        y = np.array([[1.0]])
        predictor = lambda s, t, c: np.broadcast_to(x0, s.shape)
        errors = []
        for n in (1, 2, 5, 10, 25, 50, 100):
            _, _, preds = sample_trajectory_batch(
                predictor, y, y, SamplerConfig(n_steps=n), SCH, rng=np.random.default_rng(n)
            )
            errors.append(float(np.mean((preds[-1] - x0) ** 2)))
        assert all(e == 0.0 for e in errors)

    def test_predictor_shape_mismatch(self):
        y = np.array([[1.0, 2.0]])
        predictor = lambda s, t, c: np.zeros((1, 3))
        with pytest.raises(ValueError):
            sample_trajectory_batch(predictor, y, y, SamplerConfig(n_steps=2), SCH, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_trajectory_batch(predictor, y, np.zeros((2, 2)), SamplerConfig(n_steps=2), SCH,
                                    rng=np.random.default_rng(0))

    def test_rejects_unbatched_starts(self):
        y = np.array([1.0, 2.0])
        predictor = lambda s, t, c: np.zeros_like(s)
        with pytest.raises(ValueError, match="shape mismatch"):
            sample_trajectory_batch(predictor, y, y, SamplerConfig(n_steps=2), SCH, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("kind", list(SamplerKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("n_steps", [1, 2, 7, 50])
    def test_matches_per_step_reference_loop(self, monkeypatch, kind, n_steps):
        """Bitwise the loop that computes sigma2 at both ends of every step, with sigma2 computed once per grid time."""
        rng = np.random.default_rng(40)
        ys = rng.standard_normal((9, 2))
        predictor = lambda s, t, c: np.tanh(0.7 * s - 0.2 * c + t)
        config = SamplerConfig(n_steps=n_steps, kind=kind)
        times = config.times(SCH)
        x = ys.copy()
        ref_rng = np.random.default_rng(41)
        ref_states, ref_preds = [x], []
        for i in range(n_steps):
            tau, t = float(times[i]), float(times[i + 1])
            x0_hat = predictor(x, tau, ys)
            ref_preds.append(x0_hat)
            if kind is SamplerKind.SDE:
                x = sde(x, tau, t, x0_hat, ref_rng)
            else:
                x = ode(x, tau, t, x0_hat, ys)
            ref_states.append(x)

        calls = []
        original = NoiseSchedule.sigma2
        monkeypatch.setattr(NoiseSchedule, "sigma2", lambda self, t: calls.append(t) or original(self, t))
        got_times, states, preds = sample_trajectory_batch(
            predictor, ys, ys, config, SCH, rng=np.random.default_rng(41)
        )
        np.testing.assert_array_equal(got_times, times)
        np.testing.assert_array_equal(states, np.stack(ref_states))
        np.testing.assert_array_equal(preds, np.stack(ref_preds))
        assert calls == [float(t) for t in times] and all(type(t) is float for t in calls)

    def test_sde_requires_rng(self):
        y = np.array([[1.0]])
        predictor = lambda s, t, c: np.zeros_like(s)
        with pytest.raises(TypeError):
            sample_trajectory_batch(predictor, y, y, SamplerConfig(n_steps=2), SCH)


class TestSamplerConfig:
    def test_uniform_grid(self):
        schedule = NoiseSchedule(t_eps=0.2)
        times = SamplerConfig(n_steps=4).times(schedule)
        np.testing.assert_allclose(times, [1.0, 0.8, 0.6, 0.4, 0.2])

    def test_t_min_defaults_to_schedule_eps(self):
        config = SamplerConfig(n_steps=2)
        assert config.times(SCH)[-1] == SCH.t_eps

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_steps=0)
