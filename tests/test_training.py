"""Training strategies, the predictor loop, and the bridge-model loop."""

import numpy as np
import pytest

from bridgelab.bridge import perturb
from bridgelab.model import (
    apply_mlp,
    bridge_model_spec,
    forward,
    init_params,
    predictor_spec,
)
from bridgelab.sampler import SamplerConfig
from bridgelab.schedule import NoiseSchedule
from bridgelab.seeding import named_stream
from bridgelab.tasks import LinearGaussianTask, MixtureTask
from bridgelab import training
from bridgelab.training import (
    ConditioningStrategy,
    DivergenceError,
    TrainConfig,
    TrainingStrategy,
    batch_loss_and_grads,
    inference_endpoints,
    train,
    train_predictor,
)

SCH = NoiseSchedule()


class TestStrategies:
    def test_conditioning_flags(self):
        table = {
            ConditioningStrategy.M1: ("y", "y", False),
            ConditioningStrategy.M2: ("x_star", "y", False),
            ConditioningStrategy.M3: ("y", "x_star", False),
            ConditioningStrategy.M4: ("x_star", "x_star", False),
            ConditioningStrategy.M5: ("y", "y", True),
        }
        for strat, (endpoint, condition, regularized) in table.items():
            assert strat.bridge_endpoint == endpoint
            assert strat.condition == condition
            assert strat.regularized is regularized

    def test_m5_forces_joint(self):
        cfg = TrainConfig(strategy=TrainingStrategy.VANILLA, conditioning=ConditioningStrategy.M5)
        assert cfg.effective_strategy is TrainingStrategy.JOINT

    def test_inference_endpoints_dependency_contract(self):
        ys = np.ones((4, 2))
        starts, conds = inference_endpoints(ConditioningStrategy.M5, ys, None)
        np.testing.assert_array_equal(starts, ys)
        np.testing.assert_array_equal(conds, ys)
        with pytest.raises(ValueError):
            inference_endpoints(ConditioningStrategy.M2, ys, None)
        starts, conds = inference_endpoints(ConditioningStrategy.M4, ys, lambda y: 0.5 * y)
        np.testing.assert_array_equal(starts, 0.5 * ys)
        np.testing.assert_array_equal(conds, 0.5 * ys)


class TestVectorCoefficients:
    def test_matches_scalar_coefficients(self):
        ts = np.linspace(SCH.t_eps, 1.0, 37)
        w0, w1, var = SCH.coefficients(ts)
        for i, t in enumerate(ts):
            s_w0, s_w1, s_var = SCH.coefficients(float(t))
            assert w0[i] == pytest.approx(s_w0, rel=1e-12)
            assert w1[i] == pytest.approx(s_w1, rel=1e-12)
            assert var[i] == pytest.approx(s_var, rel=1e-12)


def one_row_step(params, spec, x, y, x_star, t, strategy, rng):
    """The batched step on a one-row batch whose endpoint and condition are y."""
    x, y, x_star = (np.array([[v]]) for v in (x, y, x_star))
    return batch_loss_and_grads(params, spec, x, y, y, x_star, np.array([t]), strategy, SCH, rng)


class TestTrainingStep:
    def test_strategies_collapse_when_x_star_equals_x(self):
        spec = bridge_model_spec(1, hidden=(8,))
        params = init_params(spec, np.random.default_rng(0))
        results = {}
        for strategy in TrainingStrategy:
            results[strategy] = one_row_step(params, spec, 0.4, 1.2, 0.4, 0.6, strategy, np.random.default_rng(99))
        losses = [results[s][0] for s in TrainingStrategy]
        assert losses[0] == losses[1] == losses[2]
        base = results[TrainingStrategy.VANILLA][1]
        for s in (TrainingStrategy.INPUT_ONLY, TrainingStrategy.JOINT):
            np.testing.assert_array_equal(results[s][1].flat, base.flat)

    def test_joint_at_t1_is_deterministic_discriminative(self):
        # at t = 1 the state is exactly y and the target exactly x_star
        spec = bridge_model_spec(1, hidden=(8,))
        params = init_params(spec, np.random.default_rng(1))
        loss, _ = one_row_step(params, spec, 0.4, 1.2, 0.1, 1.0, TrainingStrategy.JOINT, np.random.default_rng(0))
        out = forward(params, spec, np.array([1.2]), 1.0, np.array([1.2]))
        expected = float(np.mean((out - 0.1) ** 2))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_joint_target_near_t_eps_stays_close_to_clean(self):
        # omega(t_eps) = 1e-8 pulls the target only omega * |x_star - x|
        t = SCH.t_eps
        target = perturb(np.array([[0.0]]), np.array([[2.0]]), np.array([t]))
        assert abs(target[0, 0]) == pytest.approx(t**2 * 2.0, rel=1e-12)
        assert abs(target[0, 0]) < 1e-7

    def test_rejects_mismatched_rows(self):
        spec = bridge_model_spec(1, hidden=(4,))
        params = init_params(spec, np.random.default_rng(2))
        xs = np.zeros((2, 1))
        for strategy in TrainingStrategy:
            with pytest.raises(ValueError):
                batch_loss_and_grads(params, spec, xs, np.zeros((3, 1)), np.zeros((3, 1)), xs,
                                     np.full(2, 0.5), strategy, SCH, np.random.default_rng(0))

    def test_non_finite_posterior_mean_raises(self):
        # a non-finite x_star reaches the perturbed state and target, and the
        # step reports a non-finite loss, which train() turns into DivergenceError
        spec = bridge_model_spec(1, hidden=(4,))
        params = init_params(spec, np.random.default_rng(2))
        for strategy in (TrainingStrategy.INPUT_ONLY, TrainingStrategy.JOINT):
            with pytest.raises(FloatingPointError):
                one_row_step(params, spec, 0.4, 1.2, np.nan, 0.5, strategy, np.random.default_rng(0))


class TestTrainPredictor:
    def test_zero_epochs_returns_initialisation(self):
        task = LinearGaussianTask.default_scalar()
        spec = predictor_spec(1, hidden=(8,))
        cfg = TrainConfig(epochs=0)
        params = train_predictor(task, spec, cfg, named_stream(3, "predictor"))
        reference = init_params(spec, named_stream(3, "predictor"))
        np.testing.assert_array_equal(params.flat, reference.flat)

    def test_learns_scalar_posterior_mean(self):
        # quick version of the acceptance criterion: modest budget, loose gate
        task = LinearGaussianTask.default_scalar()
        spec = predictor_spec(1, hidden=(32, 32))
        cfg = TrainConfig(epochs=20, steps_per_epoch=400, batch_size=16)
        params = train_predictor(task, spec, cfg, named_stream(4, "predictor"))
        rng = np.random.default_rng(5)
        _, ys, stars = task.sample_pairs(2000, rng)
        pred = apply_mlp(params, ys)
        assert float(np.mean((pred - stars) ** 2)) < 0.15

    def test_mixture_symmetry_learned(self):
        task = MixtureTask()
        spec = predictor_spec(1, hidden=(32, 32))
        cfg = TrainConfig(epochs=25, steps_per_epoch=400, batch_size=16)
        params = train_predictor(task, spec, cfg, named_stream(6, "predictor"))
        assert abs(apply_mlp(params, np.zeros((1, 1)))[0, 0]) <= 0.1

    def test_divergence_aborts(self):
        task = MixtureTask(centers=(-1e200, 1e200))
        spec = predictor_spec(1, hidden=(4,))
        cfg = TrainConfig(epochs=1, steps_per_epoch=5)
        with pytest.raises(DivergenceError):
            train_predictor(task, spec, cfg, named_stream(7, "predictor"))


class TestTrain:
    def small_setup(self, strategy=TrainingStrategy.VANILLA, conditioning=ConditioningStrategy.M1,
                    epochs=3, patience=20):
        task = MixtureTask(dim=1)
        spec = bridge_model_spec(1, hidden=(8,))
        cfg = TrainConfig(
            epochs=epochs, steps_per_epoch=40, batch_size=8, strategy=strategy,
            conditioning=conditioning, patience=patience, validation_size=16,
        )
        return task, spec, cfg

    def test_deterministic_replay(self):
        task, spec, cfg = self.small_setup()
        runs = []
        for _ in range(2):
            params, ema, log = train(
                task, spec, cfg, SCH, None, named_stream(8, "train"),
                sampler=SamplerConfig(n_steps=5),
            )
            runs.append((params, ema, log))
        np.testing.assert_array_equal(runs[0][0].flat, runs[1][0].flat)
        np.testing.assert_array_equal(runs[0][1].shadow.flat, runs[1][1].shadow.flat)
        assert [r["val_mse"] for r in runs[0][2]] == [r["val_mse"] for r in runs[1][2]]

    def test_patience_zero_stops_at_first_non_improvement(self):
        task, spec, cfg = self.small_setup(epochs=40, patience=0)
        _, _, log = train(
            task, spec, cfg, SCH, None, named_stream(9, "train"),
            sampler=SamplerConfig(n_steps=5),
        )
        val = [row["val_mse"] for row in log]
        # the log must end exactly at the first non-improving check
        assert len(val) < 40
        best = val[0]
        for v in val[1:-1]:
            assert v < best
            best = v
        assert val[-1] >= best

    def test_log_schema(self):
        task, spec, cfg = self.small_setup(epochs=2)
        _, _, log = train(
            task, spec, cfg, SCH, None, named_stream(10, "train"),
            sampler=SamplerConfig(n_steps=5),
        )
        assert len(log) == 2
        assert set(log[0]) == {"epoch", "train_loss", "val_mse", "val_w2", "is_ema", "wall_time_s"}

    def test_oracle_mode_runs_without_predictor(self):
        task, spec, cfg = self.small_setup(strategy=TrainingStrategy.JOINT)
        params, _, _ = train(
            task, spec, cfg, SCH, None, named_stream(11, "train"),
            sampler=SamplerConfig(n_steps=5),
        )
        assert np.isfinite(params.flat).all()

    @pytest.mark.parametrize("conditioning", [ConditioningStrategy.M1, ConditioningStrategy.M4])
    def test_predictor_mode_never_computes_posterior_means(self, monkeypatch, conditioning):
        task, spec, cfg = self.small_setup(strategy=TrainingStrategy.JOINT, conditioning=conditioning, epochs=2)
        calls = []
        original = MixtureTask.posterior_mean
        monkeypatch.setattr(MixtureTask, "posterior_mean", lambda self, y: calls.append(1) or original(self, y))
        pspec = predictor_spec(1, hidden=(8,))
        pp = train_predictor(task, pspec, TrainConfig(epochs=1, steps_per_epoch=20, batch_size=8),
                             named_stream(13, "predictor"))
        train(task, spec, cfg, SCH, pp, named_stream(13, "train"), sampler=SamplerConfig(n_steps=5))
        assert calls == []

    def test_oracle_mode_trains_on_sample_pairs_triples(self, monkeypatch):
        """Each oracle step uses exactly the (x, y, x_star) that sample_pairs draws from the same state."""
        task, spec, cfg = self.small_setup(strategy=TrainingStrategy.JOINT, epochs=2)
        states, batches = [], []
        original = MixtureTask.sample_measurements

        def recording(self, n, rng):
            states.append(rng.bit_generator.state)
            return original(self, n, rng)

        def spy(params, spec_, xs, endpoints, conditions, x_stars, *args):
            batches.append((xs, endpoints, x_stars))
            return batch_loss_and_grads(params, spec_, xs, endpoints, conditions, x_stars, *args)

        monkeypatch.setattr(MixtureTask, "sample_measurements", recording)
        monkeypatch.setattr(training, "batch_loss_and_grads", spy)
        train(task, spec, cfg, SCH, None, named_stream(14, "train"), sampler=SamplerConfig(n_steps=5))
        assert len(states) == 1 + len(batches) and len(batches) == cfg.epochs * cfg.steps_per_epoch
        for state, (xs, ys, x_stars) in zip(states[1:], batches):  # states[0] drew the validation set
            replay = np.random.default_rng()
            replay.bit_generator.state = state
            ref_xs, ref_ys, ref_stars = task.sample_pairs(cfg.batch_size, replay)
            np.testing.assert_array_equal(xs, ref_xs)
            np.testing.assert_array_equal(ys, ref_ys)  # M1: the endpoints are the measurements
            np.testing.assert_array_equal(x_stars, ref_stars)

    def test_m2_trains_and_validates_with_predictor_endpoints(self):
        task, spec, cfg = self.small_setup(conditioning=ConditioningStrategy.M2)
        pp = init_params(predictor_spec(1, hidden=(8,)), named_stream(12, "init"))
        params, _, log = train(
            task, spec, cfg, SCH, pp, named_stream(12, "train"),
            sampler=SamplerConfig(n_steps=5),
        )
        assert len(log) == 3
