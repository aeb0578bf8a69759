"""Training strategies, the predictor loop, and the bridge-model loop."""

import numpy as np
import pytest

from bridgelab.bridge import bridge_marginal, perturb
from bridgelab.metrics import ReferenceSet, perception_distance
from bridgelab.model import (
    adam_update,
    apply_mlp,
    assemble_inputs,
    bridge_model_spec,
    ema_update,
    forward,
    init_adam,
    init_ema,
    init_params,
    loss_and_gradients,
    predictor_spec,
)
from bridgelab.sampler import SamplerConfig, SamplerKind, sample_trajectory_batch
from bridgelab.schedule import NoiseSchedule
from bridgelab.seeding import named_stream
from bridgelab.tasks import LinearGaussianTask, MixtureTask
from bridgelab import training
from bridgelab.training import (
    ConditioningStrategy,
    DivergenceError,
    TrainConfig,
    TrainingStrategy,
    W2_SELECTION_GUARD,
    batch_inputs,
    inference_endpoints,
    make_bridge_predictor,
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
    """Loss and gradients of a one-row batch whose endpoint and condition are y."""
    x, y, x_star = (np.array([[v]]) for v in (x, y, x_star))
    noise = rng.standard_normal(x.shape)
    inputs, targets = batch_inputs(spec, x, y, y, x_star, np.array([t]), noise, strategy, SCH)
    return loss_and_gradients(params, inputs, targets)


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
        out = forward(params, spec, np.array([[1.2]]), 1.0, np.array([[1.2]]))
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
                batch_inputs(spec, xs, np.zeros((3, 1)), np.zeros((3, 1)), xs,
                             np.full(2, 0.5), np.zeros((2, 1)), strategy, SCH)

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
        task = LinearGaussianTask.identity()
        spec = predictor_spec(1, hidden=(8,))
        cfg = TrainConfig(epochs=0)
        params = train_predictor(task, spec, cfg, named_stream(3, "predictor"))
        reference = init_params(spec, named_stream(3, "predictor"))
        np.testing.assert_array_equal(params.flat, reference.flat)

    def test_learns_scalar_posterior_mean(self):
        # quick version of the acceptance criterion: modest budget, loose gate
        task = LinearGaussianTask.identity()
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
        """Each oracle step uses exactly the (x, y, x_star) that sample_pairs draws from the same state,
        with one block per epoch and with blocks of three steps."""
        task, spec, cfg = self.small_setup(strategy=TrainingStrategy.JOINT, epochs=2)
        states, blocks = [], []
        original = MixtureTask.sample_measurements

        def recording(self, n, rng):
            states.append(rng.bit_generator.state)
            return original(self, n, rng)

        def spy(spec_, xs, endpoints, conditions, x_stars, *args):
            blocks.append((xs, endpoints, x_stars))
            return batch_inputs(spec_, xs, endpoints, conditions, x_stars, *args)

        monkeypatch.setattr(MixtureTask, "sample_measurements", recording)
        monkeypatch.setattr(training, "batch_inputs", spy)
        n_steps = cfg.epochs * cfg.steps_per_epoch
        for block_rows in (training.BLOCK_ROWS, 3 * cfg.batch_size):
            states.clear()
            blocks.clear()
            monkeypatch.setattr(training, "BLOCK_ROWS", block_rows)
            train(task, spec, cfg, SCH, None, named_stream(14, "train"), sampler=SamplerConfig(n_steps=5))
            block_steps = block_rows // cfg.batch_size
            assert len(blocks) == cfg.epochs * -(-cfg.steps_per_epoch // block_steps)
            assert len(states) == 1 + n_steps
            xs, ys, x_stars = (np.split(np.concatenate(a), n_steps) for a in zip(*blocks))
            for i, state in enumerate(states[1:]):  # states[0] drew the validation set
                replay = np.random.default_rng()
                replay.bit_generator.state = state
                ref_xs, ref_ys, ref_stars = task.sample_pairs(cfg.batch_size, replay)
                np.testing.assert_array_equal(xs[i], ref_xs)
                np.testing.assert_array_equal(ys[i], ref_ys)  # M1: the endpoints are the measurements
                np.testing.assert_array_equal(x_stars[i], ref_stars)

    def test_zero_epochs_returns_initial_shadow(self):
        """With no epoch to validate, train returns the initial EMA shadow, as the reference's rule does."""
        task, spec, cfg = self.small_setup(epochs=0)
        assert_same_training(task, spec, cfg, None, 15, SamplerConfig(n_steps=5))
        params, ema, log = train(task, spec, cfg, SCH, None, named_stream(15, "train"), SamplerConfig(n_steps=5))
        np.testing.assert_array_equal(params.flat, init_params(spec, named_stream(15, "train")).flat)
        assert log == [] and params is not ema.shadow

    def test_m2_trains_and_validates_with_predictor_endpoints(self):
        task, spec, cfg = self.small_setup(conditioning=ConditioningStrategy.M2)
        pp = init_params(predictor_spec(1, hidden=(8,)), named_stream(12, "init"))
        params, _, log = train(
            task, spec, cfg, SCH, pp, named_stream(12, "train"),
            sampler=SamplerConfig(n_steps=5),
        )
        assert len(log) == 3


# ---------------------------------------------------------------------------
# block-batched draws against the step-by-step loop


def reference_train(task, spec, config, schedule, predictor_params, rng, sampler):
    """`train` as a step-by-step loop: each step draws and builds its own inputs.

    The reference that the block-batched loop must reproduce bit for bit;
    it draws in the documented stream order and shares no code with the
    step loop of `train`.
    """
    strategy, conditioning = config.effective_strategy, config.conditioning
    params = init_params(spec, rng)
    adam = init_adam(params)
    ema = init_ema(params)

    def x_star_fn(ys):
        return task.posterior_mean(ys) if predictor_params is None else apply_mlp(predictor_params, ys)

    val_xs, val_ys = task.sample_measurements(config.validation_size, rng)
    reference = ReferenceSet(task.clean_sampler(training.VAL_REFERENCE_SIZE, rng))
    best_mse, best_mse_params = np.inf, ema.shadow.copy()
    cand_w2 = cand_mse = np.inf
    cand_params = None
    stale = 0
    log = []
    for epoch in range(config.epochs):
        loss_sum = 0.0
        for step in range(config.steps_per_epoch):
            xs, ys = task.sample_measurements(config.batch_size, rng)
            x_stars = x_star_fn(ys)
            endpoints = x_stars if conditioning.bridge_endpoint == "x_star" else ys
            conditions = x_stars if conditioning.condition == "x_star" else ys
            ts = rng.uniform(schedule.t_eps, 1.0, size=config.batch_size)
            if strategy is TrainingStrategy.VANILLA:
                x0_state = targets = xs
            else:
                x0_state = perturb(xs, x_stars, ts)
                targets = xs if strategy is TrainingStrategy.INPUT_ONLY else x0_state
            states = bridge_marginal(schedule, x0_state, endpoints, ts, rng.standard_normal(x0_state.shape))
            try:
                loss, grads = loss_and_gradients(params, assemble_inputs(spec, states, ts, conditions), targets)
            except FloatingPointError as exc:
                raise DivergenceError(f"training diverged at epoch {epoch}, step {step}: {exc}") from exc
            adam_update(params, grads, adam)
            ema_update(ema, params)
            loss_sum += loss
        starts, conds = inference_endpoints(
            conditioning, val_ys, x_star_fn if conditioning.needs_predictor_at_inference else None
        )
        _, _, preds = sample_trajectory_batch(
            make_bridge_predictor(ema.shadow, spec), starts, conds, sampler, schedule, rng
        )
        val_mse = float(np.mean((preds[-1] - val_xs) ** 2))
        val_w2, _ = perception_distance(preds[-1], reference)
        log.append({"epoch": epoch, "train_loss": loss_sum / config.steps_per_epoch,
                    "val_mse": val_mse, "val_w2": val_w2, "is_ema": 1})
        if val_mse < best_mse:
            best_mse, best_mse_params, stale = val_mse, ema.shadow.copy(), 0
        else:
            stale += 1
        cand_valid = cand_params is not None and cand_mse <= W2_SELECTION_GUARD * best_mse
        if val_mse <= W2_SELECTION_GUARD * best_mse and (not cand_valid or val_w2 < cand_w2):
            cand_w2, cand_mse, cand_params = val_w2, val_mse, ema.shadow.copy()
        if stale > config.patience:
            break
    if cand_params is not None and cand_mse <= W2_SELECTION_GUARD * best_mse:
        return cand_params, ema, log
    return best_mse_params, ema, log


TASKS = {
    "mixture2": lambda: MixtureTask(dim=2, noise_var=0.25),
    "linear1": LinearGaussianTask.identity,
}


def assert_same_training(task, spec, cfg, predictor_params, seed, sampler):
    """train and the reference loop give bitwise-equal params, EMA and log, and leave the stream alike."""
    rng, ref_rng = named_stream(seed, "train"), named_stream(seed, "train")
    params, ema, log = train(task, spec, cfg, SCH, predictor_params, rng, sampler=sampler)
    ref_params, ref_ema, ref_log = reference_train(task, spec, cfg, SCH, predictor_params, ref_rng, sampler)
    np.testing.assert_array_equal(params.flat, ref_params.flat)
    np.testing.assert_array_equal(ema.shadow.flat, ref_ema.shadow.flat)
    assert [{k: v for k, v in row.items() if k != "wall_time_s"} for row in log] == ref_log
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class PoisonedTask:
    """A task whose draw number `poisoned` (from 0) returns clean values scaled by 1e300."""

    def __init__(self, base, poisoned):
        self.base, self.poisoned, self.draws = base, poisoned, 0
        self.dim = base.dim

    def sample_measurements(self, n, rng):
        xs, ys = self.base.sample_measurements(n, rng)
        self.draws += 1
        return (xs * 1e300 if self.draws - 1 == self.poisoned else xs), ys

    def posterior_mean(self, ys):
        return self.base.posterior_mean(ys)

    def clean_sampler(self, n, rng):
        return self.base.clean_sampler(n, rng)


class TestBlockDraws:
    @pytest.mark.parametrize("task_name", sorted(TASKS))
    @pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "predictor"])
    @pytest.mark.parametrize("conditioning", list(ConditioningStrategy), ids=lambda c: c.value)
    @pytest.mark.parametrize("strategy", list(TrainingStrategy), ids=lambda s: s.value)
    def test_matches_step_by_step_loop(self, task_name, oracle, conditioning, strategy):
        task = TASKS[task_name]()
        dim = task.dim
        spec = bridge_model_spec(dim, hidden=(8,), time_embed_pairs=2)
        pp = None if oracle else init_params(predictor_spec(dim, hidden=(8,)), named_stream(20, "predictor"))
        cfg = TrainConfig(epochs=2, steps_per_epoch=70, batch_size=8, strategy=strategy,
                          conditioning=conditioning, validation_size=16)
        assert_same_training(task, spec, cfg, pp, 21, SamplerConfig(n_steps=4))

    @pytest.mark.parametrize(
        "steps_per_epoch,batch_size",
        [(1, 16), (20, 16), (32, 16), (64, 16), (75, 16), (21, 24), (43, 24), (3, 700)],
    )
    def test_block_boundaries(self, steps_per_epoch, batch_size):
        """Epochs below, at, and past one block (32 steps of 16 rows, 21 of 24), and a batch above it."""
        task = TASKS["mixture2"]()
        spec = bridge_model_spec(2, hidden=(8,), time_embed_pairs=2)
        pp = init_params(predictor_spec(2, hidden=(8,)), named_stream(22, "predictor"))
        cfg = TrainConfig(epochs=3, steps_per_epoch=steps_per_epoch, batch_size=batch_size,
                          strategy=TrainingStrategy.JOINT, conditioning=ConditioningStrategy.M4,
                          validation_size=16)
        assert_same_training(task, spec, cfg, pp, 23, SamplerConfig(n_steps=3, kind=SamplerKind.ODE))

    @pytest.mark.parametrize("poisoned_step", [0, 31, 32, 50])
    def test_divergence_names_epoch_and_step(self, poisoned_step):
        """A batch of overflowing clean values in epoch 1 stops both loops with the same message."""
        cfg = TrainConfig(epochs=3, steps_per_epoch=60, batch_size=16, strategy=TrainingStrategy.VANILLA,
                          validation_size=16)
        spec = bridge_model_spec(2, hidden=(8,), time_embed_pairs=2)
        messages = []
        for loop in (train, reference_train):
            # draw 0 is the validation set, then one draw per step
            task = PoisonedTask(TASKS["mixture2"](), 1 + cfg.steps_per_epoch + poisoned_step)
            with pytest.raises(DivergenceError) as info:
                loop(task, spec, cfg, SCH, None, named_stream(24, "train"), SamplerConfig(n_steps=3))
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"training diverged at epoch 1, step {poisoned_step}: ")

