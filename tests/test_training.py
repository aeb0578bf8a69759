"""Training strategies, the predictor loop, and the bridge-model loop."""

import json
from dataclasses import replace

import numpy as np
import pytest

from bridgelab import cli
from bridgelab.bridge import bridge_marginal, perturb
from bridgelab.config import load_config
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
    DrawRecord,
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
            ConditioningStrategy.M1: ("y", "y"),
            ConditioningStrategy.M2: ("x_star", "y"),
            ConditioningStrategy.M3: ("y", "x_star"),
            ConditioningStrategy.M4: ("x_star", "x_star"),
        }
        assert list(table) == list(ConditioningStrategy)
        for strat, (endpoint, condition) in table.items():
            assert strat.bridge_endpoint == endpoint
            assert strat.condition == condition

    def test_inference_endpoints_dependency_contract(self):
        ys = np.ones((4, 2))
        starts, conds = inference_endpoints(ConditioningStrategy.M1, ys, None)
        np.testing.assert_array_equal(starts, ys)
        np.testing.assert_array_equal(conds, ys)
        with pytest.raises(ValueError):
            inference_endpoints(ConditioningStrategy.M2, ys, None)
        starts, conds = inference_endpoints(ConditioningStrategy.M4, ys, lambda y: 0.5 * y)
        np.testing.assert_array_equal(starts, 0.5 * ys)
        np.testing.assert_array_equal(conds, 0.5 * ys)

    @pytest.mark.parametrize("conditioning", list(ConditioningStrategy), ids=lambda c: c.value)
    def test_every_strategy_trains_its_own_weights(self, conditioning):
        """No conditioning overrides the perturbation strategy: with a predictor whose outputs are
        not the clean values, the three strategies train pairwise-different weights."""
        task = MixtureTask(dim=2, noise_var=0.25)
        spec = bridge_model_spec(2, hidden=(8, 8), time_embed_pairs=2)
        pp = init_params(predictor_spec(2, hidden=(8, 8)), named_stream(30, "predictor"))
        trained = []
        for strategy in TrainingStrategy:
            cfg = TrainConfig(epochs=1, steps_per_epoch=20, batch_size=8, strategy=strategy,
                              conditioning=conditioning, validation_size=8)
            params, _, _ = train(task, spec, cfg, SCH, pp, named_stream(31, "train"), SamplerConfig(n_steps=3))
            trained.append(params.flat)
        for i in range(len(trained)):
            for j in range(i):
                assert not np.array_equal(trained[i], trained[j])


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
            runs.append(train(
                task, spec, cfg, SCH, None, named_stream(8, "train"),
                sampler=SamplerConfig(n_steps=5),
            ))
        np.testing.assert_array_equal(runs[0][0].flat, runs[1][0].flat)
        assert [r["val_mse"] for r in runs[0][1]] == [r["val_mse"] for r in runs[1][1]]
        assert runs[0][2] == runs[1][2] is not None

    def test_patience_zero_stops_at_first_non_improvement(self):
        task, spec, cfg = self.small_setup(epochs=40, patience=0)
        _, log, _ = train(
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
        _, log, _ = train(
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
        params, log, selected = train(task, spec, cfg, SCH, None, named_stream(15, "train"), SamplerConfig(n_steps=5))
        np.testing.assert_array_equal(params.flat, init_params(spec, named_stream(15, "train")).flat)
        assert log == [] and selected is None

    def test_m2_trains_and_validates_with_predictor_endpoints(self):
        task, spec, cfg = self.small_setup(conditioning=ConditioningStrategy.M2)
        pp = init_params(predictor_spec(1, hidden=(8,)), named_stream(12, "init"))
        params, log, _ = train(
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
    strategy, conditioning = config.strategy, config.conditioning
    params = init_params(spec, rng)
    adam = init_adam(params)
    ema = init_ema(params)

    def x_star_fn(ys):
        return task.posterior_mean(ys) if predictor_params is None else apply_mlp(predictor_params, ys)

    val_xs, val_ys = task.sample_measurements(config.validation_size, rng)
    reference = ReferenceSet(task.clean_sampler(training.VAL_REFERENCE_SIZE, rng))
    best_mse, best_mse_params, best_mse_epoch = np.inf, ema.shadow.copy(), None
    cand_w2 = cand_mse = np.inf
    cand_params = cand_epoch = None
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
            best_mse, best_mse_params, best_mse_epoch, stale = val_mse, ema.shadow.copy(), epoch, 0
        else:
            stale += 1
        cand_valid = cand_params is not None and cand_mse <= W2_SELECTION_GUARD * best_mse
        if val_mse <= W2_SELECTION_GUARD * best_mse and (not cand_valid or val_w2 < cand_w2):
            cand_w2, cand_mse, cand_params, cand_epoch = val_w2, val_mse, ema.shadow.copy(), epoch
        if stale > config.patience:
            break
    if cand_params is not None and cand_mse <= W2_SELECTION_GUARD * best_mse:
        return cand_params, log, cand_epoch
    return best_mse_params, log, best_mse_epoch


TASKS = {
    "mixture2": lambda: MixtureTask(dim=2, noise_var=0.25),
    "linear1": LinearGaussianTask.identity,
}


def assert_same_training(task, spec, cfg, predictor_params, seed, sampler):
    """train and the reference loop give bitwise-equal params, the same selected epoch and log,
    and leave the stream alike."""
    rng, ref_rng = named_stream(seed, "train"), named_stream(seed, "train")
    params, log, selected = train(task, spec, cfg, SCH, predictor_params, rng, sampler=sampler)
    ref_params, ref_log, ref_selected = reference_train(task, spec, cfg, SCH, predictor_params, ref_rng, sampler)
    np.testing.assert_array_equal(params.flat, ref_params.flat)
    assert selected == ref_selected
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



# ---------------------------------------------------------------------------
# one record of a seed's training blocks, shared by the seed's units


def shared_doc(task, train_block, sampler):
    return {
        "task": task,
        "schedule": {},
        "model": {"hidden": [8, 8], "time_embed_pairs": 2},
        "train": {"strategy": "Joint", "conditioning": "M1", "validation_size": 8, **train_block},
        "sampler": sampler,
        "seeds": [1],
    }


SHARED_CONFIGS = {
    # patience 2 stops the units of seed 1 at different epochs, some after the first unit's last
    "sde-early-stop": shared_doc(
        {"kind": "linear_gaussian", "dim": 1, "prior_var": 1.0, "noise_var": 1.0},
        {"epochs": 12, "steps_per_epoch": 10, "batch_size": 8, "patience": 2},
        {"n_steps": 4, "kind": "SDE"},
    ),
    # blocks of 32 steps at batch 16: each epoch ends in a block of 8 steps
    "partial-block": shared_doc(
        {"kind": "mixture", "dim": 2, "noise_var": 0.25},
        {"epochs": 2, "steps_per_epoch": 40, "batch_size": 16, "patience": 20},
        {"n_steps": 3, "kind": "SDE"},
    ),
    "ode": shared_doc(
        {"kind": "mixture", "dim": 1, "noise_var": 0.1},
        {"epochs": 3, "steps_per_epoch": 20, "batch_size": 8, "patience": 20},
        {"n_steps": 4, "kind": "ODE"},
    ),
}

GRID_LABELS = {"strategies": ["M1", "M2", "M3", "M4", "M5"], "ablation": ["Vanilla", "InputOnly", "Joint"]}


class TestSharedDraws:
    @pytest.mark.parametrize("grid", sorted(GRID_LABELS))
    @pytest.mark.parametrize("case", sorted(SHARED_CONFIGS))
    def test_units_equal_lone_trainings(self, grid, case, tmp_path, monkeypatch):
        """Each unit of a seed, trained through `cli.train_units_for_seed` with the record the units
        share, equals that unit trained alone on its own stream: params, selected epoch, log (without
        wall_time_s) and the generator state it leaves."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**SHARED_CONFIGS[case], "out_dir": str(tmp_path / "run")}))
        cfg = load_config(path)
        calls = []

        def spy(*args, **kwargs):
            result = train(*args, **kwargs)
            calls.append((args, kwargs, result, args[5].bit_generator.state))
            return result

        monkeypatch.setattr(cli, "train", spy)
        labels = GRID_LABELS[grid]
        cli.train_units_for_seed(cfg, 1, labels, grid)

        assert len(calls) == len(labels)
        assert calls[0][1]["record"] is not None
        assert all(kwargs["record"] is calls[0][1]["record"] for _, kwargs, _, _ in calls)
        for args, kwargs, (params, log, selected), state in calls:
            rng = named_stream(1, "train")
            lone_params, lone_log, lone_selected = train(*args[:5], rng, sampler=kwargs["sampler"])
            unit = args[2].strategy.value, args[2].conditioning.value
            np.testing.assert_array_equal(params.flat, lone_params.flat, err_msg=f"{unit}")
            assert selected == lone_selected, unit
            strip = lambda rows: [{k: v for k, v in row.items() if k != "wall_time_s"} for row in rows]  # noqa: E731
            assert strip(log) == strip(lone_log), unit
            assert state == rng.bit_generator.state, unit

        stopped = [len(result[1]) for _, _, result, _ in calls]
        if case == "sde-early-stop":
            assert len(set(stopped)) > 1 and max(stopped[1:]) > stopped[0]  # later units draw past the record
        if case == "partial-block":
            assert cfg.train.steps_per_epoch % (training.BLOCK_ROWS // cfg.train.batch_size) != 0


class TestDrawRecord:
    def small_setup(self, epochs=2):
        task = MixtureTask(dim=2, noise_var=0.25)
        spec = bridge_model_spec(2, hidden=(8,), time_embed_pairs=2)
        cfg = TrainConfig(epochs=epochs, steps_per_epoch=20, batch_size=8, strategy=TrainingStrategy.JOINT,
                          validation_size=8)
        return task, spec, cfg

    def test_record_of_another_seed_raises_at_first_block(self):
        task, spec, cfg = self.small_setup()
        record = DrawRecord()
        train(task, spec, cfg, SCH, None, named_stream(1, "train"), SamplerConfig(n_steps=3), record=record)
        with pytest.raises(ValueError, match="training block 0 was recorded from another stream"):
            train(task, spec, cfg, SCH, None, named_stream(2, "train"), SamplerConfig(n_steps=3), record=record)

    def test_record_of_another_batch_size_raises_at_first_block(self):
        """Init weights and the validation draws do not depend on the batch size, so the stream stands
        at the recorded state; the block's shape tells the records apart."""
        task, spec, cfg = self.small_setup()
        record = DrawRecord()
        train(task, spec, cfg, SCH, None, named_stream(1, "train"), SamplerConfig(n_steps=3), record=record)
        with pytest.raises(ValueError, match="training block 0 .* recorded \\(20, 8\\), asked \\(20, 16\\)"):
            train(task, spec, replace(cfg, batch_size=16), SCH, None, named_stream(1, "train"),
                  SamplerConfig(n_steps=3), record=record)

    def test_later_unit_draws_only_past_the_record(self, monkeypatch):
        """A unit that trains one epoch more than the recorder draws its validation set and that epoch's
        batches, and computes x_star for that epoch's block only."""
        task, spec, cfg = self.small_setup(epochs=2)
        record = DrawRecord()
        train(task, spec, cfg, SCH, None, named_stream(1, "train"), SamplerConfig(n_steps=3), record=record)
        counts = {"sample_measurements": 0, "posterior_mean": 0}
        for name in counts:
            original = getattr(MixtureTask, name)

            def counting(self, *args, _name=name, _original=original):
                counts[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(MixtureTask, name, counting)
        longer = replace(cfg, epochs=3)
        train(task, spec, longer, SCH, None, named_stream(1, "train"), SamplerConfig(n_steps=3), record=record)
        assert counts == {"sample_measurements": 1 + cfg.steps_per_epoch, "posterior_mean": 1}
