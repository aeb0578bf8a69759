"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-7 and 11 are exact or fast statistical checks.  Criteria 8-10
train real models on the mixture task (dim 4, noise_var 0.25)
and verify the directional claims: flatter error accumulation, a weakly
dominant distortion profile across step counts with preserved perception,
and the strategy table.  Criterion 10 drives the strategies subcommand end
to end, once per module; criteria 8 and 9 share one set of head-to-head
models that takes the predictor, Vanilla and Joint from that run and trains
only InputOnly.
"""

import hashlib
import json
import shutil

import numpy as np
import pytest

from bridgelab import cli
from bridgelab.config import load_config
from bridgelab.metrics import perception_distance, si_sdr
from bridgelab.model import (
    MlpSpec,
    apply_mlp,
    bridge_model_spec,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    predictor_spec,
)
from bridgelab.sampler import SamplerConfig, ode_step, sample_trajectory_batch, sde_step
from bridgelab.schedule import NoiseSchedule
from bridgelab.seeding import named_stream
from bridgelab.tasks import LinearGaussianTask, MixtureTask
from bridgelab.training import (
    ConditioningStrategy,
    TrainConfig,
    TrainingStrategy,
    batch_inputs,
    make_bridge_predictor,
    train,
    train_predictor,
)

from artifacts import csv_body

SCH = NoiseSchedule()

# pinned experiment configuration for the directional criteria (8-10):
# the default two-mode mixture at dim 4 (SI-SDR is degenerate on scalars)
EXPERIMENT = {
    "dim": 4,
    "noise_var": 0.25,
    "hidden": (64, 64),
    "epochs": 100,
    "steps_per_epoch": 400,
    "batch_size": 16,
    "patience": 20,
    "seeds": [1, 2, 3, 4, 5],
    "eval_pairs": 1024,
    "reference": 4096,
    "eval_seed": 1,
    "sweep_steps": [1, 2, 4, 8, 16, 32, 50],
}


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE criterion {criterion}: PASS - {message}")


class TestCriterion01Schedule:
    def test_schedule_correctness(self):
        grid = np.linspace(0.01, 1.0, 100)
        worst = 0.0
        for t in grid:
            taus = np.linspace(0.0, t, 10_001)
            numeric = float(np.trapezoid(SCH.c * SCH.k ** (2.0 * taus), taus))
            closed = SCH.sigma2(float(t))
            worst = max(worst, abs(closed - numeric) / closed)
        assert worst < 1e-6
        assert SCH.sigma2(1.0) == pytest.approx(1.20564, abs=1e-5)
        report(1, f"closed-form sigma2 vs quadrature, worst rel err {worst:.2e}; sigma2(1)={SCH.sigma2(1.0):.6f}")


class TestCriterion02MarginalSamplerConsistency:
    def test_one_step_matches_marginal(self):
        rng = np.random.default_rng(2024)
        n = 100_000
        x0, y = -0.8, 1.4
        checked = 0
        for tau in (1.0, 0.75, 0.5):
            for t in (0.5, 0.25, 0.1):
                if not t < tau:
                    continue
                w0_tau, w1_tau, var_tau = SCH.coefficients(tau)
                at_tau = w0_tau * x0 + w1_tau * y + np.sqrt(var_tau) * rng.standard_normal(n)
                out = sde_step(at_tau, np.full(n, x0), SCH.sigma2(tau), SCH.sigma2(t), rng)
                w0_t, w1_t, var_t = SCH.coefficients(t)
                mean_tol = 4 * np.sqrt(var_t / n)
                assert abs(out.mean() - (w0_t * x0 + w1_t * y)) < mean_tol
                assert abs(out.var() / var_t - 1.0) < 0.02
                checked += 1
        assert checked == 8
        report(2, f"sde_step preserves the bridge marginal over {checked} (tau, t) pairs at N={n}")


class TestCriterion03OracleTrajectories:
    def test_sde_oracle_recovery(self):
        x0 = np.array([0.6])
        y = np.array([[-1.0]])
        predictor = lambda s, t, c: np.broadcast_to(x0, s.shape)
        _, _, preds = sample_trajectory_batch(
            predictor, y, y, SamplerConfig(n_steps=50), SCH, rng=np.random.default_rng(3)
        )
        err = float(np.mean((preds[-1] - x0) ** 2))
        assert err < 1e-4

        # ODE mean-consistency as an algebraic identity
        x0v = np.array([0.3, -1.1])
        x1v = np.array([1.0, 0.4])
        worst = 0.0
        for tau, t in [(1.0, 0.7), (0.9, 0.5), (0.7, 0.3), (0.5, 0.01), (0.3, 0.0001)]:
            w0_tau, w1_tau, _ = SCH.coefficients(tau)
            w0_t, w1_t, _ = SCH.coefficients(t)
            mean_tau = w0_tau * x0v + w1_tau * x1v
            mean_t = w0_t * x0v + w1_t * x1v
            out = ode_step(mean_tau, x0v, x1v, SCH.sigma2(tau), SCH.sigma2(t), SCH.sigma2_1)
            worst = max(worst, float(np.max(np.abs(out - mean_t))))
        assert worst < 1e-10
        report(3, f"50-step oracle SDE MSE {err:.2e}; ODE mean identity worst abs err {worst:.2e}")


class TestCriterion04GradientExactness:
    def test_gradients_vs_central_differences(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(5):
            spec = MlpSpec(
                input_dim=int(rng.integers(1, 5)),
                output_dim=int(rng.integers(1, 3)),
                hidden=tuple(int(h) for h in rng.integers(2, 6, size=int(rng.integers(1, 3)))),
                time_embed_pairs=0,
            )
            params = init_params(spec, rng)
            inputs = rng.standard_normal((4, spec.input_dim))
            targets = rng.standard_normal((4, spec.output_dim))
            _, analytic = loss_and_gradients(params, inputs, targets)
            h = 1e-5
            flat, gflat = params.flat, analytic.flat
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp, _ = loss_and_gradients(params, inputs, targets)
                flat[i] = orig - h
                lm, _ = loss_and_gradients(params, inputs, targets)
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(abs(gflat[i]), abs(fd), 1e-6)
                worst = max(worst, abs(gflat[i] - fd) / denom)
        assert worst < 1e-4
        report(4, f"max relative gradient error over 5 random configurations: {worst:.2e}")


class TestCriterion05PosteriorOracles:
    def test_mixture_grid_quadrature(self):
        task = MixtureTask()
        worst = 0.0
        for y in (0.3, -0.9, 1.4, 0.05, 2.2):
            xs = np.linspace(-3.0, 3.0, 100_000)
            prior = sum(
                w * np.exp(-0.5 * (xs - c) ** 2 / task.s2) / np.sqrt(2 * np.pi * task.s2)
                for c, w in zip(task.centers, task.weights)
            )
            post = prior * np.exp(-0.5 * (y - xs) ** 2 / task.noise_var)
            oracle = float(np.trapezoid(xs * post, xs) / np.trapezoid(post, xs))
            worst = max(worst, abs(task.posterior_mean(np.array([y]))[0] - oracle))
        assert worst < 1e-6

        # linear-Gaussian vs importance-weighted Monte Carlo
        rng = np.random.default_rng(5)
        q = rng.standard_normal((4, 4))
        task_lg = LinearGaussianTask(
            mu0=rng.standard_normal(4),
            Sigma0=q @ q.T + 0.5 * np.eye(4),
            A=rng.standard_normal((4, 4)),
            Sigma_n=0.3 * np.eye(4),
        )
        y0 = task_lg.sample_pairs(1, rng)[1][0]
        analytic = task_lg.posterior_mean(y0)
        n = 1_000_000
        xs4 = task_lg.clean_sampler(n, rng)
        resid = y0 - xs4 @ task_lg.A.T
        logw = -0.5 * np.einsum("ij,jk,ik->i", resid, np.linalg.inv(task_lg.Sigma_n), resid)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        mc = w @ xs4
        ess = 1.0 / np.sum(w**2)
        se = np.sqrt(np.sum(w[:, None] * (xs4 - mc) ** 2, axis=0) / ess)
        assert np.all(np.abs(analytic - mc) < 3 * se)
        report(
            5,
            f"mixture quadrature worst abs err {worst:.2e}; linear-Gaussian within 3 SE (ESS {ess:.0f})",
        )


class TestCriterion06StrategyCollapse:
    def test_exact_loss_agreement_with_zero_simulated_error(self):
        spec = bridge_model_spec(2, hidden=(16, 16))
        params = init_params(spec, np.random.default_rng(6))
        x = np.array([[0.4, -0.6]])
        y = np.array([[1.2, 0.1]])
        losses = {}
        grads = {}
        for strategy in TrainingStrategy:
            for t in (0.2, 0.5, 0.9):
                # x_star = x: no simulated prediction error
                noise = np.random.default_rng(1000 + int(t * 10)).standard_normal(x.shape)
                inputs, targets = batch_inputs(spec, x, y, y, x.copy(), np.array([t]), noise, strategy, SCH)
                loss, g = loss_and_gradients(params, inputs, targets)
                losses.setdefault(t, []).append(loss)
                grads.setdefault(t, []).append(g)
        for t, values in losses.items():
            assert values[0] == values[1] == values[2]
            for g in grads[t][1:]:
                np.testing.assert_array_equal(g.flat, grads[t][0].flat)
        report(6, "Vanilla/InputOnly/Joint losses and gradients bitwise equal when x_star = x")


class TestCriterion07PredictorQuality:
    def test_predictor_matches_analytic_posterior_mean(self):
        task = LinearGaussianTask.identity()
        cfg = TrainConfig(epochs=40, steps_per_epoch=400, batch_size=16)
        params = train_predictor(task, predictor_spec(1, (64, 64)), cfg, named_stream(7, "predictor"))
        rng = np.random.default_rng(77)
        _, ys, stars = task.sample_pairs(20_000, rng)
        err = float(np.mean((apply_mlp(params, ys) - stars) ** 2))
        prior_var = float(task.Sigma0[0, 0])
        assert err <= 0.05 * prior_var
        report(7, f"trained predictor MSE vs analytic posterior mean {err:.5f} <= {0.05 * prior_var}")


# ---------------------------------------------------------------------------
# directional criteria: shared trained models


def strategies_config(e: dict, out_dir) -> dict:
    """The `strategies` config of an EXPERIMENT-shaped experiment."""
    return {
        "task": {"kind": "mixture", "dim": e["dim"], "noise_var": e["noise_var"]},
        "schedule": {},
        "model": {"hidden": list(e["hidden"]), "time_embed_pairs": 8},
        "train": {
            "epochs": e["epochs"],
            "steps_per_epoch": e["steps_per_epoch"],
            "batch_size": e["batch_size"],
            "strategy": "Vanilla",
            "conditioning": "M1",
            "patience": e["patience"],
            "validation_size": 50,
        },
        "sampler": {"n_steps": 50},
        "out_dir": str(out_dir),
        "seeds": e["seeds"],
    }


def run_strategies(e: dict, root):
    """(config path, CSV path) of one `strategies` run under `root`."""
    config_path = root / "strategies.json"
    config_path.write_text(json.dumps(strategies_config(e, root / "strategies")))
    return config_path, cli.cmd_strategies(str(config_path))


def head_to_head_setup(e: dict):
    """(task, bridge spec, TrainConfig keywords) of the head-to-head trainings."""
    base = dict(
        epochs=e["epochs"], steps_per_epoch=e["steps_per_epoch"], batch_size=e["batch_size"], patience=e["patience"],
    )
    return MixtureTask(dim=e["dim"], noise_var=e["noise_var"]), bridge_model_spec(e["dim"], e["hidden"]), base


def train_head_to_head_predictor(e: dict, seed: int):
    task, _, base = head_to_head_setup(e)
    return train_predictor(
        task, predictor_spec(e["dim"], e["hidden"]), TrainConfig(**base), named_stream(seed, "predictor")
    )


def train_head_to_head_bridge(e: dict, seed: int, strategy: TrainingStrategy, predictor):
    task, spec, base = head_to_head_setup(e)
    cfg = TrainConfig(**base, strategy=strategy)
    sampler = SamplerConfig(n_steps=50)
    params, _, _ = train(task, spec, cfg, SCH, predictor, named_stream(seed, "train"), sampler=sampler)
    return params


# The strategies run's units that are head-to-head trainings (asserted by
# TestSharedUnits): M1 is Vanilla/M1, and M5 is the strategies table's
# Joint/M1 row.
SHARED_UNITS = {"predictor": "predictor.json", "Vanilla": "model_M1.json", "Joint": "model_M5.json"}


@pytest.fixture(scope="module")
def strategies_run(tmp_path_factory):
    """One `strategies` run over the pinned seeds, shared by criteria 8-10."""
    return run_strategies(EXPERIMENT, tmp_path_factory.mktemp("acceptance"))


@pytest.fixture(scope="module")
def head_to_head(strategies_run):
    """Vanilla, InputOnly, and Joint bridge models over the pinned seeds,
    evaluated as per-step error curves plus the step sweep on a fixed
    evaluation set (criteria 8 and 9 share these models).  The predictor,
    Vanilla and Joint come from the strategies run; only InputOnly is
    trained here."""
    e = EXPERIMENT
    task, spec, _ = head_to_head_setup(e)
    run_dir = strategies_run[1].parent
    sampler50 = SamplerConfig(n_steps=50)
    xs, ys, _ = task.sample_pairs(e["eval_pairs"], named_stream(e["eval_seed"], "eval"))
    reference = task.clean_sampler(e["reference"], named_stream(e["eval_seed"], "eval", 1))

    strategies = (TrainingStrategy.VANILLA, TrainingStrategy.INPUT_ONLY, TrainingStrategy.JOINT)
    curves = {s.value: [] for s in strategies}
    sweeps = {s.value: {n: [] for n in e["sweep_steps"]} for s in strategies}
    for seed in e["seeds"]:
        trained = {
            name: load_checkpoint(run_dir / f"seed_{seed}" / file)["params"] for name, file in SHARED_UNITS.items()
        }
        trained["InputOnly"] = train_head_to_head_bridge(e, seed, TrainingStrategy.INPUT_ONLY, trained["predictor"])
        for strategy in strategies:
            predict = make_bridge_predictor(trained[strategy.value], spec)
            rng50 = named_stream(e["eval_seed"], "sample", 50)
            _, _, preds = sample_trajectory_batch(predict, ys, ys, sampler50, SCH, rng50)
            curves[strategy.value].append(
                [float(np.mean(np.sum((preds[i] - xs) ** 2, axis=1))) for i in range(50)]
            )
            for n in e["sweep_steps"]:
                rng_n = named_stream(e["eval_seed"], "sample", n)
                _, _, p = sample_trajectory_batch(
                    predict, ys, ys, SamplerConfig(n_steps=n), SCH, rng_n
                )
                final = p[-1]
                w2, _ = perception_distance(final, reference)
                sweeps[strategy.value][n].append(
                    (
                        float(np.mean((final - xs) ** 2)),
                        float(np.mean(si_sdr(final, xs))),
                        w2,
                    )
                )
    return {
        "curves": {k: np.median(np.array(v), axis=0) for k, v in curves.items()},
        "sweeps": sweeps,
    }


class TestSharedUnits:
    """The strategies run's predictor, M1 and M5 checkpoints hold the weights
    that training the head-to-head predictor, Vanilla and Joint directly
    gives, so head_to_head may load them instead of training them again."""

    def test_strategy_units_equal_direct_trainings(self, tmp_path):
        e = {**EXPERIMENT, "dim": 2, "hidden": (8, 8), "epochs": 3, "steps_per_epoch": 40, "seeds": [1, 2]}
        run_dir = run_strategies(e, tmp_path)[1].parent
        for seed in e["seeds"]:
            direct = {"predictor": train_head_to_head_predictor(e, seed)}
            for strategy in (TrainingStrategy.VANILLA, TrainingStrategy.JOINT):
                direct[strategy.value] = train_head_to_head_bridge(e, seed, strategy, direct["predictor"])
            for name, file in SHARED_UNITS.items():
                saved = load_checkpoint(run_dir / f"seed_{seed}" / file)["params"]
                np.testing.assert_array_equal(saved.flat, direct[name].flat, err_msg=f"seed {seed} {name}")


class TestCriterion08ExposureBiasDirection:
    def test_regularized_curve_at_or_below_vanilla(self, head_to_head):
        vanilla = head_to_head["curves"]["Vanilla"]
        joint = head_to_head["curves"]["Joint"]
        first_half = range(25)
        violations = [i + 1 for i in first_half if joint[i] > vanilla[i]]
        assert violations == [], f"first-half steps where Joint exceeds Vanilla: {violations}"
        assert joint[-1] <= vanilla[-1]
        report(
            8,
            "median per-step error curve of the regularized model at or below vanilla on the "
            f"first 25 of 50 steps; final error {joint[-1]:.5f} <= {vanilla[-1]:.5f}",
        )


class TestCriterion09DpTradeoffDirection:
    def test_sweep_dominance_and_perception(self, head_to_head):
        sweeps = head_to_head["sweeps"]
        for n in EXPERIMENT["sweep_steps"]:
            mse_v = float(np.median([r[0] for r in sweeps["Vanilla"][n]]))
            mse_j = float(np.median([r[0] for r in sweeps["Joint"][n]]))
            sdr_v = float(np.median([r[1] for r in sweeps["Vanilla"][n]]))
            sdr_j = float(np.median([r[1] for r in sweeps["Joint"][n]]))
            w2_v = float(np.median([r[2] for r in sweeps["Vanilla"][n]]))
            w2_j = float(np.median([r[2] for r in sweeps["Joint"][n]]))
            assert mse_j <= mse_v, f"steps={n}: Joint MSE {mse_j} > Vanilla {mse_v}"
            assert sdr_j >= sdr_v, f"steps={n}: Joint SI-SDR {sdr_j} < Vanilla {sdr_v}"
            assert w2_j <= 1.10 * w2_v, f"steps={n}: Joint W2 {w2_j} > 1.1 x {w2_v}"
        # Table-1 direction at the default 50 steps: Joint beats No perturbation
        assert np.median([r[0] for r in sweeps["Joint"][50]]) <= np.median(
            [r[0] for r in sweeps["Vanilla"][50]]
        )
        assert np.median([r[1] for r in sweeps["Joint"][50]]) >= np.median(
            [r[1] for r in sweeps["Vanilla"][50]]
        )
        report(
            9,
            "regularized model weakly dominates vanilla on median MSE and SI-SDR at all step "
            "counts with W2 within 10%; Joint beats No-perturbation on median distortion",
        )


class TestAblationDirections:
    """Perturbation-ablation directions beyond the numbered criteria: the
    input-only variant improves distortion over no perturbation but does not
    beat the joint variant on the perception proxy."""

    def test_input_only_between_vanilla_and_joint(self, head_to_head):
        sweeps = head_to_head["sweeps"]
        mse_at_50 = {k: float(np.median([r[0] for r in sweeps[k][50]])) for k in sweeps}
        w2_at_50 = {k: float(np.median([r[2] for r in sweeps[k][50]])) for k in sweeps}
        assert mse_at_50["InputOnly"] <= mse_at_50["Vanilla"]
        assert w2_at_50["InputOnly"] >= w2_at_50["Joint"]
        print(
            "ACCEPTANCE ablation directions: PASS - input-only improves distortion over vanilla "
            f"(MSE {mse_at_50['Vanilla']:.5f}->{mse_at_50['InputOnly']:.5f}) but its perception "
            f"proxy is not better than joint ({w2_at_50['InputOnly']:.4f} vs {w2_at_50['Joint']:.4f})"
        )


class TestCriterion10StrategyTable:
    def test_cmd_strategies_and_m2_direction(self, strategies_run, tmp_path):
        e = EXPERIMENT
        config_path, csv_path = strategies_run

        lines = csv_path.read_text().splitlines()
        assert lines[1] == "strategies.v1,strategy,seed,mse,si_sdr_db,w2,energy_distance"
        body = [l.split(",") for l in lines[2:]]
        seen = {r[1] for r in body}
        assert seen == {"M1", "M2", "M3", "M4", "M5"}

        medians = {r[1]: r for r in body if r[2] == "median"}
        m1_mse, m1_sdr = float(medians["M1"][3]), float(medians["M1"][4])
        m2_mse, m2_sdr = float(medians["M2"][3]), float(medians["M2"][4])
        # distortion gate on SI-SDR, the distortion column of the strategy table
        assert m2_sdr >= m1_sdr, f"M2 median SI-SDR {m2_sdr} worse than M1 {m1_sdr}"

        # M5 inference succeeds with every predictor artifact removed, in a
        # copy of the run that the other criteria read
        run_dir = shutil.copytree(csv_path.parent, tmp_path / "strategies")
        cfg = load_config(config_path)
        xs, ys, reference = cli.make_eval_set(cfg, e["seeds"][0])
        for seed in e["seeds"]:
            (run_dir / f"seed_{seed}" / "predictor.json").unlink()
        method, rep = cli.evaluate_checkpoint_file(
            cfg,
            run_dir / f"seed_{e['seeds'][0]}" / "model_M5.json",
            xs, ys, reference, e["seeds"][0],
        )
        assert method == "M5" and np.isfinite(rep.mse)
        with pytest.raises(cli.CheckpointMismatchError):
            cli.evaluate_checkpoint_file(
                cfg,
                run_dir / f"seed_{e['seeds'][0]}" / "model_M2.json",
                xs, ys, reference, e["seeds"][0],
            )
        report(
            10,
            f"all M1-M5 complete; M5 runs without the predictor artifact; M2 improves median "
            f"distortion over M1 (MSE {m1_mse:.5f}->{m2_mse:.5f}, SI-SDR {m1_sdr:.2f}->{m2_sdr:.2f})",
        )


class TestCriterion11Determinism:
    def test_repeat_runs_identical(self, tmp_path):
        config = {
            "task": {"kind": "mixture", "dim": 1, "noise_var": 0.1},
            "schedule": {},
            "model": {"hidden": [8, 8], "time_embed_pairs": 4},
            "train": {
                "epochs": 2,
                "steps_per_epoch": 25,
                "batch_size": 8,
                "strategy": "Joint",
                "conditioning": "M1",
                "patience": 20,
                "validation_size": 8,
            },
            "sampler": {"n_steps": 5},
            "out_dir": "unused",
            "seeds": [3],
        }
        config_path = tmp_path / "tiny.json"
        config_path.write_text(json.dumps(config))

        def checkpoint_hashes(out):
            cli.cmd_train(str(config_path), str(out))
            return {
                name: hashlib.sha256((out / "seed_3" / name).read_bytes()).hexdigest()
                for name in ("predictor.json", "model_Joint.json")
            }

        hashes_a = checkpoint_hashes(tmp_path / "a")
        hashes_b = checkpoint_hashes(tmp_path / "b")
        assert hashes_a == hashes_b

        def log_without_wall_time(out):
            body = csv_body(out / "seed_3" / "training_log_Joint.csv")
            return "\n".join(",".join(line.split(",")[:-1]) for line in body.splitlines())

        assert log_without_wall_time(tmp_path / "a") == log_without_wall_time(tmp_path / "b")

        sweep_a = cli.cmd_sweep_steps(
            str(config_path), [str(tmp_path / "a" / "seed_3" / "model_Joint.json")],
            "1,2,5", str(tmp_path / "sa"),
        )
        sweep_b = cli.cmd_sweep_steps(
            str(config_path), [str(tmp_path / "b" / "seed_3" / "model_Joint.json")],
            "1,2,5", str(tmp_path / "sb"),
        )
        assert csv_body(sweep_a) == csv_body(sweep_b)

        abl_a = cli.cmd_ablation(str(config_path), str(tmp_path / "aa"))
        abl_b = cli.cmd_ablation(str(config_path), str(tmp_path / "ab"))
        assert csv_body(abl_a) == csv_body(abl_b)

        exp_a = cli.cmd_exposure_bias(
            str(config_path), [str(tmp_path / "a" / "seed_3" / "model_Joint.json")], str(tmp_path / "ea")
        )
        exp_b = cli.cmd_exposure_bias(
            str(config_path), [str(tmp_path / "b" / "seed_3" / "model_Joint.json")], str(tmp_path / "eb")
        )
        assert csv_body(exp_a) == csv_body(exp_b)

        data_a = cli.cmd_dump_dataset(str(config_path), str(tmp_path / "da"))
        data_b = cli.cmd_dump_dataset(str(config_path), str(tmp_path / "db"))
        assert csv_body(data_a) == csv_body(data_b)
        report(
            11,
            "repeated runs: identical checkpoint hashes; byte-identical CSV bodies for sweep, "
            "ablation, exposure, dataset; training log identical up to the wall_time_s column",
        )
