"""The benchmark's workloads: set-up, one timed round, quality read-out and checks.

A round runs one pass of a workload's pipeline through bridgelab's CLI
functions and leaves its checkpoints and CSVs in the round's directory.
Rounds run at a given master seed; `check` then verifies those outputs
against computations made apart from the program.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from bridgelab import cli, model, sampler, seeding, tasks, training

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def reproduce_finals(cfg, ckpt_path: Path, eval_set, eval_seed: int, n_steps: int):
    """Sampler outputs of one CLI evaluation, regenerated from the checkpoint.

    Uses the same streams as `cli.evaluate_bridge`, so the finals are the
    samples behind that evaluation's CSV row.
    """
    ckpt = model.load_checkpoint(ckpt_path)
    conditioning = training.ConditioningStrategy(ckpt["meta"]["conditioning"])
    predictor_fn = None
    if conditioning.needs_predictor_at_inference:
        pred = model.load_checkpoint(Path(ckpt_path).parent / ckpt["meta"]["predictor_file"])
        predictor_fn = lambda ys: model.apply_mlp(pred["params"], ys)  # noqa: E731
    xs, ys, reference = eval_set
    starts, conditions = training.inference_endpoints(conditioning, ys, predictor_fn)
    _, _, preds = sampler.sample_trajectory_batch(
        training.make_bridge_predictor(ckpt["params"], ckpt["spec"]),
        starts,
        conditions,
        replace(cfg.sampler, n_steps=n_steps),
        cfg.schedule,
        seeding.named_stream(eval_seed, "sample", index=n_steps),
    )
    return preds[-1]


def bayes_mse(task, xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """(Bayes MSE per coordinate, its standard error) for the task."""
    if isinstance(task, tasks.LinearGaussianTask):
        return checks.linear_gaussian_bayes_mse(task.Sigma0, task.A, task.Sigma_n), 0.0
    post = checks.mixture_posterior_mean_quadrature(ys, task.centers, task.weights, task.s2, task.noise_var)
    sq = (xs - post) ** 2
    return float(sq.mean()), float(np.sqrt(np.var(sq) / sq.size))


class Workload:
    name = ""
    config_name = ""
    ops_per_round = 0  # independent operations (trainings, evaluations) per round
    # Master seed of the round whose quality and digests every run reports.
    pinned_seed = 1

    def __init__(self, out: Path, config_path: Path | None = None):
        self.out = out
        self.config_path = config_path or CONFIG_DIR / self.config_name
        self.cfg = None  # loaded by setup()

    @property
    def steps_per_training(self) -> int:
        return self.cfg.train.epochs * self.cfg.train.steps_per_epoch

    def setup(self, seed: int) -> None:
        """Config and the evaluation sets that the checks compare against."""
        self.cfg = cli.load_config(self.config_path)
        self.eval_sets = {s: cli.make_eval_set(self.cfg, s) for s in {seed, self.pinned_seed}}

    def run_round(self, seed: int, out: Path) -> None:
        raise NotImplementedError

    def quality(self, out: Path, seed: int) -> tuple[float, float]:
        """(mse, w2) of the paper's regularized method at the configured step count."""
        raise NotImplementedError

    def output_files(self, out: Path) -> list[Path]:
        return sorted(p for p in out.rglob("*") if p.suffix in (".json", ".csv"))

    def check(self, out: Path, seed: int, scratch: Path) -> None:
        for path in out.rglob("*.json"):
            checks.check_checkpoint_roundtrip(path, scratch)
        for path in out.rglob("training_log_*.csv"):
            checks.check_log_epochs(path, self.cfg.train.epochs)

    def _check_row(self, what, ckpt_path, seed, n_steps, mse, w2, energy, bayes_bound=False):
        xs, ys, reference = self.eval_sets[seed]
        finals = reproduce_finals(self.cfg, ckpt_path, self.eval_sets[seed], seed, n_steps)
        checks.check_sample_metrics(what, finals, xs, reference, mse, w2, energy)
        if bayes_bound:
            checks.check_above_bayes(what, mse, finals, xs, *bayes_mse(self.cfg.task, xs, ys))


def _sweep_rows(out: Path) -> dict[int, list[float]]:
    _, rows = checks.read_csv(out / "sweep_steps.csv")
    return {int(r[2]): [float(v) for v in r[3:]] for r in rows}  # steps -> mse, si_sdr_db, w2, energy


class TrainMixture4(Workload):
    """Predictor, then one Joint/M1 bridge on the d=4 mixture; scored at the configured steps."""

    name = "train-mixture4"
    config_name = "mixture4.json"
    ops_per_round = 3

    def run_round(self, seed: int, out: Path) -> None:
        cli.cmd_train(str(self.config_path), str(out), seed)
        ckpt = out / f"seed_{seed}" / "model_Joint.json"
        cli.cmd_sweep_steps(str(self.config_path), [str(ckpt)], str(self.cfg.sampler.n_steps), str(out), seed)

    def quality(self, out: Path, seed: int) -> tuple[float, float]:
        mse, _, w2, _ = _sweep_rows(out)[self.cfg.sampler.n_steps]
        return mse, w2

    def check(self, out: Path, seed: int, scratch: Path) -> None:
        super().check(out, seed, scratch)
        n = self.cfg.sampler.n_steps
        mse, _, w2, energy = _sweep_rows(out)[n]
        self._check_row(f"Joint at {n} steps", out / f"seed_{seed}" / "model_Joint.json", seed, n,
                        mse, w2, energy, bayes_bound=True)


class EvalMixture4(Workload):
    """sweep-steps and exposure-bias on a d=4 Joint checkpoint trained during set-up."""

    name = "eval-mixture4"
    config_name = "mixture4.json"
    ops_per_round = 8  # seven sweep evaluations and one exposure pass

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.setup_dir = self.out / "setup"
        cli.cmd_train(str(self.config_path), str(self.setup_dir), self.pinned_seed)
        self.ckpt = self.setup_dir / f"seed_{self.pinned_seed}" / "model_Joint.json"

    def run_round(self, seed: int, out: Path) -> None:
        cli.cmd_sweep_steps(str(self.config_path), [str(self.ckpt)], None, str(out), seed)
        cli.cmd_exposure_bias(str(self.config_path), [str(self.ckpt)], str(out), seed)

    def output_files(self, out: Path) -> list[Path]:
        return super().output_files(self.setup_dir) + super().output_files(out)

    def quality(self, out: Path, seed: int) -> tuple[float, float]:
        mse, _, w2, _ = _sweep_rows(out)[self.cfg.sampler.n_steps]
        return mse, w2

    def check(self, out: Path, seed: int, scratch: Path) -> None:
        super().check(self.setup_dir, seed, scratch)
        n = self.cfg.sampler.n_steps
        rows = _sweep_rows(out)
        for steps, (mse, _, w2, energy) in rows.items():
            self._check_row(f"sweep at {steps} steps", self.ckpt, seed, steps, mse, w2, energy,
                            bayes_bound=steps == n)
        _, exposure = checks.read_csv(out / "exposure_bias.csv")
        if [int(r[2]) for r in exposure] != list(range(1, n + 1)):
            raise checks.CheckFailed(f"exposure table does not list steps 1..{n}")
        checks.check_exposure_matches_sweep(float(exposure[-1][4]), rows[n][0], self.cfg.task.dim)


class GridLinear1Ode(Workload):
    """strategies M1..M5 for one seed on the scalar linear-Gaussian task, ODE sampler."""

    name = "grid-linear1-ode"
    config_name = "grid_linear1_ode.json"
    ops_per_round = 11  # predictor, five bridges, five evaluations

    def run_round(self, seed: int, out: Path) -> None:
        cli.cmd_strategies(str(self.config_path), str(out), seed)

    def _rows(self, out: Path):
        _, rows = checks.read_csv(out / "strategies.csv")
        return rows

    def quality(self, out: Path, seed: int) -> tuple[float, float]:
        row = next(r for r in self._rows(out) if r[1] == "M5" and r[2] == str(seed))
        return float(row[3]), float(row[5])

    def check(self, out: Path, seed: int, scratch: Path) -> None:
        super().check(out, seed, scratch)
        rows = self._rows(out)
        checks.check_median_rows(rows)
        n = self.cfg.sampler.n_steps
        for r in rows:
            if r[2] == "median":
                continue
            mse, _, w2, energy = (float(v) for v in r[3:])
            self._check_row(f"{r[1]} seed {r[2]}", out / f"seed_{r[2]}" / f"model_{r[1]}.json", seed, n,
                            mse, w2, energy, bayes_bound=r[1] == "M5")


WORKLOADS = {w.name: w for w in (TrainMixture4, EvalMixture4, GridLinear1Ode)}
