"""Training loops: the measurement-to-clean predictor and the bridge model.

Three perturbation strategies are supported:

* Vanilla:   states from the plain bridge marginal, targets are the clean x.
* InputOnly: states from the perturbed marginal, targets still the clean x.
* Joint:     both the state and the target are perturbed (the regularized
             variant).

Independently, a conditioning strategy picks what the bridge endpoint and
the network condition are (the measurement y or the predictor output), and
whether the regularized objective is forced on:

    M1 = (y, y, off)   M2 = (x_star, y, off)   M3 = (y, x_star, off)
    M4 = (x_star, x_star, off)                 M5 = (y, y, on)

Early stopping monitors validation MSE (the distortion surrogate); the
returned checkpoint is the EMA snapshot with the best validation perception
proxy (Gaussian-moment W2) among distortion-sane checkpoints, falling back
to the best-MSE snapshot when no W2 winner stays within the sanity guard.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bridge import bridge_marginal, perturb
from .metrics import ReferenceSet, perception_distance
from .model import (
    EmaState,
    MlpSpec,
    ModelParameters,
    adam_update,
    apply_mlp,
    assemble_inputs,
    ema_update,
    forward,
    init_adam,
    init_ema,
    init_params,
    loss_and_gradients,
)
from .sampler import SamplerConfig, sample_trajectory_batch
from .schedule import NoiseSchedule

VAL_REFERENCE_SIZE = 512

# The returned checkpoint is the best-perception (W2) snapshot among those
# whose validation MSE stays within this factor of the best seen; a pure-W2
# pick can land on a heavily undertrained model whose near-identity outputs
# happen to moment-match the clean distribution.
W2_SELECTION_GUARD = 1.5


class DivergenceError(RuntimeError):
    """Raised when training encounters a non-finite loss."""


class TrainingStrategy(Enum):
    VANILLA = "Vanilla"
    INPUT_ONLY = "InputOnly"
    JOINT = "Joint"


class ConditioningStrategy(Enum):
    M1 = "M1"
    M2 = "M2"
    M3 = "M3"
    M4 = "M4"
    M5 = "M5"

    @property
    def bridge_endpoint(self) -> str:
        return {"M1": "y", "M2": "x_star", "M3": "y", "M4": "x_star", "M5": "y"}[self.value]

    @property
    def condition(self) -> str:
        return {"M1": "y", "M2": "y", "M3": "x_star", "M4": "x_star", "M5": "y"}[self.value]

    @property
    def regularized(self) -> bool:
        return self.value == "M5"

    @property
    def needs_predictor_at_inference(self) -> bool:
        return self.value in ("M2", "M3", "M4")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    steps_per_epoch: int = 400
    batch_size: int = 16
    strategy: TrainingStrategy = TrainingStrategy.VANILLA
    conditioning: ConditioningStrategy = ConditioningStrategy.M1
    patience: int = 20
    validation_size: int = 50

    def __post_init__(self):
        if self.epochs < 0 or self.steps_per_epoch < 1 or self.batch_size < 1:
            raise ValueError("training counts must be positive (epochs may be 0)")
        if self.patience < 0 or self.validation_size < 1:
            raise ValueError("patience must be >= 0 and validation_size >= 1")

    @property
    def effective_strategy(self) -> TrainingStrategy:
        """The perturbation mode actually trained, after the conditioning flag."""
        return TrainingStrategy.JOINT if self.conditioning.regularized else self.strategy


def batch_loss_and_grads(
    params: ModelParameters,
    spec: MlpSpec,
    xs: np.ndarray,
    endpoints: np.ndarray,
    conditions: np.ndarray,
    x_stars: np.ndarray,
    ts: np.ndarray,
    strategy: TrainingStrategy,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
) -> tuple[float, ModelParameters]:
    """One batch of the bridge objective under the given perturbation mode.

    Row i pairs clean xs[i] with the bridge endpoint, network condition and
    posterior-mean estimate of the same row at time ts[i].  All three modes
    draw the marginal noise identically, so with x_stars == xs they produce
    bitwise-equal losses under a shared stream.
    """
    if strategy is TrainingStrategy.VANILLA:
        x0_state = targets = xs
    else:
        x0_state = perturb(xs, x_stars, ts)
        targets = xs if strategy is TrainingStrategy.INPUT_ONLY else x0_state
    states = bridge_marginal(schedule, x0_state, endpoints, ts, rng)
    inputs = assemble_inputs(spec, states, ts, conditions)
    return loss_and_gradients(params, inputs, targets)


def train_predictor(
    task,
    spec: MlpSpec,
    config: TrainConfig,
    rng: np.random.Generator,
) -> ModelParameters:
    """Fit the measurement-to-clean predictor by MSE on fresh pairs."""
    params = init_params(spec, rng)
    adam = init_adam(params)
    for _ in range(config.epochs):
        for _ in range(config.steps_per_epoch):
            xs, ys = task.sample_measurements(config.batch_size, rng)
            try:
                _, grads = loss_and_gradients(params, ys, xs)
            except FloatingPointError as exc:
                raise DivergenceError(f"predictor training diverged: {exc}") from exc
            adam_update(params, grads, adam)
    return params


def make_bridge_predictor(params: ModelParameters, spec: MlpSpec):
    """Wrap model parameters as a sampler-compatible predictor function."""

    def predictor(states: np.ndarray, t: float, conditions: np.ndarray) -> np.ndarray:
        return forward(params, spec, states, t, conditions)

    return predictor


def inference_endpoints(
    conditioning: ConditioningStrategy,
    ys: np.ndarray,
    x_star_fn,
) -> tuple[np.ndarray, np.ndarray]:
    """(starts, conditions) for sampling under a conditioning strategy.

    x_star_fn maps a batch of measurements to predictor outputs; it is only
    called when the strategy actually needs it, so strategies M1/M5 run with
    x_star_fn = None.
    """
    starts = ys
    conditions = ys
    if conditioning.bridge_endpoint == "x_star" or conditioning.condition == "x_star":
        if x_star_fn is None:
            raise ValueError(f"{conditioning.value} requires a predictor at inference time")
        x_stars = x_star_fn(ys)
        if conditioning.bridge_endpoint == "x_star":
            starts = x_stars
        if conditioning.condition == "x_star":
            conditions = x_stars
    return starts, conditions


def train(
    task,
    spec: MlpSpec,
    config: TrainConfig,
    schedule: NoiseSchedule,
    predictor_params: ModelParameters | None,
    rng: np.random.Generator,
    sampler: SamplerConfig | None = None,
) -> tuple[ModelParameters, EmaState, list[dict]]:
    """Train the bridge model; returns (best EMA params, EMA state, log rows).

    predictor_params supplies x_star estimates during training; pass None to
    train against the task's analytic posterior means instead (oracle mode,
    used in tests).
    """
    sampler = sampler or SamplerConfig()
    strategy = config.effective_strategy
    conditioning = config.conditioning

    params = init_params(spec, rng)
    adam = init_adam(params)
    ema = init_ema(params)

    def x_star_fn(ys):
        if predictor_params is not None:
            return apply_mlp(predictor_params, ys)
        return task.posterior_mean(ys)

    # fixed validation set and perception reference
    val_xs, val_ys = task.sample_measurements(config.validation_size, rng)
    reference = ReferenceSet(task.clean_sampler(VAL_REFERENCE_SIZE, rng))

    best_mse = np.inf
    best_mse_params = ema.shadow.copy()
    cand_w2 = np.inf
    cand_mse = np.inf
    cand_params = None
    stale = 0
    log: list[dict] = []
    t0 = time.perf_counter()

    for epoch in range(config.epochs):
        loss_sum = 0.0
        for step in range(config.steps_per_epoch):
            xs, ys = task.sample_measurements(config.batch_size, rng)
            x_stars = x_star_fn(ys)
            endpoints = x_stars if conditioning.bridge_endpoint == "x_star" else ys
            conditions = x_stars if conditioning.condition == "x_star" else ys
            ts = rng.uniform(schedule.t_eps, 1.0, size=config.batch_size)
            try:
                loss, grads = batch_loss_and_grads(
                    params, spec, xs, endpoints, conditions, x_stars, ts, strategy, schedule, rng
                )
            except FloatingPointError as exc:
                raise DivergenceError(
                    f"training diverged at epoch {epoch}, step {step}: {exc}"
                ) from exc
            adam_update(params, grads, adam)
            ema_update(ema, params)
            loss_sum += loss

        # validation with the EMA weights, mirroring the strategy's inference mode
        starts, conditions = inference_endpoints(
            conditioning, val_ys, x_star_fn if conditioning.needs_predictor_at_inference else None
        )
        _, _, preds = sample_trajectory_batch(
            make_bridge_predictor(ema.shadow, spec), starts, conditions, sampler, schedule, rng
        )
        finals = preds[-1]
        val_mse = float(np.mean((finals - val_xs) ** 2))
        val_w2, _ = perception_distance(finals, reference)
        log.append(
            {
                "epoch": epoch,
                "train_loss": loss_sum / config.steps_per_epoch,
                "val_mse": val_mse,
                "val_w2": val_w2,
                "is_ema": 1,
                "wall_time_s": time.perf_counter() - t0,
            }
        )
        if val_mse < best_mse:
            best_mse = val_mse
            best_mse_params = ema.shadow.copy()
            stale = 0
        else:
            stale += 1
        cand_valid = cand_params is not None and cand_mse <= W2_SELECTION_GUARD * best_mse
        if val_mse <= W2_SELECTION_GUARD * best_mse and (not cand_valid or val_w2 < cand_w2):
            cand_w2 = val_w2
            cand_mse = val_mse
            cand_params = ema.shadow.copy()
        if stale > config.patience:
            break

    if cand_params is not None and cand_mse <= W2_SELECTION_GUARD * best_mse:
        return cand_params, ema, log
    return best_mse_params, ema, log
