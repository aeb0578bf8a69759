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
proxy (Gaussian-moment W2) among distortion-sane checkpoints.  An epoch that
sets a new best MSE is always sane, so some snapshot qualifies as soon as one
epoch validates; only when none does (zero epochs, or every validation MSE
NaN) is the initial EMA shadow returned.

Stream order.  Everything `train` draws comes from its one generator, in
this order: the initial weights, the validation set and perception
reference, then per step the (x, y) batch, the times and the marginal
noise, and after each epoch the validation sampler's noise.  Steps run in
blocks of about BLOCK_ROWS rows that never span an epoch: a block first
makes its steps' draws in that order, then computes x_star and the network
inputs of all its rows at once (nothing there depends on the parameters),
and only then updates the parameters step by step.  Every operation of the
batched pass is row by row, so the checkpoints equal those of a loop that
builds each step's inputs on its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bridge import bridge_marginal, perturb
from .metrics import ReferenceSet, mse, perception_distance
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

# `train` draws and builds the inputs of this many rows of consecutive steps
# (whole steps, at least one) in one pass before it updates the parameters.
BLOCK_ROWS = 512

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
        return "x_star" in (self.bridge_endpoint, self.condition)


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


def batch_inputs(
    spec: MlpSpec,
    xs: np.ndarray,
    endpoints: np.ndarray,
    conditions: np.ndarray,
    x_stars: np.ndarray,
    ts: np.ndarray,
    noise: np.ndarray,
    strategy: TrainingStrategy,
    schedule: NoiseSchedule,
) -> tuple[np.ndarray, np.ndarray]:
    """(network inputs, targets) of the bridge objective under a perturbation mode.

    Row i pairs clean xs[i] with the bridge endpoint, network condition and
    posterior-mean estimate of the same row at time ts[i], and noise[i] holds
    its marginal draw.  Every operation is row by row, so the rows of many
    steps can be built in one call.  With x_stars == xs all three modes give
    bitwise-equal inputs and targets.
    """
    if strategy is TrainingStrategy.VANILLA:
        x0_state = targets = xs
    else:
        x0_state = perturb(xs, x_stars, ts)
        targets = xs if strategy is TrainingStrategy.INPUT_ONLY else x0_state
    states = bridge_marginal(schedule, x0_state, endpoints, ts, noise)
    return assemble_inputs(spec, states, ts, conditions), targets


def train_predictor(
    task,
    spec: MlpSpec,
    config: TrainConfig,
    rng: np.random.Generator,
) -> ModelParameters:
    """Fit the measurement-to-clean predictor by MSE on fresh pairs."""
    params = init_params(spec, rng)
    adam = init_adam(params)
    grads = ModelParameters(params.layer_dims)
    for _ in range(config.epochs):
        for _ in range(config.steps_per_epoch):
            xs, ys = task.sample_measurements(config.batch_size, rng)
            try:
                loss_and_gradients(params, ys, xs, out=grads)
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
    if conditioning.needs_predictor_at_inference:
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
    sampler: SamplerConfig,
) -> tuple[ModelParameters, EmaState, list[dict]]:
    """Train the bridge model; returns (best EMA params, EMA state, log rows).

    predictor_params supplies x_star estimates during training; pass None to
    train against the task's analytic posterior means instead (oracle mode,
    used in tests).
    """
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

    initial_shadow = ema.shadow.copy()  # returned when no epoch validates
    best_mse = np.inf
    cand_w2 = np.inf
    cand_mse = np.inf
    cand_params = None
    stale = 0
    log: list[dict] = []
    t0 = time.perf_counter()

    batch = config.batch_size
    block_steps = max(1, BLOCK_ROWS // batch)
    grads = ModelParameters(params.layer_dims)
    for epoch in range(config.epochs):
        loss_sum = 0.0
        for first in range(0, config.steps_per_epoch, block_steps):
            n_steps = min(block_steps, config.steps_per_epoch - first)
            # every step's draws, in the order a step-by-step loop makes them
            draws = []
            for _ in range(n_steps):
                xs, ys = task.sample_measurements(batch, rng)
                ts = rng.uniform(schedule.t_eps, 1.0, size=batch)
                draws.append((xs, ys, ts, rng.standard_normal(xs.shape)))
            xs, ys, ts, noise = (np.concatenate(parts) for parts in zip(*draws))
            x_stars = x_star_fn(ys)
            endpoints = x_stars if conditioning.bridge_endpoint == "x_star" else ys
            conditions = x_stars if conditioning.condition == "x_star" else ys
            inputs, targets = batch_inputs(spec, xs, endpoints, conditions, x_stars, ts, noise, strategy, schedule)
            for k in range(n_steps):
                rows = slice(k * batch, (k + 1) * batch)
                try:
                    loss, _ = loss_and_gradients(params, inputs[rows], targets[rows], out=grads)
                except FloatingPointError as exc:
                    raise DivergenceError(
                        f"training diverged at epoch {epoch}, step {first + k}: {exc}"
                    ) from exc
                adam_update(params, grads, adam)
                ema_update(ema, params)
                loss_sum += loss

        # validation with the EMA weights, mirroring the strategy's inference mode
        starts, conditions = inference_endpoints(conditioning, val_ys, x_star_fn)
        try:
            _, _, preds = sample_trajectory_batch(
                make_bridge_predictor(ema.shadow, spec), starts, conditions, sampler, schedule, rng
            )
        except ValueError as exc:  # forward's non-finite network input part-way through
            raise DivergenceError(f"validation at epoch {epoch} failed: {exc}") from exc
        finals = preds[-1]
        val_mse = mse(finals, val_xs)
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

    return (initial_shadow if cand_params is None else cand_params), ema, log
