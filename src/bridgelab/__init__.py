"""Variance-exploding Gaussian bridge diffusion on synthetic inverse problems."""

from .bridge import perturbation_weight
from .metrics import EvalReport, ReferenceSet, energy_distance, mse, perception_distance, si_sdr
from .model import (
    AdamState,
    EmaState,
    MlpSpec,
    ModelParameters,
    adam_update,
    ema_update,
    forward,
    init_adam,
    init_ema,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
)
from .sampler import SamplerConfig, SamplerKind, ode_step, sde_step
from .schedule import NoiseSchedule
from .seeding import named_stream
from .tasks import LinearGaussianTask, MixtureTask
from .training import (
    ConditioningStrategy,
    DivergenceError,
    TrainConfig,
    TrainingStrategy,
    train,
    train_predictor,
)

__version__ = "0.1.0"
