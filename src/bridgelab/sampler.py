"""First-order reverse samplers for the variance-exploding bridge.

Both samplers walk a batch of states down a descending uniform time grid
from 1 to the schedule's t_eps, call a data predictor at each step, and define
the solution as the prediction made at the last step (the remaining noise
scale at t_eps is negligible).

The SDE step is

    x_t = r x_tau + (1 - r) x0_hat + sigma_t sqrt(1 - r) z,   r = sigma2_t / sigma2_tau,

which reproduces the bridge marginal exactly when x0_hat is the true clean
endpoint (the composition test in the suite pins this).  The deterministic
ODE step is the mean-consistent first-order form

    x_t = (sigma_t sbar_t)/(sigma_tau sbar_tau) x_tau
        + [sbar2_t - sbar_tau sbar_t sigma_t / sigma_tau] / sigma2_1 * x0_hat
        + [sigma2_t - sigma_tau sigma_t sbar_t / sbar_tau] / sigma2_1 * x1,

with sbar the complementary standard deviation; from tau = 1 (where sbar
vanishes) the step degenerates to the marginal-mean limit form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .schedule import NoiseSchedule


class SamplerKind(Enum):
    SDE = "SDE"
    ODE = "ODE"


@dataclass(frozen=True)
class SamplerConfig:
    """Step count and sampler family of one reverse pass on a uniform grid."""

    n_steps: int = 50
    kind: SamplerKind = SamplerKind.SDE

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    def times(self, schedule: NoiseSchedule) -> np.ndarray:
        """Descending grid from 1 to the schedule's t_eps, n_steps + 1 points."""
        return np.linspace(1.0, schedule.t_eps, self.n_steps + 1)


# Predictor signature: (state, t, condition) -> clean-data estimate.
Predictor = Callable[[np.ndarray, float, np.ndarray], np.ndarray]


def sde_step(
    x_tau: np.ndarray,
    x0_hat: np.ndarray,
    s2_tau: float,
    s2_t: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One stochastic step from the time of variance s2_tau down to that of s2_t."""
    if not 0.0 <= s2_t < s2_tau:
        raise ValueError(f"step requires 0 <= sigma2(t) < sigma2(tau), got {s2_t} and {s2_tau}")
    r = s2_t / s2_tau
    noise_std = math.sqrt(s2_t * (1.0 - r))
    z = rng.standard_normal(np.shape(x_tau))
    return r * x_tau + (1.0 - r) * x0_hat + noise_std * z


def ode_step(
    x_tau: np.ndarray,
    x0_hat: np.ndarray,
    x1: np.ndarray,
    s2_tau: float,
    s2_t: float,
    s2_1: float,
) -> np.ndarray:
    """One deterministic step from the time of variance s2_tau down to that of s2_t.

    s2_1 is the schedule's total variance sigma2(1).
    """
    if not 0.0 <= s2_t < s2_tau:
        raise ValueError(f"step requires 0 <= sigma2(t) < sigma2(tau), got {s2_t} and {s2_tau}")
    sb2_t = s2_1 - s2_t
    sb2_tau = s2_1 - s2_tau

    if sb2_tau <= 0.0:
        # From tau = 1 the carry-over coefficient is 0/0; the limit is the
        # marginal mean between x0_hat and x1.
        return (sb2_t / s2_1) * x0_hat + (s2_t / s2_1) * x1

    s_t, s_tau = math.sqrt(s2_t), math.sqrt(s2_tau)
    sb_t, sb_tau = math.sqrt(sb2_t), math.sqrt(sb2_tau)
    c_carry = (s_t * sb_t) / (s_tau * sb_tau)
    c_clean = (sb2_t - sb_tau * sb_t * s_t / s_tau) / s2_1
    c_meas = (s2_t - s_tau * s_t * sb_t / sb_tau) / s2_1
    return c_carry * x_tau + c_clean * x0_hat + c_meas * x1


def sample_trajectory_batch(
    predictor: Predictor,
    starts: np.ndarray,
    conditions: np.ndarray,
    config: SamplerConfig,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run reverse passes for a whole batch at once.

    starts and conditions are (B, d).  Returns (times, states, predictions)
    with states (n_steps + 1, B, d) and predictions (n_steps, B, d); the
    solution batch is predictions[-1].  The ODE sampler draws nothing from
    rng.
    """
    starts = np.asarray(starts, dtype=float)
    conditions = np.asarray(conditions, dtype=float)
    if starts.ndim != 2 or starts.shape != conditions.shape:
        raise ValueError(f"starts/conditions shape mismatch: {starts.shape} vs {conditions.shape}")

    times = config.times(schedule)
    # sigma2 of each grid time through the scalar path, which the schedule keeps for the sampler
    sigma2s = [schedule.sigma2(float(t)) for t in times]
    states = np.empty((len(times),) + starts.shape)
    preds = np.empty((config.n_steps,) + starts.shape)
    x = starts.copy()
    states[0] = x
    for i in range(config.n_steps):
        x0_hat = np.asarray(predictor(x, float(times[i]), conditions), dtype=float)
        if x0_hat.shape != x.shape:
            raise ValueError(f"predictor returned shape {x0_hat.shape}, expected {x.shape}")
        preds[i] = x0_hat
        if config.kind is SamplerKind.SDE:
            x = sde_step(x, x0_hat, sigma2s[i], sigma2s[i + 1], rng)
        else:
            x = ode_step(x, x0_hat, starts, sigma2s[i], sigma2s[i + 1], schedule.sigma2_1)
        states[i + 1] = x
    return times, states, preds

