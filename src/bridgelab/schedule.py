"""Variance-exploding noise schedule and closed-form bridge coefficients.

The forward process has zero drift and diffusion g^2(t) = c * k^(2t), so the
accumulated variance has the closed form

    sigma2(t) = c * (k^(2t) - 1) / (2 * ln k),

where the natural logarithm is the only base for which
d(sigma2)/dt = g^2(t).  With zero drift the pinned Gaussian marginal between
endpoints x0 (clean) and x1 (measurement) has mean weights

    w_x0 = bar_sigma2_t / sigma2_1,     w_x1 = sigma2_t / sigma2_1,

with bar_sigma2_t = sigma2_1 - sigma2_t, and variance

    var_marginal = sigma2_t * bar_sigma2_t / sigma2_1.

The variance uses squared quantities throughout; this is the only convention
consistent with the one-step SDE sampler (see tests for the composition
check that discriminates it).

Every function takes a scalar time or an array of times.  A Python float
goes through scalar arithmetic and an array through numpy's elementwise
power; the two can differ in the last bit, so the sampler keeps passing one
scalar time per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseSchedule:
    """Constants of the variance-exploding schedule.

    c: diffusion scale, > 0.
    k: exponential base, > 1.
    t_eps: minimal process time used during training/sampling, in (0, 1).
    """

    c: float = 0.40
    k: float = 2.6
    t_eps: float = 1e-4

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not self.k > 1:
            raise ValueError(f"k must exceed 1, got {self.k}")
        if not 0 < self.t_eps < 1:
            raise ValueError(f"t_eps must lie in (0, 1), got {self.t_eps}")

    def sigma2(self, t):
        """Accumulated variance sigma2(t) = c (k^(2t) - 1) / (2 ln k).

        Strictly increasing on [0, 1] with sigma2(0) = 0.
        """
        _check_time(t)
        return self.c * (self.k ** (2.0 * t) - 1.0) / (2.0 * math.log(self.k))

    @property
    def sigma2_1(self) -> float:
        """Total variance at the measurement end, sigma2(1)."""
        return self.c * (self.k**2 - 1.0) / (2.0 * math.log(self.k))

    def coefficients(self, t):
        """(w_x0, w_x1, var_marginal) of the pinned bridge at time(s) t."""
        s2_t = self.sigma2(t)
        s2_1 = self.sigma2_1
        bar_s2_t = s2_1 - s2_t
        return bar_s2_t / s2_1, s2_t / s2_1, s2_t * bar_s2_t / s2_1


def _check_time(t) -> None:
    t_arr = np.asarray(t)
    if not np.all((t_arr >= 0.0) & (t_arr <= 1.0)):
        raise ValueError(f"time must lie in [0, 1], got {t}")
