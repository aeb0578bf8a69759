"""Gaussian bridge marginals and the interpolation perturbation of targets.

A training batch carries rows (x, y, x_star): the clean vector, the degraded
measurement, and the posterior-mean estimate (analytic or from a trained
predictor), each at its own time t.  The perturbation interpolates the
training target from x toward x_star with weight omega(t) = t^2; drawing the
bridge marginal from that target instead of x gives the matching
intermediate state, so the model trains on simulated prediction errors of
size omega(t) * (x_star - x).
"""

from __future__ import annotations

import numpy as np

from .schedule import NoiseSchedule


def perturbation_weight(t):
    """Interpolation weight omega(t) = t^2 for scalar or array t.

    Zero at t=0's clean end and one at t=1's measurement end; the quadratic
    grows slowly for small t so targets stay near the clean data.
    """
    return np.asarray(t, dtype=float) ** 2.0


def perturb(xs: np.ndarray, x_stars: np.ndarray, ts) -> np.ndarray:
    """Rows interpolated from clean xs toward x_stars: (1 - w) x + w x_star, w = omega(t)."""
    w = perturbation_weight(ts)[..., None]
    return (1.0 - w) * xs + w * x_stars


def bridge_marginal(
    schedule: NoiseSchedule,
    x0: np.ndarray,
    x1: np.ndarray,
    ts: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """One draw per row from the pinned-bridge marginal between rows of x0 and x1.

    x0 and x1 are (B, d), ts holds the B times and noise the (B, d) standard
    normal draws that scale the marginal's standard deviation.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if x0.shape != x1.shape or x0.shape != np.shape(noise):
        raise ValueError(f"shape mismatch: x0 {x0.shape}, x1 {x1.shape}, noise {np.shape(noise)}")
    w0, w1, var = schedule.coefficients(np.asarray(ts, dtype=float))
    return w0[:, None] * x0 + w1[:, None] * x1 + np.sqrt(var)[:, None] * noise
