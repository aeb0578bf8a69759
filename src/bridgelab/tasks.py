"""Synthetic inverse problems with exact samplers and analytic posterior means.

Two task families:

* LinearGaussianTask: x ~ N(mu0, Sigma0), y = A x + n with n ~ N(0, Sigma_n).
  The posterior mean is the standard Gaussian update
  mu0 + Sigma0 A^T (A Sigma0 A^T + Sigma_n)^(-1) (y - A mu0).

* MixtureTask: each coordinate independently draws x from a Gaussian
  mixture and observes y = x + noise.  The posterior mean per coordinate is
  the responsibility-weighted blend of per-component Gaussian posterior
  means; for the default symmetric two-mode mixture it sits between the
  modes, which is exactly the "regression to the mean" behaviour the
  experiments probe.

Both families draw through the same three methods.  `clean_sampler(n, rng)`
gives n prior draws; `sample_measurements(n, rng)` gives (xs, ys), the
draws and their measurements; `sample_pairs(n, rng)` adds the analytic
posterior means (xs, ys, x_stars) and consumes the stream exactly as
`sample_measurements` does.  The training loops draw with
`sample_measurements`, because they take x_star from the predictor (or ask
`posterior_mean` in oracle mode); evaluation sets and dataset dumps use
`sample_pairs`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinearGaussianTask:
    mu0: np.ndarray
    Sigma0: np.ndarray
    A: np.ndarray
    Sigma_n: np.ndarray

    @classmethod
    def default_scalar(cls) -> "LinearGaussianTask":
        """d = 1, unit prior variance, identity operator, unit noise."""
        return cls(
            mu0=np.zeros(1),
            Sigma0=np.eye(1),
            A=np.eye(1),
            Sigma_n=np.eye(1),
        )

    @classmethod
    def identity(cls, dim: int, prior_var: float = 1.0, noise_var: float = 1.0) -> "LinearGaussianTask":
        return cls(
            mu0=np.zeros(dim),
            Sigma0=prior_var * np.eye(dim),
            A=np.eye(dim),
            Sigma_n=noise_var * np.eye(dim),
        )

    def __post_init__(self):
        for name in ("mu0", "Sigma0", "A", "Sigma_n"):
            # read-only copies, so the factors built below cannot go stale
            value = np.array(getattr(self, name), dtype=float)
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        d, m = self.dim, self.measurement_dim
        if self.Sigma0.shape != (d, d):
            raise ValueError(f"Sigma0 must be {d}x{d}, got {self.Sigma0.shape}")
        if self.A.shape != (m, d):
            raise ValueError(f"A must be {m}x{d}, got {self.A.shape}")
        if self.Sigma_n.shape != (m, m):
            raise ValueError(f"Sigma_n must be {m}x{m}, got {self.Sigma_n.shape}")
        for name in ("Sigma0", "Sigma_n"):
            cov = getattr(self, name)
            if np.linalg.eigvalsh((cov + cov.T) / 2).min() <= 0:
                raise ValueError(f"{name} must be positive definite")
        gram = self.A @ self.Sigma0 @ self.A.T + self.Sigma_n
        object.__setattr__(self, "_chol", np.linalg.cholesky(self.Sigma0))
        object.__setattr__(self, "_chol_n", np.linalg.cholesky(self.Sigma_n))
        object.__setattr__(self, "_gain", self.Sigma0 @ self.A.T @ np.linalg.inv(gram))
        object.__setattr__(self, "_A_mu0", self.A @ self.mu0)

    @property
    def dim(self) -> int:
        return self.mu0.shape[0]

    @property
    def measurement_dim(self) -> int:
        return self.A.shape[0]

    def clean_sampler(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. prior draws, shape (n, d)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return self.mu0 + rng.standard_normal((n, self.dim)) @ self._chol.T

    def sample_measurements(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """(xs, ys): n prior draws, shape (n, d), and their measurements, shape (n, m)."""
        xs = self.clean_sampler(n, rng)
        ys = xs @ self.A.T + rng.standard_normal((n, self.measurement_dim)) @ self._chol_n.T
        return xs, ys

    def sample_pairs(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(xs, ys, x_stars): sample_measurements plus the posterior means of ys."""
        xs, ys = self.sample_measurements(n, rng)
        return xs, ys, self.posterior_mean(ys)

    def posterior_mean(self, y: np.ndarray) -> np.ndarray:
        """E[x | y]; accepts one measurement (m,) or a batch (n, m)."""
        resid = np.asarray(y, dtype=float) - self._A_mu0
        return self.mu0 + resid @ self._gain.T


@dataclass(frozen=True)
class MixtureTask:
    centers: tuple[float, ...] = (-1.0, 1.0)
    weights: tuple[float, ...] = (0.5, 0.5)
    s2: float = 0.01
    noise_var: float = 0.25
    dim: int = 1

    def __post_init__(self):
        if len(self.centers) != len(self.weights):
            raise ValueError("centers and weights must have equal length")
        if self.s2 <= 0 or self.noise_var <= 0:
            raise ValueError("variances must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        # the CDF that Generator.choice(p=weights) builds on every call, built once
        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        centers = np.asarray(self.centers, dtype=float)
        for name, value in (("_cdf", cdf), ("_centers", centers)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def measurement_dim(self) -> int:
        return self.dim

    def prior_variance(self) -> float:
        """Per-coordinate variance: s2 + sum w_i c_i^2 - (sum w_i c_i)^2."""
        c = self._centers
        w = np.asarray(self.weights)
        mean = float(w @ c)
        return self.s2 + float(w @ c**2) - mean**2

    def clean_sampler(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. prior draws, shape (n, dim).

        Components are drawn as `rng.choice(len(centers), p=weights)` draws
        them: one uniform per entry, located in the weights' CDF.  Draws and
        generator state match `rng.choice` exactly.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        comp = self._cdf.searchsorted(rng.random((n, self.dim)), side="right")
        return self._centers[comp] + np.sqrt(self.s2) * rng.standard_normal((n, self.dim))

    def sample_measurements(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """(xs, ys): n prior draws and their noisy measurements, each (n, dim)."""
        xs = self.clean_sampler(n, rng)
        ys = xs + np.sqrt(self.noise_var) * rng.standard_normal((n, self.dim))
        return xs, ys

    def sample_pairs(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(xs, ys, x_stars): sample_measurements plus the posterior means of ys."""
        xs, ys = self.sample_measurements(n, rng)
        return xs, ys, self.posterior_mean(ys)

    def posterior_mean(self, y: np.ndarray) -> np.ndarray:
        """E[x | y], elementwise over coordinates.

        Component i contributes responsibility proportional to
        w_i N(y; c_i, s2 + noise_var) and posterior mean
        (c_i noise_var + y s2) / (s2 + noise_var).
        """
        y = np.asarray(y, dtype=float)
        c = self._centers
        w = np.asarray(self.weights)
        total_var = self.s2 + self.noise_var
        # log densities per component, stabilised before exponentiating
        diff = y[..., None] - c
        with np.errstate(over="ignore"):  # huge residuals saturate to -inf log density
            log_resp = np.log(w) - 0.5 * diff**2 / total_var
        log_resp -= log_resp.max(axis=-1, keepdims=True)
        resp = np.exp(log_resp)
        resp /= resp.sum(axis=-1, keepdims=True)
        comp_means = (c * self.noise_var + y[..., None] * self.s2) / total_var
        return np.sum(resp * comp_means, axis=-1)


Task = LinearGaussianTask | MixtureTask
