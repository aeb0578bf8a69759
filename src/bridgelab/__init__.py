"""Variance-exploding Gaussian bridge diffusion on synthetic inverse problems.

The API lives in the submodules (`model`, `training`, `sampler`, `metrics`,
`tasks`, `cli`, ...); import them directly.
"""

__version__ = "0.1.0"
