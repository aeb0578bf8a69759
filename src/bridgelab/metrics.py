"""Distortion and perception measurements.

Distortion: MSE and SI-SDR against the clean reference.  Perception:
distances between the set of produced samples and a set of clean prior
samples, namely the 2-Wasserstein distance between moment-matched Gaussians
(closed form) as the primary proxy, with the energy distance as a
mixture-sensitive cross-check (Gaussian moments cannot tell a mixture from
its moment-matched Gaussian; the energy distance can).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SI_SDR_CEILING_DB = 60.0

# Rows of the first set per pairwise-distance tile.  The two tile buffers for
# a 2048-row second set take 1 MB, so each pass over a tile stays in a 2 MB L2
# cache.  The tile fixes the summation order of the energy distance, so it
# must not change.
PAIRWISE_BLOCK_ROWS = 32


@dataclass
class EvalReport:
    """One evaluation of a sampler output set against references."""

    mse: float
    si_sdr_db: float
    w2: float
    energy_distance: float


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_i, b_i> of each row as one stacked matmul; the tests pin it bitwise to each row's `a_i @ b_i`."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def si_sdr(estimates: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Scale-invariant signal-to-distortion ratio in dB of each (n, d) row.

    Projects each estimate onto its reference: s = (<e, r>/||r||^2) r,
    e_res = estimate - s, and takes 10 log10(||s||^2 / ||e_res||^2), capped
    at SI_SDR_CEILING_DB.  A perfect (up to scale) estimate gets the ceiling;
    an estimate orthogonal to its reference gets -inf.
    """
    estimates = np.asarray(estimates, dtype=float)
    references = np.asarray(references, dtype=float)
    if estimates.ndim != 2 or estimates.shape != references.shape:
        raise ValueError(f"need equal (n, d) shapes, got {estimates.shape} vs {references.shape}")
    ref_energy = _row_dots(references, references)
    if np.any(ref_energy == 0.0):
        raise ValueError("reference signal is zero")
    s = (_row_dots(estimates, references) / ref_energy)[:, None] * references
    e = estimates - s
    s_energy, e_energy = _row_dots(s, s), _row_dots(e, e)
    with np.errstate(divide="ignore", invalid="ignore"):  # the rows masked below
        db = np.minimum(10.0 * np.log10(s_energy / e_energy), SI_SDR_CEILING_DB)
    db[e_energy == 0.0] = SI_SDR_CEILING_DB
    db[s_energy == 0.0] = -np.inf
    return db


def gaussian_w2(mu0: np.ndarray, cov0: np.ndarray, mu1: np.ndarray, cov1: np.ndarray) -> float:
    """Closed-form 2-Wasserstein distance between two Gaussians.

    W2^2 = ||mu0 - mu1||^2 + tr(C0 + C1) - 2 tr((C1^1/2 C0 C1^1/2)^1/2).
    Both square roots are taken on the eigenvalues of a symmetric matrix,
    clipped at zero, so singular covariances are handled exactly.
    """
    cov0 = np.atleast_2d(np.asarray(cov0, dtype=float))
    cov1 = np.atleast_2d(np.asarray(cov1, dtype=float))
    w1, v1 = np.linalg.eigh(cov1)
    root1 = (v1 * np.sqrt(np.maximum(w1, 0.0))) @ v1.T
    cross = np.sqrt(np.maximum(np.linalg.eigvalsh(root1 @ cov0 @ root1), 0.0))
    delta = np.asarray(mu0, dtype=float) - np.asarray(mu1, dtype=float)
    w2_sq = float(delta @ delta) + float(np.trace(cov0 + cov1) - 2.0 * np.sum(cross))
    return float(np.sqrt(max(w2_sq, 0.0)))


def _mean_pairwise_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean Euclidean distance over all (i, j) pairs of rows of a and b.

    Scalar samples use the exact sorted O((n+m) log n) evaluation; higher
    dimensions sum tiles of PAIRWISE_BLOCK_ROWS rows of a.
    """
    if a.shape[1] == 1:
        return _mean_abs_difference_sorted(a.ravel(), b.ravel())
    return _pairwise_distance_sum(a, b, symmetric=False) / (a.shape[0] * b.shape[0])


def _mean_self_distance(a: np.ndarray) -> float:
    """Mean Euclidean distance over all ordered (i, j) pairs of rows of a, i = j included.

    The distances are symmetric, so higher dimensions compute only the tiles
    on or right of the diagonal.
    """
    if a.shape[1] == 1:
        return _mean_abs_difference_sorted(a.ravel(), a.ravel())
    return _pairwise_distance_sum(a, a, symmetric=True) / (a.shape[0] * a.shape[0])


def _pairwise_distance_sum(a: np.ndarray, b: np.ndarray, symmetric: bool) -> float:
    """Sum of ||a_i - b_j|| over PAIRWISE_BLOCK_ROWS-row tiles of a.

    Each tile makes five passes over two preallocated buffers: the Gram
    product, the norm sum, the subtraction, the clamp at zero, and sqrt+sum.
    The buffers are flat and reshaped per tile, so BLAS writes into a
    contiguous array.  With symmetric=True, b holds the rows of a and a tile
    reaches only the columns from its own first row on: its diagonal block
    is summed in full and the rest counts twice.
    """
    n, m = a.shape[0], b.shape[0]
    a_norms = np.sum(a**2, axis=1)
    b_norms = a_norms if symmetric else np.sum(b**2, axis=1)
    size = min(PAIRWISE_BLOCK_ROWS, n) * m
    gram_buffer, d2_buffer = np.empty(size), np.empty(size)
    total = 0.0
    for start in range(0, n, PAIRWISE_BLOCK_ROWS):
        rows = min(PAIRWISE_BLOCK_ROWS, n - start)
        first = start if symmetric else 0
        cols = m - first
        gram = gram_buffer[: rows * cols].reshape(rows, cols)
        d2 = d2_buffer[: rows * cols].reshape(rows, cols)
        np.matmul(2.0 * a[start : start + rows], b[first:].T, out=gram)
        np.add(a_norms[start : start + rows, None], b_norms[first:], out=d2)
        np.subtract(d2, gram, out=d2)
        np.maximum(d2, 0.0, out=d2)
        np.sqrt(d2, out=d2)
        if symmetric:
            total += d2[:, :rows].sum() + 2.0 * d2[:, rows:].sum()
        else:
            total += d2.sum()
    return total


def _mean_abs_difference_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """Mean |a_i - b_j| over all pairs via sorting and prefix sums."""
    a = np.sort(a)
    prefix = np.concatenate([[0.0], np.cumsum(a)])
    total_sum = prefix[-1]
    n = a.size
    k = np.searchsorted(a, b, side="left")
    below = b * k - prefix[k]
    above = (total_sum - prefix[k]) - b * (n - k)
    return float(np.sum(below + above)) / (n * b.size)


class ReferenceSet:
    """Clean reference samples whose own statistics are computed once.

    Every evaluation row compares a new output set with the same reference,
    so the reference's moments and its energy-distance self-term E||Y-Y'||
    are cached on first use instead of being recomputed per row.  The
    samples are a read-only copy, so the cached values cannot go stale.
    """

    def __init__(self, samples: np.ndarray):
        self.samples = np.atleast_2d(np.array(samples, dtype=float))
        self.samples.setflags(write=False)

    @cached_property
    def mean(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    @cached_property
    def cov(self) -> np.ndarray:
        return np.cov(self.samples, rowvar=False, ddof=0)

    @cached_property
    def spread(self) -> float:
        """E||Y - Y'|| over all ordered pairs of reference rows."""
        return _mean_self_distance(self.samples)


def _as_reference(reference: np.ndarray | ReferenceSet) -> ReferenceSet:
    return reference if isinstance(reference, ReferenceSet) else ReferenceSet(reference)


def _output_samples(outputs: np.ndarray, ref: ReferenceSet) -> np.ndarray:
    a = np.atleast_2d(np.asarray(outputs, dtype=float))
    if a.shape[0] == 0 or ref.samples.shape[0] == 0:
        raise ValueError("sample sets must be nonempty")
    if a.shape[1] != ref.samples.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {ref.samples.shape[1]}")
    return a


def energy_distance(outputs: np.ndarray, reference: np.ndarray | ReferenceSet) -> float:
    """V-statistic energy distance 2 E||X-Y|| - E||X-X'|| - E||Y-Y'||."""
    ref = _as_reference(reference)
    a = _output_samples(outputs, ref)
    return 2.0 * _mean_pairwise_distance(a, ref.samples) - _mean_self_distance(a) - ref.spread


def moment_w2(outputs: np.ndarray, reference: np.ndarray | ReferenceSet) -> float:
    """W2 between the Gaussians moment-matched to two sample sets."""
    ref = _as_reference(reference)
    a = _output_samples(outputs, ref)
    return gaussian_w2(a.mean(axis=0), np.cov(a, rowvar=False, ddof=0), ref.mean, ref.cov)


def perception_distance(outputs: np.ndarray, reference: np.ndarray | ReferenceSet) -> tuple[float, float]:
    """(Gaussian-moment W2, energy distance) between two sample sets."""
    ref = _as_reference(reference)
    return moment_w2(outputs, ref), energy_distance(outputs, ref)


def mse(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Mean squared coordinate error."""
    estimate = np.asarray(estimate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.mean((estimate - reference) ** 2))


def prediction_errors(predictions: np.ndarray, x_true: np.ndarray) -> np.ndarray:
    """Per-step squared L2 error, averaged over the batch.

    predictions is (n_steps, B, d) as recorded by the sampler and x_true the
    (B, d) clean rows; returns one value per step.
    """
    return np.mean(np.sum((np.asarray(predictions, dtype=float) - x_true) ** 2, axis=-1), axis=-1)
