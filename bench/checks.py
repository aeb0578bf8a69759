"""Correctness checks of bridgelab's outputs, computed apart from the program.

Every check is a function that raises `CheckFailed` with a one-line reason.
The metric recomputations use formulas that the program does not use: energy
distance from direct pairwise differences, W2 from an `eigh` square root (and
the closed form at d = 1), the Bayes MSE from the task's closed form or from
this module's own quadrature of E[x | y].  No check compares against a saved
copy of an earlier output.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from bridgelab import model

# Rounding between two exact formulas for the same quantity stays far below these.
METRIC_RTOL = 1e-9
W2_RTOL = 1e-7
# eval_mse may fall below the Bayes MSE only by sampling error: this many standard errors.
BAYES_SIGMAS = 3.0
QUADRATURE_POINTS = 4001
QUADRATURE_WIDTH = 12.0  # grid half-width beyond the outer centres, in prior std


class CheckFailed(AssertionError):
    """A program output disagrees with an independent computation or a required property."""


def check_close(what: str, reported: float, expected: float, rtol: float, atol: float = 1e-12) -> None:
    if not np.isfinite(reported) or abs(reported - expected) > atol + rtol * abs(expected):
        raise CheckFailed(f"{what}: program reports {reported!r}, independent value {expected!r}")


# ---------------------------------------------------------------------------
# csv and file digests


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """(header, data rows) of a bridgelab CSV, comment lines skipped."""
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def csv_digest_body(path: Path) -> bytes:
    """CSV body without `#` lines and without the wall_time_s column."""
    header, rows = read_csv(path)
    keep = [i for i, col in enumerate(header) if col != "wall_time_s"]
    return "\n".join(",".join(r[i] for i in keep) for r in [header, *rows]).encode()


def digests(files: list[Path], base: Path) -> dict[str, str]:
    """SHA-256 of each checkpoint's bytes and each CSV's digest body."""
    out = {}
    for path in sorted(files):
        data = csv_digest_body(path) if path.suffix == ".csv" else path.read_bytes()
        out[str(path.relative_to(base))] = hashlib.sha256(data).hexdigest()
    return out


def check_equal_digests(per_round: list[dict[str, str]]) -> None:
    for i, d in enumerate(per_round[1:], start=1):
        if d != per_round[0]:
            changed = sorted(k for k in set(d) | set(per_round[0]) if d.get(k) != per_round[0].get(k))
            raise CheckFailed(f"round {i} outputs differ from round 0 at the same seed: {changed}")


# ---------------------------------------------------------------------------
# metric recomputation


def direct_energy_distance(a: np.ndarray, b: np.ndarray, block: int = 64) -> float:
    """2 E|X-Y| - E|X-X'| - E|Y-Y'| from explicit pairwise difference vectors."""

    def mean_dist(p, q):
        total = 0.0
        for start in range(0, p.shape[0], block):
            diff = p[start : start + block, None, :] - q[None, :, :]
            total += np.sqrt(np.sum(diff * diff, axis=2)).sum()
        return total / (p.shape[0] * q.shape[0])

    return 2.0 * mean_dist(a, b) - mean_dist(a, a) - mean_dist(b, b)


def _eigh_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def eigh_w2(a: np.ndarray, b: np.ndarray) -> float:
    """W2 between the moment-matched Gaussians of two sample sets (ddof 0)."""
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = np.atleast_2d(np.cov(a, rowvar=False, ddof=0))
    cov_b = np.atleast_2d(np.cov(b, rowvar=False, ddof=0))
    root_b = _eigh_sqrt(cov_b)
    cross = _eigh_sqrt(root_b @ cov_a @ root_b)
    w2_sq = float(np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a + cov_b - 2.0 * cross))
    return float(np.sqrt(max(w2_sq, 0.0)))


def closed_form_w2_1d(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt((mu0 - mu1)^2 + (sigma0 - sigma1)^2) for scalar samples."""
    a, b = np.ravel(a), np.ravel(b)
    return float(np.hypot(a.mean() - b.mean(), a.std() - b.std()))


def check_sample_metrics(what: str, finals: np.ndarray, xs: np.ndarray, reference: np.ndarray,
                         mse: float, w2: float, energy: float) -> None:
    """The program's mse, w2 and energy distance of `finals` against direct recomputation."""
    check_close(f"{what} mse", mse, float(np.mean((finals - xs) ** 2)), METRIC_RTOL)
    check_close(f"{what} energy_distance", energy, direct_energy_distance(finals, reference), METRIC_RTOL)
    check_close(f"{what} w2", w2, eigh_w2(finals, reference), W2_RTOL)
    if finals.shape[1] == 1:
        check_close(f"{what} w2 (closed form)", w2, closed_form_w2_1d(finals, reference), W2_RTOL)


# ---------------------------------------------------------------------------
# Bayes bound


def mixture_posterior_mean_quadrature(ys: np.ndarray, centers, weights, s2: float, noise_var: float) -> np.ndarray:
    """E[x | y] per coordinate by summing over a fine grid of x values."""
    c = np.asarray(centers, dtype=float)
    w = np.asarray(weights, dtype=float)
    half = QUADRATURE_WIDTH * np.sqrt(s2)
    grid = np.linspace(c.min() - half, c.max() + half, QUADRATURE_POINTS)
    log_prior = np.log(np.sum(w[:, None] * np.exp(-0.5 * (grid[None, :] - c[:, None]) ** 2 / s2), axis=0))
    flat = np.ravel(ys)
    out = np.empty_like(flat)
    for start in range(0, flat.size, 256):
        y = flat[start : start + 256, None]
        log_post = log_prior[None, :] - 0.5 * (y - grid[None, :]) ** 2 / noise_var
        dens = np.exp(log_post - log_post.max(axis=1, keepdims=True))
        out[start : start + 256] = (dens @ grid) / dens.sum(axis=1)
    return out.reshape(np.shape(ys))


def linear_gaussian_bayes_mse(prior_cov: np.ndarray, op: np.ndarray, noise_cov: np.ndarray) -> float:
    """Per-coordinate Bayes MSE: tr(S0 - S0 A^T (A S0 A^T + Sn)^-1 A S0) / d."""
    gram = op @ prior_cov @ op.T + noise_cov
    post = prior_cov - prior_cov @ op.T @ np.linalg.solve(gram, op @ prior_cov)
    return float(np.trace(post)) / prior_cov.shape[0]


def check_above_bayes(what: str, eval_mse: float, finals: np.ndarray, xs: np.ndarray,
                      bayes_mse: float, bayes_se: float = 0.0) -> None:
    """eval_mse may not beat the Bayes MSE by more than the sampling error of both."""
    sq = (finals - xs) ** 2
    se = np.sqrt(np.var(sq) / sq.size + bayes_se**2)
    if eval_mse < bayes_mse - BAYES_SIGMAS * se:
        raise CheckFailed(
            f"{what}: eval mse {eval_mse:.6f} is below the Bayes MSE {bayes_mse:.6f} "
            f"by more than {BAYES_SIGMAS:g} standard errors ({se:.6f})"
        )


# ---------------------------------------------------------------------------
# table and artefact properties


def check_median_rows(rows: list[list[str]]) -> None:
    """Each `median` row equals numpy.median of that strategy's per-seed rows."""
    medians = [r for r in rows if r[2] == "median"]
    if not medians:
        raise CheckFailed("table has no median rows")
    for row in medians:
        per_seed = np.array([[float(v) for v in r[3:]] for r in rows if r[1] == row[1] and r[2] != "median"])
        if per_seed.size == 0:
            raise CheckFailed(f"median row for {row[1]} has no per-seed rows")
        expected = np.median(per_seed, axis=0)
        got = np.array([float(v) for v in row[3:]])
        if not np.array_equal(got, expected):
            raise CheckFailed(f"median row for {row[1]} is {got.tolist()}, numpy.median gives {expected.tolist()}")


def check_exposure_matches_sweep(last_pred_err: float, sweep_mse: float, dim: int) -> None:
    """The last exposure step and the full-length sweep row draw the same samples."""
    check_close("final exposure pred_err vs dim x sweep mse", last_pred_err, dim * sweep_mse, 1e-12)


def check_log_epochs(path: Path, epochs: int) -> None:
    """Early stopping must not cut a benchmark training short."""
    _, rows = read_csv(path)
    if len(rows) != epochs:
        raise CheckFailed(f"{path.name} has {len(rows)} epochs, the workload fixes {epochs}")


def check_checkpoint_roundtrip(path: Path, scratch: Path) -> None:
    """save -> load -> save reproduces the checkpoint byte for byte, twice."""
    original = Path(path).read_bytes()
    current = Path(path)
    for i in range(2):
        ckpt = model.load_checkpoint(current)
        nxt = scratch / f"roundtrip_{i}.json"
        model.save_checkpoint(nxt, ckpt["spec"], ckpt["params"], adam=ckpt["adam"], ema=ckpt["ema"],
                              seed_lineage=ckpt["seed_lineage"], meta=ckpt["meta"])
        if nxt.read_bytes() != original:
            raise CheckFailed(f"{Path(path).name}: save -> load -> save changed the bytes (pass {i + 1})")
        current = nxt
