"""Each correctness check of the benchmark passes on a true output and fails on a perturbed one."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from bridgelab import metrics, model, tasks  # noqa: E402


@pytest.fixture
def samples():
    rng = np.random.default_rng(7)
    return rng.normal(size=(96, 3)), rng.normal(0.3, 1.2, size=(160, 3)), rng.normal(size=(96, 3))


def test_sample_metrics_accept_program_values(samples):
    finals, reference, xs = samples
    w2, energy = metrics.perception_distance(finals, reference)
    checks.check_sample_metrics("d=3", finals, xs, reference, metrics.mse(finals, xs), w2, energy)


@pytest.mark.parametrize("field", ["mse", "w2", "energy"])
def test_sample_metrics_reject_perturbed_value(samples, field):
    finals, reference, xs = samples
    w2, energy = metrics.perception_distance(finals, reference)
    values = {"mse": metrics.mse(finals, xs), "w2": w2, "energy": energy}
    values[field] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed, match=field if field != "energy" else "energy_distance"):
        checks.check_sample_metrics("d=3", finals, xs, reference, **values)


def test_scalar_w2_closed_form_agrees_and_rejects():
    rng = np.random.default_rng(3)
    a, b = rng.normal(0.2, 0.7, size=(200, 1)), rng.normal(size=(300, 1))
    w2, energy = metrics.perception_distance(a, b)
    assert checks.closed_form_w2_1d(a, b) == pytest.approx(checks.eigh_w2(a, b), rel=1e-12)
    checks.check_sample_metrics("d=1", a, a, b, 0.0, w2, energy)
    with pytest.raises(checks.CheckFailed, match="w2"):
        checks.check_sample_metrics("d=1", a, a, b, 0.0, w2 + 1e-6, energy)


def test_direct_energy_distance_matches_definition():
    a = np.array([[0.0], [1.0]])
    b = np.array([[3.0]])
    # 2 * mean(3, 2) - mean(0, 1, 1, 0) - 0
    assert checks.direct_energy_distance(a, b) == pytest.approx(2 * 2.5 - 0.5)


def test_mixture_quadrature_matches_closed_form_posterior_mean():
    task = tasks.MixtureTask(centers=(-1.0, 1.0), weights=(0.3, 0.7), s2=0.01, noise_var=0.25, dim=2)
    ys = np.random.default_rng(5).normal(0.0, 1.3, size=(50, 2))
    quad = checks.mixture_posterior_mean_quadrature(ys, task.centers, task.weights, task.s2, task.noise_var)
    np.testing.assert_allclose(quad, task.posterior_mean(ys), atol=1e-9)


def test_bayes_bound_accepts_posterior_samples_and_rejects_oracle_beating_output():
    rng = np.random.default_rng(11)
    xs = rng.normal(size=(512, 1))
    ys = xs + rng.normal(size=(512, 1))
    bayes = checks.linear_gaussian_bayes_mse(np.eye(1), np.eye(1), np.eye(1))
    assert bayes == pytest.approx(0.5)
    posterior_draws = ys / 2 + np.sqrt(0.5) * rng.normal(size=xs.shape)
    checks.check_above_bayes("posterior", float(np.mean((posterior_draws - xs) ** 2)), posterior_draws, xs, bayes)
    too_good = xs + 0.1 * rng.normal(size=xs.shape)
    with pytest.raises(checks.CheckFailed, match="below the Bayes MSE"):
        checks.check_above_bayes("leak", float(np.mean((too_good - xs) ** 2)), too_good, xs, bayes)


def _table():
    rows = [["row", m, str(s), repr(v), repr(2 * v)] for m in ("M1", "M5") for s, v in ((1, 0.3), (2, 0.1), (3, 0.2))]
    rows += [["row", m, "median", repr(0.2), repr(0.4)] for m in ("M1", "M5")]
    return rows


def test_median_rows():
    checks.check_median_rows(_table())
    rows = _table()
    rows[-1][3] = repr(0.2 + 1e-12)
    with pytest.raises(checks.CheckFailed, match="median row for M5"):
        checks.check_median_rows(rows)


def test_exposure_matches_sweep():
    checks.check_exposure_matches_sweep(4 * 0.123, 0.123, 4)
    with pytest.raises(checks.CheckFailed, match="pred_err"):
        checks.check_exposure_matches_sweep(4 * 0.123 * (1 + 1e-9), 0.123, 4)


def test_log_epochs(tmp_path):
    log = tmp_path / "training_log_Joint.csv"
    log.write_text("# generated: now\ntrain_log.v1,epoch,wall_time_s\nrow,0,0.1\nrow,1,0.2\n")
    checks.check_log_epochs(log, 2)
    with pytest.raises(checks.CheckFailed, match="has 2 epochs"):
        checks.check_log_epochs(log, 3)


def test_checkpoint_roundtrip(tmp_path):
    spec = model.bridge_model_spec(2, (4,), 2)
    params = model.init_params(spec, np.random.default_rng(0))
    path = tmp_path / "model.json"
    model.save_checkpoint(path, spec, params, ema=model.init_ema(params), meta={"role": "bridge"})
    checks.check_checkpoint_roundtrip(path, tmp_path)
    path.write_text(path.read_text().replace("\n", "\n ", 1))  # same document, other bytes
    with pytest.raises(checks.CheckFailed, match="changed the bytes"):
        checks.check_checkpoint_roundtrip(path, tmp_path)


def test_digests_skip_comments_and_wall_time(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, stamp, wall in ((a, "t1", "0.5"), (b, "t2", "0.9")):
        d.mkdir()
        (d / "log.csv").write_text(f"# generated: {stamp}\ntrain_log.v1,epoch,val_mse,wall_time_s\nrow,0,0.25,{wall}\n")
    da = checks.digests([a / "log.csv"], a)
    db = checks.digests([b / "log.csv"], b)
    checks.check_equal_digests([da, db])
    (b / "log.csv").write_text("# generated: t2\ntrain_log.v1,epoch,val_mse,wall_time_s\nrow,0,0.26,0.9\n")
    with pytest.raises(checks.CheckFailed, match="log.csv"):
        checks.check_equal_digests([da, checks.digests([b / "log.csv"], b)])
