"""Distortion and perception metrics against hand values and closed forms."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bridgelab import metrics
from bridgelab.metrics import (
    ReferenceSet,
    energy_distance,
    gaussian_w2,
    moment_w2,
    mse,
    perception_distance,
    prediction_errors,
    si_sdr,
)
from bridgelab.sampler import SamplerConfig, sample_trajectory_batch
from bridgelab.schedule import NoiseSchedule
from bridgelab.tasks import MixtureTask


def si_sdr_row(estimate, reference, ceiling_db=60.0):
    """Reference SI-SDR of one row, written out one dot product at a time."""
    ref_energy = float(reference @ reference)
    if ref_energy == 0.0:
        raise ValueError("reference signal is zero")
    s = float(estimate @ reference) / ref_energy * reference
    e = estimate - s
    s_energy, e_energy = float(s @ s), float(e @ e)
    if s_energy == 0.0:
        return float("-inf")
    if e_energy == 0.0:
        return ceiling_db
    return min(10.0 * np.log10(s_energy / e_energy), ceiling_db)


class TestSiSdr:
    def test_perfect_estimate_hits_ceiling(self):
        x = np.array([[1.0, -2.0, 0.5]])
        assert si_sdr(x, x).tolist() == [60.0]

    def test_scale_invariance(self):
        x = np.array([[1.0, -2.0, 0.5]])
        assert si_sdr(2.0 * x, x) == si_sdr(x, x)
        noisy = x + np.array([[0.1, -0.2, 0.05]])
        np.testing.assert_allclose(si_sdr(3.0 * noisy, x), si_sdr(noisy, x), rtol=0, atol=1e-12)

    def test_hand_value(self):
        # reference (1,0), estimate (1,1): s = (1,0), e = (0,1) -> 0 dB
        assert si_sdr(np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]]))[0] == pytest.approx(0.0)

    def test_orthogonal_estimate(self):
        # the -inf row sits next to a ceiling row and an ordinary one
        estimates = np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 1.0]])
        references = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        assert si_sdr(estimates, references).tolist() == [float("-inf"), 60.0, pytest.approx(0.0)]

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            si_sdr(np.array([[1.0], [1.0]]), np.array([[1.0], [0.0]]))
        with pytest.raises(ValueError, match="shapes"):
            si_sdr(np.array([1.0]), np.array([1.0]))

    def test_monotone_in_noise_level(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 64))
        noise = rng.standard_normal((1, 64))
        values = [si_sdr(x + level * noise, x)[0] for level in (0.01, 0.1, 1.0)]
        assert values[0] > values[1] > values[2]

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_rows_equal_per_row_reference_bitwise(self, d):
        rng = np.random.default_rng(d)
        xs = rng.standard_normal((512, d))
        estimates = xs + rng.uniform(0.0, 2.0, (512, 1)) * rng.standard_normal((512, d))
        estimates[:3] = [2.0 * xs[0], np.zeros(d), xs[2]]  # ceiling, -inf and ceiling rows
        expected = [si_sdr_row(e, x) for e, x in zip(estimates, xs)]
        values = si_sdr(estimates, xs)
        assert values.tolist() == expected
        # the evaluation column is the mean of the per-row values (here past the -inf row)
        assert float(np.mean(values[2:])) == float(np.mean(expected[2:]))


def rotation(d, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q


class TestGaussianW2:
    def test_unit_gaussians_shifted_mean(self):
        w2 = gaussian_w2(np.zeros(1), np.eye(1), np.ones(1), np.eye(1))
        assert w2 == pytest.approx(1.0, abs=1e-9)

    def test_same_distribution_zero(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((3, 3))
        cov = q @ q.T + np.eye(3)
        mu = rng.standard_normal(3)
        assert gaussian_w2(mu, cov, mu, cov) == pytest.approx(0.0, abs=1e-7)

    def test_degenerate_covariance_finite(self):
        # a point mass against N(1, I): W2^2 = ||dmu||^2 + tr(I) = 4 exactly
        w2 = gaussian_w2(np.zeros(2), np.zeros((2, 2)), np.ones(2), np.eye(2))
        assert w2 == pytest.approx(2.0, abs=1e-12)
        rank_one = np.outer([1.0, 2.0, 0.5], [1.0, 2.0, 0.5])
        assert np.isfinite(gaussian_w2(np.zeros(3), rank_one, np.zeros(3), np.diag([1.0, 0.0, 2.0])))

    def test_co_rotated_diagonal_closed_form(self):
        # commuting covariances R D0 R^T and R D1 R^T:
        # W2^2 = ||mu0 - mu1||^2 + sum (sqrt(a_i) - sqrt(b_i))^2
        rng = np.random.default_rng(12)
        r = rotation(4, 13)
        a = np.array([0.3, 1.7, 2.5, 0.01])
        b = np.array([1.1, 0.2, 4.0, 0.5])
        mu0, mu1 = rng.standard_normal(4), rng.standard_normal(4)
        expected = np.sqrt(np.sum((mu0 - mu1) ** 2) + np.sum((np.sqrt(a) - np.sqrt(b)) ** 2))
        w2 = gaussian_w2(mu0, r @ np.diag(a) @ r.T, mu1, r @ np.diag(b) @ r.T)
        assert w2 == pytest.approx(expected, abs=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(14)
        q0, q1 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        c0, c1 = q0 @ q0.T + 0.1 * np.eye(4), q1 @ q1.T
        mu0, mu1 = rng.standard_normal(4), rng.standard_normal(4)
        assert gaussian_w2(mu0, c0, mu1, c1) == pytest.approx(gaussian_w2(mu1, c1, mu0, c0), abs=1e-12)

    def test_moment_w2_uses_sample_moments(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((300, 4))
        b = 2.0 * rng.standard_normal((200, 4)) + 0.5
        expected = gaussian_w2(
            a.mean(axis=0), np.cov(a, rowvar=False, ddof=0), b.mean(axis=0), np.cov(b, rowvar=False, ddof=0)
        )
        assert moment_w2(a, b) == expected
        assert perception_distance(a, b)[0] == expected


def test_import_leaves_scipy_unloaded():
    code = "import sys, bridgelab, bridgelab.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestPerceptionDistance:
    def test_identical_sets_are_zero(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((10_000, 1))
        w2, energy = perception_distance(samples, samples)
        assert w2 < 1e-3
        assert energy == pytest.approx(0.0, abs=1e-9)

    def test_identical_sets_are_zero_multivariate(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((2_000, 2))
        w2, energy = perception_distance(samples, samples)
        assert w2 < 1e-3
        assert energy == pytest.approx(0.0, abs=1e-12)

    def test_shifted_scalar_gaussians(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((40_000, 1))
        b = rng.standard_normal((40_000, 1)) + 1.0
        w2, _ = perception_distance(a, b)
        assert w2 == pytest.approx(1.0, abs=0.02)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((500, 2))
        b = 0.5 * rng.standard_normal((600, 2)) + 0.3
        d_ab = perception_distance(a, b)
        d_ba = perception_distance(b, a)
        assert d_ab[0] == pytest.approx(d_ba[0], abs=1e-9)
        assert d_ab[1] == pytest.approx(d_ba[1], abs=1e-9)

    def test_posterior_mean_outputs_are_less_clean_than_posterior_samples(self):
        # The posterior-mean estimator collapses the bimodal structure, so
        # its outputs sit farther from the clean distribution than exact
        # posterior samples do; the energy distance resolves this.
        task = MixtureTask()
        rng = np.random.default_rng(5)
        xs, ys, x_stars = task.sample_pairs(4000, rng)
        clean = task.clean_sampler(4000, rng)

        # exact posterior sampler: component by responsibility, then the
        # per-component Gaussian posterior
        c = np.asarray(task.centers)
        total_var = task.s2 + task.noise_var
        y = ys[:, 0]
        logits = -0.5 * (y[:, None] - c) ** 2 / total_var + np.log(task.weights)
        logits -= logits.max(axis=1, keepdims=True)
        resp = np.exp(logits)
        resp /= resp.sum(axis=1, keepdims=True)
        comp = (rng.random(len(y)) > resp[:, 0]).astype(int)
        post_var = task.s2 * task.noise_var / total_var
        means = (c[comp] * task.noise_var + y * task.s2) / total_var
        posterior_draws = (means + np.sqrt(post_var) * rng.standard_normal(len(y)))[:, None]

        _, energy_mean = perception_distance(x_stars, clean)
        _, energy_post = perception_distance(posterior_draws, clean)
        assert energy_mean > energy_post

    def test_dimension_mismatch(self):
        for fn in (perception_distance, moment_w2):
            with pytest.raises(ValueError):
                fn(np.zeros((5, 2)), np.zeros((5, 3)))

    def test_empty_set_rejected(self):
        for fn in (perception_distance, moment_w2):
            with pytest.raises(ValueError):
                fn(np.zeros((0, 2)), np.zeros((5, 2)))


class TestEnergyDistance:
    def test_zero_for_identical(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((300, 2))
        assert energy_distance(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_positive_for_disjoint(self):
        a = np.zeros((100, 1))
        b = np.ones((100, 1))
        assert energy_distance(a, b) > 0.5

    def test_chunking_matches_direct(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((700, 2))
        b = rng.standard_normal((650, 2))
        direct = (
            2 * np.mean(np.linalg.norm(a[:, None] - b[None, :], axis=2))
            - np.mean(np.linalg.norm(a[:, None] - a[None, :], axis=2))
            - np.mean(np.linalg.norm(b[:, None] - b[None, :], axis=2))
        )
        assert energy_distance(a, b) == pytest.approx(direct, abs=1e-10)

    def test_sorted_scalar_path_matches_direct(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((400, 1))
        b = rng.standard_normal((350, 1)) + 0.4
        direct = (
            2 * np.mean(np.abs(a[:, None, 0] - b[None, :, 0]))
            - np.mean(np.abs(a[:, None, 0] - a[None, :, 0]))
            - np.mean(np.abs(b[:, None, 0] - b[None, :, 0]))
        )
        assert energy_distance(a, b) == pytest.approx(direct, abs=1e-12)


def direct_mean_distance(a, b):
    """Mean ||a_i - b_j|| from explicit difference vectors, one row of a at a time."""
    return float(np.mean([np.sqrt(np.sum((row - b) ** 2, axis=1)).mean() for row in a]))


class TestPairwiseKernels:
    """The tiled kernels against explicit pairwise differences, at a tolerance set from float64 rounding."""

    @pytest.fixture(scope="class", params=[2, 4, 7])
    def reference(self, request):
        return np.random.default_rng(40 + request.param).standard_normal((2048, request.param))

    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 511, 512, 513, 2048])
    def test_cross_kernel_matches_explicit_differences(self, reference, rows):
        outputs = 0.8 * np.random.default_rng(rows).standard_normal((rows, reference.shape[1])) + 0.1
        expected = direct_mean_distance(outputs, reference)
        assert metrics._mean_pairwise_distance(outputs, reference) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 511, 512, 513, 2048])
    def test_self_kernel_equals_cross_kernel_on_a_copy(self, reference, rows):
        samples = reference[:rows]
        cross = metrics._mean_pairwise_distance(samples, samples.copy())
        # A diagonal term's d2 = 2 x.x - 2 x.x rounds to a few ulps of |x|^2 instead of 0, and
        # GEMMs of different tile shapes round it differently: allow each one its square root.
        diagonal = np.sqrt(4 * np.finfo(float).eps * np.max(np.sum(samples**2, axis=1))) / rows
        assert metrics._mean_self_distance(samples) == pytest.approx(cross, rel=1e-12, abs=diagonal)

    def test_one_row_self_term_is_zero(self):
        # small integers: every product and sum is exact, so the diagonal is exactly 0
        for d in (2, 4, 7):
            assert metrics._mean_self_distance(np.arange(1.0, d + 1.0)[None, :]) == 0.0

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_row_gives_non_finite_result(self, bad):
        samples = np.random.default_rng(41).standard_normal((100, 4))
        samples[70, 2] = bad  # past the first tiles, which reach it only as a column right of their diagonal
        reference = np.random.default_rng(42).standard_normal((64, 4))
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(metrics._mean_pairwise_distance(samples, reference))
            assert not np.isfinite(metrics._mean_self_distance(samples))
            assert not np.isfinite(energy_distance(samples, reference))
            assert not np.isfinite(energy_distance(reference, samples))

    @pytest.mark.parametrize("rows", [512, 2048])
    def test_peak_allocation_stays_within_two_tiles(self, rows):
        # two 32 x 2048 float64 tile buffers take 1 MiB; a 512-row block would take 16 MiB
        reference = np.random.default_rng(43).standard_normal((2048, 4))
        outputs = reference[:rows].copy()
        calls = ((metrics._mean_pairwise_distance, (outputs, reference)), (metrics._mean_self_distance, (outputs,)))
        for kernel, args in calls:
            tracemalloc.start()
            try:
                kernel(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20


class TestReferenceSet:
    @pytest.fixture(scope="class")
    def prepared(self):
        reference = MixtureTask(dim=4).clean_sampler(2048, np.random.default_rng(30))
        return reference, ReferenceSet(reference)

    @pytest.mark.parametrize("dim,rows", [(1, 512), (4, 1), (4, 511), (4, 512), (4, 513), (4, 1025)])
    def test_prepared_equals_raw_bitwise(self, dim, rows):
        rng = np.random.default_rng(31 + rows)
        task = MixtureTask(dim=dim)
        reference = task.clean_sampler(2048, rng)
        outputs = 0.8 * task.clean_sampler(rows, rng)
        prepared = ReferenceSet(reference)
        for _ in range(2):  # the second pass reads the cached statistics
            assert energy_distance(outputs, prepared) == energy_distance(outputs, reference)
            assert moment_w2(outputs, prepared) == moment_w2(outputs, reference)
            assert perception_distance(outputs, prepared) == perception_distance(outputs, reference)

    def test_self_term_computed_once(self, prepared, monkeypatch):
        reference, _ = prepared
        calls = []

        def counting(name):
            kernel = getattr(metrics, name)

            def wrapped(*args):
                calls.append((name, *(a.shape[0] for a in args)))
                return kernel(*args)

            return wrapped

        for name in ("_mean_pairwise_distance", "_mean_self_distance"):
            monkeypatch.setattr(metrics, name, counting(name))
        ref = ReferenceSet(reference)
        outputs = np.random.default_rng(33).standard_normal((512, 4))
        for _ in range(3):
            perception_distance(outputs, ref)
        # the spread once, then per call the cross term and the output self-term
        cross, own = ("_mean_pairwise_distance", 512, 2048), ("_mean_self_distance", 512)
        assert calls == [cross, own, ("_mean_self_distance", 2048)] + [cross, own] * 2

    def test_samples_are_a_read_only_copy(self, prepared):
        reference, _ = prepared
        ref = ReferenceSet(reference)
        with pytest.raises(ValueError):
            ref.samples[0, 0] = 1.0
        assert reference.flags.writeable and ref.samples is not reference

    def test_dimension_mismatch_on_both_paths(self):
        ref = ReferenceSet(np.zeros((8, 3)))
        for outputs in (np.zeros((5, 1)), np.zeros((5, 2))):
            for fn in (energy_distance, moment_w2, perception_distance):
                with pytest.raises(ValueError):
                    fn(outputs, ref)


class TestPerStepErrors:
    def test_oracle_predictor_all_zero(self):
        sch = NoiseSchedule()
        x0 = np.array([0.4])
        predictor = lambda s, t, c: np.broadcast_to(x0, s.shape)
        y = np.array([[1.0]])
        _, _, preds = sample_trajectory_batch(
            predictor, y, y, SamplerConfig(n_steps=10), sch, rng=np.random.default_rng(0)
        )
        assert prediction_errors(preds, x0[None, :]).tolist() == [0.0] * 10

    def test_constant_predictor_constant_error(self):
        sch = NoiseSchedule()
        x_star = np.array([0.5, -0.5])
        x_true = np.array([1.0, 1.0])
        predictor = lambda s, t, c: np.broadcast_to(x_star, s.shape)
        y = np.zeros((1, 2))
        _, _, preds = sample_trajectory_batch(
            predictor, y, y, SamplerConfig(n_steps=5), sch, rng=np.random.default_rng(0)
        )
        expected = float(np.sum((x_star - x_true) ** 2))
        assert prediction_errors(preds, x_true[None, :]).tolist() == [pytest.approx(expected)] * 5

    def test_batch_mean_of_row_errors(self):
        rng = np.random.default_rng(16)
        preds = rng.standard_normal((3, 7, 2))
        xs = rng.standard_normal((7, 2))
        expected = [float(np.mean(np.sum((p - xs) ** 2, axis=1))) for p in preds]
        assert prediction_errors(preds, xs).tolist() == expected


class TestMse:
    def test_hand_value(self):
        assert mse(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == pytest.approx(2.5)
