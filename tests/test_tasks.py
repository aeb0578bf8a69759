"""Synthetic tasks against quadrature and Monte Carlo posterior oracles."""

import numpy as np
import pytest

from bridgelab.tasks import LinearGaussianTask, MixtureTask


def mixture_posterior_quadrature(task: MixtureTask, y: float, n: int = 100_000) -> float:
    """Independent oracle: E[x | y] by trapezoid quadrature on [-3, 3]."""
    xs = np.linspace(-3.0, 3.0, n)
    prior = np.zeros_like(xs)
    for c, w in zip(task.centers, task.weights):
        prior += w * np.exp(-0.5 * (xs - c) ** 2 / task.s2) / np.sqrt(2 * np.pi * task.s2)
    lik = np.exp(-0.5 * (y - xs) ** 2 / task.noise_var)
    post = prior * lik
    return float(np.trapezoid(xs * post, xs) / np.trapezoid(post, xs))


class TestLinearGaussianPosterior:
    def test_scalar_shrinkage(self):
        task = LinearGaussianTask.identity()
        assert task.posterior_mean(np.array([2.0]))[0] == pytest.approx(1.0)

    def test_noiseless_limit_recovers_x(self):
        task = LinearGaussianTask.identity(dim=3, noise_var=1e-12)
        rng = np.random.default_rng(0)
        xs, _, x_stars = task.sample_pairs(1, rng)
        np.testing.assert_allclose(x_stars, xs, atol=1e-5)

    def test_random_4dim_against_weighted_monte_carlo(self):
        # Importance-weighted conditional mean from 1e6 joint draws.
        rng = np.random.default_rng(11)
        q = rng.standard_normal((4, 4))
        Sigma0 = q @ q.T + 0.5 * np.eye(4)
        A = rng.standard_normal((4, 4))
        qn = rng.standard_normal((4, 4)) * 0.3
        Sigma_n = qn @ qn.T + 0.2 * np.eye(4)
        task = LinearGaussianTask(mu0=rng.standard_normal(4), Sigma0=Sigma0, A=A, Sigma_n=Sigma_n)

        y0 = task.sample_pairs(1, rng)[1][0]
        analytic = task.posterior_mean(y0)

        n = 1_000_000
        xs = task.clean_sampler(n, rng)
        resid = y0 - xs @ task.A.T
        inv_n = np.linalg.inv(task.Sigma_n)
        logw = -0.5 * np.einsum("ij,jk,ik->i", resid, inv_n, resid)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        mc_mean = w @ xs
        ess = 1.0 / np.sum(w**2)
        se = np.sqrt(np.sum(w[:, None] * (xs - mc_mean) ** 2, axis=0) / ess)
        np.testing.assert_array_less(np.abs(analytic - mc_mean), 3 * se)

    def test_singular_guard(self):
        with pytest.raises(ValueError):
            LinearGaussianTask(
                mu0=np.zeros(2), Sigma0=np.zeros((2, 2)), A=np.eye(2), Sigma_n=np.eye(2)
            )


class TestMixturePosterior:
    def test_symmetry_at_zero(self):
        task = MixtureTask()
        assert task.posterior_mean(np.array([0.0]))[0] == 0.0

    def test_matches_grid_quadrature(self):
        task = MixtureTask()
        for y in (0.3, -0.9, 1.4, 0.05):
            analytic = task.posterior_mean(np.array([y]))[0]
            assert analytic == pytest.approx(mixture_posterior_quadrature(task, y), abs=1e-6)

    def test_uninformative_measurement_returns_prior_mean(self):
        task = MixtureTask(noise_var=1e8)
        assert task.posterior_mean(np.array([0.7]))[0] == pytest.approx(0.0, abs=1e-6)

    def test_odd_symmetry(self):
        task = MixtureTask()
        ys = np.linspace(-2.0, 2.0, 41)
        np.testing.assert_allclose(
            task.posterior_mean(-ys), -task.posterior_mean(ys), atol=1e-12
        )

    def test_elementwise_over_coordinates(self):
        task = MixtureTask(dim=3)
        y = np.array([0.3, -0.9, 1.4])
        per_coord = [task.posterior_mean(np.array([v]))[0] for v in y]
        np.testing.assert_allclose(task.posterior_mean(y), per_coord, atol=1e-14)


class TestSamplers:
    def test_mixture_clean_moments(self):
        task = MixtureTask()
        rng = np.random.default_rng(5)
        draws = task.clean_sampler(100_000, rng)
        assert abs(draws.mean()) < 0.02
        # law of total variance: s2 + 1 for centers +-1 with equal weights
        assert draws.var() == pytest.approx(1.01, rel=0.02)

    def test_linear_gaussian_clean_covariance(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((3, 3))
        Sigma0 = q @ q.T + np.eye(3)
        task = LinearGaussianTask(
            mu0=np.zeros(3), Sigma0=Sigma0, A=np.eye(3), Sigma_n=np.eye(3)
        )
        draws = task.clean_sampler(200_000, rng)
        emp = np.cov(draws, rowvar=False)
        rel = np.linalg.norm(emp - Sigma0) / np.linalg.norm(Sigma0)
        assert rel < 0.05

    def test_mixture_pair_consistency(self):
        task = MixtureTask(dim=2)
        rng = np.random.default_rng(7)
        _, ys, x_stars = task.sample_pairs(16, rng)
        np.testing.assert_allclose(x_stars, task.posterior_mean(ys), atol=1e-14)
        for y, x_star in zip(ys, x_stars):
            np.testing.assert_allclose(x_star, task.posterior_mean(y), atol=1e-14)

    def test_batch_matches_scalar_path_shapes(self):
        task = MixtureTask(dim=2)
        rng = np.random.default_rng(8)
        xs, ys, stars = task.sample_pairs(16, rng)
        assert xs.shape == ys.shape == stars.shape == (16, 2)

    @pytest.mark.parametrize(
        "task",
        [MixtureTask(), LinearGaussianTask.identity()],
        ids=["mixture", "linear_gaussian"],
    )
    def test_posterior_mean_optimality(self, task):
        # The posterior mean beats the identity and the prior-mean estimators
        # in empirical MSE on fresh pairs.
        rng = np.random.default_rng(9)
        xs, ys, stars = task.sample_pairs(100_000, rng)
        mse_post = np.mean((stars - xs) ** 2)
        mse_identity = np.mean((ys - xs) ** 2)
        mse_prior = np.mean(xs**2)
        assert mse_post < mse_identity
        assert mse_post < mse_prior


class TestLinearGaussianFactors:
    def test_prepared_factors_match_fresh_computation(self):
        rng = np.random.default_rng(40)
        root0, root_n = rng.standard_normal((3, 3)), rng.standard_normal((2, 2))
        mu0, A = rng.standard_normal(3), rng.standard_normal((2, 3))
        Sigma0, Sigma_n = root0 @ root0.T + np.eye(3), root_n @ root_n.T + 0.5 * np.eye(2)
        task = LinearGaussianTask(mu0=mu0, Sigma0=Sigma0, A=A, Sigma_n=Sigma_n)
        xs, ys, x_stars = task.sample_pairs(16, np.random.default_rng(41))

        # the factors as computed per call before they were prepared once
        draw = np.random.default_rng(41)
        ref_xs = mu0 + draw.standard_normal((16, 3)) @ np.linalg.cholesky(Sigma0).T
        ref_ys = ref_xs @ A.T + draw.standard_normal((16, 2)) @ np.linalg.cholesky(Sigma_n).T
        gain = Sigma0 @ A.T @ np.linalg.inv(A @ Sigma0 @ A.T + Sigma_n)
        np.testing.assert_array_equal(xs, ref_xs)
        np.testing.assert_array_equal(ys, ref_ys)
        np.testing.assert_array_equal(x_stars, mu0 + (ref_ys - A @ mu0) @ gain.T)

    def test_inputs_are_read_only_copies(self):
        Sigma0 = np.eye(2)
        task = LinearGaussianTask(mu0=np.zeros(2), Sigma0=Sigma0, A=np.eye(2), Sigma_n=np.eye(2))
        for name in ("mu0", "Sigma0", "A", "Sigma_n"):
            with pytest.raises(ValueError):
                getattr(task, name)[0] = 5.0
        Sigma0[0, 0] = 9.0  # the caller's array stays writable and does not reach the task
        assert task.Sigma0[0, 0] == 1.0


class TestMixtureDraws:
    @pytest.mark.parametrize(
        "weights", [(0.5, 0.5), (0.2, 0.3, 0.5), (0.9, 0.1), (0.1, 0.2, 0.3, 0.4), (1 / 3, 1 / 3, 1 / 3), (1.0,)]
    )
    @pytest.mark.parametrize("n,dim", [(1, 1), (16, 4), (513, 3)])
    def test_cdf_draws_match_generator_choice(self, weights, n, dim):
        """Components from the prebuilt CDF equal rng.choice(p=weights), generator state included."""
        centers = tuple(np.linspace(-2.0, 2.0, len(weights)))
        task = MixtureTask(centers=centers, weights=weights, s2=0.04, dim=dim)
        seed = 1000 * n + 10 * dim + len(weights)
        got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            xs = task.clean_sampler(n, got)
            # the per-call expression the prebuilt CDF replaces
            comp = ref.choice(len(centers), size=(n, dim), p=np.asarray(weights))
            expected = np.asarray(centers)[comp] + np.sqrt(task.s2) * ref.standard_normal((n, dim))
            np.testing.assert_array_equal(xs, expected)
            assert got.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("task", [MixtureTask(dim=3), LinearGaussianTask.identity(2, noise_var=0.5)])
    def test_pairs_are_measurements_plus_posterior_means(self, task):
        got, ref = np.random.default_rng(50), np.random.default_rng(50)
        xs, ys = task.sample_measurements(32, got)
        ref_xs, ref_ys, ref_stars = task.sample_pairs(32, ref)
        np.testing.assert_array_equal(xs, ref_xs)
        np.testing.assert_array_equal(ys, ref_ys)
        np.testing.assert_array_equal(task.posterior_mean(ys), ref_stars)
        assert got.bit_generator.state == ref.bit_generator.state


class TestValidation:
    def test_mixture_weights_must_normalise(self):
        with pytest.raises(ValueError):
            MixtureTask(weights=(0.7, 0.7))

    def test_mixture_positive_variances(self):
        with pytest.raises(ValueError):
            MixtureTask(s2=0.0)
        with pytest.raises(ValueError):
            MixtureTask(noise_var=-1.0)

    def test_linear_gaussian_shape_checks(self):
        with pytest.raises(ValueError):
            LinearGaussianTask(
                mu0=np.zeros(2), Sigma0=np.eye(3), A=np.eye(2), Sigma_n=np.eye(2)
            )
