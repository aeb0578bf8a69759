"""Network forward/backward, Adam, EMA, and checkpoint round-trips."""

import numpy as np
import pytest

from bridgelab.model import (
    AdamState,
    MlpSpec,
    ModelParameters,
    adam_update,
    apply_mlp,
    assemble_inputs,
    bridge_model_spec,
    ema_update,
    forward,
    init_adam,
    init_ema,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    predictor_spec,
    save_checkpoint,
    time_embedding,
)


def finite_difference_grads(params, inputs, targets, h=1e-5):
    """Central-difference gradient oracle, one coordinate at a time."""
    grads = []
    for arr in params.arrays():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_and_gradients(params, inputs, targets)
            flat[i] = orig - h
            lm, _ = loss_and_gradients(params, inputs, targets)
            flat[i] = orig
            gflat[i] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        spec = bridge_model_spec(2, hidden=(8, 8))
        params = init_params(spec, np.random.default_rng(0))
        for w in params.weights:
            w[:] = 0.0
        out = forward(params, spec, np.array([1.0, -2.0]), 0.5, np.array([0.3, 0.3]))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_deterministic_across_runs(self):
        spec = bridge_model_spec(2, hidden=(8,))
        p1 = init_params(spec, np.random.default_rng(3))
        p2 = init_params(spec, np.random.default_rng(3))
        x, c = np.array([0.1, 0.2]), np.array([0.5, -0.5])
        np.testing.assert_array_equal(forward(p1, spec, x, 0.7, c), forward(p2, spec, x, 0.7, c))

    def test_batch_matches_single(self):
        spec = bridge_model_spec(2, hidden=(8,))
        params = init_params(spec, np.random.default_rng(4))
        xs = np.random.default_rng(1).standard_normal((5, 2))
        cs = np.random.default_rng(2).standard_normal((5, 2))
        batch = forward(params, spec, xs, 0.4, cs)
        for i in range(5):
            np.testing.assert_allclose(batch[i], forward(params, spec, xs[i], 0.4, cs[i]), atol=1e-14)

    def test_single_weight_perturbation_matches_gradient(self):
        spec = MlpSpec(input_dim=1, output_dim=1, hidden=(4,), time_embed_pairs=0)
        params = init_params(spec, np.random.default_rng(5))
        u = np.array([[0.7]])
        target = np.array([[0.0]])
        _, grads = loss_and_gradients(params, u, target)
        h = 1e-5
        w = params.weights[0]
        orig = w[0, 0]
        w[0, 0] = orig + h
        lp, _ = loss_and_gradients(params, u, target)
        w[0, 0] = orig - h
        lm, _ = loss_and_gradients(params, u, target)
        w[0, 0] = orig
        fd = (lp - lm) / (2 * h)
        assert grads.weights[0][0, 0] == pytest.approx(fd, rel=1e-4)

    def test_rejects_bad_shapes_and_nonfinite(self):
        spec = bridge_model_spec(2, hidden=(4,))
        params = init_params(spec, np.random.default_rng(6))
        with pytest.raises(ValueError):
            forward(params, spec, np.zeros(3), 0.5, np.zeros(2))
        with pytest.raises(ValueError):
            forward(params, spec, np.array([np.inf, 0.0]), 0.5, np.zeros(2))
        with pytest.raises(ValueError):
            forward(params, spec, np.zeros(2), 1.5, np.zeros(2))


class TestLossAndGradients:
    def test_zero_loss_zero_gradients_at_target(self):
        spec = predictor_spec(2, hidden=(6,))
        params = init_params(spec, np.random.default_rng(7))
        u = np.random.default_rng(8).standard_normal((4, 2))
        out = apply_mlp(params, u)
        loss, grads = loss_and_gradients(params, u, out)
        assert loss == 0.0
        for g in grads.arrays():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_linear_head_hand_derivative(self):
        # Output head reduces to out = b1 with a zeroed hidden path; with
        # b1 = 2 and target 0: loss = 4 and dloss/db1 = 4.
        spec = MlpSpec(input_dim=1, output_dim=1, hidden=(1,), time_embed_pairs=0)
        params = init_params(spec, np.random.default_rng(9))
        params.weights[0][:] = 0.0
        params.biases[0][:] = 0.0
        params.weights[1][:] = 0.0
        params.biases[1][:] = 2.0
        loss, grads = loss_and_gradients(params, np.array([[1.0]]), np.array([[0.0]]))
        assert loss == pytest.approx(4.0)
        assert grads.biases[1][0] == pytest.approx(4.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        for trial in range(3):
            spec = MlpSpec(
                input_dim=int(rng.integers(1, 4)),
                output_dim=int(rng.integers(1, 3)),
                hidden=tuple(int(h) for h in rng.integers(2, 5, size=int(rng.integers(1, 3)))),
                time_embed_pairs=0,
            )
            params = init_params(spec, rng)
            u = rng.standard_normal((3, spec.input_dim))
            targets = rng.standard_normal((3, spec.output_dim))
            _, analytic = loss_and_gradients(params, u, targets)
            numeric = finite_difference_grads(params, u, targets)
            assert max_relative_error(analytic.arrays(), numeric) < 1e-4

    def test_batch_permutation_invariance(self):
        spec = predictor_spec(2, hidden=(6,))
        params = init_params(spec, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        u = rng.standard_normal((8, 2))
        t = rng.standard_normal((8, 2))
        perm = rng.permutation(8)
        loss_a, _ = loss_and_gradients(params, u, t)
        loss_b, _ = loss_and_gradients(params, u[perm], t[perm])
        assert loss_a == pytest.approx(loss_b, rel=1e-14)

    def test_empty_batch_rejected(self):
        spec = predictor_spec(1, hidden=(2,))
        params = init_params(spec, np.random.default_rng(13))
        with pytest.raises(ValueError):
            loss_and_gradients(params, np.zeros((0, 1)), np.zeros((0, 1)))

    def test_non_finite_loss_raises(self):
        spec = predictor_spec(1, hidden=(2,))
        params = init_params(spec, np.random.default_rng(14))
        with pytest.raises(FloatingPointError):
            loss_and_gradients(params, np.array([[1.0]]), np.array([[1e200]]))


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        spec = predictor_spec(1, hidden=(3,))
        params = init_params(spec, np.random.default_rng(15))
        before = params.copy()
        zeros = ModelParameters(
            weights=[np.zeros_like(w) for w in params.weights],
            biases=[np.zeros_like(b) for b in params.biases],
        )
        state = init_adam(params)
        adam_update(params, zeros, state)
        for a, b in zip(params.arrays(), before.arrays()):
            np.testing.assert_array_equal(a, b)
        assert state.step == 1

    def test_first_step_hand_computation(self):
        # scalar parameter p = 1, gradient 0.5, lr 0.1:
        # m_hat = 0.5, v_hat = 0.25 -> p - 0.1 * 0.5 / (0.5 + eps) ~= 0.9
        params = ModelParameters(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        grads = ModelParameters(weights=[np.array([[0.5]])], biases=[np.array([0.0])])
        state = init_adam(params, learning_rate=0.1)
        adam_update(params, grads, state)
        assert params.weights[0][0, 0] == pytest.approx(0.9, abs=1e-6)

    def test_constant_gradient_monotone_descent(self):
        params = ModelParameters(weights=[np.array([[0.0]])], biases=[np.array([0.0])])
        grads = ModelParameters(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        state = init_adam(params, learning_rate=0.01)
        values = [params.weights[0][0, 0]]
        for _ in range(3):
            adam_update(params, grads, state)
            values.append(params.weights[0][0, 0])
        assert all(b < a for a, b in zip(values, values[1:]))


class TestEma:
    def test_decay_zero_copies_parameters(self):
        params = ModelParameters(weights=[np.array([[2.0]])], biases=[np.array([1.0])])
        ema = init_ema(params, decay=0.0)
        params.weights[0][0, 0] = 5.0
        ema_update(ema, params)
        assert ema.shadow.weights[0][0, 0] == 5.0

    def test_two_updates_hand_value(self):
        params = ModelParameters(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        ema = init_ema(params, decay=0.5)
        ema.shadow.weights[0][0, 0] = 0.0
        ema_update(ema, params)
        ema_update(ema, params)
        assert ema.shadow.weights[0][0, 0] == pytest.approx(0.75)

    def test_geometric_convergence(self):
        params = ModelParameters(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        ema = init_ema(params, decay=0.9)
        ema.shadow.weights[0][0, 0] = 0.0
        gaps = []
        for _ in range(5):
            ema_update(ema, params)
            gaps.append(1.0 - ema.shadow.weights[0][0, 0])
        ratios = [b / a for a, b in zip(gaps, gaps[1:])]
        np.testing.assert_allclose(ratios, 0.9, rtol=1e-12)

    def test_smoothing_on_monotone_trajectory(self):
        # On a monotone decaying parameter trajectory the EMA stays between
        # the current value and the running average, so its distance to the
        # running average never exceeds the raw parameter's.
        traj = 1.0 * 0.95 ** np.arange(100)
        params = ModelParameters(weights=[np.array([[traj[0]]])], biases=[np.array([0.0])])
        ema = init_ema(params, decay=0.9)
        running_sum = 0.0
        for i, value in enumerate(traj):
            params.weights[0][0, 0] = value
            ema_update(ema, params)
            running_sum += value
            mean = running_sum / (i + 1)
            assert abs(ema.shadow.weights[0][0, 0] - mean) <= abs(value - mean) + 1e-12


class TestTimeEmbedding:
    def test_injective_on_training_grid(self):
        ts = np.arange(1e-4, 1.0 + 1e-9, 1e-3)
        emb = time_embedding(ts, pairs=8)
        assert emb.shape == (len(ts), 16)
        assert len(np.unique(emb.round(12), axis=0)) == len(ts)

    def test_zero_pairs(self):
        assert time_embedding(np.array([0.5]), pairs=0).shape == (1, 0)

    def test_assemble_width_check(self):
        spec = bridge_model_spec(2, hidden=(4,), time_embed_pairs=8)
        u = assemble_inputs(spec, np.zeros((3, 2)), 0.5, np.zeros((3, 2)))
        assert u.shape == (3, spec.input_dim)
        bad_spec = bridge_model_spec(3, hidden=(4,))
        with pytest.raises(ValueError):
            assemble_inputs(bad_spec, np.zeros((3, 2)), 0.5, np.zeros((3, 2)))


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        spec = bridge_model_spec(2, hidden=(5, 3))
        rng = np.random.default_rng(20)
        params = init_params(spec, rng)
        state = init_adam(params)
        grads = ModelParameters(
            weights=[rng.standard_normal(w.shape) for w in params.weights],
            biases=[rng.standard_normal(b.shape) for b in params.biases],
        )
        adam_update(params, grads, state)
        ema = init_ema(params)
        ema_update(ema, params)

        path = tmp_path / "ckpt.json"
        save_checkpoint(
            path, spec, params, adam=state, ema=ema,
            seed_lineage={"master_seed": 20, "stream": "train"},
            meta={"role": "bridge"},
        )
        loaded = load_checkpoint(path)
        assert loaded["spec"] == spec
        for a, b in zip(loaded["params"].arrays(), params.arrays()):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded["adam"].m.arrays(), state.m.arrays()):
            np.testing.assert_array_equal(a, b)
        assert loaded["adam"].step == state.step
        for a, b in zip(loaded["ema"].shadow.arrays(), ema.shadow.arrays()):
            np.testing.assert_array_equal(a, b)
        assert loaded["seed_lineage"] == {"master_seed": 20, "stream": "train"}

    def test_double_save_identical_bytes(self, tmp_path):
        spec = predictor_spec(2, hidden=(4,))
        params = init_params(spec, np.random.default_rng(21))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, spec, params)
        loaded = load_checkpoint(p1)
        save_checkpoint(p2, loaded["spec"], loaded["params"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "x.json"
        for text in ("{}", "[]", "3"):
            path.write_text(text)
            with pytest.raises(ValueError):
                load_checkpoint(path)


class TestSpecValidation:
    def test_requires_hidden_layer(self):
        with pytest.raises(ValueError):
            MlpSpec(input_dim=2, output_dim=2, hidden=())

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            MlpSpec(input_dim=2, output_dim=2, hidden=(4,), activation="relu")

    def test_parameter_count(self):
        spec = MlpSpec(input_dim=3, output_dim=2, hidden=(4,), time_embed_pairs=0)
        params = init_params(spec, np.random.default_rng(0))
        assert params.count() == 3 * 4 + 4 + 4 * 2 + 2
