"""Network forward/backward, Adam, EMA, the flat parameter layout, and checkpoint round-trips."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _time_frequencies,
    save_checkpoint,
    time_embedding,
)


def finite_difference_grads(params, inputs, targets, h=1e-5):
    """Central-difference gradient oracle, one coordinate of the flat vector at a time."""
    flat = params.flat
    grads = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp, _ = loss_and_gradients(params, inputs, targets)
        flat[i] = orig - h
        lm, _ = loss_and_gradients(params, inputs, targets)
        flat[i] = orig
        grads[i] = (lp - lm) / (2 * h)
    return grads


def max_relative_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def one_weight(w, b=0.0):
    """A single 1 x 1 affine layer with weight w and bias b."""
    return ModelParameters([(1, 1)], np.array([w, b]))


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        spec = bridge_model_spec(2, hidden=(8, 8))
        params = init_params(spec, np.random.default_rng(0))
        for w in params.weights:
            w[:] = 0.0
        out = forward(params, spec, np.array([[1.0, -2.0]]), 0.5, np.array([[0.3, 0.3]]))
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_deterministic_across_runs(self):
        spec = bridge_model_spec(2, hidden=(8,))
        p1 = init_params(spec, np.random.default_rng(3))
        p2 = init_params(spec, np.random.default_rng(3))
        x, c = np.array([[0.1, 0.2]]), np.array([[0.5, -0.5]])
        np.testing.assert_array_equal(forward(p1, spec, x, 0.7, c), forward(p2, spec, x, 0.7, c))

    def test_batch_matches_single(self):
        # each row of a batch equals the same row passed as a one-row batch
        spec = bridge_model_spec(2, hidden=(8,))
        params = init_params(spec, np.random.default_rng(4))
        xs = np.random.default_rng(1).standard_normal((5, 2))
        cs = np.random.default_rng(2).standard_normal((5, 2))
        batch = forward(params, spec, xs, 0.4, cs)
        for i in range(5):
            row = slice(i, i + 1)
            np.testing.assert_allclose(batch[row], forward(params, spec, xs[row], 0.4, cs[row]), atol=1e-14)

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
            forward(params, spec, np.zeros((1, 3)), 0.5, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            forward(params, spec, np.array([[np.inf, 0.0]]), 0.5, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            forward(params, spec, np.zeros((1, 2)), 1.5, np.zeros((1, 2)))

    def test_rejects_unbatched_state(self):
        # a (d,) state is not read as a batch of one
        spec = bridge_model_spec(2, hidden=(4,))
        params = init_params(spec, np.random.default_rng(6))
        with pytest.raises(ValueError, match="batch mismatch"):
            forward(params, spec, np.zeros(2), 0.5, np.zeros(2))
        with pytest.raises(ValueError, match="batch mismatch"):
            assemble_inputs(spec, np.zeros((1, 2)), 0.5, np.zeros(2))


class TestLossAndGradients:
    def test_zero_loss_zero_gradients_at_target(self):
        spec = predictor_spec(2, hidden=(6,))
        params = init_params(spec, np.random.default_rng(7))
        u = np.random.default_rng(8).standard_normal((4, 2))
        out = apply_mlp(params, u)
        loss, grads = loss_and_gradients(params, u, out)
        assert loss == 0.0
        np.testing.assert_array_equal(grads.flat, np.zeros_like(grads.flat))

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
            assert max_relative_error(analytic.flat, numeric) < 1e-4

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

    def test_rejects_unbatched_inputs(self):
        spec = predictor_spec(2, hidden=(2,))
        params = init_params(spec, np.random.default_rng(13))
        with pytest.raises(ValueError, match="batch mismatch"):
            loss_and_gradients(params, np.zeros(2), np.zeros(2))

    def test_non_finite_loss_raises(self):
        spec = predictor_spec(1, hidden=(2,))
        params = init_params(spec, np.random.default_rng(14))
        with pytest.raises(FloatingPointError):
            loss_and_gradients(params, np.array([[1.0]]), np.array([[1e200]]))

    def test_out_buffer_is_overwritten_and_returned(self):
        spec = MlpSpec(input_dim=3, output_dim=2, hidden=(5, 4), time_embed_pairs=0)
        params = init_params(spec, np.random.default_rng(16))
        rng = np.random.default_rng(17)
        buf = ModelParameters(params.layer_dims, np.full_like(params.flat, np.nan))
        for _ in range(3):
            u, t = rng.standard_normal((6, 3)), rng.standard_normal((6, 2))
            loss, fresh = loss_and_gradients(params, u, t)
            got_loss, got = loss_and_gradients(params, u, t, out=buf)
            assert got is buf and got_loss == loss
            np.testing.assert_array_equal(buf.flat, fresh.flat)
        # without `out` every call returns its own vector
        _, a = loss_and_gradients(params, u, t)
        _, b = loss_and_gradients(params, u, t)
        assert not np.shares_memory(a.flat, b.flat)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        spec = predictor_spec(1, hidden=(3,))
        params = init_params(spec, np.random.default_rng(15))
        before = params.copy()
        zeros = ModelParameters(params.layer_dims)
        state = init_adam(params)
        adam_update(params, zeros, state)
        np.testing.assert_array_equal(params.flat, before.flat)
        assert state.step == 1

    def test_first_step_hand_computation(self):
        # scalar parameter p = 1, gradient 0.5, lr 0.1:
        # m_hat = 0.5, v_hat = 0.25 -> p - 0.1 * 0.5 / (0.5 + eps) ~= 0.9
        params = one_weight(1.0)
        grads = one_weight(0.5)
        state = replace(init_adam(params), learning_rate=0.1)
        adam_update(params, grads, state)
        assert params.weights[0][0, 0] == pytest.approx(0.9, abs=1e-6)

    def test_constant_gradient_monotone_descent(self):
        params = one_weight(0.0)
        grads = one_weight(1.0)
        state = replace(init_adam(params), learning_rate=0.01)
        values = [params.weights[0][0, 0]]
        for _ in range(3):
            adam_update(params, grads, state)
            values.append(params.weights[0][0, 0])
        assert all(b < a for a, b in zip(values, values[1:]))


class TestEma:
    def test_decay_zero_copies_parameters(self):
        params = one_weight(2.0, 1.0)
        ema = replace(init_ema(params), decay=0.0)
        params.weights[0][0, 0] = 5.0
        ema_update(ema, params)
        assert ema.shadow.weights[0][0, 0] == 5.0

    def test_two_updates_hand_value(self):
        params = one_weight(1.0)
        ema = replace(init_ema(params), decay=0.5)
        ema.shadow.weights[0][0, 0] = 0.0
        ema_update(ema, params)
        ema_update(ema, params)
        assert ema.shadow.weights[0][0, 0] == pytest.approx(0.75)

    def test_geometric_convergence(self):
        params = one_weight(1.0)
        ema = replace(init_ema(params), decay=0.9)
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
        params = one_weight(traj[0])
        ema = replace(init_ema(params), decay=0.9)
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
        emb = time_embedding(np.array([0.5, 0.25]), pairs=0)
        assert emb.shape == (2, 0) and emb.dtype == np.float64

    @pytest.mark.parametrize("pairs", [1, 4, 8])
    def test_cached_frequencies_match_geomspace(self, pairs):
        ts = np.random.default_rng(22).uniform(0.0, 1.0, 16)
        ang = ts[:, None] * np.geomspace(1.0, 1000.0, pairs)
        expected = np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)
        for _ in range(2):
            np.testing.assert_array_equal(time_embedding(ts, pairs), expected)
        with pytest.raises(ValueError):
            _time_frequencies(pairs)[0] = 2.0

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
        grads = ModelParameters(params.layer_dims, rng.standard_normal(params.flat.size))
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
        np.testing.assert_array_equal(loaded["params"].flat, params.flat)
        np.testing.assert_array_equal(loaded["adam"].m.flat, state.m.flat)
        assert loaded["adam"].step == state.step
        np.testing.assert_array_equal(loaded["ema"].shadow.flat, ema.shadow.flat)
        assert loaded["seed_lineage"] == {"master_seed": 20, "stream": "train"}

    def test_double_save_identical_bytes(self, tmp_path):
        spec = predictor_spec(2, hidden=(4,))
        params = init_params(spec, np.random.default_rng(21))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, spec, params)
        loaded = load_checkpoint(p1)
        save_checkpoint(p2, loaded["spec"], loaded["params"])
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("key", ["time_embed_pairs", "activation"])
    def test_rejects_spec_with_missing_key(self, tmp_path, key):
        spec = predictor_spec(2, hidden=(4,))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, spec, init_params(spec, np.random.default_rng(22)))
        doc = json.loads(path.read_text())
        del doc["spec"][key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="spec has keys"):
            load_checkpoint(path)

    def test_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "x.json"
        for text in ("{}", "[]", "3"):
            path.write_text(text)
            with pytest.raises(ValueError):
                load_checkpoint(path)


def layer_arrays(params):
    """Separate copies of the per-layer arrays in checkpoint order w0, b0, w1, b1, ..."""
    return [a.copy() for pair in zip(params.weights, params.biases) for a in pair]


def reference_adam_step(ps, gs, ms, vs, state):
    """Adam over separate per-layer arrays, the layout before the flat vector."""
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for p, g, m, v in zip(ps, gs, ms, vs):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g**2
        p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.eps_hat)


def reference_ema_step(shadows, ps, decay):
    for s, p in zip(shadows, ps):
        s *= decay
        s += (1.0 - decay) * p


def assert_views_of_flat(params):
    views = [a for pair in zip(params.weights, params.biases) for a in pair]
    assert sum(a.size for a in views) == params.flat.size
    np.testing.assert_array_equal(np.concatenate([a.ravel() for a in views]), params.flat)
    for a in views:
        assert np.shares_memory(a, params.flat)
    params.biases[-1][0] += 1.0  # written through the view, seen in the vector
    assert params.flat[-params.biases[-1].size] == params.biases[-1][0]
    params.biases[-1][0] -= 1.0


class TestFlatLayout:
    SPEC = MlpSpec(input_dim=5, output_dim=3, hidden=(7, 4), time_embed_pairs=0)

    def test_updates_match_per_layer_reference(self):
        rng = np.random.default_rng(30)
        params = init_params(self.SPEC, rng)
        state = replace(init_adam(params), learning_rate=1e-2)
        ema = replace(init_ema(params), decay=0.9)
        ref_p = layer_arrays(params)
        ref_m = [np.zeros_like(a) for a in ref_p]
        ref_v = [np.zeros_like(a) for a in ref_p]
        ref_s = layer_arrays(ema.shadow)
        for _ in range(200):
            size = params.flat.size
            grads = ModelParameters(
                params.layer_dims, rng.standard_normal(size) * 10.0 ** rng.uniform(-4, 4, size)
            )
            adam_update(params, grads, state)
            ema_update(ema, params)
            reference_adam_step(ref_p, layer_arrays(grads), ref_m, ref_v, state)
            reference_ema_step(ref_s, ref_p, ema.decay)
            for flat, ref in ((params, ref_p), (state.m, ref_m), (state.v, ref_v), (ema.shadow, ref_s)):
                np.testing.assert_array_equal(flat.flat, np.concatenate([a.ravel() for a in ref]))

    def test_views_share_the_vector(self, tmp_path):
        params = init_params(self.SPEC, np.random.default_rng(31))
        assert_views_of_flat(params)
        assert_views_of_flat(params.copy())
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, self.SPEC, params, adam=init_adam(params), ema=init_ema(params))
        loaded = load_checkpoint(path)
        for p in (loaded["params"], loaded["adam"].m, loaded["adam"].v, loaded["ema"].shadow):
            assert_views_of_flat(p)

    def test_copy_is_independent(self):
        params = init_params(self.SPEC, np.random.default_rng(32))
        dup = params.copy()
        dup.weights[0][0, 0] += 1.0
        assert not np.shares_memory(dup.flat, params.flat)
        assert dup.flat[0] == params.flat[0] + 1.0

    def test_rejects_wrong_vector_size(self):
        with pytest.raises(ValueError):
            ModelParameters([(2, 3)], np.zeros(8))


@settings(max_examples=30, deadline=None)
@given(
    input_dim=st.integers(1, 4),
    output_dim=st.integers(1, 3),
    hidden=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_save_load_save_is_byte_identical(input_dim, output_dim, hidden, seed):
    spec = MlpSpec(input_dim=input_dim, output_dim=output_dim, hidden=tuple(hidden), time_embed_pairs=0)
    rng = np.random.default_rng(seed)
    params = init_params(spec, rng)
    size = params.flat.size
    params.flat[:] = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    state = init_adam(params)
    adam_update(params, ModelParameters(params.layer_dims, rng.standard_normal(size)), state)
    ema = replace(init_ema(params), decay=0.5)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
        save_checkpoint(first, spec, params, adam=state, ema=ema, meta={"seed": seed})
        loaded = load_checkpoint(first)
        save_checkpoint(
            second, loaded["spec"], loaded["params"], adam=loaded["adam"], ema=loaded["ema"],
            meta=loaded["meta"],
        )
        assert first.read_bytes() == second.read_bytes()


def reference_pass(params, u, targets):
    """Out-of-place forward/backward with the np.mean loss, as before the in-place pass.

    Returns (output, loss, per-layer weight gradients, per-layer bias gradients).
    """
    acts = [u]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = acts[-1] @ w + b
        acts.append(np.tanh(h) if i < last else h)
    diff = acts[-1] - targets
    loss = float(np.mean(diff**2))
    gw, gb = [None] * (last + 1), [None] * (last + 1)
    g = 2.0 * diff / diff.size
    for i in range(last, -1, -1):
        gw[i] = acts[i].T @ g
        gb[i] = g.sum(axis=0)
        if i > 0:
            g = g @ params.weights[i].T
            g = g * (1.0 - acts[i] ** 2)
    return acts[-1], loss, gw, gb


@settings(max_examples=60, deadline=None)
@given(
    input_dim=st.integers(1, 20),
    output_dim=st.integers(1, 4),
    hidden=st.lists(st.integers(1, 70), min_size=1, max_size=3),
    batch=st.integers(1, 40),
    log_scale=st.floats(-2.0, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_in_place_pass_matches_out_of_place_reference(input_dim, output_dim, hidden, batch, log_scale, seed):
    spec = MlpSpec(input_dim=input_dim, output_dim=output_dim, hidden=tuple(hidden), time_embed_pairs=0)
    rng = np.random.default_rng(seed)
    params = init_params(spec, rng)
    params.flat *= 10.0**log_scale  # from near-linear to saturated tanh layers
    u = rng.standard_normal((batch, input_dim))
    targets = rng.standard_normal((batch, output_dim))
    out, loss, gw, gb = reference_pass(params, u, targets)
    got_loss, grads = loss_and_gradients(params, u, targets)
    np.testing.assert_array_equal(apply_mlp(params, u), out)
    assert got_loss == loss
    for i in range(len(gw)):
        np.testing.assert_array_equal(grads.weights[i], gw[i])
        np.testing.assert_array_equal(grads.biases[i], gb[i])


class TestCheckpointArraysMatchSpec:
    @pytest.mark.parametrize("where", ["params", "adam.m", "adam.v", "ema.shadow"])
    @pytest.mark.parametrize(
        "damage",
        [
            lambda entries: entries[2].update(shape=[3, 4]),  # w1 is 4 x 3
            lambda entries: entries.pop(3),  # b1
            lambda entries: entries.append(dict(entries[2], name="w9")),
            lambda entries: entries[1]["data"].pop(),  # b0
            lambda entries: entries[3].update(name="w1"),  # b1 renamed
        ],
        ids=["reshaped", "missing", "extra", "short-data", "duplicate"],
    )
    def test_rejects_arrays_off_spec(self, tmp_path, where, damage):
        spec = MlpSpec(input_dim=2, output_dim=2, hidden=(4, 3), time_embed_pairs=0)
        params = init_params(spec, np.random.default_rng(33))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, spec, params, adam=init_adam(params), ema=init_ema(params))
        doc = json.loads(path.read_text())
        block = doc
        for key in where.split("."):
            block = block[key]
        damage(block)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{where} "):
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
        assert params.flat.size == 3 * 4 + 4 + 4 * 2 + 2
