"""Small fully-connected networks with hand-rolled reverse-mode gradients.

The layer vocabulary is deliberately tiny (affine layers with tanh hidden
activations and a linear output head), so the exact gradients are a page of
code and directly testable against finite differences.  The same machinery
backs both the bridge model (inputs: state, condition, time embedding) and
the plain predictor (inputs: measurement only).

Checkpoints are JSON documents; Python float repr round-trips binary64
exactly, so save/load is bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_HIDDEN = (128, 128)
DEFAULT_TIME_EMBED_PAIRS = 8
TIME_FREQ_MIN = 1.0
TIME_FREQ_MAX = 1000.0


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of one network.

    input_dim counts the fully assembled input width; for a bridge model
    that is state dim + condition dim + 2 * time_embed_pairs, for a plain
    predictor just the measurement dim (time_embed_pairs = 0).
    """

    input_dim: int
    output_dim: int
    hidden: tuple[int, ...] = DEFAULT_HIDDEN
    activation: str = "tanh"
    time_embed_pairs: int = DEFAULT_TIME_EMBED_PAIRS

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be positive")
        if len(self.hidden) < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("need at least one positive hidden width")
        if self.activation != "tanh":
            raise ValueError(f"unsupported activation {self.activation!r}")
        if self.time_embed_pairs < 0:
            raise ValueError("time_embed_pairs must be >= 0")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden, self.output_dim]
        return list(zip(dims[:-1], dims[1:]))


def bridge_model_spec(
    dim: int,
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
    time_embed_pairs: int = DEFAULT_TIME_EMBED_PAIRS,
) -> MlpSpec:
    """Spec for a bridge model on a task of dimension `dim`."""
    return MlpSpec(
        input_dim=2 * dim + 2 * time_embed_pairs,
        output_dim=dim,
        hidden=hidden,
        time_embed_pairs=time_embed_pairs,
    )


def predictor_spec(dim: int, hidden: tuple[int, ...] = DEFAULT_HIDDEN) -> MlpSpec:
    """Spec for a measurement-to-clean predictor on dimension `dim`."""
    return MlpSpec(input_dim=dim, output_dim=dim, hidden=hidden, time_embed_pairs=0)


@dataclass
class ModelParameters:
    """Per-layer weight matrices (in x out) and bias vectors, in order."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "ModelParameters":
        return ModelParameters(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def arrays(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def count(self) -> int:
        return sum(a.size for a in self.arrays())


def init_params(spec: MlpSpec, rng: np.random.Generator) -> ModelParameters:
    """Glorot-scaled normal weights, zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in spec.layer_dims:
        std = np.sqrt(2.0 / (fan_in + fan_out))
        weights.append(std * rng.standard_normal((fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParameters(weights=weights, biases=biases)


def time_embedding(t, pairs: int = DEFAULT_TIME_EMBED_PAIRS) -> np.ndarray:
    """Sine/cosine features of t at `pairs` geometrically spaced frequencies.

    Frequencies span [1, 1000]; the unit-frequency pair alone is injective
    on [0, 1], the fast pairs resolve fine time differences.
    """
    t = np.asarray(t, dtype=float)
    if pairs == 0:
        return np.zeros(t.shape + (0,))
    freqs = np.geomspace(TIME_FREQ_MIN, TIME_FREQ_MAX, pairs)
    ang = t[..., None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


def assemble_inputs(spec: MlpSpec, x_t: np.ndarray, t, condition: np.ndarray) -> np.ndarray:
    """Concatenate [state; condition; time embedding] into the network input."""
    x_t = np.atleast_2d(np.asarray(x_t, dtype=float))
    condition = np.atleast_2d(np.asarray(condition, dtype=float))
    if x_t.shape[0] != condition.shape[0]:
        raise ValueError(f"batch mismatch: state {x_t.shape} vs condition {condition.shape}")
    t_arr = np.broadcast_to(np.asarray(t, dtype=float), (x_t.shape[0],))
    emb = time_embedding(t_arr, spec.time_embed_pairs)
    u = np.concatenate([x_t, condition, emb], axis=1)
    if u.shape[1] != spec.input_dim:
        raise ValueError(f"assembled width {u.shape[1]} != spec input_dim {spec.input_dim}")
    return u


def apply_mlp(params: ModelParameters, inputs: np.ndarray) -> np.ndarray:
    """Plain forward pass on pre-assembled inputs (B, input_dim) or (input_dim,)."""
    u = np.asarray(inputs, dtype=float)
    single = u.ndim == 1
    h = np.atleast_2d(u)
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i < last:
            h = np.tanh(h)
    return h[0] if single else h


def forward(params: ModelParameters, spec: MlpSpec, x_t: np.ndarray, t, condition: np.ndarray) -> np.ndarray:
    """Bridge-model forward pass: assemble (state, condition, time) and apply.

    Accepts a single state (d,) or a batch (B, d); t may be scalar or (B,).
    """
    x_t = np.asarray(x_t, dtype=float)
    single = x_t.ndim == 1
    u = assemble_inputs(spec, x_t, t, condition)
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite network input")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    out = apply_mlp(params, u)
    return out[0] if single else out


def loss_and_gradients(
    params: ModelParameters, inputs: np.ndarray, targets: np.ndarray
) -> tuple[float, ModelParameters]:
    """Mean squared error over the batch and its exact reverse-mode gradients.

    loss = mean over batch elements and coordinates of (out - target)^2.
    """
    u = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if u.shape[0] != targets.shape[0] or u.shape[0] == 0:
        raise ValueError(f"batch mismatch or empty: inputs {u.shape}, targets {targets.shape}")

    # forward with caches
    last = len(params.weights) - 1
    acts = [u]
    h = u
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i < last:
            h = np.tanh(h)
        acts.append(h)
    out = acts[-1]
    if out.shape != targets.shape:
        raise ValueError(f"output shape {out.shape} != target shape {targets.shape}")

    diff = out - targets
    with np.errstate(over="ignore"):  # overflow becomes inf, caught below
        loss = float(np.mean(diff**2))
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss")

    # backward
    g = 2.0 * diff / diff.size
    grad_w = [np.empty(0)] * len(params.weights)
    grad_b = [np.empty(0)] * len(params.biases)
    for i in range(last, -1, -1):
        h_in = acts[i]
        grad_w[i] = h_in.T @ g
        grad_b[i] = g.sum(axis=0)
        if i > 0:
            g = g @ params.weights[i].T
            g = g * (1.0 - acts[i] ** 2)  # tanh'(z) = 1 - tanh(z)^2
    return loss, ModelParameters(weights=grad_w, biases=grad_b)


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    m: ModelParameters
    v: ModelParameters
    step: int = 0
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8


def init_adam(params: ModelParameters, learning_rate: float = 1e-4) -> AdamState:
    zeros = lambda: ModelParameters(
        weights=[np.zeros_like(w) for w in params.weights],
        biases=[np.zeros_like(b) for b in params.biases],
    )
    return AdamState(m=zeros(), v=zeros(), learning_rate=learning_rate)


def adam_update(
    params: ModelParameters, grads: ModelParameters, state: AdamState
) -> tuple[ModelParameters, AdamState]:
    """Bias-corrected Adam step, applied in place."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for p, g, m, v in zip(
        params.arrays(), grads.arrays(), state.m.arrays(), state.v.arrays()
    ):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g**2
        p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.eps_hat)
    return params, state


@dataclass
class EmaState:
    """Exponential moving average shadow of the live parameters."""

    shadow: ModelParameters
    decay: float = 0.999


def init_ema(params: ModelParameters, decay: float = 0.999) -> EmaState:
    return EmaState(shadow=params.copy(), decay=decay)


def ema_update(ema: EmaState, params: ModelParameters) -> EmaState:
    """shadow <- decay * shadow + (1 - decay) * params, in place."""
    d = ema.decay
    for s, p in zip(ema.shadow.arrays(), params.arrays()):
        s *= d
        s += (1.0 - d) * p
    return ema


# ---------------------------------------------------------------------------
# checkpoint io

CHECKPOINT_FORMAT = "bridgelab-checkpoint.v1"


def _spec_to_dict(spec: MlpSpec) -> dict:
    return {
        "input_dim": spec.input_dim,
        "output_dim": spec.output_dim,
        "hidden": list(spec.hidden),
        "activation": spec.activation,
        "time_embed_pairs": spec.time_embed_pairs,
    }


def _spec_from_dict(d: dict) -> MlpSpec:
    return MlpSpec(
        input_dim=d["input_dim"],
        output_dim=d["output_dim"],
        hidden=tuple(d["hidden"]),
        activation=d["activation"],
        time_embed_pairs=d["time_embed_pairs"],
    )


def _params_to_list(params: ModelParameters) -> list[dict]:
    out = []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        out.append({"name": f"w{i}", "shape": list(w.shape), "data": w.ravel().tolist()})
        out.append({"name": f"b{i}", "shape": list(b.shape), "data": b.ravel().tolist()})
    return out


def _params_from_list(entries: list[dict]) -> ModelParameters:
    arrays = {
        e["name"]: np.asarray(e["data"], dtype=float).reshape(e["shape"]) for e in entries
    }
    n_layers = len(arrays) // 2
    return ModelParameters(
        weights=[arrays[f"w{i}"] for i in range(n_layers)],
        biases=[arrays[f"b{i}"] for i in range(n_layers)],
    )


def save_checkpoint(
    path: str | Path,
    spec: MlpSpec,
    params: ModelParameters,
    adam: AdamState | None = None,
    ema: EmaState | None = None,
    seed_lineage: dict | None = None,
    meta: dict | None = None,
) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "spec": _spec_to_dict(spec),
        "params": _params_to_list(params),
        "adam": None,
        "ema": None,
        "seed_lineage": seed_lineage or {},
        "meta": meta or {},
    }
    if adam is not None:
        doc["adam"] = {
            "step": adam.step,
            "learning_rate": adam.learning_rate,
            "beta1": adam.beta1,
            "beta2": adam.beta2,
            "eps_hat": adam.eps_hat,
            "m": _params_to_list(adam.m),
            "v": _params_to_list(adam.v),
        }
    if ema is not None:
        doc["ema"] = {"decay": ema.decay, "shadow": _params_to_list(ema.shadow)}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint back; inverse of save_checkpoint, bit-exact."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a recognised checkpoint: {path}")
    out = {
        "spec": _spec_from_dict(doc["spec"]),
        "params": _params_from_list(doc["params"]),
        "adam": None,
        "ema": None,
        "seed_lineage": doc.get("seed_lineage", {}),
        "meta": doc.get("meta", {}),
    }
    if doc.get("adam"):
        a = doc["adam"]
        state = AdamState(
            m=_params_from_list(a["m"]),
            v=_params_from_list(a["v"]),
            step=a["step"],
            learning_rate=a["learning_rate"],
            beta1=a["beta1"],
            beta2=a["beta2"],
            eps_hat=a["eps_hat"],
        )
        out["adam"] = state
    if doc.get("ema"):
        out["ema"] = EmaState(shadow=_params_from_list(doc["ema"]["shadow"]), decay=doc["ema"]["decay"])
    return out
