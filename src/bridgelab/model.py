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
import os
from dataclasses import asdict, dataclass, fields
from functools import cache
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


class ModelParameters:
    """All layers' weights (in x out) and biases in one contiguous float64 vector.

    `flat` holds w0, b0, w1, b1, ... in the order of `layer_dims`, zeros when
    omitted; `weights[i]` and `biases[i]` are reshape views into it.  Whole-model
    updates run on `flat`, per-layer code reads the views.  Parameters,
    gradients, Adam moments, the EMA shadow and a checkpoint's stored vectors
    all share this layout.
    """

    def __init__(self, layer_dims: list[tuple[int, int]], flat: np.ndarray | None = None):
        self.layer_dims = layer_dims
        size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in layer_dims)
        self.flat = np.zeros(size) if flat is None else flat
        if self.flat.shape != (size,):
            raise ValueError(f"flat vector has shape {self.flat.shape}, layers need ({size},)")
        self.weights, self.biases = [], []
        offset = 0
        for fan_in, fan_out in layer_dims:
            end = offset + fan_in * fan_out
            self.weights.append(self.flat[offset:end].reshape(fan_in, fan_out))
            self.biases.append(self.flat[end : end + fan_out])
            offset = end + fan_out

    def copy(self) -> "ModelParameters":
        return ModelParameters(self.layer_dims, self.flat.copy())


def init_params(spec: MlpSpec, rng: np.random.Generator) -> ModelParameters:
    """Glorot-scaled normal weights, zero biases."""
    params = ModelParameters(spec.layer_dims)
    for w in params.weights:
        fan_in, fan_out = w.shape
        w[...] = np.sqrt(2.0 / (fan_in + fan_out)) * rng.standard_normal((fan_in, fan_out))
    return params


@cache
def _time_frequencies(pairs: int) -> np.ndarray:
    """The `pairs` geometrically spaced embedding frequencies, read-only."""
    freqs = np.geomspace(TIME_FREQ_MIN, TIME_FREQ_MAX, pairs)
    freqs.setflags(write=False)
    return freqs


def time_embedding(t, pairs: int) -> np.ndarray:
    """Sine/cosine features of t at `pairs` geometrically spaced frequencies.

    Frequencies span [1, 1000]; the unit-frequency pair alone is injective
    on [0, 1], the fast pairs resolve fine time differences.
    """
    ang = np.asarray(t, dtype=float)[..., None] * _time_frequencies(pairs)
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


def assemble_inputs(spec: MlpSpec, x_t: np.ndarray, t, condition: np.ndarray) -> np.ndarray:
    """Concatenate [state; condition; time embedding] into the network input."""
    x_t = np.asarray(x_t, dtype=float)
    condition = np.asarray(condition, dtype=float)
    if x_t.ndim != 2 or condition.ndim != 2 or x_t.shape[0] != condition.shape[0]:
        raise ValueError(f"batch mismatch: state {x_t.shape} vs condition {condition.shape}")
    pairs = spec.time_embed_pairs  # a shared scalar t is embedded once, then broadcast over the rows
    emb = np.broadcast_to(time_embedding(t, pairs), (x_t.shape[0], 2 * pairs))
    u = np.concatenate([x_t, condition, emb], axis=1)
    if u.shape[1] != spec.input_dim:
        raise ValueError(f"assembled width {u.shape[1]} != spec input_dim {spec.input_dim}")
    return u


def _activations(params: ModelParameters, u: np.ndarray) -> list[np.ndarray]:
    """Input followed by every layer's output: tanh hidden layers, linear head."""
    acts = [u]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = acts[-1] @ w
        h += b
        if i < last:
            np.tanh(h, out=h)
        acts.append(h)
    return acts


def apply_mlp(params: ModelParameters, inputs: np.ndarray) -> np.ndarray:
    """Plain forward pass on a batch of pre-assembled inputs (B, input_dim)."""
    u = np.asarray(inputs, dtype=float)
    if u.ndim != 2:
        raise ValueError(f"inputs must be a (B, input_dim) batch, got shape {u.shape}")
    return _activations(params, u)[-1]


def forward(params: ModelParameters, spec: MlpSpec, x_t: np.ndarray, t, condition: np.ndarray) -> np.ndarray:
    """Bridge-model forward pass on a batch: assemble (state, condition, time) and apply.

    x_t and condition are (B, d); t is a scalar or (B,).
    """
    u = assemble_inputs(spec, x_t, t, condition)
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite network input")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return apply_mlp(params, u)


def loss_and_gradients(
    params: ModelParameters,
    inputs: np.ndarray,
    targets: np.ndarray,
    out: ModelParameters | None = None,
) -> tuple[float, ModelParameters]:
    """Mean squared error over the batch and its exact reverse-mode gradients.

    loss = mean over batch elements and coordinates of (output - target)^2.
    The gradients are written into `out` when given (a training loop passes
    one buffer for all its steps) and into a fresh vector otherwise.
    """
    u = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if u.ndim != 2 or u.shape[0] != targets.shape[0] or u.shape[0] == 0:
        raise ValueError(f"batch mismatch or empty: inputs {u.shape}, targets {targets.shape}")

    acts = _activations(params, u)
    pred = acts[-1]
    if pred.shape != targets.shape:
        raise ValueError(f"output shape {pred.shape} != target shape {targets.shape}")

    diff = pred - targets
    with np.errstate(over="ignore"):  # overflow becomes inf, caught below
        # the sum and division that np.mean performs, without its dispatch
        loss = float(np.add.reduce(np.square(diff), axis=None) / diff.size)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss")

    # backward, each layer's gradient written into its views of one vector
    grads = ModelParameters(params.layer_dims, np.empty_like(params.flat)) if out is None else out
    g = 2.0 * diff / diff.size
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(acts[i].T, g, out=grads.weights[i])
        g.sum(axis=0, out=grads.biases[i])
        if i > 0:
            g = g @ params.weights[i].T
            g *= 1.0 - acts[i] ** 2  # tanh'(z) = 1 - tanh(z)^2
    return loss, grads


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


def init_adam(params: ModelParameters) -> AdamState:
    return AdamState(m=ModelParameters(params.layer_dims), v=ModelParameters(params.layer_dims))


def adam_update(params: ModelParameters, grads: ModelParameters, state: AdamState) -> None:
    """Bias-corrected Adam step, applied in place to the whole vector."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    g, m, v = grads.flat, state.m.flat, state.v.flat
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g**2
    params.flat -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.eps_hat)


@dataclass
class EmaState:
    """Exponential moving average shadow of the live parameters."""

    shadow: ModelParameters
    decay: float = 0.999


def init_ema(params: ModelParameters) -> EmaState:
    return EmaState(shadow=params.copy())


def ema_update(ema: EmaState, params: ModelParameters) -> None:
    """shadow <- decay * shadow + (1 - decay) * params, in place."""
    d = ema.decay
    ema.shadow.flat *= d
    ema.shadow.flat += (1.0 - d) * params.flat


# ---------------------------------------------------------------------------
# checkpoint io

CHECKPOINT_FORMAT = "bridgelab-checkpoint.v2"


def _vector_from_list(data, spec: MlpSpec, where: str) -> ModelParameters:
    """A stored flat vector: a JSON list of numbers, as many as the spec has parameters."""
    try:
        flat = np.array(data)
    except ValueError:  # a ragged nesting of lists
        flat = None
    # numpy would read a JSON boolean among numbers as 0.0 or 1.0
    if flat is None or flat.ndim != 1 or flat.dtype.kind not in "fi" or bool in map(type, data):
        raise ValueError(f"{where} must be a flat list of numbers")
    try:
        return ModelParameters(spec.layer_dims, flat.astype(float))
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from None


def write_text_atomic(path: Path, text: str) -> None:
    """Write `text` to `path` through a sibling temp file and `os.replace`.

    Readers see either the old file or the complete new one; when the write
    or the replace fails the old file is left as it was and the temp file
    is removed.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(
    path: str | Path,
    spec: MlpSpec,
    params: ModelParameters,
    adam: AdamState | None = None,
    ema: EmaState | None = None,
    seed_lineage: dict | None = None,
    meta: dict | None = None,
) -> None:
    """Write a checkpoint; `adam` and `ema` are stored only when given."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "spec": asdict(spec),
        "params": params.flat.tolist(),
        "seed_lineage": seed_lineage or {},
        "meta": meta or {},
    }
    if adam is not None:
        doc["adam"] = {**vars(adam), "m": adam.m.flat.tolist(), "v": adam.v.flat.tolist()}
    if ema is not None:
        doc["ema"] = {**vars(ema), "shadow": ema.shadow.flat.tolist()}
    write_text_atomic(Path(path), json.dumps(doc, sort_keys=True) + "\n")


def _spec_from_dict(entry: dict) -> MlpSpec:
    """The spec a checkpoint stores; every field present, counts as JSON integers."""
    keys = {f.name for f in fields(MlpSpec)}
    if set(entry) != keys:  # MlpSpec's defaults must not stand in for a missing key
        raise ValueError(f"spec has keys {sorted(entry)}, expected {sorted(keys)}")
    hidden = entry["hidden"]
    counts = [entry["input_dim"], entry["output_dim"], entry["time_embed_pairs"]]
    if not isinstance(hidden, list) or any(type(n) is not int for n in counts + hidden):
        # a float that equals the config's count would pass the spec comparison, then fail in use
        raise ValueError("spec counts must be integers")
    return MlpSpec(**entry)


def load_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint back; inverse of save_checkpoint, bit-exact."""
    doc = json.loads(Path(path).read_text())
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise ValueError(f"format {found!r} is not {CHECKPOINT_FORMAT}; re-run train to write one")
    unknown = sorted(set(doc) - {"format", "spec", "params", "seed_lineage", "meta", "adam", "ema"})
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    spec = _spec_from_dict(doc["spec"])
    out = {
        "spec": spec,
        "params": _vector_from_list(doc["params"], spec, "params"),
        "adam": None,
        "ema": None,
        "seed_lineage": doc.get("seed_lineage", {}),
        "meta": doc.get("meta", {}),
    }
    for key in ("seed_lineage", "meta"):
        if not isinstance(out[key], dict):
            raise ValueError(f"{key} must be an object, got {type(out[key]).__name__}")
    if "adam" in doc:
        a = doc["adam"]
        out["adam"] = AdamState(
            m=_vector_from_list(a["m"], spec, "adam.m"),
            v=_vector_from_list(a["v"], spec, "adam.v"),
            step=a["step"],
            learning_rate=a["learning_rate"],
            beta1=a["beta1"],
            beta2=a["beta2"],
            eps_hat=a["eps_hat"],
        )
    if "ema" in doc:
        e = doc["ema"]
        out["ema"] = EmaState(shadow=_vector_from_list(e["shadow"], spec, "ema.shadow"), decay=e["decay"])
    return out
