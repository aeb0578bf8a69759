"""Span tracing of bridgelab's public functions, as each calling module sees them.

A `Tracer` replaces a function by a wrapper under the name that its caller
looks up at call time: `bridgelab.training.adam_update` is the Adam step that
the training loop calls, `bridgelab.model.assemble_inputs` the one that
`forward` calls.  Each wrapped call opens a span whose parent is the span open
when it started.  Finished spans are folded into per-(parent, name) edges that
hold the call count, total time and self time (total minus the time covered by
child spans), plus counters computed from the call's arguments.  The edges of
one round are taken with `take_round()`; `per_layer()` turns them into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from bridgelab import cli, metrics, model, sampler, tasks, training


def _rows(args, kwargs, result):
    x_t = np.asarray(args[2] if len(args) > 2 else kwargs["x_t"])
    return {"rows": 1 if x_t.ndim == 1 else x_t.shape[0]}


def _pairs(args, kwargs, result):
    n_a = np.atleast_2d(args[0]).shape[0]
    n_b = np.atleast_2d(args[1]).shape[0]
    return {"pairs": n_a * n_b + n_a * n_a + n_b * n_b}


def _file_bytes(args, kwargs, result):
    return {"bytes": Path(args[0] if args else kwargs["path"]).stat().st_size}


# (owner, attribute, span name, counter); the owner is the module or class in
# which the caller looks the attribute up.
TRAINING_TARGETS = [
    (cli, "train_predictor", "training.train_predictor", None),
    (cli, "train", "training.train", None),
]

ALL_TARGETS = TRAINING_TARGETS + [
    (cli, "load_config", "config.load_config", None),
    (cli, "write_csv", "cli.write_csv", _file_bytes),
    (cli, "evaluate_bridge", "cli.evaluate_bridge", None),
    (cli, "train_predictor_for_seed", "cli.unit.train_predictor", None),
    (cli, "train_bridge_for_seed", "cli.unit.train_bridge", None),
    (cli, "evaluate_checkpoint_file", "cli.unit.evaluate", None),
    (cli, "save_checkpoint", "model.save_checkpoint", _file_bytes),
    (cli, "load_checkpoint", "model.load_checkpoint", None),
    (cli, "apply_mlp", "model.apply_mlp", None),
    (cli, "sample_trajectory_batch", "sampler.sample_trajectory_batch", None),
    (cli, "perception_distance", "metrics.perception_distance", None),
    (cli, "si_sdr", "metrics.si_sdr", None),
    (training, "loss_and_gradients", "model.loss_and_gradients", None),
    (training, "adam_update", "model.adam_update", None),
    (training, "ema_update", "model.ema_update", None),
    (training, "assemble_inputs", "model.assemble_inputs", None),
    (training, "apply_mlp", "model.apply_mlp", None),
    (training, "forward", "model.forward", _rows),
    (training, "sample_trajectory_batch", "sampler.sample_trajectory_batch", None),
    (training, "perception_distance", "metrics.perception_distance", None),
    (model, "assemble_inputs", "model.assemble_inputs", None),
    (model, "apply_mlp", "model.apply_mlp", None),
    (model, "time_embedding", "model.time_embedding", None),
    (sampler, "sde_step", "sampler.sde_step", None),
    (sampler, "ode_step", "sampler.ode_step", None),
    (metrics, "energy_distance", "metrics.energy_distance", _pairs),
    (metrics, "gaussian_w2", "metrics.gaussian_w2", None),
] + [
    (task_cls, method, f"tasks.{method}", None)
    for task_cls in (tasks.MixtureTask, tasks.LinearGaussianTask)
    for method in ("sample_pairs", "posterior_mean", "clean_sampler")
]


class Edge:
    """Accumulated spans of one (parent, name) pair."""

    __slots__ = ("calls", "total", "self_time", "counters")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counters: dict[str, float] = {}


class Tracer:
    """Installs span wrappers for `targets` while used as a context manager."""

    def __init__(self, targets):
        self.targets = targets
        self.edges: dict[tuple[str | None, str], Edge] = {}
        self._stack: list[list] = []  # open spans: [name, time covered by children]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                key = (parent[0] if parent is not None else None, name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = Edge()
                edge.calls += 1
                edge.total += elapsed
                edge.self_time += elapsed - frame[1]
            if counter is not None:
                for k, v in counter(args, kwargs, result).items():
                    edge.counters[k] = edge.counters.get(k, 0) + v
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        for owner, attr, name, counter in self.targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def take_round(self) -> dict[tuple[str | None, str], Edge]:
        """Edges recorded since the last call; starts a fresh set."""
        edges = dict(self.edges)
        self.edges.clear()
        return edges


def _sum(edges, name, field="total", parent=None):
    """Sum of one field (an Edge slot or a counter) over the edges into `name`."""
    out = 0.0
    for (p, n), e in edges.items():
        if n == name and (parent is None or p == parent):
            out += getattr(e, field) if field in Edge.__slots__ else e.counters.get(field, 0)
    return out


def training_seconds(edges) -> float:
    """Time spent inside train_predictor and train, validation included."""
    return _sum(edges, "training.train_predictor") + _sum(edges, "training.train")


def training_calls(edges) -> int:
    return int(_sum(edges, "training.train_predictor", "calls") + _sum(edges, "training.train", "calls"))


# name in BENCHMARK.json -> (unit, function of one round's edges)
PER_LAYER = {
    "model.loss_and_gradients.s": ("s", lambda e: _sum(e, "model.loss_and_gradients")),
    "model.loss_and_gradients.calls": ("calls", lambda e: _sum(e, "model.loss_and_gradients", "calls")),
    "model.adam_update.s": ("s", lambda e: _sum(e, "model.adam_update")),
    "model.ema_update.s": ("s", lambda e: _sum(e, "model.ema_update")),
    "model.assemble_inputs.s": ("s", lambda e: _sum(e, "model.assemble_inputs")),
    "model.time_embedding.s": ("s", lambda e: _sum(e, "model.time_embedding")),
    "model.apply_mlp.s": ("s", lambda e: _sum(e, "model.apply_mlp")),
    "model.forward.s": ("s", lambda e: _sum(e, "model.forward")),
    "model.forward.rows": ("rows", lambda e: _sum(e, "model.forward", "rows")),
    "model.save_checkpoint.s": ("s", lambda e: _sum(e, "model.save_checkpoint")),
    "model.save_checkpoint.bytes": ("bytes", lambda e: _sum(e, "model.save_checkpoint", "bytes")),
    "model.load_checkpoint.s": ("s", lambda e: _sum(e, "model.load_checkpoint")),
    "tasks.sample_pairs.s": ("s", lambda e: _sum(e, "tasks.sample_pairs")),
    "tasks.sample_pairs.calls": ("calls", lambda e: _sum(e, "tasks.sample_pairs", "calls")),
    "tasks.posterior_mean.s": ("s", lambda e: _sum(e, "tasks.posterior_mean")),
    "tasks.clean_sampler.s": ("s", lambda e: _sum(e, "tasks.clean_sampler")),
    "sampler.sample_trajectory_batch.self_s": (
        "s", lambda e: _sum(e, "sampler.sample_trajectory_batch", "self_time")),
    "sampler.network_evals": (
        "calls", lambda e: _sum(e, "model.forward", "calls", parent="sampler.sample_trajectory_batch")),
    "sampler.network_rows": (
        "rows", lambda e: _sum(e, "model.forward", "rows", parent="sampler.sample_trajectory_batch")),
    "sampler.sde_step.s": ("s", lambda e: _sum(e, "sampler.sde_step")),
    "sampler.ode_step.s": ("s", lambda e: _sum(e, "sampler.ode_step")),
    "training.train.self_s": ("s", lambda e: _sum(e, "training.train", "self_time")),
    "training.train_predictor.self_s": ("s", lambda e: _sum(e, "training.train_predictor", "self_time")),
    "training.steps": ("steps", lambda e: _sum(e, "model.adam_update", "calls")),
    "training.validation.s": ("s", lambda e: (
        _sum(e, "sampler.sample_trajectory_batch", parent="training.train")
        + _sum(e, "metrics.perception_distance", parent="training.train"))),
    "metrics.perception_distance.s": ("s", lambda e: _sum(e, "metrics.perception_distance")),
    "metrics.perception_distance.calls": ("calls", lambda e: _sum(e, "metrics.perception_distance", "calls")),
    "metrics.energy_distance.s": ("s", lambda e: _sum(e, "metrics.energy_distance")),
    "metrics.energy_distance.pairs": ("pairs", lambda e: _sum(e, "metrics.energy_distance", "pairs")),
    "metrics.gaussian_w2.s": ("s", lambda e: _sum(e, "metrics.gaussian_w2")),
    "metrics.si_sdr.s": ("s", lambda e: _sum(e, "metrics.si_sdr")),
    "metrics.si_sdr.calls": ("calls", lambda e: _sum(e, "metrics.si_sdr", "calls")),
    "cli.evaluate_bridge.self_s": ("s", lambda e: _sum(e, "cli.evaluate_bridge", "self_time")),
    "cli.write_csv.s": ("s", lambda e: _sum(e, "cli.write_csv")),
    "cli.write_csv.bytes": ("bytes", lambda e: _sum(e, "cli.write_csv", "bytes")),
    "cli.units": ("units", lambda e: sum(
        _sum(e, n, "calls") for n in ("cli.unit.train_predictor", "cli.unit.train_bridge", "cli.unit.evaluate"))),
    "config.load_config.s": ("s", lambda e: _sum(e, "config.load_config")),
}


def per_layer(edges) -> dict[str, float]:
    return {name: float(fn(edges)) for name, (_, fn) in PER_LAYER.items()}


def merge(edges_list) -> dict[tuple[str | None, str], Edge]:
    """Sum of several rounds' edges."""
    out: dict[tuple[str | None, str], Edge] = {}
    for edges in edges_list:
        for key, edge in edges.items():
            acc = out.setdefault(key, Edge())
            acc.calls += edge.calls
            acc.total += edge.total
            acc.self_time += edge.self_time
            for k, v in edge.counters.items():
                acc.counters[k] = acc.counters.get(k, 0) + v
    return out


def edges_to_json(edges) -> list[dict]:
    return [
        {"parent": p, "name": n, "calls": e.calls, "total_s": e.total, "self_s": e.self_time, **e.counters}
        for (p, n), e in sorted(edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
    ]
