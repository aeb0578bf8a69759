"""Experiment configuration: one JSON document fully determines a run.

Unknown keys anywhere in the document are errors, not warnings; silently
ignored options are how experiments go wrong.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .model import DEFAULT_HIDDEN, DEFAULT_TIME_EMBED_PAIRS
from .sampler import SamplerConfig, SamplerKind
from .schedule import NoiseSchedule
from .tasks import LinearGaussianTask, MixtureTask, Task
from .training import ConditioningStrategy, TrainConfig, TrainingStrategy


class ConfigError(ValueError):
    """Invalid or unreadable experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    task: Task
    schedule: NoiseSchedule
    model_hidden: tuple[int, ...]
    time_embed_pairs: int
    train: TrainConfig
    sampler: SamplerConfig
    out_dir: str
    seeds: tuple[int, ...]


def _require_keys(block: dict, allowed: set[str], where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _integer(value, name: str) -> int:
    """A count from the document; JSON booleans and non-integral numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _real(value, name: str) -> float:
    """A real parameter from the document; JSON booleans and non-finite numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def _parse_task(block: dict) -> Task:
    kind = block.get("kind")
    if kind == "mixture":
        _require_keys(block, {"kind", "centers", "weights", "s2", "noise_var", "dim"}, "task")
        return MixtureTask(
            centers=tuple(_real(c, "each of task.centers") for c in block.get("centers", (-1.0, 1.0))),
            weights=tuple(_real(w, "each of task.weights") for w in block.get("weights", (0.5, 0.5))),
            s2=_real(block.get("s2", 0.01), "task.s2"),
            noise_var=_real(block.get("noise_var", 0.25), "task.noise_var"),
            dim=_integer(block.get("dim", 1), "task.dim"),
        )
    if kind == "linear_gaussian":
        _require_keys(block, {"kind", "dim", "prior_var", "noise_var"}, "task")
        return LinearGaussianTask.identity(
            dim=_integer(block.get("dim", 1), "task.dim"),
            prior_var=_real(block.get("prior_var", 1.0), "task.prior_var"),
            noise_var=_real(block.get("noise_var", 1.0), "task.noise_var"),
        )
    raise ConfigError(f"task.kind must be 'mixture' or 'linear_gaussian', got {kind!r}")


def _parse_schedule(block: dict) -> NoiseSchedule:
    _require_keys(block, {"c", "k", "t_eps"}, "schedule")
    return NoiseSchedule(
        c=_real(block.get("c", 0.40), "schedule.c"),
        k=_real(block.get("k", 2.6), "schedule.k"),
        t_eps=_real(block.get("t_eps", 1e-4), "schedule.t_eps"),
    )


def _parse_train(block: dict) -> TrainConfig:
    _require_keys(
        block,
        {
            "epochs",
            "steps_per_epoch",
            "batch_size",
            "strategy",
            "conditioning",
            "patience",
            "validation_size",
        },
        "train",
    )
    try:
        strategy = TrainingStrategy(block.get("strategy", "Vanilla"))
        conditioning = ConditioningStrategy(block.get("conditioning", "M1"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return TrainConfig(
        epochs=_integer(block.get("epochs", 30), "train.epochs"),
        steps_per_epoch=_integer(block.get("steps_per_epoch", 400), "train.steps_per_epoch"),
        batch_size=_integer(block.get("batch_size", 16), "train.batch_size"),
        strategy=strategy,
        conditioning=conditioning,
        patience=_integer(block.get("patience", 20), "train.patience"),
        validation_size=_integer(block.get("validation_size", 50), "train.validation_size"),
    )


def _parse_sampler(block: dict) -> SamplerConfig:
    _require_keys(block, {"n_steps", "kind", "t_min", "grid"}, "sampler")
    try:
        kind = SamplerKind(block.get("kind", "SDE"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    t_min = block.get("t_min")
    return SamplerConfig(
        n_steps=_integer(block.get("n_steps", 50), "sampler.n_steps"),
        kind=kind,
        t_min=None if t_min is None else _real(t_min, "sampler.t_min"),
        grid=block.get("grid", "uniform"),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(
        doc, {"task", "schedule", "model", "train", "sampler", "out_dir", "seeds"}, "config"
    )
    for block in ("task", "out_dir", "seeds"):
        if block not in doc:
            raise ConfigError(f"config is missing required key {block!r}")
    for block in ("task", "schedule", "model", "train", "sampler"):
        if not isinstance(doc.get(block, {}), dict):
            raise ConfigError(f"{block} must be a JSON object")

    model_block = doc.get("model", {})
    _require_keys(model_block, {"hidden", "time_embed_pairs"}, "model")
    seeds = doc["seeds"]
    hidden = model_block.get("hidden", list(DEFAULT_HIDDEN))
    for name, values in (("seeds", seeds), ("model.hidden", hidden)):
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{name} must be a nonempty list of integers")
        for value in values:
            _integer(value, f"each entry of {name}")

    try:
        return ExperimentConfig(
            task=_parse_task(doc["task"]),
            schedule=_parse_schedule(doc.get("schedule", {})),
            model_hidden=tuple(hidden),
            time_embed_pairs=_integer(
                model_block.get("time_embed_pairs", DEFAULT_TIME_EMBED_PAIRS), "model.time_embed_pairs"
            ),
            train=_parse_train(doc.get("train", {})),
            sampler=_parse_sampler(doc.get("sampler", {})),
            out_dir=doc["out_dir"],
            seeds=tuple(seeds),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
