"""Experiment configuration: one JSON document fully determines a run.

Unknown keys anywhere in the document are errors, not warnings; silently
ignored options are how experiments go wrong.  Each block is a table from
key to value parser that feeds the constructor it builds, so a missing key
takes that constructor's own default and no default is repeated here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .model import MlpSpec, bridge_model_spec, predictor_spec
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
    bridge_spec: MlpSpec
    predictor_spec: MlpSpec
    train: TrainConfig
    sampler: SamplerConfig
    out_dir: str
    seeds: tuple[int, ...]


def _require_keys(block: dict, allowed, where: str) -> None:
    unknown = set(block) - set(allowed)
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


def _seed(value, name: str) -> int:
    if _integer(value, name) < 0:
        raise ConfigError(f"{name} must be non-negative, got {value}")
    return value


def _directory(value, name: str) -> str:
    """An output directory.  The empty string would silently mean the working
    directory, and an existing file would fail only at the first write, after the work."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a nonempty string, got {value!r}")
    if Path(value).exists() and not Path(value).is_dir():
        raise ConfigError(f"{name} names an existing file, not a directory: {value!r}")
    return value


def _list_of(each):
    """Parser of a nonempty JSON list whose entries `each` parses."""

    def parse(values, name: str) -> tuple:
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{name} must be a nonempty list, got {values!r}")
        return tuple(each(value, f"each entry of {name}") for value in values)

    return parse


def _member(enum):
    """Parser of an enumeration value, named by its string."""

    def parse(value, name: str):
        try:
            return enum(value)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    return parse


_TASKS = {
    "mixture": (MixtureTask, {
        "centers": _list_of(_real), "weights": _list_of(_real), "s2": _real, "noise_var": _real, "dim": _integer,
    }),
    "linear_gaussian": (LinearGaussianTask.identity, {"dim": _integer, "prior_var": _real, "noise_var": _real}),
}
_SCHEDULE = {"c": _real, "k": _real, "t_eps": _real}
_MODEL = {"hidden": _list_of(_integer), "time_embed_pairs": _integer}
_TRAIN = {
    "epochs": _integer,
    "steps_per_epoch": _integer,
    "batch_size": _integer,
    "strategy": _member(TrainingStrategy),
    "conditioning": _member(ConditioningStrategy),
    "patience": _integer,
    "validation_size": _integer,
}
_SAMPLER = {"n_steps": _integer, "kind": _member(SamplerKind)}


def _build(make, table: dict, block: dict, where: str):
    """`make` called with each key of `block` parsed by its entry in `table`."""
    _require_keys(block, table, where)
    return make(**{key: table[key](value, f"{where}.{key}") for key, value in block.items()})


def _parse_task(block: dict) -> Task:
    kind = block.get("kind")
    if not isinstance(kind, str) or kind not in _TASKS:
        raise ConfigError(f"task.kind must be 'mixture' or 'linear_gaussian', got {kind!r}")
    make, table = _TASKS[kind]
    return _build(make, table, {key: value for key, value in block.items() if key != "kind"}, "task")


def _parse_sampler(block: dict) -> SamplerConfig:
    # the time grid is always uniform; the key stays accepted because configs name it
    if block.get("grid", "uniform") != "uniform":
        raise ConfigError(f"sampler.grid must be 'uniform', got {block['grid']!r}")
    return _build(SamplerConfig, _SAMPLER, {key: value for key, value in block.items() if key != "grid"}, "sampler")


def _read_document(path: Path) -> dict:
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting deeper than the parser's stack
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def load_config(path: str | Path, out: str | None = None, seed: int | None = None) -> ExperimentConfig:
    """The run settings of the document at `path`.

    `out` and `seed` stand for the CLI's `--out` and `--seed`: given, they
    replace `out_dir` and `seeds` after passing the same checks, and the
    document's own values must still be valid.
    """
    doc = _read_document(Path(path))
    _require_keys(doc, {"task", "schedule", "model", "train", "sampler", "out_dir", "seeds"}, "config")
    for block in ("task", "out_dir", "seeds"):
        if block not in doc:
            raise ConfigError(f"config is missing required key {block!r}")
    for block in ("task", "schedule", "model", "train", "sampler"):
        if not isinstance(doc.get(block, {}), dict):
            raise ConfigError(f"{block} must be a JSON object")

    seeds = _list_of(_seed)(doc["seeds"], "seeds")
    out_dir = _directory(doc["out_dir"], "out_dir")
    if seed is not None:
        seeds = (_seed(seed, "--seed"),)
    if out is not None:
        out_dir = _directory(out, "--out")
    try:
        task = _parse_task(doc["task"])
        bridge_spec = _build(partial(bridge_model_spec, task.dim), _MODEL, doc.get("model", {}), "model")
        return ExperimentConfig(
            task=task,
            schedule=_build(NoiseSchedule, _SCHEDULE, doc.get("schedule", {}), "schedule"),
            bridge_spec=bridge_spec,
            predictor_spec=predictor_spec(task.dim, bridge_spec.hidden),
            train=_build(TrainConfig, _TRAIN, doc.get("train", {}), "train"),
            sampler=_parse_sampler(doc.get("sampler", {})),
            out_dir=out_dir,
            seeds=seeds,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
