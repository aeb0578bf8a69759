"""Experiment CLI: train models and reproduce the figure/table-shaped CSVs.

Subcommands
    train          train the predictor and one bridge model per seed
    sweep-steps    distortion/perception versus sampling-step count
    exposure-bias  per-step prediction error along the sampling trajectory
    strategies     train and evaluate conditioning strategies M1..M4 and M5 (Joint, M1)
    ablation       train and evaluate perturbation strategies
    dump-dataset   write sampled (x, y, x_star) triples as CSV

Each bridge model is one unit of `UNITS`: a label for a (training strategy,
conditioning) pair.  The label names the model's files and CSV rows and is its
checkpoint's `meta.method`, which loading checks against the stored pair.
The units of one seed train from the same stream, so a seed that trains
several of them draws its training blocks once, into one `DrawRecord` that
the later units replay.

Every CSV starts with a '# generated: ...' timestamp line followed by a
header whose first field is the schema version; re-running a subcommand
with the same config and seed reproduces the body byte for byte (the one
exception is the wall_time_s column of training logs).  All randomness
derives from the per-run master seed through named sub-streams (predictor,
train, eval, sample, data), so any stage can be replayed in isolation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .metrics import EvalReport, ReferenceSet, moment_w2, mse, perception_distance, prediction_errors, si_sdr
from .model import ModelParameters, apply_mlp, load_checkpoint, save_checkpoint, write_text_atomic
from .sampler import sample_trajectory_batch
from .seeding import named_stream
from .training import (
    ConditioningStrategy,
    DivergenceError,
    DrawRecord,
    TrainingStrategy,
    W2_SELECTION_GUARD,
    inference_endpoints,
    make_bridge_predictor,
    train,
    train_predictor,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_CHECKPOINT = 4

EVAL_PAIRS = 512
EVAL_REFERENCE = 2048
DATASET_DUMP_ROWS = 1000

# Every bridge unit by label.  The strategies table reads M1-M5 (M5 is the
# paper's method: Joint perturbation with M1's routes) and the ablation table
# Vanilla, InputOnly and Joint.  `train` names a pair by its strategy under M1,
# by its route under Vanilla and `<strategy>-<route>` otherwise; that name is
# the pair's last label here.
UNITS: dict[str, tuple[TrainingStrategy, ConditioningStrategy]] = {
    **{c.value: (TrainingStrategy.VANILLA, c) for c in ConditioningStrategy},
    "M5": (TrainingStrategy.JOINT, ConditioningStrategy.M1),
    **{s.value: (s, ConditioningStrategy.M1) for s in TrainingStrategy},
    **{
        f"{s.value}-{c.value}": (s, c)
        for s in (TrainingStrategy.INPUT_ONLY, TrainingStrategy.JOINT)
        for c in ConditioningStrategy if c is not ConditioningStrategy.M1
    },
}


class CheckpointMismatchError(RuntimeError):
    """Checkpoint does not match the configured task/model, or its samples are not finite."""


# ---------------------------------------------------------------------------
# csv emission


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, schema: str, columns: list[str], rows: list[list]) -> None:
    lines = [f"# generated: {datetime.now(timezone.utc).isoformat()}"]
    lines.append(",".join([schema, *columns]))
    lines.extend(",".join(["row", *[_fmt(v) for v in row]]) for row in rows)
    write_text_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# training orchestration


def train_predictor_for_seed(cfg: ExperimentConfig, seed: int, seed_dir: Path) -> tuple[ModelParameters, Path]:
    params = train_predictor(cfg.task, cfg.predictor_spec, cfg.train, named_stream(seed, "predictor"))
    path = seed_dir / "predictor.json"
    save_checkpoint(
        path,
        cfg.predictor_spec,
        params,
        seed_lineage={"master_seed": seed, "stream": "predictor"},
        meta={"role": "predictor", "seed": seed, "task_dim": cfg.task.dim},
    )
    return params, path


def train_bridge_for_seed(
    cfg: ExperimentConfig,
    seed: int,
    label: str,
    predictor_params: ModelParameters,
    seed_dir: Path,
    record: DrawRecord | None,
) -> Path:
    strategy, conditioning = UNITS[label]
    train_cfg = replace(cfg.train, strategy=strategy, conditioning=conditioning)
    params, log, selected_epoch = train(
        cfg.task,
        cfg.bridge_spec,
        train_cfg,
        cfg.schedule,
        predictor_params,
        named_stream(seed, "train"),
        sampler=cfg.sampler,
        record=record,
    )
    path = seed_dir / f"model_{label}.json"
    save_checkpoint(
        path,
        cfg.bridge_spec,
        params,
        seed_lineage={"master_seed": seed, "stream": "train"},
        meta={
            "role": "bridge",
            "method": label,
            "strategy": strategy.value,
            "conditioning": conditioning.value,
            "seed": seed,
            "task_dim": cfg.task.dim,
            "predictor_file": "predictor.json",
            "selected_epoch": selected_epoch,
            "stopped_epoch": log[-1]["epoch"] if log else None,
            "selection_rule": (
                f"EMA snapshot with the lowest val_w2 among epochs whose val_mse <= {W2_SELECTION_GUARD}"
                " x the best val_mse so far"
            ),
        },
    )
    write_csv(
        seed_dir / f"training_log_{label}.csv",
        "train_log.v1",
        ["epoch", "train_loss", "val_mse", "val_w2", "is_ema", "wall_time_s"],
        [[r["epoch"], r["train_loss"], r["val_mse"], r["val_w2"], r["is_ema"], r["wall_time_s"]] for r in log],
    )
    return path


def train_units_for_seed(cfg: ExperimentConfig, seed: int, labels: list[str], command: str) -> list[Path]:
    """Train the seed's predictor, then the bridge unit of each label; the written
    checkpoints, predictor first.

    With several labels the units share one record of the seed's training
    blocks, dropped when this returns; a single unit keeps none.
    """
    seed_dir = Path(cfg.out_dir) / f"seed_{seed}"
    print(f"[{command}] seed {seed}: predictor")
    predictor_params, path = train_predictor_for_seed(cfg, seed, seed_dir)
    paths = [path]
    record = DrawRecord() if len(labels) > 1 else None
    for label in labels:
        print(f"[{command}] seed {seed}: training {label}")
        paths.append(train_bridge_for_seed(cfg, seed, label, predictor_params, seed_dir, record))
    return paths


# ---------------------------------------------------------------------------
# evaluation


def _read_checkpoint(path: Path) -> dict:
    """Load a checkpoint whose evaluated weights are all finite."""
    try:
        ckpt = load_checkpoint(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointMismatchError(f"unreadable checkpoint {path}: {exc}") from exc
    if not np.isfinite(ckpt["params"].flat).all():
        raise CheckpointMismatchError(f"checkpoint {path} has non-finite parameters")
    return ckpt


def _load_bridge(path: Path, cfg: ExperimentConfig) -> tuple[dict, object]:
    """(checkpoint, predictor function) of one bridge model file.

    The predictor function is None unless the strategy needs the sibling
    predictor at inference; then it is loaded and checked here as well.
    """
    path = Path(path)
    if not path.is_file():
        raise CheckpointMismatchError(f"checkpoint not found: {path}")
    ckpt = _read_checkpoint(path)
    if ckpt["spec"] != cfg.bridge_spec:
        raise CheckpointMismatchError(
            f"checkpoint {path} was trained with {ckpt['spec']}, config expects {cfg.bridge_spec}"
        )
    meta = ckpt["meta"]
    if meta.get("role") != "bridge":
        raise CheckpointMismatchError(f"checkpoint {path} is not a bridge model")
    stored = tuple(meta.get(key) for key in ("method", "strategy", "conditioning"))
    if not any(stored == (label, s.value, c.value) for label, (s, c) in UNITS.items()):
        raise CheckpointMismatchError(
            f"checkpoint {path}: meta (method, strategy, conditioning) {stored!r} names no bridge unit"
        )
    conditioning = UNITS[meta["method"]][1]
    if not conditioning.needs_predictor_at_inference:
        return ckpt, None
    name = meta.get("predictor_file", "predictor.json")
    if not isinstance(name, str):
        raise CheckpointMismatchError(f"checkpoint {path}: predictor_file must be a file name, got {name!r}")
    pred_path = path.parent / name
    if not pred_path.is_file():
        raise CheckpointMismatchError(
            f"{conditioning.value} needs the predictor checkpoint, missing: {pred_path}"
        )
    pred = _read_checkpoint(pred_path)
    if pred["spec"] != cfg.predictor_spec:
        raise CheckpointMismatchError(
            f"predictor {pred_path} was trained with {pred['spec']}, config expects {cfg.predictor_spec}"
        )
    return ckpt, lambda ys: apply_mlp(pred["params"], ys)


def make_eval_set(cfg: ExperimentConfig, eval_seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed evaluation pairs and clean reference set for one eval seed."""
    xs, ys, _ = cfg.task.sample_pairs(EVAL_PAIRS, named_stream(eval_seed, "eval"))
    reference = cfg.task.clean_sampler(EVAL_REFERENCE, named_stream(eval_seed, "eval", index=1))
    return xs, ys, reference


def _require_finite(where: str, **values) -> None:
    """Reject non-finite evaluation values before any CSV is written."""
    bad = [name for name, value in values.items() if not np.isfinite(value).all()]
    if bad:
        raise CheckpointMismatchError(f"{where}: non-finite {', '.join(bad)}")


def sample_bridge(
    cfg: ExperimentConfig,
    ckpt: dict,
    ys: np.ndarray,
    eval_seed: int,
    n_steps: int | None = None,
    predictor_fn=None,
) -> tuple[np.ndarray, np.ndarray]:
    """(times, per-step predictions) of one reverse pass over the evaluation set.

    The sampling noise stream is keyed by the step count only, so methods
    compared at equal step counts see identical noise.
    """
    conditioning = ConditioningStrategy(ckpt["meta"]["conditioning"])
    sampler_cfg = cfg.sampler if n_steps is None else replace(cfg.sampler, n_steps=n_steps)
    rng = named_stream(eval_seed, "sample", index=sampler_cfg.n_steps)
    # overflow stops at forward's finite-input check or at the callers' _require_finite
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            starts, conditions = inference_endpoints(conditioning, ys, predictor_fn)
            predictor = make_bridge_predictor(ckpt["params"], ckpt["spec"])
            times, _, preds = sample_trajectory_batch(predictor, starts, conditions, sampler_cfg, cfg.schedule, rng)
        except ValueError as exc:  # e.g. forward's non-finite network input part-way through
            raise CheckpointMismatchError(
                f"{ckpt['meta']['method']} at {sampler_cfg.n_steps} steps: sampling failed: {exc}"
            ) from exc
    return times, preds


def evaluate_bridge(
    cfg: ExperimentConfig,
    ckpt: dict,
    xs: np.ndarray,
    ys: np.ndarray,
    reference: np.ndarray | ReferenceSet,
    eval_seed: int,
    n_steps: int | None = None,
    predictor_fn=None,
) -> EvalReport:
    """Evaluate one bridge checkpoint on the fixed evaluation set."""
    _, preds = sample_bridge(cfg, ckpt, ys, eval_seed, n_steps, predictor_fn)
    finals = preds[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite results are rejected below
        w2, energy = perception_distance(finals, reference)
        report = EvalReport(
            mse=mse(finals, xs),
            si_sdr_db=float(np.mean(si_sdr(finals, xs))),
            w2=w2,
            energy_distance=energy,
        )
    _require_finite(
        f"{ckpt['meta']['method']} at {len(preds)} steps",
        mse=report.mse, w2=report.w2, energy_distance=report.energy_distance,
    )
    return report


def evaluate_checkpoint_file(
    cfg: ExperimentConfig,
    path: Path,
    xs: np.ndarray,
    ys: np.ndarray,
    reference: np.ndarray | ReferenceSet,
    eval_seed: int,
    n_steps: int | None = None,
) -> tuple[str, EvalReport]:
    """Disk-level evaluation: loads the bridge model and, only if the
    strategy requires it, the sibling predictor."""
    ckpt, predictor_fn = _load_bridge(path, cfg)
    report = evaluate_bridge(cfg, ckpt, xs, ys, reference, eval_seed, n_steps, predictor_fn)
    return ckpt["meta"]["method"], report


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(config_path: str, out_override: str | None = None, seed_override: int | None = None) -> list[Path]:
    cfg = load_config(config_path, out_override, seed_override)
    label = {pair: name for name, pair in UNITS.items()}[(cfg.train.strategy, cfg.train.conditioning)]
    written = [path for seed in cfg.seeds for path in train_units_for_seed(cfg, seed, [label], "train")]
    for p in written:
        print(f"[train] wrote {p}")
    return written


def _parse_steps(steps_arg: str | None) -> list[int]:
    if not steps_arg:
        return [1, 2, 4, 8, 16, 32, 50]
    try:
        steps = [int(s) for s in steps_arg.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--steps must be a comma-separated integer list: {steps_arg!r}") from exc
    if not steps or any(s < 1 for s in steps):
        raise ConfigError("--steps needs at least one positive step count")
    return steps


def cmd_sweep_steps(
    config_path: str,
    checkpoints: list[str],
    steps_arg: str | None = None,
    out_override: str | None = None,
    seed_override: int | None = None,
) -> Path:
    cfg = load_config(config_path, out_override, seed_override)
    steps = _parse_steps(steps_arg)
    eval_seed = cfg.seeds[0]
    xs, ys, reference = make_eval_set(cfg, eval_seed)
    reference = ReferenceSet(reference)
    rows = []
    for path in checkpoints:
        ckpt, predictor_fn = _load_bridge(path, cfg)
        method = ckpt["meta"]["method"]
        for n in steps:
            report = evaluate_bridge(cfg, ckpt, xs, ys, reference, eval_seed, n, predictor_fn)
            print(f"[sweep] {method} steps={n} mse={report.mse:.5f} w2={report.w2:.5f}")
            rows.append([method, n, report.mse, report.si_sdr_db, report.w2, report.energy_distance])
    out_path = Path(cfg.out_dir) / "sweep_steps.csv"
    write_csv(out_path, "sweep.v1", ["method", "steps", "mse", "si_sdr_db", "w2", "energy_distance"], rows)
    print(f"[sweep] wrote {out_path}")
    return out_path


def cmd_exposure_bias(
    config_path: str,
    checkpoints: list[str],
    out_override: str | None = None,
    seed_override: int | None = None,
) -> Path:
    cfg = load_config(config_path, out_override, seed_override)
    eval_seed = cfg.seeds[0]
    xs, ys, reference = make_eval_set(cfg, eval_seed)
    reference = ReferenceSet(reference)
    rows = []
    for path in checkpoints:
        ckpt, predictor_fn = _load_bridge(path, cfg)
        times, preds = sample_bridge(cfg, ckpt, ys, eval_seed, predictor_fn=predictor_fn)
        method = ckpt["meta"]["method"]
        with np.errstate(over="ignore", invalid="ignore"):  # each row is checked before it is kept
            errors = prediction_errors(preds, xs)
            for i, pred in enumerate(preds):
                # W2 alone: the energy distance is not part of this table
                err, step_mse, w2 = float(errors[i]), mse(pred, xs), moment_w2(pred, reference)
                _require_finite(f"{method} exposure step {i + 1}", pred_err=err, mse=step_mse, w2=w2)
                rows.append([method, i + 1, float(times[i]), err, step_mse, w2])
        print(f"[exposure] {method}: final pred_err={rows[-1][3]:.5f}")
    out_path = Path(cfg.out_dir) / "exposure_bias.csv"
    write_csv(out_path, "exposure.v1", ["method", "step", "t", "pred_err", "mse", "w2"], rows)
    print(f"[exposure] wrote {out_path}")
    return out_path


def _median_rows(rows: list[list], labels: list[str]) -> list[list]:
    medians = []
    for label in labels:
        values = np.array([r[2:] for r in rows if r[0] == label], dtype=float)
        medians.append([label, "median", *[float(np.median(values[:, j])) for j in range(values.shape[1])]])
    return medians


def _run_grid(
    name: str, labels: list[str], config_path: str, out_override: str | None, seed_override: int | None
) -> Path:
    """Per seed: train the predictor and the unit of each label, then evaluate
    each unit; write per-seed and median rows."""
    cfg = load_config(config_path, out_override, seed_override)
    eval_seed = cfg.seeds[0]
    xs, ys, reference = make_eval_set(cfg, eval_seed)
    reference = ReferenceSet(reference)
    rows = []
    for seed in cfg.seeds:
        for path in train_units_for_seed(cfg, seed, labels, name)[1:]:
            method, report = evaluate_checkpoint_file(cfg, path, xs, ys, reference, eval_seed)
            rows.append([method, seed, report.mse, report.si_sdr_db, report.w2, report.energy_distance])
    rows.extend(_median_rows(rows, labels))
    out_path = Path(cfg.out_dir) / f"{name}.csv"
    write_csv(out_path, f"{name}.v1", ["strategy", "seed", "mse", "si_sdr_db", "w2", "energy_distance"], rows)
    print(f"[{name}] wrote {out_path}")
    return out_path


def cmd_strategies(config_path: str, out_override: str | None = None, seed_override: int | None = None) -> Path:
    return _run_grid("strategies", ["M1", "M2", "M3", "M4", "M5"], config_path, out_override, seed_override)


def cmd_ablation(config_path: str, out_override: str | None = None, seed_override: int | None = None) -> Path:
    return _run_grid("ablation", ["Vanilla", "InputOnly", "Joint"], config_path, out_override, seed_override)


def cmd_dump_dataset(
    config_path: str,
    out_override: str | None = None,
    seed_override: int | None = None,
) -> Path:
    cfg = load_config(config_path, out_override, seed_override)
    xs, ys, x_stars = cfg.task.sample_pairs(DATASET_DUMP_ROWS, named_stream(cfg.seeds[0], "data"))
    d, m = xs.shape[1], ys.shape[1]
    columns = [f"x{i}" for i in range(d)] + [f"y{i}" for i in range(m)] + [f"x_star{i}" for i in range(d)]
    rows = [list(xs[i]) + list(ys[i]) + list(x_stars[i]) for i in range(len(xs))]
    out_path = Path(cfg.out_dir) / "dataset.csv"
    write_csv(out_path, "dataset.v1", columns, rows)
    print(f"[dump-dataset] wrote {out_path} ({len(rows)} rows)")
    return out_path


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bridgelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, summary, run, checkpoints=False, steps=False):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="single seed (overrides config list)")
        if checkpoints:
            p.add_argument("--checkpoint", nargs="+", required=True, help="bridge model checkpoint(s)")
        if steps:
            p.add_argument("--steps", default=None, help="comma-separated step counts")
        p.set_defaults(run=run)

    add_command("train", "train predictor and bridge model", lambda a: cmd_train(a.config, a.out, a.seed))
    add_command(
        "sweep-steps", "metrics versus step count",
        lambda a: cmd_sweep_steps(a.config, a.checkpoint, a.steps, a.out, a.seed), checkpoints=True, steps=True,
    )
    add_command(
        "exposure-bias", "per-step prediction errors",
        lambda a: cmd_exposure_bias(a.config, a.checkpoint, a.out, a.seed), checkpoints=True,
    )
    add_command("strategies", "conditioning strategies M1..M5", lambda a: cmd_strategies(a.config, a.out, a.seed))
    add_command("ablation", "perturbation strategy ablation", lambda a: cmd_ablation(a.config, a.out, a.seed))
    add_command("dump-dataset", "write sampled pairs as CSV", lambda a: cmd_dump_dataset(a.config, a.out, a.seed))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # reads report their own errors, so this is an output write
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except CheckpointMismatchError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
