"""CLI subcommands: artifacts, CSV schemas, exit codes, determinism hooks."""

import contextlib
import hashlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bridgelab import cli, training
from bridgelab.config import load_config
from bridgelab.metrics import prediction_errors
from bridgelab.model import ModelParameters, load_checkpoint, predictor_spec, save_checkpoint
from bridgelab.seeding import named_stream

from artifacts import csv_body

TINY = {
    "task": {"kind": "mixture", "dim": 1, "noise_var": 0.1},
    "schedule": {},
    "model": {"hidden": [8, 8], "time_embed_pairs": 4},
    "train": {
        "epochs": 2,
        "steps_per_epoch": 25,
        "batch_size": 8,
        "strategy": "Joint",
        "conditioning": "M1",
        "patience": 20,
        "validation_size": 8,
    },
    "sampler": {"n_steps": 5},
    "out_dir": "unused",
    "seeds": [3],
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return path


def layer_slice(doc, name):
    """Where the named array (w0, b0, w1, b1, ...) of the doc's spec lies in its flat `params`."""
    spec = doc["spec"]
    dims = [spec["input_dim"], *spec["hidden"], spec["output_dim"]]
    offset = 0
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        for array, size in ((f"w{i}", fan_in * fan_out), (f"b{i}", fan_out)):
            if array == name:
                return slice(offset, offset + size)
            offset += size
    raise KeyError(name)


def drop_array(doc, name):
    s = layer_slice(doc, name)
    doc["params"] = doc["params"][: s.start] + doc["params"][s.stop :]


def nest_array(name):
    """Damage that stores the named array as one list nested inside the vector."""

    def damage(doc):
        s = layer_slice(doc, name)
        doc["params"][s] = [doc["params"][s]]

    return damage


def as_v1(doc):
    """The same checkpoint in the v1 layout: named, shaped arrays, and `adam` and `ema` keys."""
    spec = doc["spec"]
    dims = [spec["input_dim"], *spec["hidden"], spec["output_dim"]]
    arrays = []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        for name, shape in ((f"w{i}", [fan_in, fan_out]), (f"b{i}", [fan_out])):
            arrays.append({"name": name, "shape": shape, "data": doc["params"][layer_slice(doc, name)]})
    return {**doc, "format": "bridgelab-checkpoint.v1", "params": arrays, "adam": None,
            "ema": {"decay": 0.999, "shadow": arrays}}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def joint_m2_run(tmp_path_factory):
    """(config, seed dir) of a trained Joint-M2 bridge, whose evaluation loads the sibling predictor."""
    root = tmp_path_factory.mktemp("joint_m2")
    config = root / "config.json"
    doc = json.loads(json.dumps(TINY))
    doc["train"]["conditioning"] = "M2"
    config.write_text(json.dumps(doc))
    cli.cmd_train(str(config), str(root / "run"))
    return config, root / "run" / "seed_3"


def widen_predictor_input(doc):
    """A self-consistent predictor that reads two measurement coordinates."""
    w0 = doc["params"][layer_slice(doc, "w0")]
    doc["params"] = w0 + doc["params"]  # w0 starts the vector; a second row, equal to the first
    doc["spec"]["input_dim"] = 2


def drop_predictor_layer(doc):
    """A self-consistent predictor with one hidden layer fewer than the config."""
    for name in ("b1", "w1"):  # w2 then reads the first hidden layer, of the same width
        drop_array(doc, name)
    doc["spec"]["hidden"] = doc["spec"]["hidden"][:1]


def scale_array(name, factor):
    """Damage that multiplies one named parameter array: finite weights with non-finite outputs."""

    def damage(doc):
        s = layer_slice(doc, name)
        doc["params"][s] = [v * factor for v in doc["params"][s]]

    return damage


def saturate_head(doc):
    """Output layer weights and biases at 1e308, so outputs overflow part-way through sampling."""
    for name in ("w2", "b2"):
        s = layer_slice(doc, name)
        doc["params"][s] = [1e308] * (s.stop - s.start)


class TestTrainCommand:
    def test_writes_checkpoints_and_log(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        written = cli.cmd_train(str(tiny_config), str(out))
        seed_dir = out / "seed_3"
        assert (seed_dir / "predictor.json").is_file()
        assert (seed_dir / "model_Joint.json").is_file()
        assert (seed_dir / "training_log_Joint.csv").is_file()
        header = (seed_dir / "training_log_Joint.csv").read_text().splitlines()[1]
        assert header.startswith("train_log.v1,")
        assert set(written) == {seed_dir / "predictor.json", seed_dir / "model_Joint.json"}

    def test_repeat_run_reproduces_checkpoints(self, tiny_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.cmd_train(str(tiny_config), str(out_a))
        cli.cmd_train(str(tiny_config), str(out_b))
        for name in ("predictor.json", "model_Joint.json"):
            assert sha256(out_a / "seed_3" / name) == sha256(out_b / "seed_3" / name)

    def test_strategy_changes_model_not_predictor(self, tiny_config, tmp_path):
        doc = json.loads(tiny_config.read_text())
        doc["train"]["strategy"] = "Vanilla"
        other = tiny_config.parent / "vanilla.json"
        other.write_text(json.dumps(doc))
        out_a, out_b = tmp_path / "ja", tmp_path / "vb"
        cli.cmd_train(str(tiny_config), str(out_a))
        cli.cmd_train(str(other), str(out_b))
        assert sha256(out_a / "seed_3" / "predictor.json") == sha256(out_b / "seed_3" / "predictor.json")
        a = (out_a / "seed_3" / "model_Joint.json")
        b = (out_b / "seed_3" / "model_Vanilla.json")
        assert json.loads(a.read_text())["params"] != json.loads(b.read_text())["params"]

    def test_single_unit_keeps_no_draw_record(self, tiny_config, tmp_path, monkeypatch):
        calls = []
        real = cli.train
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: calls.append(kwargs) or real(*args, **kwargs))
        cli.cmd_train(str(tiny_config), str(tmp_path / "run"))
        assert [kwargs["record"] for kwargs in calls] == [None]

    def test_missing_config_exit_code(self, tmp_path, capsys):
        code = cli.main(["train", "--config", str(tmp_path / "none.json")])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would be a second line on stderr
    def test_divergence_exit_code(self, tmp_path, capsys):
        # the output directory is created at the first write, and the predictor diverges before it
        doc = json.loads(json.dumps(TINY))
        doc["task"] = {"kind": "mixture", "dim": 1, "centers": [-1e200, 1e200]}
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(doc))
        for command in ("train", "strategies"):
            out = tmp_path / f"o_{command}"
            code = cli.main([command, "--config", str(path), "--out", str(out)])
            assert code == cli.EXIT_DIVERGENCE
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("training diverged: predictor training diverged")
            assert not out.exists()

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would be a second line on stderr
    def test_non_finite_validation_input_exit_code(self, tmp_path, capsys, monkeypatch):
        # an inf start row stops at forward's finite-input check inside the first validation pass
        sample = training.sample_trajectory_batch

        def poisoned(predictor, starts, *args):
            starts = starts.copy()
            starts[0, 0] = np.inf
            return sample(predictor, starts, *args)

        monkeypatch.setattr(training, "sample_trajectory_batch", poisoned)
        config = Path(__file__).resolve().parents[1] / "configs" / "smoke.json"
        code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_DIVERGENCE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("training diverged: validation at epoch 0")


class TestSweepCommand:
    def test_single_step_equals_direct_prediction(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        cli.cmd_train(str(tiny_config), str(out))
        ckpt_path = out / "seed_3" / "model_Joint.json"
        csv_path = cli.cmd_sweep_steps(str(tiny_config), [str(ckpt_path)], "1", str(out))
        lines = csv_path.read_text().splitlines()
        assert lines[1].split(",")[0] == "sweep.v1"
        row = lines[2].split(",")
        assert row[1] == "Joint" and row[2] == "1"

        # with one step the solution is the single prediction at t = 1
        cfg = load_config(tiny_config)
        ckpt = load_checkpoint(ckpt_path)
        xs, ys, _ = cli.make_eval_set(cfg, 3)
        from bridgelab.model import forward

        pred = forward(ckpt["params"], ckpt["spec"], ys, 1.0, ys)
        assert float(row[3]) == pytest.approx(float(np.mean((pred - xs) ** 2)), rel=1e-12)

    def test_checkpoint_mismatch_exit(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        cli.cmd_train(str(tiny_config), str(out))
        doc = json.loads(tiny_config.read_text())
        doc["task"]["dim"] = 2
        bigger = tiny_config.parent / "d2.json"
        bigger.write_text(json.dumps(doc))
        code = cli.main([
            "sweep-steps", "--config", str(bigger),
            "--checkpoint", str(out / "seed_3" / "model_Joint.json"),
            "--out", str(tmp_path / "o2"),
        ])
        assert code == cli.EXIT_CHECKPOINT

    def test_missing_checkpoint_exit(self, tiny_config, tmp_path):
        for command in ("sweep-steps", "exposure-bias"):
            code = cli.main([
                command, "--config", str(tiny_config),
                "--checkpoint", str(tmp_path / "ghost.json"),
                "--out", str(tmp_path / "o3"),
            ])
            assert code == cli.EXIT_CHECKPOINT
            assert not (tmp_path / "o3").exists()

    def test_loads_each_checkpoint_once(self, joint_m2_run, tmp_path, monkeypatch):
        config, seed_dir = joint_m2_run
        loaded = []
        load = cli.load_checkpoint
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: loaded.append(path.name) or load(path))
        ckpt = seed_dir / "model_Joint-M2.json"
        csv_path = cli.cmd_sweep_steps(str(config), [str(ckpt)], "1,2,5", str(tmp_path))
        assert loaded == ["model_Joint-M2.json", "predictor.json"]

        # each row is what a disk-level evaluation against the raw reference array gives
        cfg = load_config(config)
        xs, ys, reference = cli.make_eval_set(cfg, 3)
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[2:]]
        assert [r[2] for r in rows] == ["1", "2", "5"]
        for row in rows:
            method, report = cli.evaluate_checkpoint_file(cfg, ckpt, xs, ys, reference, 3, n_steps=int(row[2]))
            assert row[1] == method == "Joint-M2"
            assert [float(v) for v in row[3:]] == [report.mse, report.si_sdr_db, report.w2, report.energy_distance]

    def test_bad_steps_argument(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        cli.cmd_train(str(tiny_config), str(out))
        code = cli.main([
            "sweep-steps", "--config", str(tiny_config),
            "--checkpoint", str(out / "seed_3" / "model_Joint.json"),
            "--steps", "five", "--out", str(tmp_path / "sweep"),
        ])
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "sweep").exists()


class TestCheckpointValidation:
    def damaged_copy(self, joint_m2_run, tmp_path, damage, name):
        config, seed_dir = joint_m2_run
        run = tmp_path / "damaged"
        run.mkdir()
        for f in ("predictor.json", "model_Joint-M2.json"):
            (run / f).write_bytes((seed_dir / f).read_bytes())
        doc = json.loads((run / name).read_text())
        damage(doc)
        (run / name).write_text(json.dumps(doc))
        return config, run / "model_Joint-M2.json"

    @pytest.mark.parametrize("command", ["sweep-steps", "exposure-bias"])
    @pytest.mark.parametrize(
        "name,damage",
        [
            ("model_Joint-M2.json", lambda d: d["meta"].pop("conditioning")),
            ("model_Joint-M2.json", lambda d: d["meta"].pop("method")),
            ("model_Joint-M2.json", lambda d: d["meta"].update(conditioning="M9")),
            ("model_Joint-M2.json", lambda d: d["params"].__setitem__(0, float("nan"))),
            ("predictor.json", lambda d: d["params"].__setitem__(layer_slice(d, "b0").start, float("inf"))),
            ("model_Joint-M2.json", nest_array("w1")),
            ("model_Joint-M2.json", lambda d: drop_array(d, "b2")),
            ("model_Joint-M2.json", lambda d: d["params"].extend(d["params"][layer_slice(d, "w2")])),
            ("model_Joint-M2.json", lambda d: d.update(ema={"decay": 0.999, "shadow": d["params"][:-1]})),
            ("predictor.json", lambda d: drop_array(d, "w0")),
            ("predictor.json", widen_predictor_input),
            ("predictor.json", drop_predictor_layer),
            ("model_Joint-M2.json", scale_array("w2", 1e300)),
            ("model_Joint-M2.json", saturate_head),
            ("predictor.json", saturate_head),
            ("model_Joint-M2.json", lambda d: d.update(meta=[])),
            ("model_Joint-M2.json", lambda d: d.update(meta=None)),
            ("model_Joint-M2.json", lambda d: d["meta"].update(predictor_file=5)),
            ("model_Joint-M2.json", lambda d: d["meta"].update(method=["Joint-M2"])),
            ("model_Joint-M2.json", lambda d: d["spec"].update(time_embed_pairs=float(d["spec"]["time_embed_pairs"]))),
            ("model_Joint-M2.json", lambda d: d["params"].__setitem__(1, True)),
            ("predictor.json", lambda d: d["params"].__setitem__(0, False)),
            ("model_Joint-M2.json", lambda d: d["meta"].update(conditioning="M5")),
            ("model_Joint-M2.json", lambda d: d["meta"].pop("strategy")),
            ("model_Joint-M2.json", lambda d: d["meta"].update(strategy="Vanilla")),
            ("model_Joint-M2.json", lambda d: d["meta"].update(method="M2")),  # Vanilla/M2's label
            ("model_Joint-M2.json", lambda d: d["meta"].update(method="M9")),
        ],
        ids=[
            "no-conditioning", "no-method", "bad-conditioning", "nan-bridge", "inf-predictor",
            "w1-reshaped", "b2-missing", "extra-w3", "ema-b0-short", "predictor-no-w0",
            "predictor-wide-input", "predictor-other-hidden", "w2-overflow", "head-saturated",
            "predictor-head-saturated", "meta-list", "meta-null", "predictor-file-number", "method-list",
            "embed-pairs-float", "params-bool", "predictor-params-bool", "conditioning-M5",
            "no-strategy", "strategy-Vanilla", "method-M2", "method-M9",
        ],
    )
    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would be a second line on stderr
    def test_bad_checkpoint_exit(self, joint_m2_run, tmp_path, capsys, command, name, damage):
        config, ckpt = self.damaged_copy(joint_m2_run, tmp_path, damage, name)
        code = cli.main([command, "--config", str(config), "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CHECKPOINT
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["sweep-steps", "exposure-bias"])
    def test_v1_file_exit_4(self, joint_m2_run, tmp_path, capsys, command):
        config, ckpt = self.damaged_copy(joint_m2_run, tmp_path, lambda d: None, "model_Joint-M2.json")
        ckpt.write_text(json.dumps(as_v1(json.loads(ckpt.read_text())), indent=1, sort_keys=True))
        code = cli.main([command, "--config", str(config), "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CHECKPOINT
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error: ") and err.count("\n") == 1
        assert "format 'bridgelab-checkpoint.v1'" in err and "re-run train" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["model_Joint-M2.json", "predictor.json"])
    def test_unknown_top_level_key_exit_4(self, joint_m2_run, tmp_path, capsys, name):
        config, ckpt = self.damaged_copy(joint_m2_run, tmp_path, lambda d: d.update(shadow=d["params"]), name)
        code = cli.main(["sweep-steps", "--config", str(config), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CHECKPOINT
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error: ") and err.count("\n") == 1
        assert "unknown keys ['shadow']" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["model_Joint-M2.json", "predictor.json"])
    def test_unreadable_file_exit_4(self, joint_m2_run, tmp_path, capsys, monkeypatch, name):
        config, ckpt = self.damaged_copy(joint_m2_run, tmp_path, lambda d: None, name)
        read_text = Path.read_text

        def denied(path, *args, **kwargs):
            if path.name == name:
                raise PermissionError(13, "Permission denied", str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", denied)
        code = cli.main(["sweep-steps", "--config", str(config), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CHECKPOINT
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error: unreadable checkpoint ") and err.count("\n") == 1
        assert "Permission denied" in err
        assert not (tmp_path / "o").exists()


class TestExposureCommand:
    def test_final_step_matches_evaluation(self, tiny_config, tmp_path):
        # exposure-bias and evaluate_bridge sample through the same code and streams
        out = tmp_path / "run"
        cli.cmd_train(str(tiny_config), str(out))
        ckpt = out / "seed_3" / "model_Joint.json"
        csv_path = cli.cmd_exposure_bias(str(tiny_config), [str(ckpt)], str(out))
        last = csv_path.read_text().splitlines()[-1].split(",")
        cfg = load_config(tiny_config)
        xs, ys, reference = cli.make_eval_set(cfg, 3)
        _, report = cli.evaluate_checkpoint_file(cfg, ckpt, xs, ys, reference, 3)
        _, preds = cli.sample_bridge(cfg, load_checkpoint(ckpt), ys, 3)
        assert float(last[4]) == prediction_errors(preds, xs)[-1]
        assert float(last[5]) == report.mse
        assert float(last[6]) == report.w2

    def test_long_format_rows(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        cli.cmd_train(str(tiny_config), str(out))
        csv_path = cli.cmd_exposure_bias(
            str(tiny_config), [str(out / "seed_3" / "model_Joint.json")], str(out)
        )
        lines = csv_path.read_text().splitlines()
        assert lines[1] == "exposure.v1,method,step,t,pred_err,mse,w2"
        rows = [l.split(",") for l in lines[2:]]
        assert len(rows) == 5  # n_steps
        assert [r[2] for r in rows] == ["1", "2", "3", "4", "5"]
        assert float(rows[0][3]) == 1.0  # first prediction happens at t = 1


class TestStrategiesCommand:
    def test_table_and_predictor_dependency(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        csv_path = cli.cmd_strategies(str(tiny_config), str(out))
        lines = csv_path.read_text().splitlines()
        assert lines[1] == "strategies.v1,strategy,seed,mse,si_sdr_db,w2,energy_distance"
        body = [l.split(",") for l in lines[2:]]
        labels = [r[1] for r in body]
        assert labels == ["M1", "M2", "M3", "M4", "M5", "M1", "M2", "M3", "M4", "M5"]
        assert [r[2] for r in body[:5]] == ["3"] * 5
        assert [r[2] for r in body[5:]] == ["median"] * 5

        # M5 must evaluate without the predictor artifact; M2 must not
        cfg = load_config(tiny_config)
        xs, ys, reference = cli.make_eval_set(cfg, 3)
        (out / "seed_3" / "predictor.json").unlink()
        method, _ = cli.evaluate_checkpoint_file(
            cfg, out / "seed_3" / "model_M5.json", xs, ys, reference, 3
        )
        assert method == "M5"
        with pytest.raises(cli.CheckpointMismatchError):
            cli.evaluate_checkpoint_file(
                cfg, out / "seed_3" / "model_M2.json", xs, ys, reference, 3
            )

    def test_m1_matches_standalone_vanilla_run(self, tiny_config, tmp_path):
        doc = json.loads(tiny_config.read_text())
        doc["train"]["strategy"] = "Vanilla"
        vanilla_cfg = tiny_config.parent / "v.json"
        vanilla_cfg.write_text(json.dumps(doc))
        out_s, out_v = tmp_path / "s", tmp_path / "v"
        cli.cmd_strategies(str(tiny_config), str(out_s))
        cli.cmd_train(str(vanilla_cfg), str(out_v))
        a = json.loads((out_s / "seed_3" / "model_M1.json").read_text())["params"]
        b = json.loads((out_v / "seed_3" / "model_Vanilla.json").read_text())["params"]
        assert a == b


class TestAblationCommand:
    def test_rows_and_shared_seeds(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        csv_path = cli.cmd_ablation(str(tiny_config), str(out))
        lines = csv_path.read_text().splitlines()
        body = [l.split(",") for l in lines[2:]]
        assert [r[1] for r in body[:3]] == ["Vanilla", "InputOnly", "Joint"]
        assert len({r[2] for r in body[:3]}) == 1  # same seed column


class TestDumpDataset:
    def test_columns_and_posterior_consistency(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        csv_path = cli.cmd_dump_dataset(str(tiny_config), str(out))
        lines = csv_path.read_text().splitlines()
        assert lines[1] == "dataset.v1,x0,y0,x_star0"
        assert len(lines) == 2 + cli.DATASET_DUMP_ROWS
        cfg = load_config(tiny_config)
        row = lines[2].split(",")[1:]
        x, y, x_star = map(float, row)
        assert x_star == pytest.approx(float(cfg.task.posterior_mean(np.array([y]))[0]), rel=1e-12)


class TestAtomicWrites:
    WRITERS = {
        "checkpoint": lambda path: save_checkpoint(path, predictor_spec(1, (2,)), ModelParameters([(1, 2), (2, 1)])),
        "csv": lambda path: cli.write_csv(path, "t.v1", ["a"], [[1.5]]),
    }

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_failed_replace_keeps_old_file(self, kind, tmp_path, monkeypatch):
        path = tmp_path / "target"
        path.write_bytes(b"old contents\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            self.WRITERS[kind](path)
        assert path.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["target"]

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_success_leaves_only_the_target(self, kind, tmp_path):
        path = tmp_path / "sub" / "target"
        for _ in range(2):
            self.WRITERS[kind](path)
        assert [p.name for p in path.parent.iterdir()] == ["target"]


class TestOutputWriteFails:
    """A directory where an output file goes ends in exit 2 with one line, not a traceback."""

    def test_train_predictor_file(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "seed_3" / "predictor.json").mkdir(parents=True)
        code = cli.main(["train", "--config", str(tiny_config), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1, err
        assert "predictor.json" in err
        assert [p.name for p in (out / "seed_3").iterdir()] == ["predictor.json"]

    def test_sweep_csv(self, joint_m2_run, tmp_path, capsys):
        config, seed_dir = joint_m2_run
        out = tmp_path / "sweep"
        (out / "sweep_steps.csv").mkdir(parents=True)
        code = cli.main(["sweep-steps", "--config", str(config), "--checkpoint", str(seed_dir / "model_Joint-M2.json"),
                         "--steps", "1", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1, err
        assert "sweep_steps.csv" in err
        assert [p.name for p in out.iterdir()] == ["sweep_steps.csv"]


class TestCsvDeterminism:
    def test_bodies_reproduce_exactly(self, tiny_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        a = cli.cmd_ablation(str(tiny_config), str(out_a))
        b = cli.cmd_ablation(str(tiny_config), str(out_b))
        assert csv_body(a) == csv_body(b)

    def test_timestamp_line_excluded_from_body(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        path = cli.cmd_dump_dataset(str(tiny_config), str(out))
        text = path.read_text()
        assert text.startswith("# generated: ")
        assert not csv_body(path).startswith("#")


class TestOdeSamplerConfig:
    def test_ode_run_is_deterministic_end_to_end(self, tiny_config, tmp_path):
        doc = json.loads(tiny_config.read_text())
        doc["sampler"]["kind"] = "ODE"
        ode_cfg = tiny_config.parent / "ode.json"
        ode_cfg.write_text(json.dumps(doc))
        out = tmp_path / "ode"
        cli.cmd_train(str(ode_cfg), str(out))
        sweep_a = cli.cmd_sweep_steps(
            str(ode_cfg), [str(out / "seed_3" / "model_Joint.json")], "1,3", str(tmp_path / "oa")
        )
        sweep_b = cli.cmd_sweep_steps(
            str(ode_cfg), [str(out / "seed_3" / "model_Joint.json")], "1,3", str(tmp_path / "ob")
        )
        assert csv_body(sweep_a) == csv_body(sweep_b)


class TestEntryPoint:
    def test_main_runs_dump_dataset(self, tiny_config, tmp_path):
        code = cli.main([
            "dump-dataset", "--config", str(tiny_config), "--out", str(tmp_path / "dd")
        ])
        assert code == 0
        assert (tmp_path / "dd" / "dataset.csv").is_file()

    def test_seed_override(self, tiny_config, tmp_path):
        cli.main(["train", "--config", str(tiny_config), "--out", str(tmp_path / "s9"), "--seed", "9"])
        assert (tmp_path / "s9" / "seed_9" / "model_Joint.json").is_file()


# extra arguments each subcommand needs; the checkpoint is never reached
COMMAND_ARGS = {
    "train": [], "strategies": [], "ablation": [], "dump-dataset": [],
    "sweep-steps": ["--checkpoint", "ghost.json"], "exposure-bias": ["--checkpoint", "ghost.json"],
}


class TestUnusableSettingsExit2:
    """A negative --seed, an --out that is a file, and an undecodable or too deeply nested
    config end in exit 2 with one line, before anything is written."""

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    @pytest.mark.parametrize("case", ["seed-negative", "out-is-file", "config-not-utf8", "config-too-deep"])
    def test_exit_2_and_nothing_written(self, tiny_config, tmp_path, capsys, command, case):
        config, out, extra = tiny_config, tmp_path / "out", []
        if case == "seed-negative":
            extra = ["--seed", "-1"]
        elif case == "out-is-file":
            out.write_text("kept\n")
        elif case == "config-not-utf8":
            config = tmp_path / "utf16.json"
            config.write_bytes(b"\xff\xfe{}")
        else:
            config = tmp_path / "deep.json"
            config.write_text("[" * 100_000 + "]" * 100_000)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*")}
        code = cli.main([command, "--config", str(config), "--out", str(out), *extra, *COMMAND_ARGS[command]])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*")} == before


# ---------------------------------------------------------------------------
# fuzzing: every mutated checkpoint evaluates or exits 4 with one line

SMOKE = Path(__file__).parents[1] / "configs" / "smoke.json"
CHECKPOINT_WORDS = sorted(
    {"format", "spec", "params", "adam", "ema", "seed_lineage", "meta", "input_dim", "output_dim", "hidden",
     "activation", "time_embed_pairs", "tanh", "role", "bridge", "predictor", "method", "strategy", "conditioning",
     "seed", "task_dim", "predictor_file", "predictor.json", "model_Joint.json", "model_M2.json", "model_Joint-M2.json", "M1", "M2", "M5",
     "M9", "Joint", "Joint-M2", "Vanilla", "shadow", "decay", "m", "v", "step", "selected_epoch", "stopped_epoch", "selection_rule",
     "bridgelab-checkpoint.v1", "bridgelab-checkpoint.v2"}
)
CKPT_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8), st.floats(), st.sampled_from(CHECKPOINT_WORDS), st.text(max_size=4)
)
CKPT_NAMES = st.one_of(st.sampled_from(CHECKPOINT_WORDS), st.text(max_size=4))
CKPT_VALUES = st.recursive(
    CKPT_SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(CKPT_NAMES, inner, max_size=4),
    max_leaves=12,
)
CKPT_FUZZ = settings(max_examples=100, deadline=None, derandomize=True)
# (run, file): the smoke config's Joint bridge, and a Joint-M2 bridge whose evaluation reads its predictor
FUZZ_TARGETS = [("Joint", "model_Joint.json"), ("Joint-M2", "model_Joint-M2.json"), ("Joint-M2", "predictor.json")]


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Config path and seed directory per label, trained from configs/smoke.json."""
    root = tmp_path_factory.mktemp("smoke")
    runs = {}
    for label, conditioning in (("Joint", "M1"), ("Joint-M2", "M2")):
        doc = json.loads(SMOKE.read_text())
        doc["train"]["conditioning"] = conditioning
        config = root / f"{label}.json"
        config.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_train(str(config), str(root / label))
        runs[label] = (config, root / label / f"seed_{doc['seeds'][0]}")
    return runs


def checkpoint_entries(parent, key):
    """(parent, key) and every entry below it; of a stored vector's values only the first."""
    value = parent[key]
    found = [(parent, key)]
    if key in ("params", "m", "v", "shadow") and isinstance(value, list):
        found.extend((value, i) for i in range(min(1, len(value))))
    elif isinstance(value, (dict, list)):
        for child in list(value if isinstance(value, dict) else range(len(value))):
            found.extend(checkpoint_entries(value, child))
    return found


def mutate_checkpoint(doc, draw):
    """Change one entry of one top-level block of `doc` (the block itself included): a new
    number, any new value, deleted, or a sibling added.  Drawing the block first keeps the
    small blocks (`meta`, `spec`) as likely as the parameter vector."""
    block = draw(st.sampled_from(sorted(doc)))
    parent, key = draw(st.sampled_from(checkpoint_entries(doc, block)))
    action = draw(st.sampled_from(["number", "value", "delete", "add"]))
    if action == "number":
        parent[key] = draw(st.one_of(st.integers(-3, 8), st.floats(), st.booleans()))
    elif action == "value":
        parent[key] = draw(CKPT_VALUES)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent[draw(CKPT_NAMES)] = draw(CKPT_VALUES)
    else:
        parent.insert(key, draw(CKPT_VALUES))


class TestCheckpointFuzz:
    @CKPT_FUZZ
    @given(command=st.sampled_from(["sweep-steps", "exposure-bias"]), target=st.sampled_from(FUZZ_TARGETS),
           data=st.data())
    def test_mutated_checkpoints_evaluate_or_exit_4(self, smoke_runs, command, target, data):
        label, name = target
        config, seed_dir = smoke_runs[label]
        with tempfile.TemporaryDirectory() as tmp:
            run, out = Path(tmp) / "run", Path(tmp) / "out"
            run.mkdir()
            for f in seed_dir.glob("*.json"):
                (run / f.name).write_bytes(f.read_bytes())
            doc = json.loads((seed_dir / name).read_text())
            for _ in range(data.draw(st.integers(1, 2))):
                mutate_checkpoint(doc, data.draw)
            (run / name).write_text(json.dumps(doc))
            bridge = run / f"model_{label}.json"
            argv = [command, "--config", str(config), "--checkpoint", str(bridge), "--out", str(out)]
            if command == "sweep-steps":
                argv += ["--steps", "1,3"]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # a numpy warning would be a second line on stderr
                code = cli.main(argv)
            event(f"exit {code}")
            assert code in (cli.EXIT_OK, cli.EXIT_CHECKPOINT), (code, err.getvalue())
            if code == cli.EXIT_CHECKPOINT:
                assert err.getvalue().startswith("checkpoint error: ") and err.getvalue().count("\n") == 1, err.getvalue()
                assert not out.exists()
            else:
                # the rows name the method by the string the checkpoint stores
                csv = out / ("sweep_steps.csv" if command == "sweep-steps" else "exposure_bias.csv")
                rows = csv_body(csv).splitlines()[1:]
                assert rows and {r.split(",")[1] for r in rows} == {json.loads(bridge.read_text())["meta"]["method"]}


# (strategy, conditioning) that each bridge trains, by method label: the strategies and
# ablation tables' units, and the six `train` labels that neither table uses
TRAINED_PAIRS = {
    **{f"M{k}": ("Vanilla", f"M{k}") for k in range(1, 5)},
    "M5": ("Joint", "M1"),
    **{s: (s, "M1") for s in ("Vanilla", "InputOnly", "Joint")},
    **{f"{s}-M{k}": (s, f"M{k}") for s in ("InputOnly", "Joint") for k in range(2, 5)},
}


class TestCheckpointLayout:
    def test_smoke_subcommands_write_v2_files(self, tmp_path):
        """Every checkpoint that the smoke config's subcommands write holds exactly the v2 keys, and
        each bridge's meta says which epoch was selected, under which rule, and when training stopped."""
        for command in (cli.cmd_train, cli.cmd_strategies, cli.cmd_ablation):
            with contextlib.redirect_stdout(io.StringIO()):
                command(str(SMOKE), str(tmp_path / command.__name__))
        files = sorted(tmp_path.rglob("*.json"))
        assert len(files) == 2 + 6 + 4
        epochs = json.loads(SMOKE.read_text())["train"]["epochs"]
        for path in files:
            text = path.read_text()
            doc = json.loads(text)
            assert set(doc) == {"format", "spec", "params", "seed_lineage", "meta"}, path
            assert doc["format"] == "bridgelab-checkpoint.v2" and text == json.dumps(doc, sort_keys=True) + "\n"
            selection = {"selected_epoch", "stopped_epoch", "selection_rule"}
            if doc["meta"]["role"] == "predictor":
                assert not selection & set(doc["meta"])
                continue
            meta = doc["meta"]
            assert (meta["strategy"], meta["conditioning"]) == TRAINED_PAIRS[meta["method"]], path
            assert meta["stopped_epoch"] == epochs - 1  # patience 20 never stops 3 epochs early
            assert meta["selected_epoch"] in range(epochs)
            assert f"val_mse <= {training.W2_SELECTION_GUARD} x" in meta["selection_rule"]


class TestTrainLabels:
    def test_every_pair_writes_its_own_unit(self, tiny_config, tmp_path):
        """`train` gives each of the 12 valid (strategy, conditioning) pairs its own files and
        method label, so one directory holds all 12 and a sweep over them has 12 row labels."""
        out = tmp_path / "run"
        pairs = [(s, f"M{k}") for s in ("Vanilla", "InputOnly", "Joint") for k in range(1, 5)]
        for strategy, conditioning in pairs:
            doc = json.loads(json.dumps(TINY))
            doc["train"].update(strategy=strategy, conditioning=conditioning)
            config = tmp_path / f"{strategy}_{conditioning}.json"
            config.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()):
                cli.cmd_train(str(config), str(out))
        seed_dir = out / "seed_3"
        models = sorted(seed_dir.glob("model_*.json"))
        assert len(models) == 12 and len(list(seed_dir.glob("training_log_*.csv"))) == 12
        trained = set()
        for path in models:
            meta = json.loads(path.read_text())["meta"]
            assert path.name == f"model_{meta['method']}.json"
            assert (meta["strategy"], meta["conditioning"]) == TRAINED_PAIRS[meta["method"]], path
            trained.add((meta["strategy"], meta["conditioning"]))
        assert trained == set(pairs)

        with contextlib.redirect_stdout(io.StringIO()):
            csv_path = cli.cmd_sweep_steps(str(tiny_config), [str(p) for p in models], "1", str(out))
        methods = [line.split(",")[1] for line in csv_body(csv_path).splitlines()[1:]]
        assert len(methods) == len(set(methods)) == 12
