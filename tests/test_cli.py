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


def array_entry(entries, name):
    """The checkpoint entry of one named parameter array."""
    return next(e for e in entries if e["name"] == name)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def m2_run(tmp_path_factory):
    """(config, seed dir) of a trained M2 bridge, whose evaluation loads the sibling predictor."""
    root = tmp_path_factory.mktemp("m2")
    config = root / "config.json"
    doc = json.loads(json.dumps(TINY))
    doc["train"]["conditioning"] = "M2"
    config.write_text(json.dumps(doc))
    cli.cmd_train(str(config), str(root / "run"))
    return config, root / "run" / "seed_3"


def widen_predictor_input(doc):
    """A self-consistent predictor that reads two measurement coordinates."""
    doc["spec"]["input_dim"] = 2
    w0 = array_entry(doc["params"], "w0")
    w0.update(shape=[2, w0["shape"][1]], data=w0["data"] * 2)


def drop_predictor_layer(doc):
    """A self-consistent predictor with one hidden layer fewer than the config."""
    doc["spec"]["hidden"] = doc["spec"]["hidden"][:1]
    doc["params"] = [e for e in doc["params"] if e["name"] not in ("w1", "b1")]
    for e in doc["params"]:
        e["name"] = e["name"].replace("2", "1")


def scale_array(name, factor):
    """Damage that multiplies one named parameter array: finite weights with non-finite outputs."""

    def damage(doc):
        entry = array_entry(doc["params"], name)
        entry["data"] = [v * factor for v in entry["data"]]

    return damage


def saturate_head(doc):
    """Output layer weights and biases at 1e308, so outputs overflow part-way through sampling."""
    for name in ("w2", "b2"):
        entry = array_entry(doc["params"], name)
        entry["data"] = [1e308] * len(entry["data"])


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

    def test_loads_each_checkpoint_once(self, m2_run, tmp_path, monkeypatch):
        config, seed_dir = m2_run
        loaded = []
        load = cli.load_checkpoint
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: loaded.append(path.name) or load(path))
        ckpt = seed_dir / "model_M2.json"
        csv_path = cli.cmd_sweep_steps(str(config), [str(ckpt)], "1,2,5", str(tmp_path))
        assert loaded == ["model_M2.json", "predictor.json"]

        # each row is what a disk-level evaluation against the raw reference array gives
        cfg = load_config(config)
        xs, ys, reference = cli.make_eval_set(cfg, 3)
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[2:]]
        assert [r[2] for r in rows] == ["1", "2", "5"]
        for row in rows:
            method, report = cli.evaluate_checkpoint_file(cfg, ckpt, xs, ys, reference, 3, n_steps=int(row[2]))
            assert row[1] == method == "M2"
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
    def damaged_copy(self, m2_run, tmp_path, damage, name):
        config, seed_dir = m2_run
        run = tmp_path / "damaged"
        run.mkdir()
        for f in ("predictor.json", "model_M2.json"):
            (run / f).write_bytes((seed_dir / f).read_bytes())
        doc = json.loads((run / name).read_text())
        damage(doc)
        (run / name).write_text(json.dumps(doc))
        return config, run / "model_M2.json"

    @pytest.mark.parametrize("command", ["sweep-steps", "exposure-bias"])
    @pytest.mark.parametrize(
        "name,damage",
        [
            ("model_M2.json", lambda d: d["meta"].pop("conditioning")),
            ("model_M2.json", lambda d: d["meta"].pop("method")),
            ("model_M2.json", lambda d: d["meta"].update(conditioning="M9")),
            ("model_M2.json", lambda d: d["params"][0]["data"].__setitem__(0, float("nan"))),
            ("predictor.json", lambda d: d["params"][1]["data"].__setitem__(0, float("inf"))),
            ("model_M2.json", lambda d: array_entry(d["params"], "w1").update(shape=[4, 16])),
            ("model_M2.json", lambda d: d["params"].remove(array_entry(d["params"], "b2"))),
            ("model_M2.json", lambda d: d["params"].append(dict(array_entry(d["params"], "w2"), name="w3"))),
            ("model_M2.json", lambda d: array_entry(d["ema"]["shadow"], "b0")["data"].pop()),
            ("predictor.json", lambda d: d["params"].remove(array_entry(d["params"], "w0"))),
            ("predictor.json", widen_predictor_input),
            ("predictor.json", drop_predictor_layer),
            ("model_M2.json", scale_array("w2", 1e300)),
            ("model_M2.json", saturate_head),
            ("predictor.json", saturate_head),
            ("model_M2.json", lambda d: d.update(meta=[])),
            ("model_M2.json", lambda d: d.update(meta=None)),
            ("model_M2.json", lambda d: d["meta"].update(predictor_file=5)),
            ("model_M2.json", lambda d: d["meta"].update(method=["M2"])),
            ("model_M2.json", lambda d: d["spec"].update(time_embed_pairs=float(d["spec"]["time_embed_pairs"]))),
        ],
        ids=[
            "no-conditioning", "no-method", "bad-conditioning", "nan-bridge", "inf-predictor",
            "w1-reshaped", "b2-missing", "extra-w3", "ema-b0-short", "predictor-no-w0",
            "predictor-wide-input", "predictor-other-hidden", "w2-overflow", "head-saturated",
            "predictor-head-saturated", "meta-list", "meta-null", "predictor-file-number", "method-list",
            "embed-pairs-float",
        ],
    )
    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would be a second line on stderr
    def test_bad_checkpoint_exit(self, m2_run, tmp_path, capsys, command, name, damage):
        config, ckpt = self.damaged_copy(m2_run, tmp_path, damage, name)
        code = cli.main([command, "--config", str(config), "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CHECKPOINT
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error: ") and err.count("\n") == 1
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
    {"format", "spec", "params", "adam", "ema", "seed_lineage", "meta", "name", "shape", "data", "input_dim",
     "output_dim", "hidden", "activation", "time_embed_pairs", "tanh", "w0", "b0", "w1", "b1", "w2", "b2", "w3",
     "role", "bridge", "predictor", "method", "strategy", "conditioning", "seed", "task_dim", "predictor_file",
     "predictor.json", "model_Joint.json", "model_M2.json", "M1", "M2", "M5", "M9", "Joint", "shadow", "decay",
     "m", "v", "step", "bridgelab-checkpoint.v1"}
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
# (run, file): the smoke config's Joint bridge, and an M2 bridge whose evaluation reads its predictor
FUZZ_TARGETS = [("Joint", "model_Joint.json"), ("M2", "model_M2.json"), ("M2", "predictor.json")]


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Config path and seed directory per conditioning, trained from configs/smoke.json."""
    root = tmp_path_factory.mktemp("smoke")
    runs = {}
    for label, conditioning in (("Joint", "M1"), ("M2", "M2")):
        doc = json.loads(SMOKE.read_text())
        doc["train"]["conditioning"] = conditioning
        config = root / f"{label}.json"
        config.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_train(str(config), str(root / label))
        runs[label] = (config, root / label / f"seed_{doc['seeds'][0]}")
    return runs


def checkpoint_entries(node):
    """(container, key) of every entry below `node`; of an array's values only the first."""
    found = []
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        found.append((node, key))
        if key == "data" and isinstance(value, list):
            found.extend((value, i) for i in range(min(1, len(value))))
        elif isinstance(value, (dict, list)):
            found.extend(checkpoint_entries(value))
    return found


def mutate_checkpoint(doc, draw):
    """Change one entry of one top-level block of `doc` (the block itself included): a new
    number, any new value, deleted, or a sibling added.  Drawing the block first keeps the
    small blocks (`meta`, `spec`) as likely as the parameter arrays."""
    block = draw(st.sampled_from(sorted(doc)))
    below = checkpoint_entries(doc[block]) if isinstance(doc[block], (dict, list)) else []
    parent, key = draw(st.sampled_from([(doc, block), *below]))
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
