"""Config parsing: strict keys, enums, defaults."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelab import cli
from bridgelab.config import ConfigError, load_config
from bridgelab.model import bridge_model_spec, predictor_spec
from bridgelab.sampler import SamplerConfig, SamplerKind
from bridgelab.schedule import NoiseSchedule
from bridgelab.seeding import named_stream
from bridgelab.tasks import LinearGaussianTask, MixtureTask
from bridgelab.training import ConditioningStrategy, TrainConfig, TrainingStrategy

GOOD = {
    "task": {"kind": "mixture", "dim": 2, "noise_var": 0.1},
    "schedule": {"c": 0.4, "k": 2.6, "t_eps": 1e-4},
    "model": {"hidden": [16, 16], "time_embed_pairs": 4},
    "train": {
        "epochs": 2,
        "steps_per_epoch": 10,
        "batch_size": 4,
        "strategy": "Joint",
        "conditioning": "M1",
        "patience": 3,
        "validation_size": 8,
    },
    "sampler": {"n_steps": 5, "kind": "SDE"},
    "out_dir": "out",
    "seeds": [1, 2],
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestLoadConfig:
    def test_full_document(self, tmp_path):
        cfg = load_config(write_config(tmp_path, GOOD))
        assert isinstance(cfg.task, MixtureTask)
        assert cfg.task.dim == 2 and cfg.task.noise_var == 0.1
        assert cfg.bridge_spec.hidden == (16, 16)
        assert cfg.train.strategy is TrainingStrategy.JOINT
        assert cfg.train.conditioning is ConditioningStrategy.M1
        assert cfg.sampler.kind is SamplerKind.SDE
        assert cfg.seeds == (1, 2)

    def test_linear_gaussian_task(self, tmp_path):
        doc = dict(GOOD, task={"kind": "linear_gaussian", "dim": 3, "noise_var": 0.5})
        cfg = load_config(write_config(tmp_path, doc))
        assert isinstance(cfg.task, LinearGaussianTask)
        assert cfg.task.dim == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update({"extra_block": {}}),
            lambda d: d["task"].update({"bogus": 1}),
            lambda d: d["train"].update({"learning_rate": 0.1}),
            lambda d: d["sampler"].update({"warp": "fast"}),
            lambda d: d["model"].update({"dropout": 0.5}),
            lambda d: d["sampler"].update({"t_min": 0.05}),
        ],
    )
    def test_unknown_keys_are_errors(self, tmp_path, mutate):
        doc = json.loads(json.dumps(GOOD))
        mutate(doc)
        with pytest.raises(ConfigError, match="unknown"):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["train"].update({"epochs": 2.5}),
            lambda d: d["train"].update({"epochs": True}),
            lambda d: d["train"].update({"batch_size": 4.0}),
            lambda d: d["train"].update({"patience": False}),
            lambda d: d["sampler"].update({"n_steps": 5.5}),
            lambda d: d["task"].update({"dim": True}),
            lambda d: d["model"].update({"time_embed_pairs": 4.0}),
            lambda d: d["model"].update({"hidden": [16, True]}),
            lambda d: d["model"].update({"hidden": 16}),
            lambda d: d.update({"seeds": [True]}),
            lambda d: d.update({"seeds": [1, 2.5]}),
            lambda d: d.update({"model": 5}),
            lambda d: d.update({"train": []}),
            lambda d: d.update({"task": [1]}),
            lambda d: d["schedule"].update({"c": True}),
            lambda d: d["schedule"].update({"k": float("nan")}),
            lambda d: d["schedule"].update({"t_eps": "1e-4"}),
            lambda d: d["task"].update({"noise_var": True}),
            lambda d: d["task"].update({"centers": [True, 1.0]}),
            lambda d: d["task"].update({"weights": [0.5, float("inf")]}),
            lambda d: d["task"].update({"centers": 1.0}),
            lambda d: d["task"].update({"s2": float("inf")}),
            lambda d: d.update({"task": {"kind": "linear_gaussian", "prior_var": False}}),
            lambda d: d.update({"task": {"kind": "linear_gaussian", "noise_var": float("-inf")}}),
            lambda d: d.update({"seeds": [1, -2]}),
            lambda d: d.update({"out_dir": None}),
            lambda d: d.update({"out_dir": ""}),
            lambda d: d["model"].update({"hidden": [16, 0]}),
            lambda d: d["model"].update({"time_embed_pairs": -1}),
            lambda d: d["sampler"].update({"grid": "chebyshev"}),
            lambda d: d["train"].update({"conditioning": "M5"}),
        ],
        ids=[
            "epochs-float", "epochs-bool", "batch-integral-float", "patience-bool", "n_steps-float",
            "dim-bool", "embed-float", "hidden-bool", "hidden-scalar", "seed-bool", "seed-float",
            "model-scalar", "train-list", "task-list", "c-bool", "k-nan", "t_eps-string",
            "noise_var-bool", "center-bool", "weight-inf", "centers-scalar", "s2-inf", "prior_var-bool",
            "linear-noise_var-inf", "seed-negative", "out_dir-null", "out_dir-empty",
            "hidden-zero", "embed-negative", "grid-not-uniform", "conditioning-M5",
        ],
    )
    def test_counts_and_blocks_must_be_typed(self, tmp_path, capsys, mutate):
        doc = json.loads(json.dumps(GOOD))
        mutate(doc)
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError):
            load_config(path)
        code = cli.main(["dump-dataset", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_bad_enumeration_values(self, tmp_path):
        doc = json.loads(json.dumps(GOOD))
        doc["train"]["strategy"] = "Both"
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    def test_empty_seed_list(self, tmp_path):
        doc = json.loads(json.dumps(GOOD))
        doc["seeds"] = []
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    def test_unknown_task_kind(self, tmp_path):
        doc = json.loads(json.dumps(GOOD))
        doc["task"] = {"kind": "speech"}
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    def test_invalid_parameter_value(self, tmp_path):
        doc = json.loads(json.dumps(GOOD))
        doc["schedule"]["k"] = 0.9
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    def test_defaults_fill_missing_blocks(self, tmp_path):
        # every missing key takes the default of the constructor its block feeds
        doc = {"task": {"kind": "mixture"}, "out_dir": "out", "seeds": [7]}
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.task == MixtureTask()
        assert cfg.schedule == NoiseSchedule()
        assert cfg.train == TrainConfig()
        assert cfg.sampler == SamplerConfig()
        assert cfg.bridge_spec == bridge_model_spec(1)
        assert cfg.predictor_spec == predictor_spec(1)
        doc["task"] = {"kind": "linear_gaussian"}
        task, expected = load_config(write_config(tmp_path, doc)).task, LinearGaussianTask.identity()
        for name in ("mu0", "Sigma0", "A", "Sigma_n"):
            np.testing.assert_array_equal(getattr(task, name), getattr(expected, name))

    def test_sampler_overrides(self, tmp_path):
        doc = json.loads(json.dumps(GOOD))
        doc["sampler"] = {"n_steps": 7, "kind": "ODE", "grid": "uniform"}
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.sampler.n_steps == 7
        assert cfg.sampler.kind is SamplerKind.ODE

    def test_overrides_replace_out_dir_and_seeds(self, tmp_path):
        path = write_config(tmp_path, GOOD)
        cfg = load_config(path, "elsewhere", 9)
        assert cfg.out_dir == "elsewhere" and cfg.seeds == (9,)
        assert load_config(path) == load_config(path, None, None)
        assert load_config(path).seeds == (1, 2)

    @pytest.mark.parametrize(
        "out,seed", [(None, -1), (None, True), (None, 2.0), (5, None), ("", None)],
        ids=["seed-negative", "seed-bool", "seed-float", "out-number", "out-empty"],
    )
    def test_overrides_are_checked_like_the_document(self, tmp_path, out, seed):
        with pytest.raises(ConfigError, match="--seed" if seed is not None else "--out"):
            load_config(write_config(tmp_path, GOOD), out, seed)

    @pytest.mark.parametrize(
        "key,value", [("seeds", [1, -2]), ("seeds", []), ("out_dir", None)],
        ids=["negative-seed", "empty-seeds", "null-out_dir"],
    )
    def test_overrides_do_not_hide_an_invalid_document(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, dict(GOOD, **{key: value}))
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=key):
            load_config(path, str(out), 3)
        code = cli.main(["dump-dataset", "--config", str(path), "--out", str(out), "--seed", "3"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()


# ---------------------------------------------------------------------------
# fuzzing: every document either loads or exits 2 with one line

SHIPPED = {p.name: json.loads(p.read_text()) for p in sorted((Path(__file__).parents[1] / "configs").glob("*.json"))}
WORDS = sorted(
    {"task", "schedule", "model", "train", "sampler", "out_dir", "seeds", "kind", "mixture", "linear_gaussian",
     "centers", "weights", "s2", "noise_var", "prior_var", "dim", "c", "k", "t_eps", "hidden", "time_embed_pairs",
     "epochs", "steps_per_epoch", "batch_size", "strategy", "conditioning", "patience", "validation_size",
     "n_steps", "grid", "uniform", "SDE", "ODE", "Joint", "Vanilla", "M2"}
)
# Numbers stay small: a document that loads is run through dump-dataset, which allocates task.dim columns.
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8), st.floats(), st.sampled_from(WORDS), st.text(max_size=4)
)
NUMBERS = st.one_of(st.integers(-3, 8), st.floats(), st.booleans())
NAMES = st.one_of(st.sampled_from(WORDS), st.text(max_size=4))
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(NAMES, inner, max_size=5), max_leaves=16
)
# documents with the config's top-level blocks, so that parsing gets past the root checks
BLOCKS = ["task", "schedule", "model", "train", "sampler", "out_dir", "seeds"]
DOCUMENTS = VALUES | st.dictionaries(st.sampled_from(BLOCKS), VALUES)
# `--seed` (negatives included, None leaves it out) and whether `--out` names an existing file
SEEDS = st.none() | st.integers(-3, 8)
FUZZ = settings(max_examples=100, deadline=None, derandomize=True)


def assert_loads_or_exits_2(doc, seed=None, out_is_file=False):
    """dump-dataset on a config file holding `doc` either runs, or exits 2 with one line and writes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "fuzz.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        if out_is_file:
            out.write_text("kept\n")
        argv = ["dump-dataset", "--config", str(path), "--out", str(out)]
        argv += [] if seed is None else ["--seed", str(seed)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        err = err.getvalue()
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG), (code, err)
        if out_is_file or (seed is not None and seed < 0):
            assert code == cli.EXIT_CONFIG, err
        if code == cli.EXIT_CONFIG:
            assert err.startswith("config error: ") and err.count("\n") == 1, err
            assert out.read_text() == "kept\n" if out_is_file else not out.exists()
            return
        # what loads is usable by every subcommand: both networks for the task, every seed's streams
        cfg = load_config(path, str(out), seed)
        assert cfg.out_dir == str(out) and (seed is None or cfg.seeds == (seed,))
        hidden, pairs = cfg.bridge_spec.hidden, cfg.bridge_spec.time_embed_pairs
        assert cfg.bridge_spec == bridge_model_spec(cfg.task.dim, hidden, pairs)
        assert cfg.predictor_spec == predictor_spec(cfg.task.dim, hidden)
        for s in cfg.seeds:
            named_stream(s, "train")


def entries(node):
    """(container, key) of every entry at every depth below `node`."""
    found = []
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        found.append((node, key))
        if isinstance(value, (dict, list)):
            found.extend(entries(value))
    return found


def mutate(doc, draw):
    """Change one entry of `doc`: a new number, any new value, deleted, or a sibling added."""
    parent, key = draw(st.sampled_from(entries(doc)))
    action = draw(st.sampled_from(["number", "value", "delete", "add"]))
    if action == "number":
        parent[key] = draw(NUMBERS)
    elif action == "value":
        parent[key] = draw(VALUES)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent[draw(NAMES)] = draw(VALUES)
    else:
        parent.insert(key, draw(VALUES))


class TestConfigFuzz:
    @FUZZ
    @given(doc=DOCUMENTS, seed=SEEDS, out_is_file=st.booleans())
    def test_random_documents(self, doc, seed, out_is_file):
        assert_loads_or_exits_2(doc, seed, out_is_file)

    @FUZZ
    @given(name=st.sampled_from(sorted(SHIPPED)), data=st.data(), seed=SEEDS, out_is_file=st.booleans())
    def test_mutated_shipped_configs(self, name, data, seed, out_is_file):
        doc = copy.deepcopy(SHIPPED[name])
        for _ in range(data.draw(st.integers(1, 2))):
            mutate(doc, data.draw)
        assert_loads_or_exits_2(doc, seed, out_is_file)

    def test_shipped_configs_load(self):
        # the benchmark's configs too, so a key they name cannot be deleted unnoticed
        root = Path(__file__).parents[1]
        for path in sorted(root.glob("configs/*.json")) + sorted(root.glob("bench/configs/*.json")):
            load_config(path)
