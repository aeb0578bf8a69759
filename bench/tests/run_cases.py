"""End-to-end runs of every workload on shrunken configs: metric names, spans, checks."""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# Per-layer metrics that must read above zero on each workload: the layers it is chosen to drive.
EXERCISED = {
    "train-mixture4": [
        "model.loss_and_gradients.s", "model.adam_update.s", "model.ema_update.s", "model.time_embedding.s",
        "tasks.sample_pairs.calls", "tasks.posterior_mean.s", "training.validation.s", "training.steps",
        "sampler.sde_step.s", "metrics.energy_distance.pairs", "model.save_checkpoint.bytes",
    ],
    "eval-mixture4": [
        "model.forward.rows", "sampler.network_evals", "sampler.sde_step.s", "metrics.energy_distance.s",
        "metrics.gaussian_w2.s", "metrics.si_sdr.calls", "cli.evaluate_bridge.self_s", "model.load_checkpoint.s",
        "cli.write_csv.bytes", "config.load_config.s",
    ],
    "grid-linear1-ode": [
        "sampler.ode_step.s", "training.train.self_s", "training.train_predictor.self_s", "tasks.clean_sampler.s",
        "model.save_checkpoint.s", "model.apply_mlp.s", "cli.units",
    ],
}
IDLE = {"train-mixture4": ["sampler.ode_step.s"], "eval-mixture4": ["training.steps", "sampler.ode_step.s"],
        "grid-linear1-ode": ["sampler.sde_step.s"]}


def shrunk_workload(name: str, tmp_path: Path) -> workloads.Workload:
    cls = workloads.WORKLOADS[name]
    spec = json.loads((workloads.CONFIG_DIR / cls.config_name).read_text())
    spec["model"] = {"hidden": [8, 8], "time_embed_pairs": 2}
    spec["train"].update(epochs=2, patience=2, steps_per_epoch=10, validation_size=8)
    spec["sampler"]["n_steps"] = 8  # one of sweep-steps' default step counts
    path = tmp_path / cls.config_name
    path.write_text(json.dumps(spec))
    return cls(tmp_path / "run", config_path=path)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request, tmp_path_factory):
    workload = shrunk_workload(request.param, tmp_path_factory.mktemp(request.param))
    return workload, run.run(workload, seed=5, seconds=0, trace=True)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_traced_run_reports_every_per_layer_metric(traced):
    workload, manifest = traced
    result = manifest["result"]
    assert result["correct"], manifest["problems"]
    assert result["failed"] == 0 and result["attempted"] == 2 * workload.ops_per_round
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(values[k] > 0 for k in EXERCISED[workload.name]), values
    assert all(values[k] == 0 for k in IDLE[workload.name]), values
    assert (workload.out / "spans.json").is_file()


def test_self_time_is_span_time_minus_child_time(traced):
    workload, _ = traced
    edges = json.loads((workload.out / "spans.json").read_text())
    for name in {e["name"] for e in edges if e["name"].startswith(("training.", "sampler.", "cli."))}:
        own = [e for e in edges if e["name"] == name]
        children = sum(c["total_s"] for c in edges if c["parent"] == name)
        total = sum(e["total_s"] for e in own)
        assert sum(e["self_s"] for e in own) == pytest.approx(total - children, abs=1e-9)


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    workload = shrunk_workload("train-mixture4", tmp_path)
    manifest = run.run(workload, seed=2, seconds=0, trace=False)
    result = manifest["result"]
    assert result["correct"], manifest["problems"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(manifest["digests"]) == {"1", "2"}


def test_check_catches_a_perturbed_mse(traced):
    workload, _ = traced
    out = workload.out / "pinned"
    table = out / ("strategies.csv" if workload.name == "grid-linear1-ode" else "sweep_steps.csv")
    mse, _ = workload.quality(out, workload.pinned_seed)
    table.write_text(table.read_text().replace(repr(mse), repr(mse * 1.001)))  # per-seed and median rows
    scratch = workload.out / "scratch"
    scratch.mkdir(exist_ok=True)
    with pytest.raises(checks.CheckFailed, match="mse"):
        workload.check(out, workload.pinned_seed, scratch)
