"""The benchmark's own reproduction of an evaluation runs against the package.

`bench/workloads.reproduce_finals` calls `inference_endpoints`,
`make_bridge_predictor`, `sample_trajectory_batch` and `apply_mlp`
positionally to regenerate the samples behind a CSV row.  This guard runs it
on an M2 checkpoint, whose strategy needs the predictor at inference, so a
signature change in any of them fails the regular test run.
"""

import importlib.util
import json
from pathlib import Path

from bridgelab import cli
from bridgelab.metrics import mse

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its sibling `checks`
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_finals_matches_the_sweep_row(tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    doc = json.loads((ROOT / "configs" / "smoke.json").read_text())
    doc["train"]["conditioning"] = "M2"
    config = tmp_path / "m2.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "run"
    seed = 1
    cli.cmd_train(str(config), str(out), seed)
    ckpt = out / f"seed_{seed}" / "model_M2.json"
    n_steps = doc["sampler"]["n_steps"]
    csv_path = cli.cmd_sweep_steps(str(config), [str(ckpt)], str(n_steps), str(out), seed)

    cfg = cli.load_config(config)
    eval_set = cli.make_eval_set(cfg, seed)
    finals = workloads.reproduce_finals(cfg, ckpt, eval_set, seed, n_steps)
    _, rows = workloads.checks.read_csv(csv_path)
    assert [(r[1], int(r[2])) for r in rows] == [("M2", n_steps)]
    assert mse(finals, eval_set[0]) == float(rows[0][3])
