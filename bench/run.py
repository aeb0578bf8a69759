"""Benchmark of the bridgelab pipeline: end-to-end metrics, or per-layer spans.

    python3 bench/run.py --workload train-mixture4 --seed 3 --seconds 30 --trace 0

Runs from the root of a bridgelab source tree, importing `src/bridgelab`.  One
process, BLAS pinned to one thread.  For about `--seconds` seconds it runs
whole rounds, each a set-up followed by one pass of the workload's pipeline;
time metrics are medians over the rounds.  The first round runs at the workload's pinned master
seed, whose quality metrics and output digests repeat exactly for one code
version; the others run at `--seed`.  It then checks the outputs of both seeds
and prints, as its last line, one JSON object: `correct`, `attempted`,
`failed` and the metrics (end-to-end with `--trace 0`, per-layer with
`--trace 1`).  Outputs, the manifest with digests and versions, and the span
table go to `bench/out/<workload>-seed<seed>-trace<trace>/`.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # importing this module (as its tests do) leaves the environment alone
    for _var in BLAS_THREAD_VARS:
        os.environ[_var] = "1"  # before numpy loads its BLAS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "bridgelab" / "__init__.py").is_file():
    sys.exit(f"bench: no bridgelab sources under {ROOT / 'src'}; run from a bridgelab source tree")
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import bridgelab  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - T_START
MIN_ROUNDS = 2  # the pinned round and at least one at --seed

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
    "eval_mse": "mse",
    "eval_w2": "w2",
}


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bridgelab": bridgelab.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def steps_per_s(edges_list, steps_per_training: int) -> float:
    """Optimizer steps per second spent inside train_predictor and train, pooled over rounds."""
    steps = sum(spans.training_calls(e) for e in edges_list) * steps_per_training
    return steps / sum(spans.training_seconds(e) for e in edges_list)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="master seed of every round after the first")
    p.add_argument("--seconds", type=float, required=True, help="how long to keep starting rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def run(workload: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run rounds for about `seconds`, check; returns the run's manifest.

    Writes everything under `workload.out`; `manifest["result"]` is the line
    that the benchmark prints last.
    """
    run_dir = workload.out
    shutil.rmtree(run_dir, ignore_errors=True)
    scratch = run_dir / "scratch"
    scratch.mkdir(parents=True)
    pinned = workload.pinned_seed
    round_dirs = {pinned: run_dir / "pinned"}
    if seed != pinned:
        round_dirs[seed] = run_dir / "seeded"

    targets = spans.ALL_TARGETS if trace else spans.TRAINING_TARGETS
    attempted = failed = 0
    walls, cpus, round_edges, round_digests = [], [], [], {s: [] for s in round_dirs}
    with open(run_dir / "cli.log", "w") as log, contextlib.redirect_stdout(log), spans.Tracer(targets) as tracer:
        setup_times, setup_edges = [], []
        t_start = time.perf_counter()
        while True:
            # Each round is a fresh invocation: set-up (timed as setup_s), then the pipeline (wall_s).
            round_seed = pinned if not walls else seed
            attempted += workload.ops_per_round
            try:
                t0 = time.perf_counter()
                workload.setup(seed)
                setup_times.append(time.perf_counter() - t0)
                setup_edges.append(tracer.take_round())
                t0, c0 = time.perf_counter(), time.process_time()
                workload.run_round(round_seed, round_dirs[round_seed])
            except Exception:  # a failing round counts its operations as failed and ends the run
                failed += workload.ops_per_round
                traceback.print_exc(file=sys.stderr)
                break
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            round_edges.append(tracer.take_round())
            round_digests[round_seed].append(
                checks.digests(workload.output_files(round_dirs[round_seed]), run_dir))
            elapsed = time.perf_counter() - t_start
            cycle = statistics.median(setup_times) + statistics.median(walls)
            if len(walls) >= MIN_ROUNDS and elapsed + cycle > seconds:
                break

    problems = [] if walls else ["no round completed"]
    for round_seed, out in round_dirs.items():
        if round_digests[round_seed]:
            try:
                checks.check_equal_digests(round_digests[round_seed])
                workload.check(out, round_seed, scratch)
            except checks.CheckFailed as exc:
                problems.append(f"seed {round_seed}: {exc}")
    shutil.rmtree(scratch)

    metrics = {}
    if walls and trace:
        per_round = [spans.per_layer(e) for e in round_edges]
        for name, (unit, _) in spans.PER_LAYER.items():
            metrics[name] = {"value": statistics.median(r[name] for r in per_round), "unit": unit}
        metrics["traced.wall_s"] = {"value": statistics.median(walls), "unit": "s"}
        (run_dir / "spans.json").write_text(json.dumps(spans.edges_to_json(spans.merge(round_edges)), indent=1))
    elif walls:
        mse, w2 = workload.quality(round_dirs[pinned], pinned)
        # eval-mixture4 trains only during set-up
        train_edges = [e for e in round_edges if spans.training_calls(e)] or setup_edges
        values = {
            "setup_s": IMPORT_S + statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "train_steps_per_s": steps_per_s(train_edges, workload.steps_per_training),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "eval_mse": mse,
            "eval_w2": w2,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    manifest = {
        "workload": workload.name,
        "seed": seed,
        "pinned_seed": pinned,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(),
        "import_s": IMPORT_S,
        "setup_s": setup_times,
        "round_wall_s": walls,
        "round_cpu_s": cpus,
        "digests": {str(s): d[0] if d else None for s, d in round_digests.items()},
        "problems": problems,
        "result": {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics},
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def main(argv=None) -> int:
    args = parse_args(argv)
    out = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    manifest = run(workloads.WORKLOADS[args.workload](out), args.seed, args.seconds, bool(args.trace))
    for problem in manifest["problems"]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    for seed, files in manifest["digests"].items():
        if files:
            combined = hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()
            print(f"digest seed={seed} sha256={combined}")
    print(json.dumps(manifest["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
