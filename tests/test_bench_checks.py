"""The energy distance stays well inside the benchmark's own check of it.

`bench/checks.check_sample_metrics` recomputes every reported energy distance
with `direct_energy_distance`, from explicit difference vectors, and fails the
run past a relative `METRIC_RTOL`.  This guard scores an output set of the
`eval-mixture4` shapes (512 rows against a 2048-row d=4 mixture reference), so
a kernel change that loses accuracy fails the regular test run first.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bridgelab.metrics import ReferenceSet, energy_distance
from bridgelab.tasks import MixtureTask

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", BENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_energy_distance_inside_the_benchmark_check():
    checks = load_checks()
    task = MixtureTask(dim=4)
    rng = np.random.default_rng(50)
    reference = task.clean_sampler(2048, rng)
    outputs = 0.8 * task.clean_sampler(512, rng)  # energy distance about 0.06, as the workload's rows
    expected = checks.direct_energy_distance(outputs, reference)
    # The gap left (about 1.3e-10 relative here) is the two self-terms' diagonals: each
    # d2 = 2 x.x - 2 x.x rounds to a few ulps instead of 0, and its square root is about 1e-8.
    assert energy_distance(outputs, ReferenceSet(reference)) == pytest.approx(expected, rel=checks.METRIC_RTOL / 4)
