"""The benchmark's own test cases pass against the package.

`bench/tests/checks_cases.py` and `bench/tests/run_cases.py` are not named
`test_*.py`, so a plain `pytest` run does not collect them.  This test runs
them in a child process, so a change under `src/` that breaks the benchmark's
checks or its workloads fails the regular test run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_cases_pass():
    cases = ["bench/tests/checks_cases.py", "bench/tests/run_cases.py"]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *cases],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
