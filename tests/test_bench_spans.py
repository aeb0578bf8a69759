"""The benchmark's span targets resolve against the package.

`bench/spans.py` wraps each target under the name its caller looks up,
`owner.__dict__[attr]`, so a refactor that drops such a name (say an import
into `cli`) breaks traced benchmark runs.  This guard catches it in the
regular test run.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves_to_a_callable():
    spans = load_spans()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in spans.ALL_TARGETS
        if not callable(owner.__dict__.get(attr))
    ]
    assert not missing, f"span targets without a callable under that name: {missing}"
