"""The benchmark tracer wraps oddtown functions by name; every name must resolve.

A refactor that renames or removes a traced function then fails here rather
than in the benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = load_tracing().TARGETS
    assert targets
    for layer, module, attrs, _ in targets:
        home = importlib.import_module(f"oddtown.{module}")
        for attr in attrs:
            obj = home
            for part in attr.split("."):
                assert hasattr(obj, part), f"{layer}: oddtown.{module}.{attr} does not exist"
                obj = getattr(obj, part)
            assert callable(obj), f"{layer}: oddtown.{module}.{attr} is not callable"
