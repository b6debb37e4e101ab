"""The benchmark's tracer wraps library functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    missing = []
    for module, names in load_tracer().TARGETS.items():
        home = importlib.import_module(f"qschlicht.{module}")
        missing += [f"{module}.{name}" for name in names
                    if not callable(getattr(home, name, None))]
    assert not missing
