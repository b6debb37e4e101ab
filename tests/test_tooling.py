"""The benchmark's tracer wraps library functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

from qschlicht import power_series as ps
from qschlicht import schlicht
from qschlicht.q_calculus import ClassParams

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


def test_membership_reports_carry_the_grid_the_tracer_reads():
    # the tracer counts certificate points as len(radii) * n_angles
    names = [n for n in load_tracer().TARGETS["schlicht"]
             if n.startswith("membership_")]
    assert names
    params = ClassParams(q=0.5, alpha=0.3, order=8)
    for name in names:
        grid = getattr(schlicht, name)(ps.identity(8), params).grid
        assert len(grid["radii"]) * grid["n_angles"] == schlicht.CertGrid().points().size
        assert grid["criterion"] == name.removeprefix("membership_")
