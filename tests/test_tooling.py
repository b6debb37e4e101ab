"""The benchmark's tracer wraps library functions by name; each must exist.
A bare ``python -m pytest`` from the checkout finds the package."""

import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_bare_pytest_collects_without_pythonpath():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p",
         "no:cacheprovider", "tests/test_q_calculus.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
