"""The benchmark's tracer wraps library functions by name; each must exist.
A bare ``python -m pytest`` from the checkout finds the package."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qschlicht as qs
from qschlicht import explorer
from qschlicht import power_series as ps
from qschlicht import schlicht, verify
from qschlicht.caratheodory import AtomicMeasure
from qschlicht.q_calculus import ClassParams

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


def test_every_trace_target_resolves():
    missing = []
    for module, names in load_tracer().TARGETS.items():
        home = importlib.import_module(f"qschlicht.{module}")
        missing += [f"{module}.{name}" for name in names
                    if not callable(getattr(home, name, None))]
    assert not missing


def test_benchmark_sweep_check_accepts_small_reports():
    # the benchmark's correctness check reads the report schema: the cell
    # count, finite values and extremals, replay, the Hankel exceedance flag
    workloads = load_perfbench("workloads")
    for functional, alpha, mus in (("fs", 0.3, (0.0, 0.5)), ("h22", 0.0, ()),
                                   ("bieberbach", 0.3, ())):
        cfg = explorer.SweepConfig(functional=functional, seed=5, samples=300,
                                   q_grid=(0.5,), alpha_grid=(alpha,),
                                   mu_grid=mus)
        report = explorer.run_sweep(cfg, workers=1)
        assert workloads._check_sweep(cfg, report) == []


def test_benchmark_certify_checks_pass():
    # every verify row the benchmark's reference requires still passes, and
    # the limit sweeps stay finite and shrink toward q -> 1
    workloads = load_perfbench("workloads")
    problems = {op.label: op.check(op.run())
                for op in workloads.build_ops("certify", 1, 1)}
    assert {label: p for label, p in problems.items() if p} == {}


def test_benchmark_set_up_builds_every_workload():
    # the set-up probe builds each workload's first inputs; if it breaks,
    # a benchmark run ends as run_failed
    workloads = load_perfbench("workloads")
    for workload in workloads.WORKLOADS:
        inputs = workloads.first_inputs(workload, 1)
        if workload == "certify":
            assert inputs and all(callable(op.run) for op in inputs)
            continue
        ops, (weights, angles) = inputs
        configs = workloads.sweep_configs(workload, 1)
        assert len(ops) == len(configs)
        # group_samples is atom-major, one sample a column; atom 0 has no
        # angle row, since it sits at angle 0
        cfg = configs[0]
        assert weights.shape == (cfg.k_atoms, cfg.samples)
        assert angles.shape == (cfg.k_atoms - 1, cfg.samples)
        assert list((weights[:, :9] > 0).sum(axis=0)) == [2, 3, 4] * 3
        assert np.abs(weights.sum(axis=0) - 1.0).max() <= 1e-15


@pytest.mark.parametrize("workload", ["sweep-starlike", "sweep-convex"])
def test_benchmark_sweep_argmax_is_never_a_one_atom_sample(workload):
    # a one-atom sample is a rotation of the injected one-atom extremal, so
    # when samples could have one atom, rounding picked argmax_measure among
    # the rotations; now every argmax has atom 0 at angle 0 and replays
    # bitwise, and a sample argmax has at least two atoms
    workloads = load_perfbench("workloads")
    for seed in range(1, 6):
        for cfg in workloads.sweep_configs(workload, seed):
            for cell in explorer.run_sweep(cfg, workers=2)["cells"]:
                atoms = cell["argmax_measure"]["atoms"]
                assert atoms[0]["angle"] == 0.0
                assert cell["argmax_source"] == "extremal" or len(atoms) >= 2
                assert explorer.replay_cell(cfg, cell) == cell["empirical_max"]


def test_traced_refine_measure_counts_every_scored_candidate():
    # the tracer passes its counting scorer as the first positional argument
    tracer_mod = load_tracer()
    calls = []

    def score(meas):
        calls.append(meas)
        return -abs(float(meas.angles[0]) - 1.0)

    m = AtomicMeasure(np.array([0.5, 0.5]), np.array([0.2, 3.0]))
    with tracer_mod.Tracer().installed() as tracer:
        explorer.refine_measure(score, m, iters=5)
    row = tracer_mod.summarize(tracer.spans)["explorer.refine_measure"]
    assert row["calls"] == 1
    assert row["evals"] == len(calls) > 1
    assert row["accepted"] >= 1


def test_membership_reports_carry_the_grid_the_tracer_reads():
    # the tracer counts certificate points as len(radii) * n_angles
    names = [n for n in load_tracer().TARGETS["schlicht"]
             if n.startswith("membership_")]
    assert names
    params = ClassParams(q=0.5, alpha=0.3, order=8)
    for name in names:
        grid = getattr(schlicht, name)(ps.identity(8), params).grid
        assert len(grid["radii"]) * grid["n_angles"] == schlicht._POINTS.size
        assert grid["criterion"] == name.removeprefix("membership_")


def test_traced_membership_suite_counts_certificate_points():
    # points per certificate and the unresolved total, against the reports
    # of the same suite run without the tracer; the tracer wraps the
    # membership_* names, so it sees the two generator certificates but not
    # the sampled members, which the suite certifies in one _certify batch
    reports = []
    with pytest.MonkeyPatch.context() as mp:
        def recorded(*args, _fn=verify.membership_starlike, **kwargs):
            reports.append(_fn(*args, **kwargs))
            return reports[-1]
        mp.setattr(verify, "membership_starlike", recorded)
        untraced = verify.run_suite("membership", 0.5, 0.3, 20, 1)
    tracer_mod = load_tracer()
    with tracer_mod.Tracer().installed() as tracer:
        traced = verify.run_suite("membership", 0.5, 0.3, 20, 1)
    assert traced == untraced
    rows = tracer_mod.summarize(tracer.spans)
    row = rows["schlicht.membership_starlike"]
    assert "schlicht.membership_convex" not in rows
    assert row["calls"] == len(reports) == 2
    assert row["points"] == 18 * 256 * len(reports)
    assert row["unresolved"] == sum(rep.unresolved for rep in reports)


def test_bare_pytest_collects_without_pythonpath():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p",
         "no:cacheprovider", "tests/test_q_calculus.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_library_imports_without_mpmath():
    # mpmath is a test-only oracle; no module of the library may need it
    modules = sorted(path.stem for path in
                     (ROOT / "src" / "qschlicht").glob("[!_]*.py"))
    code = ("import sys; sys.modules['mpmath'] = None; import qschlicht; "
            + "; ".join(f"import qschlicht.{name}" for name in modules))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_DISPATCH_SCRIPT = """
import hashlib
import qschlicht as qs
from qschlicht.extremal import f_exponent_series

def show(name, text):
    print(name, hashlib.sha256(text.encode()).hexdigest())

show("exponent", repr([f_exponent_series(qs.ClassParams(q / 20, a, 64)).coeffs
                       .tobytes() for q in range(1, 20) for a in (0.0, 0.3)]))
for fn, mus in (("fs", (0.0, 0.5, 1.0)), ("h22", ()), ("bieberbach", ())):
    cfg = qs.SweepConfig(functional=fn, seed=1, samples=2000, q_grid=(0.8,),
                         alpha_grid=(0.0, 0.3), mu_grid=mus)
    show(fn, qs.canonical_json(qs.run_sweep(cfg, workers=1)))
for a in (0.0, 0.3):
    show(f"limits {a}", qs.canonical_json(
        {"rows": qs.run_limit_sweep([0.9, 0.99, 0.999], a)}))
"""


def test_reports_do_not_depend_on_numpy_simd_dispatch():
    # numpy's AVX-512 kernels round some results differently from its
    # baseline ones (np.power did, and moved the q = 0.8 reports); a run
    # with them switched off must print the same hashes
    from numpy._core import _multiarray_umath as umath
    features = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)
                and (f == "X86_V4" or f.startswith("AVX512"))]
    if not features:
        pytest.skip("numpy dispatches no AVX-512 kernels on this CPU")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [subprocess.run([sys.executable, "-c", _DISPATCH_SCRIPT], cwd=ROOT,
                           env=dict(env, **extra), capture_output=True,
                           text=True, timeout=120)
            for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(features)})]
    assert [run.returncode for run in runs] == [0, 0], runs[1].stderr
    assert runs[0].stdout.count("\n") == 6
    assert runs[0].stdout == runs[1].stdout


def _imports_package_module(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "qschlicht"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "qschlicht" for alias in node.names)


def test_no_function_imports_a_package_module():
    # package imports sit at module level, where the import graph shows
    # them; the package has no import cycle that a call-time import could
    # be needed to break
    found = []
    for path in sorted((ROOT / "src" / "qschlicht").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {fn.name}"
                          for node in ast.walk(fn) if _imports_package_module(node)]
    assert not found


def test_samples_are_drawn_only_by_the_sampling_functions():
    # one draw-and-reduce path: sweeps and verify suites draw through
    # _sample_maxima; group_samples, sample_measure and the sweep's argmax
    # redraw (in _run_group) are the only other users of the sampler
    def names_sampler(node):  # a name, an attribute or an import of it
        return (getattr(node, "id", None) == "_fill_rows"
                or getattr(node, "attr", None) == "_fill_rows"
                or isinstance(node, ast.alias) and node.name == "_fill_rows")

    found = set()
    for path in sorted((ROOT / "src" / "qschlicht").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(map(names_sampler, ast.walk(stmt))):
                found.add((path.stem, getattr(stmt, "name", "import")))
    assert found == {("caratheodory", "sample_measure"),
                     ("explorer", "import"), ("explorer", "group_samples"),
                     ("explorer", "_sample_maxima"), ("explorer", "_run_group")}


def test_certificates_batch_their_members():
    # one FFT path, in _polar_values, and no per-member certificate loop:
    # a batch of members goes to schlicht._certify as the columns of one array
    def named(node, names):
        return getattr(node, "id", getattr(node, "attr", None)) in names

    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp)
    fft, looped = set(), []
    for path in sorted((ROOT / "src" / "qschlicht").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if any(named(node, {"fft"}) for node in ast.walk(stmt)):
                fft.add((path.stem, getattr(stmt, "name", None)))
        looped += [f"{path.name}:{node.lineno}" for loop in ast.walk(tree)
                   if isinstance(loop, loops) for node in ast.walk(loop)
                   if isinstance(node, ast.Call) and named(
                       node.func, {"membership_starlike", "membership_convex"})]
    assert fft == {("schlicht", "_polar_values")}
    assert not looped


def test_every_leading_axis_sum_is_the_one_contraction():
    # one implementation of each recursion: every sum over a leading axis
    # runs through power_series._contract, which einsums two operands and
    # scales the sum once; no einsum in src/ multiplies three operands
    calls = []
    for path in sorted((ROOT / "src" / "qschlicht").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls += [(path.stem, fn.name, node) for node in ast.walk(fn)
                      if isinstance(node, ast.Call) and "_einsum" in (
                          getattr(node.func, "id", None),
                          getattr(node.func, "attr", None))]
    assert calls
    contracting = set()
    for module, name, call in calls:
        spec = call.args[0].value
        inputs, output = spec.split("->")
        assert len(call.args) - 1 == len(inputs.split(",")) == 2, (module, name)
        if inputs[0] != "." and inputs[0] not in output:
            contracting.add((module, name))
    assert contracting == {("power_series", "_contract")}


def test_every_sample_is_scored_by_the_one_sweep_scorer():
    # sweeps, replay, extremal injection and the verify suites share
    # explorer._scorer and its half-block split, which bounds a Bieberbach
    # block's temporaries; a caller of the score functions would skip it
    scores = {"_starlike_scores", "_bieberbach_scores"}
    callers = set()
    for path in sorted((ROOT / "src" / "qschlicht").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            callers |= {(path.stem, getattr(stmt, "name", None))
                        for node in ast.walk(stmt) if isinstance(node, ast.Call)
                        and scores & {getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None)}}
    assert callers == {("explorer", "_scorer")}
    tree = ast.parse((ROOT / "src" / "qschlicht" / "verify.py")
                     .read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & (scores | {"_exponent_core"})


#: public names that nothing outside tests/ uses yet, each with why it stays
UNUSED_PUBLIC_NAMES = {
    "extend_p23": "ROADMAP item 4 gives it a caller",
    "dump_measure": "writes the `coeffs --source measure:FILE` format",
}


def _names_used(path) -> set:
    """Names a file reads, as a variable, an attribute or a whole string
    (the tracer's targets); a def or class statement does not read its own
    name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_name_is_used_outside_tests():
    files = [p for p in (ROOT / "src" / "qschlicht").glob("*.py")
             if p.name != "__init__.py"]
    files += list((ROOT / "demos").glob("*.py"))
    files += list((ROOT / "perfbench").glob("*.py"))
    used = set().union(*map(_names_used, files))
    public = set(qs.__all__)
    assert all(UNUSED_PUBLIC_NAMES.values())
    assert set(UNUSED_PUBLIC_NAMES) <= public, "allowlisted name left __all__"
    assert sorted(public - used) == sorted(UNUSED_PUBLIC_NAMES)


def test_every_error_class_is_raised_in_src():
    # an exception class that src/ never raises tells no failure apart, as
    # an exported name that nothing uses does no work
    src = ROOT / "src" / "qschlicht"
    defined = {node.name for node in
               ast.parse((src / "errors.py").read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
    assert defined and sorted(defined - raised) == []
