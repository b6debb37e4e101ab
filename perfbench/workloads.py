"""The benchmark's workloads: seeded operations and their correctness checks.

An operation (op) is one user-level call into qschlicht's public API.  Every
op carries a check that inspects its output outside the timed region, and a
fingerprint that must repeat from pass to pass within a run.  Inputs derive
only from the workload seed.  The library is called through module
attributes looked up at call time, so the traced run's rebinding applies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import qschlicht as qs
from qschlicht import verify

WORKLOADS = ("sweep-starlike", "sweep-convex", "certify")

SWEEP_Q = (0.2, 0.5, 0.8)
SWEEP_ALPHA = (0.0, 0.3)
FS_MU = (0.0, 0.5, 1.0)
STARLIKE_SAMPLES = 200_000
CONVEX_SAMPLES = 50_000
CONVEX_N_CHECK = 10
CERTIFY_SAMPLES = 200
LIMIT_Q = (0.9, 0.99, 0.999)

#: the replay contract of ``replay_cell`` (absolute agreement)
REPLAY_TOL = 1e-10

REFERENCE_PATH = Path(__file__).with_name("certify_reference.json")
#: the workload seed ``make_reference.py`` builds the reference at
REFERENCE_SEED = 1


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]        # problems found; [] if correct
    fingerprint: Callable[[object], str]   # must repeat from pass to pass


def op_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in
            np.random.SeedSequence(int(seed)).generate_state(count)]


def sweep_configs(workload: str, seed: int) -> list:
    """One single-group SweepConfig per (functional, q, alpha) op."""
    if workload == "sweep-starlike":
        specs = [dict(functional=fn, samples=STARLIKE_SAMPLES,
                      mu_grid=FS_MU if fn == "fs" else ())
                 for fn in ("fs", "h22")]
    else:
        specs = [dict(functional="bieberbach", samples=CONVEX_SAMPLES,
                      n_check=CONVEX_N_CHECK)]
    groups = [(spec, q, a) for spec in specs for q in SWEEP_Q
              for a in SWEEP_ALPHA]
    return [qs.SweepConfig(seed=s, q_grid=(q,), alpha_grid=(a,), **spec)
            for (spec, q, a), s in zip(groups, op_seeds(seed, len(groups)))]


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _check_sweep(cfg, report) -> list:
    problems = []
    want = len(cfg.mu_grid) if cfg.functional == "fs" else 1
    if len(report["cells"]) != want:
        problems.append(f"{len(report['cells'])} cells, expected {want}")
    for cell in report["cells"]:
        tag = f"{cfg.functional} q={cell['q']} alpha={cell['alpha']} mu={cell['mu']}"
        extremals = list((cell["extremals"] or {}).values())
        if not _finite([cell["empirical_max"], cell["stated_bound"],
                        cell["slack"], *extremals]):
            problems.append(f"{tag}: non-finite value")
            continue
        err = abs(qs.replay_cell(cfg, cell) - cell["empirical_max"])
        if not err <= REPLAY_TOL:
            problems.append(f"{tag}: replay differs by {err:.3e}")
        # the injected one-atom generator exceeds the stated alpha = 0
        # Hankel bound; the sweep must keep reporting that finding
        if cfg.functional == "h22" and cell["alpha"] == 0.0 \
                and not cell["violated"]:
            problems.append(f"{tag}: documented Hankel exceedance not flagged")
    return problems


def _sweep_op(cfg, workers: int) -> Op:
    def run():
        report = qs.run_sweep(cfg, workers=workers)
        return report, qs.canonical_json(report)

    label = f"{cfg.functional} q={cfg.q_grid[0]} alpha={cfg.alpha_grid[0]}"
    return Op(label, run, lambda out: _check_sweep(cfg, out[0]),
              lambda out: out[1])


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_key(suite: str, q: float, alpha: float) -> str:
    return f"{suite}|{q!r}|{alpha!r}"


def _check_suite(expected: dict, rows) -> list:
    """A row that passes in the committed reference must still pass.

    Rows that fail in the reference are documented findings (for example
    herglotz at alpha > 0); they are recorded, never required to pass.
    """
    got = {r.name: bool(r.passed) for r in rows}
    return [f"{name}: {'FAIL' if name in got else 'missing'}"
            for name, passed in expected.get("rows", {}).items()
            if passed and not got.get(name, False)]


def _suite_op(suite, q, alpha, seed, expected) -> Op:
    return Op(f"{suite} q={q} alpha={alpha}",
              lambda: verify.run_suite(suite, q, alpha, CERTIFY_SAMPLES, seed),
              lambda rows: _check_suite(expected, rows),
              lambda rows: repr([(r.name, bool(r.passed), r.detail)
                                 for r in rows]))


def _check_limits(rows) -> list:
    """Finite values, and the worst distance to the classical targets
    shrinks as q -> 1."""
    worst = []
    for row in rows:
        errs = [x["abs_err"] for x in
                row["fekete_szego"] + row["bieberbach"] + row["c_n"]
                + [row["hankel"]] if x["abs_err"] is not None]
        values = [x["bound"] for x in row["fekete_szego"] + row["bieberbach"]]
        values += [row["hankel"]["bound"]] + [x["c_n"] for x in row["c_n"]]
        if not _finite(values + errs):
            return [f"q={row['q']}: non-finite value"]
        worst.append(max(errs))
    if any(b >= a for a, b in zip(worst, worst[1:])):
        return [f"limit errors do not shrink toward q -> 1: {worst}"]
    return []


def _limits_op(alpha) -> Op:
    return Op(f"limits alpha={alpha}",
              lambda: qs.run_limit_sweep(list(LIMIT_Q), alpha),
              _check_limits,
              lambda rows: qs.canonical_json({"rows": rows}))


def certify_specs(seed: int) -> list:
    specs = [(suite, q, a) for suite in verify.SUITES for q in SWEEP_Q
             for a in SWEEP_ALPHA]
    return [(suite, q, a, s)
            for (suite, q, a), s in zip(specs, op_seeds(seed, len(specs)))]


def build_ops(workload: str, seed: int, workers: int) -> list:
    if workload in ("sweep-starlike", "sweep-convex"):
        return [_sweep_op(cfg, workers)
                for cfg in sweep_configs(workload, seed)]
    if workload == "certify":
        reference = load_reference()
        ops = [_suite_op(suite, q, a, s,
                         reference[reference_key(suite, q, a)])
               for suite, q, a, s in certify_specs(seed)]
        return ops + [_limits_op(a) for a in SWEEP_ALPHA]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def first_inputs(workload: str, seed: int):
    """What a user builds before the first op: the op list and, for the
    sweeps, the first group's sample arrays."""
    ops = build_ops(workload, seed, workers=1)
    if workload == "certify":
        return ops
    return ops, qs.explorer.group_samples(sweep_configs(workload, seed)[0], 0)
