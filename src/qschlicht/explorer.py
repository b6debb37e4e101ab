"""Seeded extremal-search sweeps with reproducible reports.

Samples atomic measures per (q, alpha) group from the PCG64 stream of
:func:`.caratheodory._fill_rows` for (master seed, group index), evaluates
the chosen functional on the generated class members, and compares the
empirical maximum against the stated (or conjectured) bound.  Every sample
is scored once, on the member its p generates, so every scored member is
in the class; candidate extremals outside it are recorded, never scored.
A Bieberbach score |b_n|/E_n is |a_n|/f1_n of the starlike member and f1,
whose q-integrals b and E_q share the divisor [n]_q.  Bound violations
never abort a run; they are first-class report rows, because adjudicating
the stated bounds is the whole point of the harness.

Determinism contract:
  * sample i of group g takes draws (2*k_atoms - 1)*i onwards of the stream
    with spawn key (g,), so it depends only on (seed, g, i), and enlarging
    ``samples`` keeps every earlier sample identical; a verify suite at seed
    s scores the first samples of group 0 of a k_atoms = 4 sweep at seed s;
  * every sample has atom 0 at angle 0 and two atoms or more: the scores
    are rotation invariant, and one atom is only the injected extremal;
  * :func:`_sample_maxima` draws and scores a sweep group's or a verify
    suite's samples in blocks of ``BLOCK``, the pool's work units, whatever
    the worker count: the job of samples lo..hi-1 advances the group's PCG64
    stream (2*k_atoms - 1)*lo draws, fills its thread's atom-major
    (2*k_atoms - 1, hi - lo) scratch block and returns only each key's
    largest value and the index of its first occurrence.  Scoring is
    elementwise along the sample axis, so a sample scores the same in any
    block; the first block holding the largest value wins, so ties go to
    the lowest sample index, and a sweep draws the winning sample again
    alone.  Both thus hold O(workers * BLOCK) samples, whatever ``samples``
    is;
  * single-measure evaluation is a batch of one: replay runs the sweep's
    scorer on one column, and the injected extremals are one padded block
    of it, so a measure scores bitwise the same alone as in any block;
  * reports serialize canonically (sorted keys, %.17g floats), so a fixed
    seed yields byte-identical JSON for any worker count.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .caratheodory import MAX_ATOMS, RNG_NAME, TWO_PI, AtomicMeasure, \
    _check_seed, _fill_rows, _moments, _p_coeffs, measure_from_dict
from .errors import ConfigError, RangeError
from .extremal import _generators, f1_series
from .functionals import Bound, _fs, _h2, bieberbach_bound_convex, \
    fekete_szego_value, fs_bound, hankel_bound, hankel_value
from .power_series import MAX_ORDER
from .q_calculus import ClassParams, _check_count
from .schlicht import _scratch, _starlike_core

FUNCTIONALS = ("fs", "h22", "bieberbach")

#: a cell is violated when its slack falls below -VIOLATION_TOL, relative to
#: bounds above 1: an fs bound grows with |mu|, and so does the rounding of
#: its slack
VIOLATION_TOL = 1e-7

#: :func:`refine_measure`'s guards near the class boundary, where the
#: parametrization conditions badly: weights stay above this floor and atoms
#: this far apart.
MIN_WEIGHT = 1e-4
MIN_SEPARATION = 1e-3

#: rows per work unit of a sweep's scoring pass, fixed so that the work split
#: does not depend on the worker count
BLOCK = 8192
_cpu_count = functools.cache(os.cpu_count)  # os.cpu_count() asks the OS on every call


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else QSCHLICHT_THREADS, else cores."""
    if workers is None:
        env = os.environ.get("QSCHLICHT_THREADS")
        if not env:
            return _cpu_count() or 1
        if not env.strip().isdecimal() or int(env) < 1:
            raise ConfigError(
                f"QSCHLICHT_THREADS must be a positive integer, got {env!r}")
        return int(env)
    return _check_count(workers, "worker count", 1, None, ConfigError)


@dataclass(frozen=True)
class SweepConfig:
    functional: str
    seed: int
    samples: int
    q_grid: tuple
    alpha_grid: tuple = (0.0,)
    mu_grid: tuple = ()
    k_atoms: int = 4
    include_extremals: bool = True
    n_check: int = 10

    def __post_init__(self):
        if self.functional not in FUNCTIONALS:
            raise ConfigError(f"functional must be one of {FUNCTIONALS}")
        if self.functional == "fs" and not self.mu_grid:
            raise ConfigError("fs sweeps need a non-empty mu_grid")
        if self.functional != "fs" and self.mu_grid:
            raise ConfigError("mu_grid applies only to fs sweeps")
        object.__setattr__(self, "seed", _check_seed(self.seed))
        # k_atoms >= 2: a sweep sample keeps (i % (k_atoms - 1)) + 2 atoms
        for name, lo, hi in (("samples", 1, None), ("k_atoms", 2, MAX_ATOMS),
                             ("n_check", 2, MAX_ORDER)):
            object.__setattr__(self, name, _check_count(
                getattr(self, name), name, lo, hi, ConfigError))
        if not self.q_grid or not self.alpha_grid:
            raise ConfigError("q_grid and alpha_grid must be non-empty")
        for q in self.q_grid:
            if not (0.0 < q < 1.0):
                raise ConfigError(f"q grid value {q} outside (0, 1)")
        for a in self.alpha_grid:
            if not (0.0 <= a < 1.0):
                raise ConfigError(f"alpha grid value {a} outside [0, 1)")
        for mu in self.mu_grid:
            if not cmath.isfinite(complex(mu)):
                raise ConfigError(f"mu grid value {mu} is not finite")
            for q, a in itertools.product(self.q_grid, self.alpha_grid):
                try:
                    fs_bound(ClassParams(q=q, alpha=a), mu)
                except RangeError as exc:
                    raise ConfigError(
                        f"mu grid value {mu} at q = {q}, alpha = {a}: {exc}") from exc
        object.__setattr__(self, "q_grid", tuple(float(q) for q in self.q_grid))
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in self.alpha_grid))
        object.__setattr__(self, "mu_grid", tuple(complex(m) for m in self.mu_grid))

    def to_dict(self) -> dict:
        """Every field, with mu as [re, im] pairs, plus the RNG name."""
        return {**asdict(self), "rng": RNG_NAME,
                "mu_grid": [[m.real, m.imag] for m in self.mu_grid]}


# -- sample generation --------------------------------------------------------


def group_samples(cfg: SweepConfig, group_index: int):
    """Atom-major weights and angles, (k_atoms, samples) and (k_atoms - 1,
    samples), of one (q, alpha) group: every sample of the group's stream at
    once; atom 0 of each sits at angle 0."""
    cols = np.empty((2 * cfg.k_atoms - 1, cfg.samples))
    return _fill_rows(cfg.seed, (group_index,), cols, 0)


def _measure_from_row(weights, angles) -> AtomicMeasure:
    """A sample column's measure: atom 0 at angle 0, zero weights dropped."""
    mask = weights > 0
    return AtomicMeasure(weights[mask], np.append(0.0, angles)[mask])


# -- batch scorers: atoms on axis 0, one column per sample --------------------


def _starlike_scores(functional, weights, angles, q, alpha, mus):
    """Per-sample |a3 - mu a2^2| (fs, from p_1..p_2) or |a2 a4 - a3^2| (h22,
    from p_1..p_3) of (k, samples) weights and angles, keyed by mu."""
    n_max = 2 if functional == "fs" else 3
    a = _starlike_core(_p_coeffs(_moments(weights, angles, n_max)), q, alpha)
    if functional == "fs":
        return {mu: _fs(a, mu) for mu in mus}
    return {mu: np.abs(_h2(a)) for mu in mus}


def _bieberbach_scores(weights, angles, q, alpha, n_check):
    """Per-sample max_{2<=n<=n_check} |b_n|/E_n for the q-integral b of the
    p-route member a = z (Dq f), from m_1..m_{n_check-1}, read as |a_n|/f1_n:
    b_n = a_n/[n]_q and the table E_q = iq(f1) share [n]_q.  At alpha = 0 a
    unit atom at 0 gives f1 bitwise (see _starlike_core), a ratio of 1."""
    f1 = _generators(ClassParams(q, alpha, max(n_check, 4)))[0].coeffs.real
    a = _starlike_core(_p_coeffs(_moments(weights, angles, n_check - 1)), q, alpha)
    return (np.abs(a[2:]) / f1[2:n_check + 1, None]).max(axis=0, initial=0.0)


def _scorer(functional, q, alpha, keys, n_check):
    """A sweep cell's score(weights, angles) -> {key: values} of (k, n)
    atom-major samples: the starlike scores per mu in ``keys``, or the
    Bieberbach ratios under the key None."""
    def score(w, a):
        if functional != "bieberbach":
            return _starlike_scores(functional, w, a, q, alpha, keys)
        # halving a Bieberbach block bounds its n_check degrees of temporaries:
        # sweep-convex peak RSS 45.1 MB, unsplit 50.0-50.3 MB, same wall time;
        # the bieberbach verify suite at 40k samples 42.4-43.2 MB, unsplit 46.0-48.7
        return {None: np.concatenate([
            _bieberbach_scores(w[:, i:i + BLOCK // 2], a[:, i:i + BLOCK // 2],
                               q, alpha, n_check)
            for i in range(0, w.shape[1], BLOCK // 2)])}

    return score


def evaluate_measure(functional: str, m: AtomicMeasure, q: float, alpha: float,
                     mu: complex | None = None, n_check: int = 10) -> float:
    """Functional value for one measure; the replay target.

    The sweep's scorer run on one sample, after rotating the measure by
    minus its first angle, which no functional here sees; a sampled measure
    has that angle 0, so it scores bitwise the same here as in the sweep.
    """
    if functional not in FUNCTIONALS:
        raise ConfigError(f"unknown functional {functional!r}")
    if functional == "fs" and (mu is None or not cmath.isfinite(complex(mu))):
        raise ConfigError(f"fs needs a finite mu, got {mu!r}")
    n_check = _check_count(n_check, "n_check", 2, MAX_ORDER, ConfigError)
    ClassParams(q=q, alpha=alpha)  # validates q and alpha
    key = None if functional == "bieberbach" else mu
    score = _scorer(functional, q, alpha, (key,), n_check)
    angles = m.rotated(-m.angles[0]).angles[1:]
    return float(score(m.weights[:, None], angles[:, None])[key][0])


def replay_cell(cfg: SweepConfig, cell: dict) -> float:
    """Re-evaluate a report cell's argmax measure with evaluate_measure."""
    m = measure_from_dict(cell["argmax_measure"])
    mu = None if cell.get("mu") is None else complex(cell["mu"][0], cell["mu"][1])
    return evaluate_measure(cfg.functional, m, cell["q"], cell["alpha"], mu=mu,
                            n_check=cfg.n_check)


# -- refinement ---------------------------------------------------------------


def refine_measure(score_fn, m: AtomicMeasure, iters: int):
    """Coordinate ascent over the atom angles and weights of ``m``, scoring
    one candidate measure at a time with score_fn.

    A pass moves each angle, then each weight (only when there are two atoms
    or more), trying +step before -step and taking a move as soon as it
    beats the best value; the next atom's moves start from the new point.
    Angle moves keep atoms MIN_SEPARATION apart and keep the angle as
    stepped, before the mod 2 pi that AtomicMeasure takes; weight moves
    renormalize and keep every weight above MIN_WEIGHT.  The first pass
    steps by 0.1, a pass that accepts nothing halves the step, and the
    ascent stops after ``iters`` passes or when the step falls below 1e-12.
    Returns the best (value, measure) found; never worse than the start.
    Sweeps do not refine: they inject the one- and two-atom members this
    ascent climbs toward."""
    w, ang = m.weights, m.angles
    best = score_fn(AtomicMeasure(w, ang))
    k = w.size
    i, j = np.triu_indices(k, 1)
    step = 0.1
    for _ in range(iters):
        improved = False
        for slot in range(2 * k if k > 1 else k):
            for s in (step, -step):
                if slot < k:
                    cw, ca = w, ang.copy()
                    ca[slot] = (ca[slot] + s) % TWO_PI
                    d = np.abs(ca[i] - ca[j]) % TWO_PI
                    if (np.minimum(d, TWO_PI - d) < MIN_SEPARATION).any():
                        continue
                else:
                    cw, ca = w.copy(), ang
                    cw[slot - k] = max(cw[slot - k] * (1.0 + s), MIN_WEIGHT)
                    cw = cw / cw.sum()
                    if (cw < MIN_WEIGHT).any():
                        continue
                v = score_fn(AtomicMeasure(cw, ca))
                if v > best:
                    best, w, ang, improved = v, cw, ca, True
                    break
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return best, AtomicMeasure(w, ang)


# -- sweep drivers ------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _pool(workers: int) -> ThreadPoolExecutor:
    """The block reduction's thread pool, kept for the process while the
    worker count stays the same.  A pool per call starts new threads while
    the last pool's threads are still exiting; such a thread can get a fresh
    malloc arena, which keeps its few MB of freed block arrays for the rest
    of the process."""
    return ThreadPoolExecutor(max_workers=workers)


def _parallel_scores(score_block, total: int, workers: int):
    """Per key, the largest value over rows 0..total-1 and its row index.

    score_block(lo, hi) returns a dict mapping key -> values of rows lo..hi-1.
    The pool's work units are blocks of BLOCK rows, and each reduces its
    values to the first maximum; the first block holding the largest value
    wins, so ties go to the lowest index.  The pool is fed 64 blocks at a
    time, so the pending jobs stay few however many rows there are."""
    def job(lo):
        vals = score_block(lo, min(lo + BLOCK, total))
        return {key: (float(v[i]), lo + i)
                for key, v in vals.items() for i in [int(np.argmax(v))]}

    starts = range(0, total, BLOCK)
    if workers == 1 or len(starts) == 1:
        parts = map(job, starts)
    else:
        parts = itertools.chain.from_iterable(
            _pool(workers).map(job, starts[i:i + 64])
            for i in range(0, len(starts), 64))
    best = {}
    for part in parts:
        for key, (v, i) in part.items():
            if key not in best or v > best[key][0]:
                best[key] = (v, i)
    return best


def _sample_maxima(score, seed: int, group: int, k_atoms: int, total: int, workers: int):
    """:func:`_parallel_scores` of group ``group``'s samples: each job draws
    its block into its thread's scratch, then score(weights, angles)."""
    def score_block(lo, hi):
        block = _scratch("samples", (2 * k_atoms - 1, hi - lo))
        return score(*_fill_rows(seed, (group,), block, lo))

    return _parallel_scores(score_block, total, workers)


def _stated(functional: str, q: float, alpha: float):
    """mu -> (stated Bound, extremals) of a cell.  Bieberbach ratios are
    normalized, so their bound is 1 and the recorded extremal is E_q's
    ratio |b_n|/E_n = f1_n/f1_n, exactly 1; the starlike cells record the
    generators f1 and f2."""
    if functional == "bieberbach":
        return lambda _mu: (Bound(1.0, alpha > 0.0), {"eq": 1.0})
    params = ClassParams(q=q, alpha=alpha)
    small = ClassParams(q=q, alpha=alpha, order=6)
    f1, f2 = _generators(small)
    if functional == "fs":
        return lambda mu: (fs_bound(params, mu), {
            "f1": fekete_szego_value(f1, mu), "f2": fekete_szego_value(f2, mu)})
    return lambda _mu: (hankel_bound(params), {
        "f1": hankel_value(f1), "f2": hankel_value(f2)})


def run_sweep(cfg: SweepConfig, workers: int | None = None) -> dict:
    """Run the configured sweep and return the report dictionary."""
    workers = resolve_workers(workers)
    # glibc maps each block temporary of a few hundred KB fresh, and faults
    # it in page by page, until freeing a larger mapped chunk raises its mmap
    # threshold to that size (and the trim threshold to twice it; see
    # mallopt(3)); this untouched 16 MiB array does so at once.  A 32 MiB
    # one would exceed DEFAULT_MMAP_THRESHOLD_MAX and raise nothing.
    np.empty(1 << 21)
    cells = []
    groups = [(q, a) for q in cfg.q_grid for a in cfg.alpha_grid]
    for g_idx, (q, alpha) in enumerate(groups):
        cells.extend(_run_group(cfg, workers, g_idx, q, alpha))
    return {"config": cfg.to_dict(), "cells": cells, "version": __version__}


def _run_group(cfg, workers, g_idx, q, alpha):
    """One cell per key (each mu of an fs sweep, else None): the first
    maximum over the one-atom extremal, the two-atom one and the sample
    argmax, so an extremal wins a tie with the sample and the one-atom
    member a tie with the two-atom one.  The extremals are one padded
    block: a unit mass at 0 and half masses at 0 and pi (Bieberbach cells
    inject only the first)."""
    fn, k = cfg.functional, cfg.k_atoms
    keys = cfg.mu_grid if fn == "fs" else (None,)
    score = _scorer(fn, q, alpha, keys, cfg.n_check)
    best = _sample_maxima(score, cfg.seed, g_idx, k, cfg.samples, workers)
    n_ext = (1 if fn == "bieberbach" else 2) if cfg.include_extremals else 0
    ext_w = np.array([[1.0, 0.5], [0.0, 0.5]])[:, :n_ext]
    ext_a = np.array([[0.0, math.pi]])[:, :n_ext]  # atom 1; atom 0 is at 0
    ext = score(ext_w, ext_a) if n_ext else {}
    stated = _stated(fn, q, alpha)
    cells = []
    for mu in keys:
        val, idx = best[mu]
        w, a = _fill_rows(cfg.seed, (g_idx,), np.empty((2 * k - 1, 1)), idx)
        candidates = [(float(ext[mu][j]), ext_w[:, j], ext_a[:, j], "extremal")
                      for j in range(n_ext)]
        candidates.append((val, w[:, 0], a[:, 0], "sample"))
        best_val, w, a, source = max(candidates, key=lambda c: c[0])
        bound, extremals = stated(mu)
        slack = bound.value - best_val
        cells.append({
            "q": q, "alpha": alpha,
            "mu": None if mu is None else [mu.real, mu.imag],
            "empirical_max": best_val,
            "stated_bound": bound.value,
            "conjectural": bound.conjectural,
            "slack": slack,
            "violated": bool(slack < -VIOLATION_TOL * max(1.0, bound.value)),
            "argmax_measure": _measure_from_row(w, a).to_dict(),
            "argmax_source": source,
            "extremals": extremals,
        })
    return cells


# -- classical limits ---------------------------------------------------------


def run_limit_sweep(q_list, alpha: float) -> list[dict]:
    """Bound values along q -> 1 against their classical targets: the
    Fekete-Szego bound at mu = -1, 0, 0.5, 1, 2, the Hankel bound, the
    coefficient bounds for n = 2..8 and the extremal's c_n for n = 2..6.

    At alpha = 0 the targets are max{1, |3-4mu|} (Fekete-Szego), 1 (Hankel)
    and 1 (coefficient bound); the c_n target prod_{k=2..n}(k-2 alpha)/(n-1)!
    applies for every alpha.
    """
    if not q_list:
        raise ConfigError("q_list must be non-empty")
    rows = []
    for q in q_list:
        params = ClassParams(q=float(q), alpha=float(alpha), order=16)
        one = 1.0 if alpha == 0.0 else None
        c = f1_series(params).coeffs.real
        rows.append({
            "q": float(q), "alpha": float(alpha),
            "fekete_szego": [{"mu": [mu, 0.0], **_limit_entry(
                "bound", fs_bound(params, complex(mu)).value,
                None if one is None else max(1.0, abs(3.0 - 4.0 * mu)))}
                for mu in (-1.0, 0.0, 0.5, 1.0, 2.0)],
            "hankel": _limit_entry("bound", hankel_bound(params).value, one),
            "bieberbach": [{"n": n, **_limit_entry(
                "bound", bieberbach_bound_convex(params, n), one)}
                for n in range(2, 9)],
            "c_n": [{"n": n, **_limit_entry("c_n", float(c[n]), math.prod(
                k - 2.0 * alpha for k in range(2, n + 1)) / math.factorial(n - 1))}
                for n in range(2, 7)],
        })
    return rows


def _limit_entry(name: str, value: float, target) -> dict:
    """{name: value, target, abs_err}; abs_err is None without a target."""
    return {name: value, "target": target,
            "abs_err": None if target is None else abs(value - target)}


# -- canonical serialization --------------------------------------------------


def _fmt_float(x: float) -> str:
    return "%.17g" % float(x)


def _emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ConfigError(f"cannot canonically serialize the float {obj}")
        out.append(_fmt_float(obj))
    elif isinstance(obj, dict):
        keys = sorted(obj.keys())
        out.append("{")
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise ConfigError("canonical JSON requires string keys")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise ConfigError(f"cannot canonically serialize {type(obj)!r}")


def canonical_json(report: dict) -> str:
    """Deterministic JSON: sorted keys, %.17g floats, newline-terminated."""
    out: list = []
    _emit(report, out)
    out.append("\n")
    return "".join(out)


CSV_HEADER = "q,alpha,mu_re,mu_im,functional,empirical_max,stated_bound,conjectural,slack,violated"


def report_csv(report: dict) -> str:
    """One row per cell under the fixed header; floats are %.17g."""
    lines = [CSV_HEADER]
    functional = report["config"]["functional"]
    for cell in report["cells"]:
        mu = cell.get("mu")
        mu_re = "" if mu is None else _fmt_float(mu[0])
        mu_im = "" if mu is None else _fmt_float(mu[1])
        lines.append(",".join([
            _fmt_float(cell["q"]), _fmt_float(cell["alpha"]), mu_re, mu_im,
            functional, _fmt_float(cell["empirical_max"]),
            _fmt_float(cell["stated_bound"]),
            "true" if cell["conjectural"] else "false",
            _fmt_float(cell["slack"]),
            "true" if cell["violated"] else "false",
        ]))
    return "\n".join(lines) + "\n"


def save_report(report: dict, path, csv_path=None) -> None:
    """Serializes first, so a report canonical_json refuses writes no file."""
    text = canonical_json(report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(report_csv(report))
