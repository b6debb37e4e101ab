"""Seeded extremal-search sweeps with reproducible reports.

Samples atomic measures per (q, alpha) group from the PCG64 stream of
:func:`.caratheodory._fill_rows` for (master seed, group index), evaluates
the chosen functional on the generated class members, and compares the
empirical maximum against the stated (or conjectured) bound.  Bound
violations never abort a run; they are first-class report rows, because
adjudicating the stated bounds is the whole point of the harness.

Determinism contract:
  * sample i of group g is row i of the stream with spawn key (g,), so it
    depends only on (seed, g, i), and each sample consumes 2*k_atoms draws,
    so enlarging ``samples`` keeps every earlier sample identical; a verify
    suite at seed s scores the first rows of group 0 of a k_atoms = 4 sweep
    at seed s;
  * the sample range is drawn and scored in blocks of ``BLOCK`` rows, the
    pool's work units, whatever the worker count: the job of rows lo..hi-1
    advances the group's PCG64 stream 2*k_atoms*lo draws and fills those
    rows in place in the group's one (samples, 2*k_atoms) buffer.  Scoring
    is elementwise, so a row scores the same in any block, and one argmax
    over all the scores picks the maximum value with ties broken by the
    lowest sample index;
  * single-measure evaluation is a batch of one: extremal injection and
    replay run the sweep's batch scorer on one row, so a sampled row scores
    bitwise the same alone as in its block;
  * refinement scores as one batch the valid candidate moves left in a
    pass, with those of the passes that would follow it from the same point,
    and takes the first improving move in the sequential order (pass by
    pass: angle moves, then weight moves, atom by atom, each +step before
    -step), then goes on from the new point; since a row scores the same in
    any batch, this is the move a one-candidate-at-a-time ascent accepts,
    and the path does not depend on the batching;
  * reports serialize canonically (sorted keys, %.17g floats), so a fixed
    seed yields byte-identical JSON for any worker count.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .caratheodory import MAX_ATOMS, RNG_NAME, AtomicMeasure, _fill_rows, \
    _moments, _p_coeffs, measure_from_dict
from .errors import ConfigError
from .extremal import _exponent_core, eq_series, f1_series, f2_series, \
    f_exponent_series
from .functionals import Bound, _bieberbach_bound_table, \
    bieberbach_bound_convex, fekete_szego_value, fs_bound, hankel_bound, \
    hankel_value
from .power_series import MAX_ORDER
from .q_calculus import ClassParams, _iq_core
from .schlicht import _starlike_core

TWO_PI = 2.0 * math.pi
FUNCTIONALS = ("fs", "h22", "bieberbach")

#: refinement guards near the class boundary, where the parametrization
#: conditions badly: weights stay above this floor and atoms this far apart.
MIN_WEIGHT = 1e-4
MIN_SEPARATION = 1e-3

#: most refinement passes scored in one call; from the default step 0.1 the
#: step falls below its 1e-12 floor within 37 halvings
PLAN_PASSES = 64

#: rows per work unit of a sweep's scoring pass, fixed so that the work split
#: does not depend on the worker count; even, so every block starts on the
#: Bieberbach product route
BLOCK = 8192


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else QSCHLICHT_THREADS, else cores."""
    if workers is None:
        env = os.environ.get("QSCHLICHT_THREADS")
        if not env:
            return os.cpu_count() or 1
        if not env.strip().isdecimal() or int(env) < 1:
            raise ConfigError(
                f"QSCHLICHT_THREADS must be a positive integer, got {env!r}")
        return int(env)
    n = int(workers)
    if n < 1:
        raise ConfigError("worker count must be a positive integer")
    return n


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
    refine_iters: int = 100
    tol: float = 1e-7
    n_check: int = 10

    def __post_init__(self):
        if self.functional not in FUNCTIONALS:
            raise ConfigError(f"functional must be one of {FUNCTIONALS}")
        if self.functional == "fs" and not self.mu_grid:
            raise ConfigError("fs sweeps need a non-empty mu_grid")
        if self.functional != "fs" and self.mu_grid:
            raise ConfigError("mu_grid applies only to fs sweeps")
        if self.samples < 1:
            raise ConfigError("samples must be positive")
        if self.refine_iters < 0:
            raise ConfigError("refine_iters must be non-negative")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ConfigError(f"tol must be finite and non-negative, got {self.tol}")
        if not self.q_grid or not self.alpha_grid:
            raise ConfigError("q_grid and alpha_grid must be non-empty")
        for q in self.q_grid:
            if not (0.0 < q < 1.0):
                raise ConfigError(f"q grid value {q} outside (0, 1)")
        for a in self.alpha_grid:
            if not (0.0 <= a < 1.0):
                raise ConfigError(f"alpha grid value {a} outside [0, 1)")
        if not (1 <= self.k_atoms <= MAX_ATOMS):
            raise ConfigError(f"k_atoms must lie in [1, {MAX_ATOMS}]")
        if not (2 <= self.n_check <= MAX_ORDER):
            raise ConfigError(f"n_check must lie in [2, {MAX_ORDER}]")
        for mu in self.mu_grid:
            if not cmath.isfinite(complex(mu)):
                raise ConfigError(f"mu grid value {mu} is not finite")
        object.__setattr__(self, "q_grid", tuple(float(q) for q in self.q_grid))
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in self.alpha_grid))
        object.__setattr__(self, "mu_grid", tuple(complex(m) for m in self.mu_grid))

    def to_dict(self) -> dict:
        """Every field, with mu as [re, im] pairs, plus the RNG name."""
        return {**asdict(self), "rng": RNG_NAME,
                "mu_grid": [[m.real, m.imag] for m in self.mu_grid]}


# -- sample generation --------------------------------------------------------


def group_samples(cfg: SweepConfig, group_index: int):
    """Weights/angles arrays of shape (samples, k_atoms) for one (q, alpha)
    group: every row of the group's stream at once."""
    draws = np.empty((cfg.samples, 2 * cfg.k_atoms))
    return _fill_rows(cfg.seed, (group_index,), draws, 0, cfg.samples)


def _measure_from_row(weights, angles) -> AtomicMeasure:
    mask = weights > 0
    return AtomicMeasure(weights[mask], angles[mask])


# -- batch scorers: one row per sample, columnwise in the series cores --------


def _starlike_scores(functional, weights, angles, q, alpha, mus):
    """Per-row |a3 - mu a2^2| (fs, from p_1..p_2) or |a2 a4 - a3^2| (h22,
    from p_1..p_3), keyed by mu."""
    n_max = 2 if functional == "fs" else 3
    a = _starlike_core(_p_coeffs(_moments(weights, angles, n_max)), q, alpha)
    if functional == "fs":
        return {mu: np.abs(a[3] - mu * a[2] ** 2) for mu in mus}
    return {mu: np.abs(a[2] * a[4] - a[3] ** 2) for mu in mus}


def _bieberbach_scores(weights, angles, q, alpha, n_check, route):
    """Per-row max_{2<=n<=n_check} |a_n| / bound_n.  Each member is the
    q-integral of its starlike member z (Dq f): the p-route member for route
    ``convex_h``, else the measure exponent; both read m_1..m_{n_check-1}."""
    params = ClassParams(q=q, alpha=alpha, order=max(n_check, 4))
    m = _moments(weights, angles, n_check - 1)
    if route == "convex_h":
        g = _starlike_core(_p_coeffs(m), q, alpha)
    else:
        g = _exponent_core(f_exponent_series(params).coeffs[:n_check], m)
    a = _iq_core(g[1:], q)
    bounds = _bieberbach_bound_table(params)[2:n_check + 1]
    return (np.abs(a[2:]) / bounds[:, None]).max(axis=0, initial=0.0)


def _bieberbach_block(weights, angles, lo, q, alpha, n_check):
    """Scores of the rows with global indices lo, lo + 1, ...: even indices
    on the product route, odd ones on the measure route.  At alpha = 0 both
    give the same member to rounding (see :func:`.schlicht.convex_from_h`),
    so there the split scores each member twice."""
    out = np.empty(weights.shape[0])
    for first, route in ((lo % 2, "convex_h"), (1 - lo % 2, "convex_measure")):
        out[first::2] = _bieberbach_scores(weights[first::2], angles[first::2],
                                           q, alpha, n_check, route)
    return out


def _cell_scorer(functional, q, alpha, mu, n_check, construction):
    """The batch scorer of one sweep cell: (weights, angles) rows -> values."""
    if functional == "bieberbach":
        return lambda w, a: _bieberbach_scores(w, a, q, alpha, n_check, construction)
    return lambda w, a: _starlike_scores(functional, w, a, q, alpha, (mu,))[mu]


def evaluate_measure(functional: str, m: AtomicMeasure, q: float, alpha: float,
                     mu: complex | None = None, n_check: int = 10,
                     construction: str = "starlike_p") -> float:
    """Functional value for one measure; the injection and replay target.

    The sweep's batch scorer run on one row, so a sampled row scores bitwise
    the same here as in the sweep.  Bieberbach members are built on the
    product route for ``construction="convex_h"``, else the measure route.
    """
    if functional not in FUNCTIONALS:
        raise ConfigError(f"unknown functional {functional!r}")
    ClassParams(q=q, alpha=alpha)  # validates q and alpha
    score = _cell_scorer(functional, q, alpha, mu, n_check, construction)
    return float(score(m.weights[None, :], m.angles[None, :])[0])


def replay_cell(cfg: SweepConfig, cell: dict) -> float:
    """Re-evaluate a report cell's argmax measure with evaluate_measure."""
    m = measure_from_dict(cell["argmax_measure"])
    mu = None if cell.get("mu") is None else complex(cell["mu"][0], cell["mu"][1])
    return evaluate_measure(
        cfg.functional, m, cell["q"], cell["alpha"], mu=mu,
        n_check=cfg.n_check,
        construction=cell.get("argmax_construction", "starlike_p"))


# -- refinement ---------------------------------------------------------------


def _moves(w, ang, steps, first):
    """The valid moves from (w, ang) of one pass per entry of ``steps``, in
    order, as (pass, slot, weights rows, angles rows); the first pass starts
    at slot ``first``.

    Slot i < k moves angle i, slot k + i moves weight i (only when k > 1);
    each slot tries +step before -step.  Angle moves keep atoms
    MIN_SEPARATION apart; weight moves renormalize and keep every weight
    above MIN_WEIGHT.  Angles are kept as stepped, before the mod 2 pi that
    AtomicMeasure takes."""
    k = w.size
    rows = np.arange(2 * k)
    idx = rows // 2
    signed = np.multiply.outer(steps, np.tile((1.0, -1.0), k))
    n = 4 * k if k > 1 else 2
    weights = np.empty((len(steps), n, k))
    weights[:] = w
    angles = np.empty_like(weights)
    angles[:] = ang
    angles[:, rows, idx] = (ang[idx] + signed) % TWO_PI
    i, j = np.triu_indices(k, 1)
    d = np.abs(angles[..., i] - angles[..., j]) % TWO_PI
    ok = ~(np.minimum(d, TWO_PI - d) < MIN_SEPARATION).any(axis=-1)
    if k > 1:  # rows 2k.. move the weights; the guard above does not apply
        moved = weights[:, 2 * k:]
        moved[:, rows, idx] = np.maximum(w[idx] * (1.0 + signed), MIN_WEIGHT)
        moved /= moved.sum(axis=-1, keepdims=True)
        ok[:, 2 * k:] = ~(moved < MIN_WEIGHT).any(axis=-1)
    ok[0, :2 * first] = False
    keep = np.flatnonzero(ok)
    return (keep // n, keep % n // 2, weights.reshape(-1, k)[keep],
            angles.reshape(-1, k)[keep])


def _refine_rows(score_rows, w, ang, iters: int, step0: float = 0.1,
                 step_tol: float = 1e-12):
    """Coordinate ascent over atom angles and weights from (w, ang).

    A pass goes through the moves of :func:`_moves` in slot order and accepts
    the first that beats the best value, then goes on from the new point
    with the later slots; a pass that accepts nothing halves the step, and
    the ascent stops after ``iters`` passes or when the step falls below
    ``step_tol``.

    ``score_rows(weights, angles)`` scores candidate rows (angles mod 2 pi,
    as AtomicMeasure holds them).  Each call gets every valid move left in
    the current pass and, since a pass that accepts nothing leaves the point
    where it is, the moves of the passes that would follow from the same
    point: the next pass just after an accepted move, else every pass to
    come, up to PLAN_PASSES in all.  The first improving row is the move a
    one-at-a-time ascent accepts, so the path does not depend on how many
    rows a call scores.  Returns (best value, weights, angles); never worse
    than the start.
    """
    best = float(next(iter(score_rows(w[None, :], np.mod(ang, TWO_PI)[None, :]))))
    if iters < 1:
        return best, w, ang

    def after(it, step, improved):
        """(index, step) of the pass after pass ``it``; None if it ends the
        ascent."""
        if not improved:
            step *= 0.5
            if step < step_tol:
                return None
        return (it + 1, step) if it + 1 < iters else None

    it, step, first, improved = 0, step0, 0, False
    while True:
        plan = [(it, step)]
        nxt = after(it, step, improved)
        while nxt and len(plan) < (2 if improved else PLAN_PASSES):
            plan.append(nxt)
            nxt = after(*nxt, False)
        passes, slots, weights, angles = _moves(
            w, ang, np.array([s for _, s in plan]), first)
        vals = score_rows(weights, np.mod(angles, TWO_PI)) if passes.size else ()
        for r, v in enumerate(vals):
            if v > best:
                best, w, ang = float(v), weights[r], angles[r]
                (it, step), first, improved = plan[passes[r]], slots[r] + 1, True
                break
        else:
            if nxt is None:
                return best, w, ang
            (it, step), first, improved = nxt, 0, False


def refine_measure(score_fn, m: AtomicMeasure, iters: int,
                   step0: float = 0.1, step_tol: float = 1e-12):
    """:func:`_refine_rows` for a scorer of one measure: the candidates are
    scored one at a time, lazily, so score_fn sees them in the ascent's
    order and none past an accepted move.  Returns the best (value, measure)
    found; never worse than the start."""
    def score_rows(weights, angles):
        return (score_fn(AtomicMeasure(wr, ar)) for wr, ar in zip(weights, angles))

    best, w, ang = _refine_rows(score_rows, m.weights, m.angles, iters, step0,
                                step_tol)
    return best, AtomicMeasure(w, ang)


# -- sweep drivers ------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _pool(workers: int) -> ThreadPoolExecutor:
    """The sweeps' thread pool, kept for the process while the worker count
    stays the same.  A pool per call starts new threads while the last
    pool's threads are still exiting; such a thread can get a fresh malloc
    arena, which keeps its few MB of freed block arrays for the rest of the
    process."""
    return ThreadPoolExecutor(max_workers=workers)


def _parallel_scores(score_block, total: int, workers: int):
    """Per key, the largest value over rows 0..total-1 and its row index.

    score_block(lo, hi) returns a dict mapping key -> values of rows lo..hi-1.
    The pool's work units are blocks of BLOCK rows; one argmax over all the
    values keeps the first maximum, so ties go to the lowest index."""
    starts = range(0, total, BLOCK)

    def job(lo):
        return score_block(lo, min(lo + BLOCK, total))

    if workers == 1 or len(starts) == 1:
        parts = [job(lo) for lo in starts]
    else:
        parts = list(_pool(workers).map(job, starts))
    best = {}
    for key in parts[0]:
        vals = np.concatenate([part[key] for part in parts])
        i = int(np.argmax(vals))
        best[key] = (float(vals[i]), i)
    return best


def _extremal_rows(functional: str):
    """Injected extremal generators as (index, measure, construction),
    indexed below the samples: the one- and two-atom starlike generators,
    or the q-integral extremal E_q on the measure route."""
    one = AtomicMeasure(np.array([1.0]), np.array([0.0]))
    if functional == "bieberbach":
        return [(-1, one, "convex_measure")]
    two = AtomicMeasure(np.array([0.5, 0.5]), np.array([0.0, math.pi]))
    return [(-2, one, "starlike_p"), (-1, two, "starlike_p")]


def _stated(functional: str, q: float, alpha: float):
    """(mu, injected values by row index) -> (stated Bound, extremals) of a
    cell.  Bieberbach ratios are normalized, so their bound is 1 and the
    recorded extremal is the injected E_q; the starlike cells record the
    generators f1 and f2."""
    if functional == "bieberbach":
        return lambda _mu, injected: (Bound(1.0, alpha > 0.0),
                                      {"eq": injected[-1]} if injected else None)
    params = ClassParams(q=q, alpha=alpha)
    small = ClassParams(q=q, alpha=alpha, order=6)
    f1, f2 = f1_series(small), f2_series(small)
    if functional == "fs":
        return lambda mu, _injected: (fs_bound(params, mu), {
            "f1": fekete_szego_value(f1, mu), "f2": fekete_szego_value(f2, mu)})
    return lambda _mu, _injected: (hankel_bound(params), {
        "f1": hankel_value(f1, 2, 2), "f2": hankel_value(f2, 2, 2)})


def run_sweep(cfg: SweepConfig, workers: int | None = None) -> dict:
    """Run the configured sweep and return the report dictionary."""
    workers = resolve_workers(workers)
    # every group's blocks overwrite all of its rows, so one buffer serves all
    draws = np.empty((cfg.samples, 2 * cfg.k_atoms))
    cells = []
    groups = [(q, a) for q in cfg.q_grid for a in cfg.alpha_grid]
    for g_idx, (q, alpha) in enumerate(groups):
        cells.extend(_run_group(cfg, workers, g_idx, q, alpha, draws))
    return {"config": cfg.to_dict(), "cells": cells, "version": __version__}


def _run_group(cfg, workers, g_idx, q, alpha, draws):
    """One cell per key (each mu of an fs sweep, else None): the sample
    argmax, then the injected extremals under the same lowest-index tie
    rule, then refinement from the winner.  Each pool job draws its own
    block's rows into ``draws`` before scoring them."""
    fn = cfg.functional
    keys = cfg.mu_grid if fn == "fs" else (None,)

    def score_block(lo, hi):
        w, a = _fill_rows(cfg.seed, (g_idx,), draws, lo, hi)
        if fn == "bieberbach":
            return {None: _bieberbach_block(w, a, lo, q, alpha, cfg.n_check)}
        return _starlike_scores(fn, w, a, q, alpha, keys)

    best = _parallel_scores(score_block, cfg.samples, workers)
    weights, angles = draws[:, cfg.k_atoms:], draws[:, :cfg.k_atoms]
    rows = _extremal_rows(fn) if cfg.include_extremals else []
    stated = _stated(fn, q, alpha)
    cells = []
    for mu in keys:
        best_val, best_idx = best[mu]
        argmax = _measure_from_row(weights[best_idx], angles[best_idx])
        source, construction = "sample", "starlike_p"
        if fn == "bieberbach":  # rows alternate routes, as in _bieberbach_block
            construction = ("convex_h", "convex_measure")[best_idx % 2]
        injected = {}
        for idx, m, route in rows:
            v = injected[idx] = evaluate_measure(
                fn, m, q, alpha, mu=mu, n_check=cfg.n_check, construction=route)
            if v > best_val or (v == best_val and idx < best_idx):
                best_val, best_idx, argmax = v, idx, m
                construction, source = route, "extremal"

        if cfg.refine_iters > 0:
            refined_val, w, ang = _refine_rows(
                _cell_scorer(fn, q, alpha, mu, cfg.n_check, construction),
                argmax.weights, argmax.angles, cfg.refine_iters)
            if refined_val > best_val:
                best_val, source = refined_val, "refined"
                argmax = AtomicMeasure(w, ang)

        bound, extremals = stated(mu, injected)
        slack = bound.value - best_val
        cells.append({
            "q": q, "alpha": alpha,
            "mu": None if mu is None else [mu.real, mu.imag],
            "empirical_max": best_val,
            "stated_bound": bound.value,
            "conjectural": bound.conjectural,
            "slack": slack,
            "violated": bool(slack < -cfg.tol),
            "argmax_measure": argmax.to_dict(),
            "argmax_source": source,
            "argmax_construction": construction,
            "extremals": extremals,
        })
    return cells


# -- classical limits ---------------------------------------------------------


def run_limit_sweep(q_list, alpha: float,
                    mu_grid=(-1.0, 0.0, 0.5, 1.0, 2.0),
                    n_bieberbach: int = 8, n_cn: int = 6) -> list[dict]:
    """Bound values along q -> 1 against their classical targets.

    At alpha = 0 the targets are max{1, |3-4mu|} (Fekete-Szego), 1 (Hankel)
    and 1 (coefficient bound); the c_n target prod_{k=2..n}(k-2 alpha)/(n-1)!
    applies for every alpha.
    """
    if not q_list:
        raise ConfigError("q_list must be non-empty")
    rows = []
    for q in q_list:
        params = ClassParams(q=float(q), alpha=float(alpha),
                             order=max(16, n_bieberbach + 2, n_cn + 2))
        fs_rows = []
        for mu in mu_grid:
            mu = complex(mu)
            value = fs_bound(params, mu).value
            target = max(1.0, abs(3.0 - 4.0 * mu)) if alpha == 0.0 else None
            fs_rows.append({"mu": [mu.real, mu.imag], "bound": value,
                            "target": target,
                            "abs_err": None if target is None else abs(value - target)})
        hk = hankel_bound(params).value
        hk_target = 1.0 if alpha == 0.0 else None
        bieb_rows = []
        for n in range(2, n_bieberbach + 1):
            b = bieberbach_bound_convex(params, n)
            t = 1.0 if alpha == 0.0 else None
            bieb_rows.append({"n": n, "bound": b, "target": t,
                              "abs_err": None if t is None else abs(b - t)})
        res = eq_series(params)
        cn_rows = []
        for n in range(2, n_cn + 1):
            target = math.prod(k - 2.0 * alpha for k in range(2, n + 1)) \
                / math.factorial(n - 1)
            cn_rows.append({"n": n, "c_n": float(res.c[n]), "target": target,
                            "abs_err": abs(float(res.c[n]) - target)})
        rows.append({
            "q": float(q), "alpha": float(alpha),
            "fekete_szego": fs_rows,
            "hankel": {"bound": hk, "target": hk_target,
                       "abs_err": None if hk_target is None else abs(hk - hk_target)},
            "bieberbach": bieb_rows,
            "c_n": cn_rows,
        })
    return rows


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(report))
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(report_csv(report))
