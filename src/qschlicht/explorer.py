"""Seeded extremal-search sweeps with reproducible reports.

Samples atomic measures per (q, alpha) group from a PCG64 stream whose seed
derives from (master seed, group index), evaluates the chosen functional on
the generated class members, and compares the empirical maximum against the
stated (or conjectured) bound.  Bound violations never abort a run; they are
first-class report rows, because adjudicating the stated bounds is the whole
point of the harness.

Determinism contract:
  * sample i of a group depends only on (seed, group index, i), and each
    sample consumes a fixed number of draws, so enlarging ``samples`` keeps
    every earlier sample identical;
  * parallel workers split the sample range into contiguous chunks whose
    elementwise evaluation is unaffected by the split, and the reduction
    picks the maximum value with ties broken by the lowest sample index;
  * reports serialize canonically (sorted keys, %.17g floats), so a fixed
    seed yields byte-identical JSON for any worker count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .caratheodory import MAX_ATOMS, RNG_NAME, AtomicMeasure, p_series
from .errors import ConfigError
from .extremal import eq_series, f1_series, f2_series
from .functionals import bieberbach_bound_convex, fekete_szego_value, fs_bound, \
    hankel_bound, hankel_value
from .q_calculus import ClassParams, q_powers
from .schlicht import convex_from_h, convex_from_measure, starlike_from_p

TWO_PI = 2.0 * math.pi
FUNCTIONALS = ("fs", "h22", "bieberbach")

#: refinement guards near the class boundary, where the parametrization
#: conditions badly: weights stay above this floor and atoms this far apart.
MIN_WEIGHT = 1e-4
MIN_SEPARATION = 1e-3


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else QSCHLICHT_THREADS, else cores."""
    if workers is not None:
        n = int(workers)
    else:
        env = os.environ.get("QSCHLICHT_THREADS")
        n = int(env) if env else (os.cpu_count() or 1)
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
    order: int = 32
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
        if self.samples < 1:
            raise ConfigError("samples must be positive")
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
        if not (2 <= self.n_check <= self.order):
            raise ConfigError("n_check must lie in [2, order]")
        object.__setattr__(self, "q_grid", tuple(float(q) for q in self.q_grid))
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in self.alpha_grid))
        object.__setattr__(self, "mu_grid", tuple(complex(m) for m in self.mu_grid))

    def to_dict(self) -> dict:
        return {
            "functional": self.functional,
            "seed": int(self.seed),
            "samples": int(self.samples),
            "q_grid": [float(q) for q in self.q_grid],
            "alpha_grid": [float(a) for a in self.alpha_grid],
            "mu_grid": [[m.real, m.imag] for m in self.mu_grid],
            "order": int(self.order),
            "k_atoms": int(self.k_atoms),
            "include_extremals": bool(self.include_extremals),
            "refine_iters": int(self.refine_iters),
            "tol": float(self.tol),
            "n_check": int(self.n_check),
            "rng": RNG_NAME,
        }


# -- sample generation --------------------------------------------------------


def group_samples(cfg: SweepConfig, group_index: int):
    """Weights/angles arrays of shape (samples, k_atoms) for one (q, alpha) group.

    Sample i activates ``(i % k_atoms) + 1`` atoms; inactive slots carry zero
    weight.  Each row consumes exactly 2*k_atoms draws from the stream, so the
    first S rows are independent of the total sample count.
    """
    ss = np.random.SeedSequence(entropy=int(cfg.seed), spawn_key=(int(group_index),))
    rng = np.random.Generator(np.random.PCG64(ss))
    k = cfg.k_atoms
    draws = rng.random((cfg.samples, 2 * k))
    angles = TWO_PI * draws[:, :k]
    raw = 0.05 + 0.95 * draws[:, k:]
    active = np.arange(k)[None, :] < ((np.arange(cfg.samples) % k) + 1)[:, None]
    weights = np.where(active, raw, 0.0)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights, angles


def _measure_from_row(weights, angles) -> AtomicMeasure:
    mask = weights > 0
    return AtomicMeasure(weights[mask], angles[mask])


# -- vectorized functional scorers -------------------------------------------


def _moments(weights, angles, n_max: int):
    """m_n = sum_j t_j sigma_j^n for n = 1..n_max; shape (n_max, samples)."""
    phase = np.exp(1j * angles)
    out = np.empty((n_max, weights.shape[0]), dtype=np.complex128)
    cur = np.ones_like(phase)
    for n in range(1, n_max + 1):
        cur = cur * phase
        out[n - 1] = (weights * cur).sum(axis=1)
    return out


def _starlike_coeffs_batch(moments, q: float, alpha: float, n_max: int):
    """Coefficients a_2..a_n_max of the p-generated starlike members.

    Mirrors the recursion of :func:`qschlicht.schlicht.starlike_from_p`
    elementwise across the sample axis.
    """
    lnq = math.log(q)
    s = moments.shape[1]
    u = np.zeros((n_max + 1, s), dtype=np.complex128)
    for n in range(1, n_max + 1):
        u[n] = lnq * 2.0 * moments[n - 1]
    e = np.zeros_like(u)
    e[0] = 1.0
    for m in range(1, n_max + 1):
        acc = np.zeros(s, dtype=np.complex128)
        for k in range(1, m + 1):
            acc += k * u[k] * e[m - k]
        e[m] = acc / m
    g = (1.0 - alpha) * q * e
    g[0] = q
    a = np.zeros((n_max + 1, s), dtype=np.complex128)
    a[1] = 1.0
    for n in range(2, n_max + 1):
        acc = np.zeros(s, dtype=np.complex128)
        for k in range(1, n):
            acc += a[k] * g[n - k]
        a[n] = acc / (q ** n - q)
    return a


def _exp_batch(u):
    """Vectorized formal exp along axis 0; u[0] must be zero."""
    n_max = u.shape[0] - 1
    e = np.zeros_like(u)
    e[0] = 1.0
    for m in range(1, n_max + 1):
        acc = np.zeros(u.shape[1], dtype=np.complex128)
        for k in range(1, m + 1):
            acc += k * u[k] * e[m - k]
        e[m] = acc / m
    return e


def _log_batch(c):
    """Vectorized formal log along axis 0; c[0] must be one."""
    n_max = c.shape[0] - 1
    lg = np.zeros_like(c)
    for m in range(1, n_max + 1):
        acc = np.zeros(c.shape[1], dtype=np.complex128)
        for k in range(1, m):
            acc += k * lg[k] * c[m - k]
        lg[m] = (m * c[m] - acc) / m
    return lg


def _integrate_batch(d, q):
    """a_1..a_n_max of f with Dq f = d, for d of order n_max - 1."""
    n_max = d.shape[0]
    a = np.zeros((n_max + 1, d.shape[1]), dtype=np.complex128)
    a[1] = 1.0
    for n in range(2, n_max + 1):
        a[n] = d[n - 1] * (1.0 - q) / (1.0 - q ** n)
    return a


def _convex_measure_coeffs_batch(moments, q, alpha, n_max):
    """a_n of measure-generated convex members, n = 2..n_max."""
    lalpha = math.log(q / (1.0 - alpha * (1.0 - q)))
    s = moments.shape[1]
    u = np.zeros((n_max, s), dtype=np.complex128)
    for n in range(1, n_max):
        u[n] = 2.0 * lalpha / (q ** n - 1.0) * moments[n - 1]
    return _integrate_batch(_exp_batch(u), q)


def _convex_product_coeffs_batch(moments, q, alpha, n_max):
    """a_n of product-generated convex members, n = 2..n_max.

    Mirrors the closed form of :func:`qschlicht.schlicht.convex_from_h`
    elementwise across the sample axis.
    """
    lnq = math.log(q)
    s = moments.shape[1]
    lam = np.zeros((n_max, s), dtype=np.complex128)
    for n in range(1, n_max):
        lam[n] = lnq * 2.0 * moments[n - 1]
    if alpha != 0.0:
        g = (1.0 - alpha) * _exp_batch(lam)
        g[0] = 1.0
        lam = _log_batch(g)
    lam[1:] /= (1.0 - q_powers(q, n_max - 1)[1:])[:, None]
    return _integrate_batch(_exp_batch(-lam), q)


def _bieberbach_scores(weights, angles, q, alpha, n_check, parity):
    """max_n |a_n| / bound_n per sample; construction chosen by index parity
    (even -> infinite product, odd -> measure exponent).

    At alpha = 0 the two constructions give the same member to rounding
    (about 1e-12 absolute; see :func:`qschlicht.schlicht.convex_from_h`), so
    there the parity split scores each member twice.
    """
    moments = _moments(weights, angles, n_check - 1)
    a_prod = _convex_product_coeffs_batch(moments, q, alpha, n_check)
    a_meas = _convex_measure_coeffs_batch(moments, q, alpha, n_check)
    bounds = np.array([bieberbach_bound_convex(
        ClassParams(q=q, alpha=alpha, order=max(n_check, 4)), n)
        for n in range(2, n_check + 1)])
    even = (parity % 2) == 0
    a_sel = np.where(even[None, :], a_prod[2:], a_meas[2:])
    ratios = np.abs(a_sel) / bounds[:, None]
    return ratios.max(axis=0)


# -- single-measure evaluation (used by refinement and replay) ----------------


def evaluate_measure(functional: str, m: AtomicMeasure, q: float, alpha: float,
                     mu: complex | None = None, n_check: int = 10,
                     construction: str = "starlike_p") -> float:
    """Public-path functional value for one measure; the replay target.

    The Fekete-Szego and Hankel functionals read a_2..a_4 only, and the
    generating recursion is triangular in the degree, so those values are
    independent of the build order; a small order keeps refinement cheap.
    """
    if functional in ("fs", "h22"):
        params = ClassParams(q=q, alpha=alpha, order=4)
        f = starlike_from_p(p_series(m, params.order), params)
        if functional == "fs":
            return fekete_szego_value(f, mu)
        return hankel_value(f, 2, 2)
    params = ClassParams(q=q, alpha=alpha, order=max(n_check, 4))
    if functional == "bieberbach":
        if construction == "convex_h":
            f = convex_from_h(p_series(m, params.order), params)
        else:
            f = convex_from_measure(m, params)
        worst = 0.0
        for n in range(2, n_check + 1):
            worst = max(worst, abs(f.coeffs[n]) / bieberbach_bound_convex(params, n))
        return worst
    raise ConfigError(f"unknown functional {functional!r}")


def replay_cell(cfg: SweepConfig, cell: dict) -> float:
    """Re-evaluate a report cell's argmax measure through the public path."""
    from .caratheodory import measure_from_dict

    m = measure_from_dict(cell["argmax_measure"])
    mu = None if cell.get("mu") is None else complex(cell["mu"][0], cell["mu"][1])
    return evaluate_measure(
        cfg.functional, m, cell["q"], cell["alpha"], mu=mu,
        n_check=cfg.n_check,
        construction=cell.get("argmax_construction", "starlike_p"))


# -- refinement ---------------------------------------------------------------


def _separation_ok(angles) -> bool:
    if angles.size < 2:
        return True
    for i in range(angles.size):
        for j in range(i + 1, angles.size):
            d = abs(angles[i] - angles[j]) % TWO_PI
            if min(d, TWO_PI - d) < MIN_SEPARATION:
                return False
    return True


def refine_measure(score_fn, m: AtomicMeasure, iters: int,
                   step0: float = 0.1, step_tol: float = 1e-12):
    """Coordinate ascent over atom angles and weights.

    Step-halving on stale passes; weight moves renormalize and respect the
    weight floor, angle moves respect the separation guard.  Returns the best
    (value, measure) found; never worse than the start.
    """
    w = m.weights.copy()
    ang = m.angles.copy()
    best = score_fn(AtomicMeasure(w, ang))
    step = step0
    for _ in range(iters):
        improved = False
        for idx in range(ang.size):
            for s in (step, -step):
                cand = ang.copy()
                cand[idx] = (cand[idx] + s) % TWO_PI
                if not _separation_ok(cand):
                    continue
                v = score_fn(AtomicMeasure(w, cand))
                if v > best:
                    best, ang, improved = v, cand, True
                    break
        if w.size > 1:
            for idx in range(w.size):
                for s in (step, -step):
                    cand = w.copy()
                    cand[idx] = max(cand[idx] * (1.0 + s), MIN_WEIGHT)
                    cand = cand / cand.sum()
                    if np.any(cand < MIN_WEIGHT):
                        continue
                    v = score_fn(AtomicMeasure(cand, ang))
                    if v > best:
                        best, w, improved = v, cand, True
                        break
        if not improved:
            step *= 0.5
            if step < step_tol:
                break
    return best, AtomicMeasure(w, ang)


# -- sweep drivers ------------------------------------------------------------


def _chunk_ranges(total: int, workers: int):
    bounds = np.linspace(0, total, min(workers, total) + 1).astype(int)
    return [(int(b0), int(b1)) for b0, b1 in zip(bounds[:-1], bounds[1:]) if b1 > b0]


def _parallel_scores(score_chunk, total: int, workers: int):
    """Evaluate score_chunk over index ranges, merge (value, index) maxima.

    score_chunk(lo, hi) returns a dict mapping key -> (values array over the
    chunk).  The reduction keeps, per key, the largest value with the lowest
    global index on ties; the result is independent of the chunking.
    """
    ranges = _chunk_ranges(total, workers)

    def job(rng_pair):
        lo, hi = rng_pair
        out = {}
        for key, vals in score_chunk(lo, hi).items():
            i = int(np.argmax(vals))
            out[key] = (float(vals[i]), lo + i)
        return out

    if len(ranges) == 1:
        results = [job(ranges[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            results = list(pool.map(job, ranges))
    merged: dict = {}
    for part in results:
        for key, (val, idx) in part.items():
            if key not in merged or val > merged[key][0] or \
                    (val == merged[key][0] and idx < merged[key][1]):
                merged[key] = (val, idx)
    return merged


def _extremal_rows(functional: str, k_atoms: int):
    """Injected extremal-generator measures, indexed below the samples."""
    rows = [(-2, AtomicMeasure(np.array([1.0]), np.array([0.0])))]
    if functional in ("fs", "h22"):
        rows.append((-1, AtomicMeasure(np.array([0.5, 0.5]),
                                       np.array([0.0, math.pi]))))
    return rows


def run_sweep(cfg: SweepConfig, workers: int | None = None) -> dict:
    """Run the configured sweep and return the report dictionary."""
    workers = resolve_workers(workers)
    cells = []
    groups = [(q, a) for q in cfg.q_grid for a in cfg.alpha_grid]
    for g_idx, (q, alpha) in enumerate(groups):
        weights, angles = group_samples(cfg, g_idx)
        if cfg.functional in ("fs", "h22"):
            cells.extend(_run_starlike_group(cfg, workers, q, alpha,
                                             weights, angles))
        else:
            cells.append(_run_bieberbach_group(cfg, workers, q, alpha,
                                               weights, angles))
    return {"config": cfg.to_dict(), "cells": cells, "version": __version__}


def _run_starlike_group(cfg, workers, q, alpha, weights, angles):
    n_max = 3 if cfg.functional == "fs" else 4
    mus = cfg.mu_grid if cfg.functional == "fs" else (None,)

    def score_chunk(lo, hi):
        moments = _moments(weights[lo:hi], angles[lo:hi], n_max)
        a = _starlike_coeffs_batch(moments, q, alpha, n_max)
        out = {}
        if cfg.functional == "fs":
            for mu in mus:
                out[mu] = np.abs(a[3] - mu * a[2] ** 2)
        else:
            out[None] = np.abs(a[2] * a[4] - a[3] ** 2)
        return out

    best_by_mu = _parallel_scores(score_chunk, cfg.samples, workers)

    params_small = ClassParams(q=q, alpha=alpha, order=6)
    f1 = f1_series(params_small)
    f2 = f2_series(params_small)
    cells = []
    for mu in mus:
        if cfg.functional == "fs":
            bound = fs_bound(ClassParams(q=q, alpha=alpha), mu)
            f1_val = fekete_szego_value(f1, mu)
            f2_val = fekete_szego_value(f2, mu)
        else:
            bound = hankel_bound(ClassParams(q=q, alpha=alpha))
            f1_val = hankel_value(f1, 2, 2)
            f2_val = hankel_value(f2, 2, 2)

        best_val, best_idx = best_by_mu[mu]
        argmax = _measure_from_row(weights[best_idx], angles[best_idx])
        source = "sample"
        if cfg.include_extremals:
            for idx, m in _extremal_rows(cfg.functional, cfg.k_atoms):
                v = evaluate_measure(cfg.functional, m, q, alpha, mu=mu)
                if v > best_val or (v == best_val and idx < best_idx):
                    best_val, best_idx, argmax, source = v, idx, m, "extremal"

        if cfg.refine_iters > 0:
            def score_fn(meas):
                return evaluate_measure(cfg.functional, meas, q, alpha, mu=mu)
            refined_val, refined_m = refine_measure(score_fn, argmax,
                                                    cfg.refine_iters)
            if refined_val > best_val:
                best_val, argmax, source = refined_val, refined_m, "refined"

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
            "argmax_construction": "starlike_p",
            "extremals": {"f1": f1_val, "f2": f2_val},
        })
    return cells


def _run_bieberbach_group(cfg, workers, q, alpha, weights, angles):
    def score_chunk(lo, hi):
        parity = np.arange(lo, hi)
        return {None: _bieberbach_scores(weights[lo:hi], angles[lo:hi], q,
                                         alpha, cfg.n_check, parity)}

    best_val, best_idx = _parallel_scores(score_chunk, cfg.samples, workers)[None]
    argmax = _measure_from_row(weights[best_idx], angles[best_idx])
    construction = "convex_h" if best_idx % 2 == 0 else "convex_measure"
    source = "sample"

    eq_ratio = None
    if cfg.include_extremals:
        m_eq = AtomicMeasure(np.array([1.0]), np.array([0.0]))
        eq_ratio = evaluate_measure("bieberbach", m_eq, q, alpha,
                                    n_check=cfg.n_check,
                                    construction="convex_measure")
        if eq_ratio > best_val or (eq_ratio == best_val and -1 < best_idx):
            best_val, best_idx, argmax = eq_ratio, -1, m_eq
            construction, source = "convex_measure", "extremal"

    if cfg.refine_iters > 0:
        def score_fn(meas):
            return evaluate_measure("bieberbach", meas, q, alpha,
                                    n_check=cfg.n_check,
                                    construction=construction)
        refined_val, refined_m = refine_measure(score_fn, argmax,
                                                cfg.refine_iters)
        if refined_val > best_val:
            best_val, argmax, source = refined_val, refined_m, "refined"

    # ratios are normalized: the stated bound corresponds to ratio 1
    slack = 1.0 - best_val
    return {
        "q": q, "alpha": alpha, "mu": None,
        "empirical_max": best_val,
        "stated_bound": 1.0,
        "conjectural": alpha > 0.0,
        "slack": slack,
        "violated": bool(slack < -cfg.tol),
        "argmax_measure": argmax.to_dict(),
        "argmax_source": source,
        "argmax_construction": construction,
        "extremals": None if eq_ratio is None else {"eq": eq_ratio},
    }


# -- classical limits ---------------------------------------------------------


def run_limit_sweep(q_list, alpha: float,
                    mu_grid=(-1.0, 0.0, 0.5, 1.0, 2.0),
                    n_bieberbach: int = 8, n_cn: int = 6) -> list[dict]:
    """Bound values along q -> 1 against their classical targets.

    At alpha = 0 the targets are max{1, |3-4mu|} (Fekete-Szego), 1 (Hankel)
    and 1 (coefficient bound); the c_n target prod_{k=2..n}(k-2 alpha)/(n-1)!
    applies for every alpha.
    """
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
            target = 1.0
            for k in range(2, n + 1):
                target *= (k - 2.0 * alpha)
            target /= math.factorial(n - 1)
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
