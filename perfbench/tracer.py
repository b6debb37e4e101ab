"""Span tracer that instruments qschlicht from outside the library.

``Tracer.installed()`` rebinds the public functions listed in ``TARGETS`` in
every ``qschlicht`` module namespace that holds them (a module that imports a
function by name keeps its own reference, so each namespace is patched), and
restores the originals on exit.  Nothing under ``src/`` knows about it.

Each wrapped call records one span ``(id, parent, op, name, start, end,
extra)`` in memory.  The parent is the innermost open span on the calling
thread; a span opened on a sweep worker thread with nothing open on that
thread hangs under the innermost span open on the main thread, which is the
call that started the worker pool.  ``extra`` carries deterministic counters
measured where the work happens: multiply-adds of the series kernels, grid
points of certificates, evaluations and accepted moves of refinement.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import sys
import threading
from time import perf_counter

#: module -> public functions wrapped by the traced run
TARGETS = {
    "power_series": ("exp", "log", "recip", "mul", "eval_grid"),
    "q_calculus": ("dq", "iq"),
    "caratheodory": ("p_series", "sample_measure"),
    "extremal": ("eq_series", "f1_series", "f2_series"),
    "functionals": ("bieberbach_bound_convex", "hankel_value",
                    "fekete_szego_value"),
    "schlicht": ("starlike_from_p", "convex_from_h", "convex_from_measure",
                 "membership_starlike", "membership_convex"),
    "explorer": ("run_sweep", "group_samples", "refine_measure",
                 "evaluate_measure", "canonical_json", "run_limit_sweep"),
    "verify": ("run_suite",),
}


def kernel_madds(name: str, args) -> int:
    """Schoolbook multiply-adds of a series kernel, computed from the
    operand orders (not counted inside the kernel)."""
    n = args[0].order
    if name == "mul":
        n = min(n, args[1].order)
        return (n + 1) * (n + 2) // 2
    if name == "log":
        return n * (n - 1) // 2
    return n * (n + 1) // 2  # exp, recip


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []
        self._main_thread = threading.main_thread()

    def _stack(self) -> list:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, args, kwargs, extra_fn=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        extra = None
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
            if extra_fn is not None:
                extra = extra_fn(out)
            return out
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, self.op_id, name, t0, t1, extra))

    def _wrapper(self, module: str, fname: str, fn):
        name = f"{module}.{fname}"
        tracer = self
        if module == "power_series" and fname != "eval_grid":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                madds = kernel_madds(fname, args)
                return tracer._record(name, fn, args, kwargs,
                                      lambda _out: {"madds": madds})
        elif fname.startswith("membership_"):
            def cert_extra(rep):
                points = len(rep.grid["radii"]) * rep.grid["n_angles"]
                return {"points": points, "unresolved": rep.unresolved}

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._record(name, fn, args, kwargs, cert_extra)
        elif fname == "refine_measure":
            @functools.wraps(fn)
            def wrapper(score_fn, *args, **kwargs):
                seen = {"evals": 0, "accepted": 0, "best": -math.inf}

                def counted(meas):
                    v = score_fn(meas)
                    seen["evals"] += 1
                    # refine_measure keeps a candidate iff it beats the best
                    # value so far; the first evaluation is the start point
                    if seen["evals"] > 1 and v > seen["best"]:
                        seen["accepted"] += 1
                    seen["best"] = max(seen["best"], v)
                    return v

                return tracer._record(
                    name, fn, (counted,) + args, kwargs,
                    lambda _out: {"evals": seen["evals"],
                                  "accepted": seen["accepted"]})
        elif fname == "run_suite":
            @functools.wraps(fn)
            def wrapper(suite, *args, **kwargs):
                return tracer._record(f"verify.{suite}", fn, (suite,) + args,
                                      kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._record(name, fn, args, kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrappers bound on entry, originals restored on exit."""
        namespaces = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == "qschlicht"
                                            or key.startswith("qschlicht."))]
        saved = []
        try:
            for module, names in TARGETS.items():
                home = sys.modules[f"qschlicht.{module}"]
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = self._wrapper(module, fname, original)
                    for ns in namespaces:
                        if ns.__dict__.get(fname) is original:
                            saved.append((ns, fname, original))
                            setattr(ns, fname, wrapper)
            yield self
        finally:
            for ns, fname, original in reversed(saved):
                setattr(ns, fname, original)


def summarize(spans) -> dict:
    """Per-name calls, self time, inclusive time and summed extras.

    Self time is a span's duration minus the part of its interval that its
    child spans cover; children on parallel worker threads may overlap, so
    the covered part is the union of their intervals.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))
    out: dict = {}
    for sid, _parent, _op, name, t0, t1, extra in spans:
        covered = 0.0
        kids = children.get(sid)
        if kids:
            kids.sort()
            cur_lo = cur_hi = None
            for lo, hi in kids:
                lo, hi = max(lo, t0), min(hi, t1)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (t1 - t0) - covered
        row["incl_s"] += t1 - t0
        if extra:
            for key, val in extra.items():
                row[key] = row.get(key, 0) + val
    return out
