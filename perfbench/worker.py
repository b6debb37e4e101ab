"""One workload in its own process: the closed measurement loop.

    PYTHONPATH=src python3 perfbench/worker.py --workload certify --seed 1 \
        --seconds 25 --trace 0 --workers 2

One client with one op in flight runs whole passes over the workload's ops
until ``--seconds`` have elapsed.  Each op is timed alone, between two runs
of the host-speed kernel (``hostspeed.py``); its output is checked after the
clock stops.  Prints one JSON object on the last line.

With ``--trace 1`` the run alternates untraced and traced passes (the ratio
of their times is the tracing overhead), times the series kernels on fixed
seeded inputs, and for the sweeps runs one more traced pass at one worker.
Every deterministic count must repeat between traced passes and between
traced runs of the same library and benchmark code and seed; a mismatch is a
benchmark error.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

import qschlicht as qs  # noqa: E402  (PYTHONPATH names the checkout's src)
from qschlicht import verify  # noqa: E402

import hostspeed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

KERNELS = ("exp", "log", "recip", "mul")
KERNEL_ORDERS = (32, 256)


class BenchmarkError(Exception):
    """The benchmark itself cannot vouch for its numbers."""


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def src_digest() -> str:
    return digest((ROOT / "src").rglob("*.py"))


def code_digest() -> str:
    """The library and the benchmark: the counts depend on both."""
    return digest([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py"),
                   *HERE.glob("*.json"), ROOT / "BENCHMARK.json"])


def timed(op, tracer=None):
    """Run one op: (output or None, exception or None, seconds)."""
    with tracer.installed() if tracer is not None else nullcontext():
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed op, counted, never a pass
            return None, exc, perf_counter() - t0
        return out, None, perf_counter() - t0


def run_pass(ops, tracer=None) -> dict:
    """One pass over the ops.

    Timing excludes checks, tracer binding and the host-speed kernel timed
    right before and right after each op.  ``wall_s`` and ``op_s`` are
    corrected to the reference host speed; ``raw_*`` are as measured.
    """
    walls, raw_walls, lat, raw_lat, kernels = [], [], [], [], []
    outputs, problems, errors = [], [], []
    failed = 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        before = hostspeed.kernel_s()
        out, exc, dt = timed(op, tracer)
        after = hostspeed.kernel_s()
        kernels += [before, after]
        scaled = hostspeed.corrected(dt, before, after)
        walls.append(scaled)
        raw_walls.append(dt)
        outputs.append(out)
        found = [] if exc is not None else op.check(out)
        if exc is not None:
            errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        problems.extend(f"{op.label}: {p}" for p in found)
        if exc is not None or found:
            failed += 1
        else:
            lat.append(scaled)
            raw_lat.append(dt)
    # op_s holds the latencies of the ops that succeeded; run.py ranks each
    # failed op above all of them
    return {"wall_s": sum(walls), "raw_wall_s": sum(raw_walls),
            "op_s": lat, "raw_op_s": raw_lat, "kernel_s": kernels,
            "outputs": outputs, "failed": failed, "problems": problems,
            "errors": errors}


class Loop:
    """Accumulates attempted/failed ops and pass-to-pass determinism."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.errors: list = []
        self.prints = None

    def record(self, res) -> dict:
        self.attempted += len(self.ops)
        self.failed += res["failed"]
        self.problems.extend(res["problems"])
        self.errors.extend(res["errors"])
        prints = [None if out is None else op.fingerprint(out)
                  for op, out in zip(self.ops, res["outputs"])]
        if self.prints is None:
            self.prints = prints
        elif prints != self.prints:
            self.problems.append("outputs differ between passes of one seed"
                                 " (the traced run's last pass has 1 worker)")
        return res


def kernel_timings(seed: int) -> dict:
    """Microseconds per call of the series kernels at orders 32 and 256."""
    ps = qs.power_series
    rng = np.random.default_rng(seed)
    out = {}
    for n in KERNEL_ORDERS:
        decay = 0.9 ** np.arange(n + 1)
        a, b = ((rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
                * decay for _ in range(2))
        u = a.copy()
        u[0] = 0.0
        c = a.copy()
        c[0] = 1.0
        args = {"exp": (ps.from_coeffs(u),), "log": (ps.from_coeffs(c),),
                "recip": (ps.from_coeffs(c),),
                "mul": (ps.from_coeffs(a), ps.from_coeffs(b))}
        for name in KERNELS:
            fn = getattr(ps, name)
            t0 = perf_counter()
            fn(*args[name])
            reps = max(1, int(0.01 / max(perf_counter() - t0, 1e-7)))
            samples = []
            for _ in range(7):
                t0 = perf_counter()
                for _ in range(reps):
                    fn(*args[name])
                samples.append((perf_counter() - t0) / reps)
            out[f"power_series.{name}.n{n}_us"] = statistics.median(samples) * 1e6
    return out


def report_ratios(outputs) -> dict:
    cells = [c for out in outputs if isinstance(out, tuple)
             for c in out[0]["cells"]]
    if not cells:
        return {"explorer.refined_cell_ratio": 0.0,
                "explorer.extremal_won_ratio": 0.0}
    return {
        "explorer.refined_cell_ratio":
            sum(c["argmax_source"] == "refined" for c in cells) / len(cells),
        "explorer.extremal_won_ratio":
            sum(c["argmax_source"] == "extremal" for c in cells) / len(cells),
    }


def layer_metrics(summary: dict, batch_samples: int) -> tuple[dict, dict]:
    """Metrics of one traced pass: (timings, exact counts and their ratios)."""
    def row(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})

    counts, times = {}, {}
    for module, names in tr.TARGETS.items():
        for fname in names:
            if fname == "run_suite":
                continue
            key = f"{module}.{fname}"
            counts[f"{key}.calls"] = row(key)["calls"]
            times[f"{key}.self_s"] = row(key)["self_s"]
    for suite in verify.SUITES:
        times[f"verify.{suite}.self_s"] = row(f"verify.{suite}")["self_s"]
    counts["power_series.madds"] = sum(row(f"power_series.{k}").get("madds", 0)
                                       for k in KERNELS)
    points = unresolved = 0
    cert_s = 0.0
    for fname in ("membership_starlike", "membership_convex"):
        r = row(f"schlicht.{fname}")
        points += r.get("points", 0)
        unresolved += r.get("unresolved", 0)
        cert_s += r["incl_s"]
    counts["schlicht.grid_points"] = points
    counts["schlicht.resolved_ratio"] = (
        (points - unresolved) / points if points else 0.0)
    times["schlicht.grid_points_per_s"] = points / cert_s if cert_s else 0.0
    refine = row("explorer.refine_measure")
    evals = counts["explorer.refine.evals"] = refine.get("evals", 0)
    counts["explorer.refine.accept_ratio"] = (
        refine.get("accepted", 0) / evals if evals else 0.0)
    times["explorer.refine.evals_per_s"] = (
        evals / refine["incl_s"] if refine["incl_s"] else 0.0)
    batch_s = row("explorer.run_sweep")["self_s"]
    times["explorer.samples_per_s"] = batch_samples / batch_s if batch_s else 0.0
    return times, counts


def check_counts_across_runs(workload, seed, workers, counts) -> None:
    """Counts of this traced run against earlier runs of the same library
    and benchmark code, seed and worker count (the sweep workers each call
    the bound).  The first such run records them."""
    path = OUT_DIR / (f"counts-{workload}-seed{seed}-w{workers}-"
                      f"{code_digest()[:16]}.json")
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        diff = sorted(k for k in set(earlier) | set(counts)
                      if earlier.get(k) != counts.get(k))
        if diff:
            raise BenchmarkError(
                f"deterministic counts differ from an earlier traced run of "
                f"the same code and seed: {diff}")
    else:
        path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")


def write_spans(workload, seed, passes) -> Path:
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for label, spans in passes:
            for sid, parent, op, name, t0, t1, extra in spans:
                fh.write(json.dumps({"pass": label, "id": sid, "parent": parent,
                                     "op": op, "name": name, "start": t0,
                                     "end": t1, "extra": extra}) + "\n")
    return path


def measure(ops, seconds: float) -> dict:
    loop = Loop(ops)
    walls, raw_walls, lat, raw_lat, kernels = [], [], [], [], []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        res = loop.record(run_pass(ops))
        walls.append(res["wall_s"])
        raw_walls.append(res["raw_wall_s"])
        lat += res["op_s"]
        raw_lat += res["raw_op_s"]
        kernels += res["kernel_s"]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"attempted": loop.attempted, "failed": loop.failed,
            "problems": sorted(set(loop.problems)),
            "errors": sorted(set(loop.errors)),
            "pass_s": walls, "raw_pass_s": raw_walls,
            "op_s": lat, "raw_op_s": raw_lat,
            "kernel_s": kernels, "peak_rss_mb": rss_kb / 1024.0}


def measure_traced(workload, ops, seed, seconds, workers) -> dict:
    loop = Loop(ops)
    kernels = kernel_timings(seed)
    plain, traced, span_sets = [], [], []
    times_by_pass, counts_by_pass = [], []
    samples = sum(cfg.samples for cfg in workloads.sweep_configs(workload, seed)) \
        if workload != "certify" else 0
    start = perf_counter()
    while len(traced) < 2 or perf_counter() - start < seconds:
        plain.append(loop.record(run_pass(ops))["wall_s"])
        tracer = tr.Tracer()
        res = loop.record(run_pass(ops, tracer))
        traced.append(res["wall_s"])
        times, counts = layer_metrics(tr.summarize(tracer.spans), samples)
        counts.update(report_ratios(res["outputs"]))
        times_by_pass.append(times)
        counts_by_pass.append(counts)
        span_sets.append((f"w{workers}-{len(traced)}", tracer.spans))
    if any(c != counts_by_pass[0] for c in counts_by_pass):
        raise BenchmarkError("deterministic counts differ between traced passes")
    counts = counts_by_pass[0]
    check_counts_across_runs(workload, seed, workers, counts)

    metrics = dict(counts)
    for key in times_by_pass[0]:
        metrics[key] = statistics.median(t[key] for t in times_by_pass)
    metrics.update(kernels)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics["explorer.w1_over_w2"] = 0.0
    if workload != "certify":
        # same ops at one worker: Loop.record demands identical report bytes
        tracer = tr.Tracer()
        loop.record(run_pass(workloads.build_ops(workload, seed, workers=1),
                             tracer))
        span_sets.append(("w1", tracer.spans))
        batch1 = tr.summarize(tracer.spans).get("explorer.run_sweep",
                                                {"self_s": 0.0})["self_s"]
        batch2 = statistics.median(
            t["explorer.run_sweep.self_s"] for t in times_by_pass)
        metrics["explorer.w1_over_w2"] = batch1 / batch2
    metrics["fail_ratio"] = loop.failed / loop.attempted
    spans_path = write_spans(workload, seed, span_sets)
    return {"attempted": loop.attempted, "failed": loop.failed,
            "problems": sorted(set(loop.problems)),
            "errors": sorted(set(loop.errors)),
            "per_layer": metrics, "traced_passes": len(traced),
            "spans": str(spans_path.relative_to(ROOT))}


def main() -> int:
    parser = argparse.ArgumentParser(description="run one workload")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(qs.__file__).resolve().parents:
        print(f"qschlicht imported from {qs.__file__}, not {src}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    ops = workloads.build_ops(args.workload, args.seed, args.workers)
    try:
        if args.trace:
            result = measure_traced(args.workload, ops, args.seed,
                                    args.seconds, args.workers)
        else:
            result = measure(ops, args.seconds)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    result["numpy"] = np.__version__
    result["src_sha256"] = src_digest()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
