"""qschlicht benchmark entry point.

    python3 perfbench/run.py --workload sweep-convex --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload runs in its own process
(``worker.py``) with BLAS/OpenMP thread variables set to 1, so the only extra
threads are the library's own sweep workers (one per CPU, ``nproc``).  With
``--trace 0`` it reports the end-to-end metrics, including ``setup_s``: the
median over several fresh interpreters of importing qschlicht, building the
workload's first inputs and one ``qschlicht bounds`` CLI call.  All its
times are corrected to a reference host speed (``hostspeed.py``); the times
as measured are printed on the ``uncorrected`` line.  With
``--trace 1`` it reports the per-module metrics of a traced run.  Metric
names and units come from ``BENCHMARK.json``; the last line of stdout is the
result object.  Exits non-zero without a result when the checkout has no
``src/qschlicht`` or any measurement fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-up probes on each side of the workload process, so that the median
#: spans the whole run rather than one moment of it
SETUP_PROBES = 8
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("QSCHLICHT_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def git_sha() -> str | None:
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def setup_times(workload: str, seed: int, env: dict, deadline: float,
                count: int) -> list:
    """Fresh-interpreter set-up times, each from spawn to exit without the
    probe's kernel runs, as (corrected to the reference host speed, as
    measured) pairs; the probe times the kernel around its set-up."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(count):
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
        dt = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        # the probe's own kernel runs are not set-up
        warm, before, after = map(float, proc.stdout.split()[-3:])
        dt -= warm + before + after
        times.append((hostspeed.corrected(dt, before, after), dt))
    return times


def percentile(latencies: list, failed: int, share: float) -> float:
    """Latency percentile over every attempted op.

    A failed op counts as missing any latency limit, so it ranks above
    every op that succeeded.  Interpolates like ``statistics.median`` and
    ``statistics.quantiles(method="inclusive")``.  Raises ValueError when
    the percentile falls on a failed op.
    """
    lat = sorted(latencies)
    pos = share * (len(lat) + failed - 1)
    lo = int(pos)
    hi = lo + (pos > lo)
    if hi >= len(lat):
        raise ValueError(f"the {share:.0%} latency percentile falls on a "
                         f"failed op ({failed} of {len(lat) + failed} failed)")
    return lat[lo] + (lat[hi] - lat[lo]) * (pos - lo)


def main() -> int:
    parser = argparse.ArgumentParser(description="qschlicht benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "qschlicht" / "__init__.py").is_file():
        return fail(f"no qschlicht sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workers = len(os.sched_getaffinity(0))
    env = child_env()

    setup = []
    try:
        if not args.trace:
            # one untimed probe first, so every timed one reads warm bytecode
            setup_times(args.workload, args.seed, env, deadline, 1)
            setup = setup_times(args.workload, args.seed, env, deadline,
                                SETUP_PROBES)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workers", str(workers)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - perf_counter()))
        if not args.trace and proc.returncode == 0:
            setup += setup_times(args.workload, args.seed, env, deadline,
                                 SETUP_PROBES)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    if proc.returncode != 0 or not proc.stdout.strip():
        return fail(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        values = res["per_layer"]
        counts = {"traced_passes": res["traced_passes"]}
    else:
        lat = res["op_s"]
        try:
            p50 = percentile(lat, res["failed"], 0.5)
            p90 = percentile(lat, res["failed"], 0.9)
        except ValueError as exc:
            return fail(str(exc))
        values = {
            "wall_s": statistics.median(res["pass_s"]),
            "op_p50_s": p50,
            "op_p90_s": p90,
            "ok_ratio": 1.0 - res["failed"] / res["attempted"],
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(t for t, _ in setup),
        }
        raw = res["raw_op_s"]
        uncorrected = {
            "wall_s": statistics.median(res["raw_pass_s"]),
            "op_p50_s": percentile(raw, res["failed"], 0.5),
            "op_p90_s": percentile(raw, res["failed"], 0.9),
            "setup_s": statistics.median(t for _, t in setup),
            "kernel_ms": statistics.median(res["kernel_s"]) * 1e3,
        }
        counts = {"passes": len(res["pass_s"]), "op_latencies": len(lat),
                  "setup_probes": len(setup)}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "workers": workers, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": res["numpy"],
        "git_sha": git_sha(), "src_sha256": res["src_sha256"],
        "samples": counts, "spans": res.get("spans"),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if not args.trace:
        print("uncorrected " + json.dumps(uncorrected, sort_keys=True))
    for err in res["errors"]:
        print(f"failed op: {err}")
    for problem in res["problems"]:
        print(f"incorrect output: {problem}")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not res["problems"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
