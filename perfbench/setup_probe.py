"""Set-up as a user pays it in a fresh interpreter: import qschlicht, build
the workload's first inputs, and make one ``qschlicht bounds --q 0.5`` call.

    PYTHONPATH=src python3 perfbench/setup_probe.py sweep-convex 1

The host-speed kernel runs once to warm up, then once before and once after
the set-up; the last stdout line holds those three kernel times, so that the
caller can take them out of the set-up time and correct it to the reference
host speed.
"""

import contextlib
import io
import sys

import hostspeed


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    warm = hostspeed.kernel_s()
    before = hostspeed.kernel_s()
    # the set-up proper: these imports come after the first kernel runs
    import qschlicht.cli
    import workloads
    workloads.first_inputs(workload, seed)
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = qschlicht.cli.main(["bounds", "--q", "0.5"])
    if code != 0 or "hankel_h22" not in buf.getvalue():
        print(f"bounds CLI call failed with exit code {code}", file=sys.stderr)
        return 1
    print(warm, before, hostspeed.kernel_s())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
