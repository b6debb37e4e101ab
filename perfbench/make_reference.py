"""Regenerate ``certify_reference.json``: the PASS/FAIL status of every check
row of every ``certify`` op, or the exception an op raises, at the workload
seed ``workloads.REFERENCE_SEED``.

    PYTHONPATH=src python3 perfbench/make_reference.py

The benchmark fails a ``certify`` op when a row that passes here fails later,
at any workload seed: each row states a property of the library, so a row
that passes at one seed must pass at every seed.  Rows that fail here are
the documented findings; they are recorded so that a fix shows as a status
change, not hidden.  Regenerate only when the set of checks changes, and
review the diff.
"""

from __future__ import annotations

import json

from qschlicht import verify

import workloads


def main() -> int:
    reference = {}
    for suite, q, alpha, seed in workloads.certify_specs(
            workloads.REFERENCE_SEED):
        key = workloads.reference_key(suite, q, alpha)
        try:
            rows = verify.run_suite(suite, q, alpha, workloads.CERTIFY_SAMPLES,
                                    seed)
        except Exception as exc:  # recorded, never treated as a pass
            reference[key] = {"raises": type(exc).__name__}
            continue
        reference[key] = {"rows": {r.name: bool(r.passed) for r in rows}}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
