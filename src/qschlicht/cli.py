"""Command-line interface.

Subcommands:
  coeffs  print coefficients of a named generator or a measure-built member
  bounds  print the stated/conjectured bound values at (q, alpha)
  verify  run a named verification suite and print PASS/FAIL lines
  search  run a seeded extremal sweep and write the canonical JSON report
  limits  tabulate bound values along q -> 1 against classical targets
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .caratheodory import load_measure, p_series
from .errors import QschlichtError
from .explorer import SweepConfig, _fmt_float, canonical_json, \
    run_limit_sweep, run_sweep, save_report
from .extremal import eq_series, f1_series, f2_series
from .functionals import bieberbach_bound_convex, fs_bound, hankel_bound
from .power_series import MAX_ORDER
from .q_calculus import ClassParams
from .schlicht import alexander_pair, convex_from_h, starlike_from_p
from .verify import SUITES, run_suite


def _parse_complex(token: str) -> complex:
    """A complex literal; a trailing imaginary unit may be written i."""
    text = token.strip().replace(" ", "")
    if text.endswith("i"):
        text = text[:-1] + "j"
    try:
        return complex(text)
    except ValueError as exc:
        raise QschlichtError(f"cannot parse complex value {token.strip()!r}") from exc


def _parse_mu(token: str) -> complex:
    """Accept both 'RE,IM' and a complex literal like 0.5+0.5j."""
    if "," in token:
        re_part, im_part = token.split(",", 1)
        return complex(float(re_part), float(im_part))
    return _parse_complex(token)


def _parse_grid(spec: str) -> tuple:
    """Parse "a:b:step" (inclusive, tolerant endpoint; finite a and b, a
    finite positive step) or "v1,v2,..."."""
    if ":" in spec:
        try:
            a, b, step = (float(t) for t in spec.split(":"))
        except ValueError:  # not three parts, or a part is not a number
            a = b = step = math.nan
        if not (step > 0 and all(map(math.isfinite, (a, b, step)))):
            raise QschlichtError(f"grid spec {spec!r} must be a:b:step or v1,v2,...")
        return tuple(np.round(np.arange(a, b + step / 2, step), 12).tolist())
    return tuple(float(t) for t in spec.split(",") if t.strip())


def _parse_mu_grid(spec: str) -> tuple:
    return tuple(_parse_complex(t) for t in spec.split(",") if t.strip())


def _add_qa(parser, alpha_default=0.0):
    parser.add_argument("--q", type=float, required=True, help="q in (0, 1)")
    parser.add_argument("--alpha", type=float, default=alpha_default,
                        help="order alpha in [0, 1)")


def _cmd_coeffs(args) -> int:
    params = ClassParams(q=args.q, alpha=args.alpha, order=args.order)
    source = args.source
    if source == "f1":
        f = f1_series(params)
    elif source == "f2":
        f = f2_series(params)
    elif source == "eq":
        f = eq_series(params)
    elif source.startswith("measure:"):
        m = load_measure(source.split(":", 1)[1])
        build = convex_from_h if args.klass == "convex" else starlike_from_p
        f = build(p_series(m, params.order - 1), params)
    else:
        raise QschlichtError(f"unknown source {source!r}")
    # move a named generator into the requested class via the q-integral pair
    if source in ("f1", "f2") and args.klass == "convex":
        f = alexander_pair(f, "to_convex", params)
    elif source == "eq" and args.klass == "starlike":
        f = alexander_pair(f, "to_starlike", params)

    coeffs = f.coeffs
    if args.json:
        rows = {"class": args.klass, "source": source, "q": args.q,
                "alpha": args.alpha, "order": params.order,
                "coefficients": [[c.real, c.imag] for c in coeffs]}
        print(canonical_json(rows), end="")
    elif args.csv:
        print("n,re,im")
        for n, c in enumerate(coeffs):
            print(f"{n},{_fmt_float(c.real)},{_fmt_float(c.imag)}")
    else:
        for n, c in enumerate(coeffs):
            if n == 0:
                continue
            print(f"a_{n:<3d} {c.real:+.12e} {c.imag:+.12e}j")
    return 0


def _cmd_bounds(args) -> int:
    if not 2 <= args.n_max <= MAX_ORDER:
        raise QschlichtError(f"--n-max must lie in [2, {MAX_ORDER}]")
    params = ClassParams(q=args.q, alpha=args.alpha, order=max(32, args.n_max))
    mu = _parse_mu(args.mu) if args.mu else 0j
    fs = fs_bound(params, mu)
    hk = hankel_bound(params)
    tag = " (conjectural)" if fs.conjectural else ""
    print(f"fekete_szego(mu={mu}) <= {fs.value:.12g}{tag}")
    print(f"hankel_h22          <= {hk.value:.12g}{tag}")
    for n in range(2, args.n_max + 1):
        print(f"|a_{n}|{' ' * (14 - len(str(n)))}<= "
              f"{bieberbach_bound_convex(params, n):.12g}")
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, args.q, args.alpha, args.samples, args.seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += (not r.passed)
        print(f"[{status}] {args.suite}: {r.name} ({r.detail})")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_search(args) -> int:
    cfg = SweepConfig(
        functional=args.functional,
        seed=args.seed,
        samples=args.samples,
        q_grid=_parse_grid(args.q_grid),
        alpha_grid=_parse_grid(args.alpha_grid),
        mu_grid=_parse_mu_grid(args.mu_grid) if args.mu_grid else (),
        k_atoms=args.k_atoms,
        include_extremals=not args.no_extremals,
    )
    report = run_sweep(cfg, workers=args.workers)
    save_report(report, args.out, csv_path=args.csv)
    n_viol = sum(1 for c in report["cells"] if c["violated"])
    print(f"wrote {args.out}: {len(report['cells'])} cells, "
          f"{n_viol} flagged violation(s)")
    return 0


def _cmd_limits(args) -> int:
    q_list = [float(t) for t in args.q_list.split(",") if t.strip()]
    rows = run_limit_sweep(q_list, args.alpha)
    if args.json:
        print(canonical_json({"rows": rows}), end="")
        return 0
    for row in rows:
        print(f"q = {row['q']}, alpha = {row['alpha']}")
        for fsr in row["fekete_szego"]:
            print(f"  fs bound  mu={fsr['mu'][0]:+.2f}{fsr['mu'][1]:+.2f}j"
                  f"  {fsr['bound']:.9f}{_err(fsr)}")
        print(f"  hankel bound  {row['hankel']['bound']:.9f}{_err(row['hankel'])}")
        for br in row["bieberbach"]:
            print(f"  |a_{br['n']}| bound  {br['bound']:.9f}{_err(br)}")
        for cr in row["c_n"]:
            print(f"  c_{cr['n']}  {cr['c_n']:.9f}  target {cr['target']:.9f}{_err(cr)}")
    return 0


def _err(entry: dict) -> str:
    return "" if entry["abs_err"] is None else f"  err {entry['abs_err']:.3e}"


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors, so ``main`` prints them as one ``error:``
    line; --help and --version still exit 0."""

    def error(self, message):
        raise QschlichtError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qschlicht",
        description="q-starlike / q-convex class workbench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="print member coefficients")
    p.add_argument("--class", dest="klass", choices=("starlike", "convex"),
                   default="starlike")
    _add_qa(p)
    p.add_argument("--order", type=int, default=32)
    p.add_argument("--source", required=True,
                   help="f1 | f2 | eq | measure:FILE")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(fn=_cmd_coeffs)

    p = sub.add_parser("bounds", help="print stated bound values")
    _add_qa(p)
    p.add_argument("--mu", default=None, help="RE,IM or complex literal")
    p.add_argument("--n-max", type=int, default=10)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    _add_qa(p)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=20260810)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("search", help="run an extremal sweep")
    p.add_argument("--functional", required=True,
                   choices=("fs", "h22", "bieberbach"))
    p.add_argument("--q-grid", required=True, help="a:b:step or v1,v2,...")
    p.add_argument("--alpha-grid", default="0", help="a:b:step or v1,v2,...")
    p.add_argument("--mu-grid", default=None, help="complex list, e.g. 0,0.5,1+0.5j")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--csv", default=None, help="optional CSV path")
    p.add_argument("--k-atoms", type=int, default=4)
    p.add_argument("--no-extremals", action="store_true")
    p.add_argument("--workers", type=int, default=None,
                   help="overrides QSCHLICHT_THREADS")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("limits", help="bound values along q -> 1")
    p.add_argument("--q-list", required=True, help="comma list, e.g. 0.9,0.99")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_limits)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (QschlichtError, ValueError, ArithmeticError, OSError,
            MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
