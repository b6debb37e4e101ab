"""qschlicht: numerical workbench for q-starlike and q-convex function classes.

Builds class members from finite Herglotz data, computes coefficient
functionals (Fekete-Szego, Hankel determinants, coefficient bounds), checks
membership on disk grids with truncation-error accounting, and runs seeded
extremal sweeps that compare empirical maxima against the stated bounds.
"""

__version__ = "0.1.0"

from .caratheodory import (AtomicMeasure, dump_measure, load_measure,
                           p_series, extend_p23, sample_measure)
from .errors import QschlichtError
from .explorer import (SweepConfig, canonical_json, replay_cell, report_csv,
                       run_limit_sweep, run_sweep, save_report)
from .extremal import (eq_series, f1_series, f2_series,
                       f_exponent_series, herglotz_starlike)
from .functionals import (Bound, bieberbach_bound_convex, fekete_szego_value,
                          fs_bound, hankel_bound, hankel_value, t4_scalars)
from .power_series import TruncatedSeries
from .q_calculus import ClassParams, dq, iq, jackson_sum, q_bracket
from .schlicht import (CertReport, alexander_pair, convex_from_h,
                       convex_from_measure, membership_convex,
                       membership_starlike, rho_map, starlike_from_p)

__all__ = [
    "AtomicMeasure", "Bound", "CertReport", "ClassParams",
    "QschlichtError", "SweepConfig",
    "TruncatedSeries", "alexander_pair", "bieberbach_bound_convex",
    "canonical_json", "convex_from_h", "convex_from_measure", "dq",
    "dump_measure", "eq_series", "extend_p23", "f1_series", "f2_series",
    "f_exponent_series", "fekete_szego_value", "fs_bound", "hankel_bound",
    "hankel_value", "herglotz_starlike", "iq", "jackson_sum", "load_measure",
    "membership_convex", "membership_starlike", "p_series",
    "q_bracket", "replay_cell", "report_csv",
    "rho_map", "run_limit_sweep", "run_sweep",
    "sample_measure", "save_report", "starlike_from_p", "t4_scalars",
]
