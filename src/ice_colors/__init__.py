"""Exact workbench for the 8VSOS model with a diagonal reflecting end.

Enumerates lattice states, aggregates three-color statistics, computes the
associated polynomials by two independent exact routes, and cross-checks the
determinant and theta-function identities numerically.
"""

from .exact import Poly, det_exact, interpolate
from .lattice import (CountTable, HeightGrid, LatticeState, count_table,
                      enumerate_states, heights, render_state, vertex_census)
from .pn import (pn_consistent, pn_from_counts, positivity_report,
                 symmetry_check)
from .theta import (ModelParams, ParamSampler, partition_brute,
                    partition_filali, theta, turn_weight, vertex_weight)
from .tpoly import PsiPoint, g_eval, pn_via_T
from .verify import identity_suite, specialization_check

__version__ = "0.1.0"

__all__ = [
    "CountTable", "HeightGrid", "LatticeState", "ModelParams", "ParamSampler",
    "Poly", "PsiPoint", "count_table", "det_exact", "enumerate_states",
    "g_eval", "heights", "identity_suite", "interpolate", "partition_brute",
    "partition_filali", "pn_consistent", "pn_from_counts", "pn_via_T",
    "positivity_report", "render_state", "specialization_check",
    "symmetry_check", "theta", "turn_weight", "vertex_census",
    "vertex_weight",
]
