"""Exact workbench for the 8VSOS model with a diagonal reflecting end.

Enumerates lattice states, aggregates three-color statistics, computes the
associated polynomials by two independent exact routes, and cross-checks the
determinant and theta-function identities numerically.  The API lives in
the submodules; the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
