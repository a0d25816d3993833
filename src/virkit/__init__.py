"""Exact-arithmetic toolkit for Virasoro-type graded Lie algebras.

Everything computes over exact rationals: sparse multivariate polynomials,
structure-constant Lie brackets with window checks, intermediate-series
module checks, and the classification determinant with its case scan.
"""

__version__ = "0.1.0"

from .errors import ParameterError

__all__ = [
    "MultiPoly",
    "ParameterError",
    "Rational",
    "canonical_string",
    "det3",
    "parse_poly",
    "poly_divrem",
    "__version__",
]


def __getattr__(name: str):
    # PEP 562: the names of __all__ from virkit.poly load it on first use, not on import
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import poly

    return getattr(poly, name)
