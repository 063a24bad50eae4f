"""Exact truncated power series, Riordan arrays, and identity checking."""

from .arrays import (
    RiordanArray,
    Triangle,
    a_sequence,
    ballot_triangle,
    catalan_triangle,
    pascal,
    subarray_triangle,
)
from .hypergeom import (
    HypergeometricSpec,
    binomial_series,
    expand,
    h_for_binomial_A,
    pochhammer,
)
from .identities import check_andrews, check_registry, fibonacci, registry_entries
from .reports import Counterexample, IdentityReport
from .series import (
    FormalPowerSeries,
    lagrange_coeffs,
    lagrange_gf,
    lagrange_solve,
)

__version__ = "0.1.0"

__all__ = [
    "Counterexample",
    "FormalPowerSeries",
    "HypergeometricSpec",
    "IdentityReport",
    "RiordanArray",
    "Triangle",
    "a_sequence",
    "ballot_triangle",
    "binomial_series",
    "catalan_triangle",
    "check_andrews",
    "check_registry",
    "expand",
    "fibonacci",
    "h_for_binomial_A",
    "lagrange_coeffs",
    "lagrange_gf",
    "lagrange_solve",
    "pascal",
    "pochhammer",
    "registry_entries",
    "subarray_triangle",
]
