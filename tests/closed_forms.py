"""Closed forms that only tests compare against the library."""

from fractions import Fraction
from math import comb


def power_series_coeff(q: int, s: int, n: int) -> Fraction:
    """[t^n] h^s for the A = (1+t)^q array, in the shifted form qs/((q-1)n+qs) C(q(n+s)-1, n).

    Substituting j = n + s turns this into ``hypergeom.power_coeff``.
    """
    if n < 0:
        return Fraction(0)
    return Fraction(q * s, (q - 1) * n + q * s) * comb(q * (n + s) - 1, n)
