"""Orbifold Euler characteristics of the three spaces in play, all exact.

Three closed formulas over a Bernoulli table:

  siegel-quotient   e = prod_{k=1..g} zeta(1-2k)                 (zeta_product)
  moduli            e = zeta(1-2g)/(2-2g)                        (n = 0)
                    e = (-1)^(n-1) (2g+n-3)!/(2g-2)! zeta(1-2g)  (n > 0)
  torelli           chi_Q = same prefactors with the reciprocal zeta product
                    over k = 1..g-1

plus the quantity e(m,n) = (2m+n-1)!/(2m)! * prod_{k=1..m} 1/|zeta(1-2k)|
whose integrality is the subject of the certify module.  Each is a plain
Fraction; the identity e(moduli) = chi_Q(torelli) * e(siegel-quotient)
that ties the first three together is checked by the verification suite.
"""

from __future__ import annotations

from fractions import Fraction

from .bernoulli import BernoulliTable
from .exact_core import rising_factorial_ratio
from .zeta_special import zeta_one_minus_2k, zeta_product

__all__ = ["chi_torelli", "e_mn", "euler_moduli"]

# chi_Q(torelli) is derived under a finiteness hypothesis on rational
# homology; the formula value is computed unconditionally and reports carry
# this label so nobody mistakes it for more than it is.
TORELLI_FORMULA_NOTE = "formula value under the finiteness hypothesis"


def _marked_point_prefactor(space: str, g: int, n: int) -> Fraction:
    # Shared by the moduli and torelli formulas, which both need g >= 2 and
    # n >= 0: 1/(2-2g) for n = 0 and (-1)^(n-1) (2g+n-3)!/(2g-2)! for n > 0.
    if g < 2:
        raise ValueError(f"{space} needs genus >= 2, got {g}")
    if n < 0:
        raise ValueError(f"marked points must be nonnegative, got {n}")
    if n == 0:
        return Fraction(1, 2 - 2 * g)
    sign = 1 if n % 2 == 1 else -1
    return Fraction(sign * rising_factorial_ratio(2 * g + n - 3, 2 * g - 2))


def euler_moduli(g: int, n: int, table: BernoulliTable) -> Fraction:
    """Orbifold Euler characteristic of genus-g moduli space with n marked points."""
    return _marked_point_prefactor("moduli", g, n) * zeta_one_minus_2k(g, table)


def chi_torelli(g: int, n: int, table: BernoulliTable) -> Fraction:
    """chi_Q of genus-g Torelli space with n marked points (formula value)."""
    return _marked_point_prefactor("torelli", g, n) / zeta_product(g - 1, table)


def e_mn(m: int, n: int, table: BernoulliTable) -> Fraction:
    """e(m,n) = (2m+n-1)!/(2m)! * prod_{k=1..m} 1/|zeta(1-2k)|, exact and positive."""
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    # A quotient by Fraction operators: its gcds are taken against the
    # rising factorial, not between the product's numerator and denominator.
    return rising_factorial_ratio(2 * m + n - 1, 2 * m) / abs(zeta_product(m, table))
