"""Orbifold Euler characteristics of the three spaces in play, all exact.

Three closed formulas over a Bernoulli table:

  siegel-quotient   e = prod_{k=1..g} zeta(1-2k)                 (zeta_product)
  moduli            e = zeta(1-2g)/(2-2g)                        (n = 0)
                    e = (-1)^(n-1) (2g+n-3)!/(2g-2)! zeta(1-2g)  (n > 0)
  torelli           chi_Q = same prefactors with the reciprocal zeta product
                    over k = 1..g-1

plus the quantity e(m,n) = (2m+n-1)!/(2m)! * prod_{k=1..m} 1/|zeta(1-2k)|
whose integrality is the subject of the certify module.  The product
identity e(moduli) = chi_Q(torelli) * e(siegel-quotient) is checkable
exactly.  Every zeta product is the table's one running product of
`zeta_special.zeta_product`; what stays independent is the left side, which
reads the single value zeta(1-2g) and no product, against the right, which
reads the running product at g-1 and at g: the identity holds only if
moving the product by one factor multiplies in exactly that value.
"""

from __future__ import annotations

from fractions import Fraction

from .bernoulli import BernoulliTable
from .exact_core import _Record, rising_factorial_ratio
from .zeta_special import zeta_one_minus_2k, zeta_product

__all__ = [
    "ProductFormulaCheck",
    "check_product_formula",
    "chi_torelli",
    "e_mn",
    "euler_moduli",
]

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


class ProductFormulaCheck(_Record):
    """Exact evaluation of both sides of e(moduli) = chi_Q(torelli) * e(siegel)."""

    __slots__ = _fields = ("g", "n", "moduli", "torelli", "siegel")

    def __init__(
        self, g: int, n: int, moduli: Fraction, torelli: Fraction, siegel: Fraction
    ) -> None:
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "torelli", torelli)
        object.__setattr__(self, "siegel", siegel)

    @property
    def holds(self) -> bool:
        return self.moduli == self.torelli * self.siegel


def check_product_formula(g: int, n: int, table: BernoulliTable) -> ProductFormulaCheck:
    """Evaluate both sides exactly: the left from zeta(1-2g), the right from products."""
    return ProductFormulaCheck(
        g=g,
        n=n,
        moduli=euler_moduli(g, n, table),
        torelli=chi_torelli(g, n, table),
        siegel=zeta_product(g, table),
    )
