"""Orbifold Euler characteristics of the three spaces in play, all exact.

Three closed formulas over a Bernoulli table:

  siegel-quotient   e = prod_{k=1..g} zeta(1-2k)
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
    "EmnQuery",
    "EulerChar",
    "ProductFormulaCheck",
    "SPACE_KINDS",
    "SpaceDescriptor",
    "check_product_formula",
    "chi_torelli",
    "e_mn",
    "euler_moduli",
    "euler_siegel_quotient",
    "siegel_zeta_product",
]

SPACE_KINDS = ("siegel-quotient", "moduli", "torelli")

# chi_Q(torelli) is derived under a finiteness hypothesis on rational
# homology; the formula value is computed unconditionally and reports carry
# this label so nobody mistakes it for more than it is.
TORELLI_FORMULA_NOTE = "formula value under the finiteness hypothesis"


class SpaceDescriptor(_Record):
    """Which space an Euler characteristic belongs to.

    Genus starts at 2 for the marked-point spaces; the Siegel quotient also
    admits g = 1, needed to bootstrap products over k = 1..g-1.
    """

    __slots__ = _fields = ("kind", "g", "n")

    def __init__(self, kind: str, g: int, n: int = 0) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "n", n)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.kind not in SPACE_KINDS:
            raise ValueError(f"kind must be one of {SPACE_KINDS}, got {self.kind!r}")
        min_g = 1 if self.kind == "siegel-quotient" else 2
        if self.g < min_g:
            raise ValueError(f"{self.kind} needs genus >= {min_g}, got {self.g}")
        if self.n < 0:
            raise ValueError(f"marked points must be nonnegative, got {self.n}")
        if self.kind == "siegel-quotient" and self.n != 0:
            raise ValueError("the Siegel quotient carries no marked points")


class EulerChar(_Record):
    __slots__ = _fields = ("space", "value")

    def __init__(self, space: SpaceDescriptor, value: Fraction) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "value", value)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.value == 0:
            raise ValueError("every formula in scope is a product of nonzero factors")


class EmnQuery(_Record):
    __slots__ = _fields = ("m", "n")

    def __init__(self, m: int, n: int) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"need m, n >= 1, got m={self.m}, n={self.n}")


def siegel_zeta_product(g: int, table: BernoulliTable) -> Fraction:
    """Exact prod_{k=1..g} zeta(1-2k)."""
    if g < 1:
        raise ValueError(f"g must be positive, got {g}")
    return zeta_product(g, table)


def euler_siegel_quotient(g: int, table: BernoulliTable) -> EulerChar:
    """Orbifold Euler characteristic of the Siegel modular quotient."""
    return EulerChar(
        space=SpaceDescriptor(kind="siegel-quotient", g=g),
        value=siegel_zeta_product(g, table),
    )


def _marked_point_prefactor(g: int, n: int) -> Fraction:
    # Shared by the moduli and torelli formulas: 1/(2-2g) for n = 0 and
    # (-1)^(n-1) (2g+n-3)!/(2g-2)! for n > 0.
    if n == 0:
        return Fraction(1, 2 - 2 * g)
    sign = 1 if n % 2 == 1 else -1
    return Fraction(sign * rising_factorial_ratio(2 * g + n - 3, 2 * g - 2))


def euler_moduli(g: int, n: int, table: BernoulliTable) -> EulerChar:
    """Orbifold Euler characteristic of genus-g moduli space with n marked points."""
    space = SpaceDescriptor(kind="moduli", g=g, n=n)
    value = _marked_point_prefactor(g, n) * zeta_one_minus_2k(g, table).value
    return EulerChar(space=space, value=value)


def chi_torelli(g: int, n: int, table: BernoulliTable) -> EulerChar:
    """chi_Q of genus-g Torelli space with n marked points (formula value)."""
    space = SpaceDescriptor(kind="torelli", g=g, n=n)
    value = _marked_point_prefactor(g, n) / siegel_zeta_product(g - 1, table)
    return EulerChar(space=space, value=value)


def e_mn(query: EmnQuery, table: BernoulliTable) -> Fraction:
    """e(m,n) = (2m+n-1)!/(2m)! * prod_{k=1..m} 1/|zeta(1-2k)|, exact and positive."""
    m, n = query.m, query.n
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
        moduli=euler_moduli(g, n, table).value,
        torelli=chi_torelli(g, n, table).value,
        siegel=euler_siegel_quotient(g, table).value,
    )
