"""Riemann zeta at negative odd integers: exact values and certified bounds.

zeta(1-2k) = -B_2k / (2k) is rational; every exact value comes from a
Bernoulli table.  The functional-equation expression
zeta(1-2k) = (-1)^k 2 (2k-1)! / (2pi)^(2k) * zeta(2k) is used only for the
magnitude bound 2 (2k-1)! / (2pi)^(2k) < |zeta(1-2k)|, evaluated in rational
interval arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bernoulli import BernoulliTable, CapacityError
from .exact_core import RationalInterval, _dyadic_quotient, _positive_power, pi_interval

__all__ = [
    "ZetaValue",
    "abs_zeta_one_minus_2k",
    "zeta_abs_lower_bound",
    "zeta_one_minus_2k",
]


@dataclass(frozen=True)
class ZetaValue:
    """zeta(1-2k) for a positive integer k."""

    k: int
    value: Fraction

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.value == 0:
            raise ValueError("zeta(1-2k) is never zero")
        if (self.value > 0) != (self.k % 2 == 0):
            raise ValueError(f"sign of zeta(1-2{self.k}) must be (-1)^{self.k}")


def zeta_one_minus_2k(k: int, table: BernoulliTable) -> ZetaValue:
    """Exact zeta(1-2k) = -B_2k/(2k), reduced."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if 2 * k > table.max_index:
        raise CapacityError(
            f"zeta(1-2k) for k={k} needs B_{2 * k}, table stops at B_{table.max_index}"
        )
    return ZetaValue(k=k, value=-table.even(k) / (2 * k))


def abs_zeta_one_minus_2k(k: int, table: BernoulliTable) -> Fraction:
    """|zeta(1-2k)| as an exact rational."""
    return abs(zeta_one_minus_2k(k, table).value)


def zeta_abs_lower_bound(k: int) -> RationalInterval:
    """Enclosure of 2 (2k-1)! / (2pi)^(2k), a strict lower bound for |zeta(1-2k)|.

    Only the hi endpoint is used downstream, as a certified bound.  The pi
    precision is 64 bits or 2k + 32, whichever is larger: growing like 2k,
    it keeps the enclosure tighter than the gap zeta(2k) - 1 ~ 2^(-2k);
    otherwise the strict comparison |zeta(1-2k)| > hi would become
    undecidable for k above ~30.  The power is rounded outward to 32 bits
    beyond that precision, which keeps its endpoints small without eating
    into the margin.  It is taken in integers from `_positive_power`, and
    each end of the enclosure is one quotient in lowest terms: 2 (2k-1)!
    over the power's hi (for lo) or lo (for hi) mantissa, times the power
    of two of its exponent.  Lowest terms being unique, the endpoints are
    those of `(2pi).power(2k, bits).reciprocal().scale(2 (2k-1)!)`.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    effective = max(64, 2 * k + 32)
    two_pi = pi_interval(effective).scale(2)
    lo, lo_exp, hi, hi_exp = _positive_power(two_pi, 2 * k, effective + 32)
    numerator = 2 * math.factorial(2 * k - 1)
    return RationalInterval(
        _dyadic_quotient(numerator, -hi_exp, hi), _dyadic_quotient(numerator, -lo_exp, lo)
    )
