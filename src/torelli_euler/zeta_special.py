"""Riemann zeta at negative odd integers: exact values and certified bounds.

zeta(1-2k) = -B_2k / (2k) is rational; every exact value comes from a
Bernoulli table, and so does every product prod_{k<=m} zeta(1-2k) the
package forms.  Both are formed here, once per table: each table carries a
memo of the values asked for so far and one running product, moved to
whatever m is asked next.  The functional-equation expression
zeta(1-2k) = (-1)^k 2 (2k-1)! / (2pi)^(2k) * zeta(2k) is used only for the
magnitude bound 2 (2k-1)! / (2pi)^(2k) < |zeta(1-2k)|, evaluated in rational
interval arithmetic.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .bernoulli import BernoulliTable, CapacityError
from .exact_core import (
    RationalInterval,
    _Record,
    _dyadic_quotient,
    _positive_power,
    _tree_product,
    pi_interval,
)

__all__ = [
    "ZetaValue",
    "abs_zeta_one_minus_2k",
    "zeta_abs_lower_bound",
    "zeta_one_minus_2k",
    "zeta_product",
]


class ZetaValue(_Record):
    """zeta(1-2k) for a positive integer k."""

    __slots__ = _fields = ("k", "value")

    def __init__(self, k: int, value: Fraction) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "value", value)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.value == 0:
            raise ValueError("zeta(1-2k) is never zero")
        if (self.value > 0) != (self.k % 2 == 0):
            raise ValueError(f"sign of zeta(1-2{self.k}) must be (-1)^{self.k}")


# Dividing out more factors than this costs more than forming the product
# afresh (measured from m = 100 to 800: the gcd of the running numerator
# against the factors' numerators grows with their number).
_MAX_FACTORS_DIVIDED = 8

# Moving a memo's running product reads it and replaces it: two threads
# doing so at once could file one product under another m.
_ZETA_LOCK = threading.Lock()


class _ZetaMemo:
    # zeta(1-2k) for each k asked so far, and one running product
    # prod_{k<=m} zeta(1-2k): one, not one per m, so that the memo stays the
    # size of its values whatever order requests come in.
    __slots__ = ("values", "m", "product")

    def __init__(self) -> None:
        self.values: dict[int, ZetaValue] = {}
        self.m = 0
        self.product = Fraction(1)


def _memo(table: BernoulliTable) -> _ZetaMemo:
    # The caller holds _ZETA_LOCK.
    memo = table._zeta_memo
    if memo is None:
        memo = _ZetaMemo()
        object.__setattr__(table, "_zeta_memo", memo)
    return memo


def _value(k: int, table: BernoulliTable, memo: _ZetaMemo) -> ZetaValue:
    # The caller holds _ZETA_LOCK.
    value = memo.values.get(k)
    if value is None:
        if 2 * k > table.max_index:
            raise CapacityError(
                f"zeta(1-2k) for k={k} needs B_{2 * k}, table stops at B_{table.max_index}"
            )
        value = memo.values[k] = ZetaValue(k=k, value=-table.even(k) / (2 * k))
    return value


def zeta_one_minus_2k(k: int, table: BernoulliTable) -> ZetaValue:
    """Exact zeta(1-2k) = -B_2k/(2k), reduced, formed once per table."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    with _ZETA_LOCK:
        return _value(k, table, _memo(table))


def abs_zeta_one_minus_2k(k: int, table: BernoulliTable) -> Fraction:
    """|zeta(1-2k)| as an exact rational."""
    return abs(zeta_one_minus_2k(k, table).value)


def zeta_product(m: int, table: BernoulliTable) -> Fraction:
    """Exact prod_{k=1..m} zeta(1-2k); 1 for m = 0.

    The table's running product is moved to m.  The factors between its m
    and the new one are multiplied out by one product tree per side and
    reduced once, then multiplied in (moving up) or divided out (moving
    down), so a gcd of the running product is taken only against them.
    Moving down past more than _MAX_FACTORS_DIVIDED factors, it starts over
    from 1.  Past the table it raises CapacityError for the first k the table
    lacks, leaving the running product where it was.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    with _ZETA_LOCK:
        memo = _memo(table)
        if memo.m - m > _MAX_FACTORS_DIVIDED:
            memo.m, memo.product = 0, Fraction(1)
        if m != memo.m:
            lo, hi = sorted((memo.m, m))
            factors = [_value(k, table, memo).value for k in range(lo + 1, hi + 1)]
            step = Fraction(
                _tree_product([q.numerator for q in factors]),
                _tree_product([q.denominator for q in factors]),
            )
            memo.product = memo.product * step if m > memo.m else memo.product / step
            memo.m = m
        return memo.product


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
