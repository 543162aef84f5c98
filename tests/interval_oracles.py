"""Fraction-only reference computations the integer paths are checked against.

Each loop forms its values as plain `Fraction`s, one operation at a time,
and shares no code with the library's integer paths beyond
`RationalInterval` and its `outward` rounding, which `fraction_outward`
pins in turn.
"""

import math
from fractions import Fraction

from torelli_euler.exact_core import RationalInterval


def _fraction_to_bits(q, bits, rounding):
    # q rounded at 2**-s by `rounding` (floor or ceil), with
    # s = bits - (|numerator| bit length - denominator bit length).
    s = bits - (abs(q.numerator).bit_length() - q.denominator.bit_length())
    scale = Fraction(2) ** s
    return Fraction(rounding(q * scale)) / scale


def fraction_outward(interval, bits):
    """The interval rounded outward as `RationalInterval.outward` specifies, in Fractions.

    lo becomes floor(lo 2^s) / 2^s and hi ceil(hi 2^s) / 2^s, each with its
    own s = bits - (|numerator|.bit_length() - denominator.bit_length()).
    """
    return RationalInterval(
        _fraction_to_bits(interval.lo, bits, math.floor),
        _fraction_to_bits(interval.hi, bits, math.ceil),
    )


def fraction_power(interval, n, bits=None):
    """x**n over the interval by binary powering, rounded outward to `bits` after every multiply."""
    rounded = (lambda x: x) if bits is None else (lambda x: x.outward(bits))
    result, square = RationalInterval(1, 1), interval
    while n:
        if n & 1:
            result = rounded(result * square)
        n >>= 1
        if n:
            square = rounded(square * square)
    return result


def fraction_reciprocal(interval):
    """1/x over an interval of one sign, by two Fraction divisions."""
    assert not interval.lo <= 0 <= interval.hi
    return RationalInterval(1 / interval.hi, 1 / interval.lo)


def encloses(outer, inner):
    """Whether the interval `outer` holds all of `inner`."""
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def fraction_scale(interval, q):
    """The interval times the rational q, by Fraction multiplies after a Fraction sign test."""
    q = Fraction(q)
    if q >= 0:
        return RationalInterval(interval.lo * q, interval.hi * q)
    return RationalInterval(interval.hi * q, interval.lo * q)


def fraction_arctan_recip(x, tail_bound):
    """arctan(1/x) between consecutive partial sums of its Gregory series, a term at a time.

    Stops at the first term at most `tail_bound`.
    """
    total = Fraction(0)
    k = 0
    power = x  # x^(2k+1)
    while True:
        term = Fraction(1, (2 * k + 1) * power)
        if term <= tail_bound:
            if k % 2 == 0:
                return RationalInterval(total, total + term)
            return RationalInterval(total - term, total)
        total = total + term if k % 2 == 0 else total - term
        k += 1
        power *= x * x


def fraction_pi(precision):
    """pi by Machin's identity over the two Fraction series, as `pi_interval` encloses it."""
    budget = Fraction(1, 1 << precision)
    a5 = fraction_arctan_recip(5, budget / 32)
    a239 = fraction_arctan_recip(239, budget / 8)
    return a5.scale(16) - a239.scale(4)
