import math
from fractions import Fraction

import pytest

from torelli_euler.bernoulli import CapacityError
from torelli_euler.exact_core import pi_interval
from torelli_euler.zeta_special import (
    abs_zeta_one_minus_2k,
    zeta_abs_lower_bound,
    zeta_one_minus_2k,
)

from interval_oracles import fraction_power, fraction_scale


@pytest.mark.parametrize(
    "k,expected",
    [
        (1, Fraction(-1, 12)),
        (2, Fraction(1, 120)),
        (3, Fraction(-1, 252)),
        (6, Fraction(691, 32760)),
        (8, Fraction(3617, 8160)),
    ],
)
def test_exact_values(k, expected, table60):
    assert zeta_one_minus_2k(k, table60).value == expected


def test_sign_and_bernoulli_identity(table60):
    for k in range(1, 31):
        zeta = zeta_one_minus_2k(k, table60)
        assert (zeta.value > 0) == (k % 2 == 0)
        assert zeta.value * (2 * k) / table60.even(k) == -1


def test_capacity_and_domain_errors(table60):
    with pytest.raises(CapacityError):
        zeta_one_minus_2k(31, table60)
    with pytest.raises(ValueError):
        zeta_one_minus_2k(0, table60)


def test_lower_bound_small_cases(table60):
    import math

    # k = 1: encloses 2/(2pi)^2 ~ 0.0507, beaten by |zeta(-1)| = 1/12
    bound1 = zeta_abs_lower_bound(1)
    assert abs(float(bound1.lo) - 2 / (2 * math.pi) ** 2) < 1e-12
    assert Fraction(1, 12) > bound1.hi
    # k = 2: encloses 12/(2pi)^4 ~ 0.00770, beaten by 1/120
    bound2 = zeta_abs_lower_bound(2)
    assert abs(float(bound2.lo) - 12 / (2 * math.pi) ** 4) < 1e-12
    assert Fraction(1, 120) > bound2.hi


def test_lower_bound_certified_for_first_hundred(table600):
    for k in range(1, 101):
        assert abs_zeta_one_minus_2k(k, table600) > zeta_abs_lower_bound(k).hi


def test_pi_cache_holds_every_precision_of_the_lower_bound():
    pi_interval.cache_clear()
    for k in range(1, 121):
        zeta_abs_lower_bound(k)
    misses = pi_interval.cache_info().misses
    for k in range(1, 121):
        zeta_abs_lower_bound(k)
    assert pi_interval.cache_info().misses == misses


# The least pi precision of the bound, in bits.
@pytest.mark.parametrize("precision", [64])
def test_lower_bound_is_the_fraction_arithmetic_bit_for_bit(precision):
    # The power of 2pi, its reciprocal and the scale by 2 (2k-1)!, each formed
    # as Fractions one operation at a time.
    for k in range(1, 121):
        effective = max(precision, 2 * k + 32)
        power = fraction_power(pi_interval(effective).scale(2), 2 * k, effective + 32)
        expected = fraction_scale(power.reciprocal(), 2 * math.factorial(2 * k - 1))
        bound = zeta_abs_lower_bound(k)
        for end, expected_end in ((bound.lo, expected.lo), (bound.hi, expected.hi)):
            assert type(end) is Fraction, k
            assert (end.numerator, end.denominator) == (
                expected_end.numerator, expected_end.denominator
            ), k
