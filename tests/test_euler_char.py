import math
from fractions import Fraction

import pytest

from torelli_euler.bernoulli import CapacityError
from torelli_euler.euler_char import (
    EmnQuery,
    SpaceDescriptor,
    check_product_formula,
    chi_torelli,
    e_mn,
    euler_moduli,
    euler_siegel_quotient,
    siegel_zeta_product,
)
from torelli_euler.exact_core import rising_factorial_ratio
from torelli_euler.render import decimal_string
from torelli_euler.zeta_special import abs_zeta_one_minus_2k, zeta_one_minus_2k


def test_descriptor_validation():
    SpaceDescriptor(kind="siegel-quotient", g=1)
    with pytest.raises(ValueError):
        SpaceDescriptor(kind="moduli", g=1)
    with pytest.raises(ValueError):
        SpaceDescriptor(kind="torelli", g=2, n=-1)
    with pytest.raises(ValueError):
        SpaceDescriptor(kind="siegel-quotient", g=2, n=1)
    with pytest.raises(ValueError):
        SpaceDescriptor(kind="surface", g=2)


def test_emn_query_validation():
    with pytest.raises(ValueError):
        EmnQuery(0, 1)
    with pytest.raises(ValueError):
        EmnQuery(1, 0)


def test_siegel_quotient_values(table60):
    assert euler_siegel_quotient(1, table60).value == Fraction(-1, 12)
    assert euler_siegel_quotient(2, table60).value == Fraction(-1, 1440)


def test_siegel_product_14_decimal(table60):
    value = siegel_zeta_product(14, table60)
    assert decimal_string(value, 6) == "-297203.109482…"


@pytest.mark.parametrize(
    "g,n,expected",
    [
        (2, 0, Fraction(-1, 240)),
        (2, 1, Fraction(1, 120)),
        (2, 2, Fraction(-1, 40)),
    ],
)
def test_moduli_values(g, n, expected, table60):
    assert euler_moduli(g, n, table60).value == expected


@pytest.mark.parametrize(
    "g,n,expected",
    [(2, 0, Fraction(6)), (3, 0, Fraction(360)), (2, 1, Fraction(-12))],
)
def test_torelli_values(g, n, expected, table60):
    assert chi_torelli(g, n, table60).value == expected


def test_product_formula_examples(table60):
    for g, n in ((2, 0), (2, 1), (3, 0)):
        assert check_product_formula(g, n, table60).holds


def test_product_formula_grid(table60):
    for g in range(2, 13):
        for n in range(0, 5):
            assert check_product_formula(g, n, table60).holds


def test_torelli_reciprocal_identity(table60):
    for g in range(2, 13):
        chi = chi_torelli(g, 0, table60).value
        assert chi * (2 - 2 * g) * siegel_zeta_product(g - 1, table60) == 1


def test_emn_values(table60):
    assert e_mn(EmnQuery(1, 1), table60) == 12
    assert e_mn(EmnQuery(2, 1), table60) == 1440
    value = e_mn(EmnQuery(6, 1), table60)
    assert value.denominator % 691 == 0
    assert value == Fraction(12 * 120 * 252 * 240 * 132 * 32760, 691)


def test_emn_equals_bernoulli_product_form(table60):
    for m, n in ((1, 1), (4, 3), (9, 6), (13, 2)):
        product = Fraction(rising_factorial_ratio(2 * m + n - 1, 2 * m))
        for k in range(1, m + 1):
            product *= Fraction(2 * k) / abs(table60.even(k))
        assert e_mn(EmnQuery(m, n), table60) == product


def test_emn_positive_and_recurrences(table60):
    for m in range(1, 16):
        for n in range(1, 6):
            value = e_mn(EmnQuery(m, n), table60)
            assert value > 0
            assert e_mn(EmnQuery(m, n + 1), table60) / value == 2 * m + n
    for m in range(1, 15):
        ratio = e_mn(EmnQuery(m + 1, 1), table60) / e_mn(EmnQuery(m, 1), table60)
        assert ratio == 1 / abs_zeta_one_minus_2k(m + 1, table60)


def test_emn_capacity(table60):
    with pytest.raises(CapacityError):
        e_mn(EmnQuery(31, 1), table60)


def _running_division_e_mn(m, n, table):
    # The loop the product trees replaced: one division of a running
    # Fraction per zeta value.
    value = Fraction(rising_factorial_ratio(2 * m + n - 1, 2 * m))
    for k in range(1, m + 1):
        value /= abs_zeta_one_minus_2k(k, table)
    return value


@pytest.mark.parametrize("n", [1, 2, 7, 100, 677])
def test_emn_by_product_trees_matches_the_running_division(table600, n):
    for m in range(1, 61):
        value = e_mn(EmnQuery(m, n), table600)
        assert value == _running_division_e_mn(m, n, table600), m
        assert math.gcd(value.numerator, value.denominator) == 1
        assert (value.denominator == 1) == (m <= 5), m


def test_emn_by_product_trees_at_the_top_of_the_standard_grid(table600):
    value = e_mn(EmnQuery(200, 677), table600)
    assert value == _running_division_e_mn(200, 677, table600)
    assert math.gcd(value.numerator, value.denominator) == 1


def test_siegel_product_matches_the_running_product(table600):
    product = Fraction(1)
    for g in range(1, 121):
        product *= zeta_one_minus_2k(g, table600).value
        assert siegel_zeta_product(g, table600) == product, g
