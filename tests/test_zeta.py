import functools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from torelli_euler import run_verification_suite
from torelli_euler.bernoulli import (
    BernoulliTable,
    CapacityError,
    bernoulli_table,
    load_table,
    persist_table,
)
from torelli_euler.certify import certificate_from_exact, certify_non_integrality, scan
from torelli_euler.euler_char import EmnQuery, e_mn, siegel_zeta_product
from torelli_euler.exact_core import pi_interval
from torelli_euler.zeta_special import (
    ZetaValue,
    abs_zeta_one_minus_2k,
    zeta_abs_lower_bound,
    zeta_one_minus_2k,
    zeta_product,
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


# --- the table's zeta memo -------------------------------------------------------


def _fresh(table):
    # An equal table whose memo is empty, without building the values again.
    return BernoulliTable(table.max_index, table.values, table.algorithm)


def _reference_products(table, m_max):
    # prod_{k<=m} zeta(1-2k) for m = 0..m_max: one Fraction multiply per
    # factor -B_2k/(2k), read straight off the table's values.
    products = [Fraction(1)]
    for k in range(1, m_max + 1):
        products.append(products[-1] * (-table.values[2 * k] / (2 * k)))
    return products


def _reference_e_mn(m, n, products):
    return Fraction(math.factorial(2 * m + n - 1), math.factorial(2 * m)) / abs(products[m])


@functools.lru_cache(maxsize=1)
def _table400():
    # A function, not a fixture: hypothesis reprs a test's arguments, and
    # the larger products are past the int-to-string digit limit.
    table = bernoulli_table(400)
    return table, _reference_products(table, 200)


_REQUESTS = st.lists(
    st.tuples(
        st.sampled_from(("e_mn", "siegel", "certify")), st.integers(1, 200), st.integers(1, 677)
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=30, deadline=None)
@given(requests=_REQUESTS)
# Repeats, a descent the memo divides out (8 factors), one it starts over
# from (9 factors), and a climb back.
@example(
    requests=[
        ("e_mn", 200, 677), ("e_mn", 200, 677), ("siegel", 192, 1), ("certify", 183, 5),
        ("siegel", 1, 1), ("e_mn", 200, 1), ("certify", 199, 677), ("siegel", 200, 1),
    ]
)
def test_memo_answers_as_an_independent_fraction_loop_in_any_order(requests):
    table400, products400 = _table400()
    table = _fresh(table400)
    for kind, m, n in requests:
        expected = _reference_e_mn(m, n, products400)
        if kind == "e_mn":
            assert e_mn(EmnQuery(m, n), table) == expected, (m, n)
        elif kind == "siegel":
            assert siegel_zeta_product(m, table) == products400[m], m
        else:
            found = certify_non_integrality(m, n, "exact", table)
            assert found == certificate_from_exact(expected), (m, n)


def test_siegel_product_against_sympy(table60):
    sympy = pytest.importorskip("sympy")
    table = _fresh(table60)
    expected = [Fraction(1)]
    for g in range(1, 31):
        # Even indices only: sympy takes B_1 = +1/2, the table -1/2.
        b = sympy.bernoulli(2 * g)
        expected.append(expected[-1] * Fraction(-int(b.p), int(b.q) * 2 * g))
    for g in [*range(1, 31), *range(30, 0, -1)]:
        assert siegel_zeta_product(g, table) == expected[g], g


def test_requests_past_the_table_raise_as_before_and_leave_the_memo_sound(table60):
    table = _fresh(table60)
    products = _reference_products(table60, 30)
    siegel_zeta_product(12, table)
    lacking = "zeta(1-2k) for k=31 needs B_62, table stops at B_60"
    requests = [
        (lambda: zeta_one_minus_2k(31, table), lacking),
        (lambda: abs_zeta_one_minus_2k(40, table), "zeta(1-2k) for k=40 needs B_80, table stops at B_60"),
        (lambda: zeta_product(31, table), lacking),
        (lambda: siegel_zeta_product(45, table), lacking),
        (lambda: e_mn(EmnQuery(31, 1), table), lacking),
        (
            lambda: certify_non_integrality(31, 1, "exact", table),
            "exact e(m,n) up to m=31 needs B_62, table stops at B_60",
        ),
    ]
    for request, message in requests:
        with pytest.raises(CapacityError) as excinfo:
            request()
        assert type(excinfo.value) is CapacityError and str(excinfo.value) == message
    for m in (12, 30, 1, 29, 30):
        assert zeta_product(m, table) == products[m], m
        assert e_mn(EmnQuery(m, 3), table) == _reference_e_mn(m, 3, products), m


def test_a_filled_memo_leaves_equality_repr_and_the_cache_file_alone(table60, tmp_path):
    filled, fresh = _fresh(table60), _fresh(table60)
    e_mn(EmnQuery(30, 5), filled)
    siegel_zeta_product(7, filled)
    zeta_one_minus_2k(3, filled)
    assert filled == fresh and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)
    persist_table(filled, tmp_path / "filled.txt")
    persist_table(fresh, tmp_path / "fresh.txt")
    assert (tmp_path / "filled.txt").read_bytes() == (tmp_path / "fresh.txt").read_bytes()
    loaded = load_table(tmp_path / "filled.txt")
    assert loaded == filled and repr(loaded) == repr(filled)
    assert e_mn(EmnQuery(30, 5), loaded) == e_mn(EmnQuery(30, 5), filled)


def test_one_standard_suite_forms_each_zeta_value_once(monkeypatch):
    # The suite reads zeta(1-2k) for k <= 300 from one B_600 table, in
    # values, products and e(m,n) alike.
    formed = Counter()
    check = ZetaValue.__post_init__

    def counting(self):
        formed[self.k] += 1
        check(self)

    monkeypatch.setattr(ZetaValue, "__post_init__", counting)
    report = run_verification_suite("standard")
    assert all(check.status == "pass" for check in report.checks)
    assert formed and max(formed.values()) == 1 and sum(formed.values()) <= 300


def _bits_held(obj):
    # Total bit length of the integers reachable from obj through slots,
    # attributes and containers.
    if isinstance(obj, bool) or obj is None:
        return 0
    if isinstance(obj, int):
        return obj.bit_length()
    if isinstance(obj, Fraction):
        return obj.numerator.bit_length() + obj.denominator.bit_length()
    if isinstance(obj, dict):
        return sum(_bits_held(key) + _bits_held(value) for key, value in obj.items())
    if isinstance(obj, (list, tuple, set)):
        return sum(_bits_held(item) for item in obj)
    names = getattr(type(obj), "__slots__", ()) or vars(obj)
    return sum(_bits_held(getattr(obj, name)) for name in names)


def test_memo_stays_the_size_of_its_values_after_a_scan_and_a_descent():
    table400, products400 = _table400()
    table = _fresh(table400)
    for point in scan((1, 200), (1, 1), "exact", table):
        assert point.certificate == certificate_from_exact(_reference_e_mn(point.m, 1, products400))
    for m in range(200, 0, -1):
        assert e_mn(EmnQuery(m, 1), table) == 1 / abs(products400[m]), m
    memo = table._zeta_memo
    value_bits = sum(_bits_held(zeta.value) for zeta in memo.values.values())
    # A product per m would hold about 200/3 times the values' bits.
    assert len(memo.values) == 200
    assert _bits_held(memo) <= 2 * value_bits
