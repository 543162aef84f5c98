import contextlib
import decimal
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from torelli_euler import exact_core
from torelli_euler.exact_core import (
    RationalInterval,
    _PRODUCT_LEAF,
    _PRODUCT_LEAF_BITS,
    _dyadic_quotient,
    _dyadic_to_bits,
    _tree_product,
    dyadic_fraction,
    factorial_valuation,
    int_to_decimal,
    is_probable_prime,
    p_adic_valuation,
    pi_interval,
    rising_factorial_ratio,
)
from torelli_euler.verify import PI_REFERENCE

from interval_oracles import fraction_outward, fraction_pi, fraction_power


# --- rising_factorial_ratio -------------------------------------------------


@pytest.mark.parametrize(
    "a,b,expected",
    [(5, 5, 1), (7, 4, 210), (5, 2, 60), (0, 0, 1), (1, 0, 1)],
)
def test_rising_factorial_ratio_values(a, b, expected):
    assert rising_factorial_ratio(a, b) == expected


def test_rising_factorial_ratio_rejects_bad_arguments():
    with pytest.raises(ValueError):
        rising_factorial_ratio(4, 7)
    with pytest.raises(ValueError):
        rising_factorial_ratio(4, -1)


def test_rising_factorial_ratio_times_b_factorial_is_a_factorial():
    rng = random.Random(7)
    for a in range(0, 201):
        for b in {0, a, a // 2, rng.randint(0, a) if a else 0}:
            assert rising_factorial_ratio(a, b) * math.factorial(b) == math.factorial(a)


@pytest.mark.parametrize(
    "length", [0, 1, _PRODUCT_LEAF - 1, _PRODUCT_LEAF, _PRODUCT_LEAF + 1, 2 * _PRODUCT_LEAF + 1]
)
@pytest.mark.parametrize("b", [0, 1, 1000, 10**6])
def test_rising_factorial_ratio_tree_matches_one_run_around_the_leaf(b, length):
    assert rising_factorial_ratio(b + length, b) == math.prod(range(b + 1, b + length + 1))


@given(b=st.integers(0, 10**9), length=st.integers(0, 20 * _PRODUCT_LEAF))
def test_rising_factorial_ratio_tree_matches_one_run(b, length):
    assert rising_factorial_ratio(b + length, b) == math.prod(range(b + 1, b + length + 1))


@pytest.mark.parametrize("bits", [1, 64, 1000, 2048, 2049, 4096, 4097, 10_000])
def test_tree_product_of_wide_factors_is_the_product(bits):
    # Runs shorten as the factors widen, down to single factors past
    # _PRODUCT_LEAF_BITS; the factors grow, shrink and change sign.
    rng = random.Random(bits)
    for length in (0, 1, 2, 3, 5, 65):
        factors = [rng.getrandbits(bits) * rng.choice((-1, 1)) for _ in range(length)]
        by_size = sorted(factors, key=abs)
        for ordered in (factors, by_size, by_size[::-1], factors + [1 << _PRODUCT_LEAF_BITS]):
            assert _tree_product(ordered) == math.prod(ordered), length


@given(st.lists(st.integers(-(2**6000), 2**6000), max_size=40))
def test_tree_product_is_the_product(factors):
    assert _tree_product(factors) == math.prod(factors)


def test_tree_product_runs_shorten_as_factors_widen(monkeypatch):
    # Small factors go in runs of up to _PRODUCT_LEAF; factors of 1,500 bits
    # in runs of 4096 // 1500 = 2, and factors past _PRODUCT_LEAF_BITS alone.
    runs, prod = [], math.prod
    monkeypatch.setattr(math, "prod", lambda factors: runs.append(len(factors)) or prod(factors))
    rng = random.Random(1)
    for factors, longest in (
        (range(1, 1025), _PRODUCT_LEAF),
        ([rng.getrandbits(1500) | 1 << 1499 for _ in range(200)], 2),
        ([rng.getrandbits(5000) | 1 << 4999 for _ in range(50)], 1),
    ):
        runs.clear()
        _tree_product(factors)
        assert max(runs) == longest and sum(runs) == len(factors)


# --- p-adic valuation --------------------------------------------------------


def test_p_adic_valuation_examples():
    assert p_adic_valuation(12, 2) == 2
    assert p_adic_valuation(1, 5) == 0
    # 2730 = 2 * 3 * 5 * 7 * 13 (trial-division oracle), 691 is prime
    factors = []
    n = 2730
    d = 2
    while n > 1:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    assert factors == [2, 3, 5, 7, 13]
    assert p_adic_valuation(Fraction(-691, 2730), 7) == -1
    assert p_adic_valuation(Fraction(-691, 2730), 691) == 1
    assert p_adic_valuation(Fraction(-691, 2730), 11) == 0


def test_factorial_valuation_matches_factorials():
    for p in (2, 3, 7, 691):
        running = 0  # v_p(n!) = sum of v_p(j) for j = 1..n
        for n in range(0, 1400):
            running += p_adic_valuation(n, p) if n else 0
            assert factorial_valuation(n, p) == running, (n, p)
    assert factorial_valuation(100, 5) == p_adic_valuation(math.factorial(100), 5) == 24
    for n, p in ((-1, 2), (5, 1), (5, 0)):
        with pytest.raises(ValueError):
            factorial_valuation(n, p)


def test_p_adic_valuation_rejects_zero_and_nonprime():
    with pytest.raises(ValueError):
        p_adic_valuation(Fraction(0), 5)
    for bad in (0, 1, 4, -3, 691 * 3617):
        with pytest.raises(ValueError):
            p_adic_valuation(Fraction(1, 2), bad)


def test_p_adic_valuation_is_additive():
    rng = random.Random(2024)
    primes = (2, 3, 5, 7, 691)
    for _ in range(200):
        a = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
        b = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
        for p in primes:
            assert p_adic_valuation(a * b, p) == p_adic_valuation(a, p) + p_adic_valuation(b, p)


def test_is_probable_prime_against_sieve():
    limit = 10000
    sieve = [False, False] + [True] * (limit - 1)
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    for n in range(limit + 1):
        assert is_probable_prime(n) == sieve[n], n


# --- rational reduction invariants -------------------------------------------


def test_fractions_stay_reduced_with_positive_denominator():
    rng = random.Random(5)
    for _ in range(300):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999) or 1, rng.randint(1, 999))
        for value in (a + b, a - b, a * b, a / b):
            assert math.gcd(value.numerator, value.denominator) == 1
            assert value.denominator >= 1


# --- interval arithmetic ------------------------------------------------------


def _random_interval(rng):
    a = Fraction(rng.randint(-400, 400), rng.randint(1, 50))
    b = a + Fraction(rng.randint(0, 300), rng.randint(1, 50))
    return RationalInterval(a, b)


def _points(interval):
    w = interval.width
    return [interval.lo + w * t for t in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))]


def test_interval_rejects_reversed_endpoints():
    with pytest.raises(ValueError):
        RationalInterval(Fraction(1), Fraction(0))


def test_interval_operations_enclose_exact_results():
    rng = random.Random(11)
    for _ in range(150):
        u = _random_interval(rng)
        v = _random_interval(rng)
        for x in _points(u):
            for y in _points(v):
                assert (u + v).contains(x + y)
                assert (u - v).contains(x - y)
                assert (u * v).contains(x * y)
                if not v.contains(0):
                    assert (u / v).contains(x / y)
        for n in (0, 1, 2, 3, 7):
            for x in _points(u):
                assert (u**n).contains(x**n)
                assert u.power(n, 16).contains(x**n)
        scalar = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        for x in _points(u):
            assert u.scale(scalar).contains(x * scalar)


def test_rounded_power_keeps_endpoints_small():
    # (2pi)^200 unrounded carries ~33k-bit endpoints; rounded at 96 bits the
    # enclosure stays valid, about as tight, and its endpoints stay small.
    two_pi = pi_interval(64).scale(2)
    exact = two_pi**200
    rounded = two_pi.power(200, 96)
    assert rounded.encloses(exact)
    assert rounded.width < exact.width * Fraction(101, 100)
    for endpoint in (rounded.lo, rounded.hi):
        assert endpoint.numerator.bit_length() <= 600
        assert endpoint.denominator.bit_length() <= 600


def _same_endpoints(a, b):
    # Equal Fractions are equal in lowest terms, so numerators and denominators match too.
    return (a.lo, a.hi) == (b.lo, b.hi)


# Strictly positive endpoints whose denominators are not powers of two.
_non_dyadic = st.builds(
    lambda numerator, odd, twos: Fraction(numerator, (2 * odd + 1) << twos),
    st.integers(1, 2**200),
    st.integers(1, 2**120),
    st.integers(0, 64),
)


@given(lo=_non_dyadic, width=_non_dyadic | st.just(Fraction(0)), n=st.integers(0, 300),
       bits=st.integers(8, 300))
@settings(max_examples=150, deadline=None)
def test_positive_power_is_the_fraction_loop_bit_for_bit(lo, width, n, bits):
    interval = RationalInterval(lo, lo + width)
    result = interval.power(n, bits)
    assert _same_endpoints(result, fraction_power(interval, n, bits))
    assert type(result.lo) is Fraction and type(result.hi) is Fraction


def test_power_of_two_pi_is_the_fraction_loop_bit_for_bit():
    # The case of zeta_abs_lower_bound(k): 2pi at max(64, 2k + 32) bits,
    # raised to 2k with 32 bits more.
    for k in range(1, 121):
        effective = max(64, 2 * k + 32)
        two_pi = pi_interval(effective).scale(2)
        expected = fraction_power(two_pi, 2 * k, effective + 32)
        assert _same_endpoints(two_pi.power(2 * k, effective + 32), expected), k


def test_power_keeps_the_fraction_loop_off_the_positive_case():
    # Unrounded, or over an interval reaching 0 or below, power is that loop.
    for interval in (
        RationalInterval(Fraction(1, 3), Fraction(5, 7)),
        RationalInterval(Fraction(-2, 3), Fraction(5, 7)),
        RationalInterval(Fraction(0), Fraction(9, 5)),
        RationalInterval(Fraction(-9, 5), Fraction(-1, 3)),
    ):
        for n in (0, 1, 2, 7, 40):
            assert _same_endpoints(interval.power(n), fraction_power(interval, n))
            assert _same_endpoints(interval.power(n, 24), fraction_power(interval, n, 24))


def test_interval_division_by_zero_interval_is_an_error():
    u = RationalInterval(Fraction(1), Fraction(2))
    z = RationalInterval(Fraction(-1), Fraction(1))
    with pytest.raises(ZeroDivisionError):
        u / z
    with pytest.raises(ZeroDivisionError):
        z.reciprocal()


def test_interval_outward_rounding_encloses_and_stays_tight():
    rng = random.Random(13)
    for _ in range(100):
        u = _random_interval(rng)
        rounded = u.outward(48)
        assert rounded.encloses(u)
        if u.lo != 0:
            assert abs(rounded.lo - u.lo) <= abs(u.lo) * Fraction(1, 2**46)
        if u.hi != 0:
            assert abs(rounded.hi - u.hi) <= abs(u.hi) * Fraction(1, 2**46)


_dyadics = st.tuples(st.integers(-(2**400), 2**400), st.integers(-2000, 2000))


def _dyadic_value(mantissa, exponent):
    return Fraction(mantissa) * Fraction(2) ** exponent


# Signed mantissas with up to 300 trailing zeros.
_mantissas = st.builds(
    lambda base, zeros: base << zeros, st.integers(-(2**200), 2**200), st.integers(0, 300)
)


@given(mantissa=_mantissas, exponent=st.integers(-2000, 2000))
@example(mantissa=0, exponent=-7)
@example(mantissa=0, exponent=7)
@example(mantissa=-(3 << 40), exponent=-40)
def test_dyadic_fraction_is_the_reduced_fraction(mantissa, exponent):
    result, expected = dyadic_fraction(mantissa, exponent), _dyadic_value(mantissa, exponent)
    assert type(result) is Fraction
    assert result == expected and hash(result) == hash(expected)
    assert (result.numerator, result.denominator) == (expected.numerator, expected.denominator)


@given(
    numerator=_mantissas,
    exponent=st.integers(-2000, 2000),
    denominator=st.builds(
        lambda odd, twos: odd << twos, st.integers(1, 2**200), st.integers(0, 300)
    ),
)
@example(numerator=0, exponent=-7, denominator=3)
@example(numerator=0, exponent=7, denominator=3)
@example(numerator=-(3 << 40), exponent=-40, denominator=6 << 50)
@example(numerator=5, exponent=3, denominator=3 << 10)
@example(numerator=5 << 10, exponent=-3, denominator=3)
def test_dyadic_quotient_is_the_reduced_fraction(numerator, exponent, denominator):
    result = _dyadic_quotient(numerator, exponent, denominator)
    expected = _dyadic_value(numerator, exponent) / denominator
    assert (result.numerator, result.denominator) == (expected.numerator, expected.denominator)
    assert Fraction(result) == expected


_endpoints = st.one_of(
    st.builds(_dyadic_value, st.integers(-(2**300), 2**300), st.integers(-600, 600)),
    st.fractions(),
    st.integers(-(10**30), 10**30),
    # Signed, with an odd factor above 1 in the denominator.
    st.builds(
        lambda numerator, odd, twos: Fraction(numerator, (2 * odd + 1) << twos),
        st.integers(-(2**200), 2**200),
        st.integers(1, 2**120),
        st.integers(0, 64),
    ),
)


@given(lo=_endpoints, hi=_endpoints, equal=st.booleans())
@example(lo=Fraction(-1, 3), hi=Fraction(-1, 3), equal=False)
@example(lo=Fraction(-1, 3), hi=Fraction(-2, 3), equal=False)
@example(lo=Fraction(-2, 3), hi=Fraction(-1, 3), equal=False)
@example(lo=Fraction(1, 3), hi=Fraction(1, 4), equal=False)
@example(lo=Fraction(-5, 6), hi=Fraction(1, 4), equal=False)
def test_interval_construction_decides_as_the_fraction_comparison(lo, hi, equal):
    # Dyadic/dyadic pairs take the shift comparison, any other pair the
    # cross-multiplication of numerators and denominators; both must raise
    # exactly when lo > hi, with one message.
    if equal:
        hi = lo
    if Fraction(lo) > Fraction(hi):
        with pytest.raises(ValueError) as raised:
            RationalInterval(lo, hi)
        assert str(raised.value) == f"empty interval: lo={Fraction(lo)} > hi={Fraction(hi)}"
    else:
        interval = RationalInterval(lo, hi)
        assert (interval.lo, interval.hi) == (Fraction(lo), Fraction(hi))


@given(a=_endpoints, b=_endpoints, bits=st.integers(1, 200))
@example(a=0, b=0, bits=16)
@example(a=0, b=Fraction(5, 3), bits=8)
@example(a=Fraction(-5, 3), b=0, bits=8)
@example(a=Fraction(-7, 3), b=Fraction(-1, 3), bits=4)
@example(a=Fraction(-7, 3), b=Fraction(11, 5), bits=4)
@example(a=-(2**80) - 1, b=2**80 + 1, bits=32)
def test_outward_is_the_fraction_floor_and_ceil(a, b, bits):
    # Zero, negative and mixed-sign endpoints; lo floored, hi ceiled, each
    # at the power of two its own bit lengths give.
    interval = RationalInterval(*sorted((Fraction(a), Fraction(b))))
    rounded, expected = interval.outward(bits), fraction_outward(interval, bits)
    assert (rounded.lo, rounded.hi) == (expected.lo, expected.hi)
    assert rounded.encloses(interval)


@given(a=_dyadics, b=_dyadics, bits=st.integers(16, 200))
def test_dyadic_rounding_matches_outward(a, b, bits):
    lo, hi = sorted([a, b], key=lambda d: _dyadic_value(*d))
    rounded = RationalInterval(_dyadic_value(*lo), _dyadic_value(*hi)).outward(bits)
    for (mantissa, exponent), ceil, expected in ((lo, False, rounded.lo), (hi, True, rounded.hi)):
        result = _dyadic_to_bits(mantissa, exponent, bits, ceil)
        assert _dyadic_value(*result) == expected
        assert result == (0, 0) or result[0] % 2 == 1


# --- pi ------------------------------------------------------------------------


def test_pi_interval_contains_reference_and_meets_width():
    for precision in (16, 64, 128):
        enclosure = pi_interval(precision)
        assert enclosure.width <= Fraction(1, 2 ** (precision - 1))
        # The reference is pi truncated at 50 digits, so it sits just below
        # pi; containment still must hold at every tested precision.
        assert enclosure.lo < PI_REFERENCE < enclosure.hi
    at16 = pi_interval(16)
    assert at16.lo < Fraction(314159265, 10**8) < at16.hi


def test_pi_interval_nesting():
    assert pi_interval(16).encloses(pi_interval(64))
    assert pi_interval(64).encloses(pi_interval(128))


def test_pi_interval_is_the_fraction_series_bit_for_bit():
    # The integer sums over one denominator against the term-by-term
    # Fraction sums, and each enclosure inside the one a bit coarser.
    previous = None
    for precision in range(8, 401):
        enclosure = pi_interval(precision)
        assert _same_endpoints(enclosure, fraction_pi(precision)), precision
        assert previous is None or previous.encloses(enclosure), precision
        previous = enclosure


def test_pi_interval_rejects_tiny_precision():
    with pytest.raises(ValueError):
        pi_interval(4)


# --- int_to_decimal ----------------------------------------------------------------


@contextlib.contextmanager
def _digit_limit(limit):
    """The interpreter's int-digit limit set to `limit`, then put back."""
    original = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(original)


@st.composite
def _integers_around_the_cutoff(draw):
    bits = draw(st.integers(0, 3 * exact_core._STR_MAX_BITS))
    n = draw(st.randoms(use_true_random=False)).getrandbits(bits)
    return -n if draw(st.booleans()) else n


# 10^k has 3.32k bits: k = 12041 is the last power of ten below the cutoff.
_POWERS_OF_TEN = [0, 1, 2, 12040, 12041, 12042, 12043, 20000, 45000]


@settings(deadline=None)
@given(n=_integers_around_the_cutoff())
def test_int_to_decimal_matches_str(n):
    with _digit_limit(0):
        assert int_to_decimal(n) == str(n)


@pytest.mark.parametrize("k", _POWERS_OF_TEN)
def test_int_to_decimal_at_powers_of_ten(k):
    with _digit_limit(0):
        for n in (10**k, 10**k - 1, 10**k + 1):
            for signed in (n, -n):
                assert int_to_decimal(signed) == str(signed)
    assert (10**12041).bit_length() <= exact_core._STR_MAX_BITS < (10**12042).bit_length()


def test_int_to_decimal_under_the_default_digit_limit():
    # A fresh interpreter refuses str() past 4300 digits; both sides of the
    # cutoff must still convert.
    for k in (5000, 15000):
        with _digit_limit(sys.int_info.default_max_str_digits):
            assert int_to_decimal(-(10**k - 1)) == "-" + "9" * k


def test_decimal_powers_of_two_are_exact_under_any_context():
    # The shared powers are cached: one computed under a caller's rounding
    # context would be served rounded to every later conversion.
    exact_core._decimal_power_of_two.cache_clear()
    try:
        with decimal.localcontext(decimal.Context()):  # 28 digits
            for w in (5, 4096, 4097, 10_000, 30_001):
                assert str(exact_core._decimal_power_of_two(w)) == int_to_decimal(1 << w), w
    finally:
        exact_core._decimal_power_of_two.cache_clear()
