"""Exact arithmetic primitives shared by every other module.

Values are plain `fractions.Fraction` objects (arbitrary precision, always
reduced, denominator positive), re-exported here as `Rational`.  Those with
a power-of-two denominator, the endpoints of every rounded enclosure, are
built by `dyadic_fraction`, which reduces them by a shift instead of a gcd.
On top of that the module provides factorial-ratio products, p-adic
valuations, and a small rational interval arithmetic whose only
transcendental constant, pi, enters through a certified enclosure.  No
float ever participates in a certified computation; floats are for display
only.
"""

from __future__ import annotations

import decimal
import itertools
import math
import numbers
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

__all__ = [
    "Rational",
    "RationalInterval",
    "decimal_to_int",
    "dyadic_fraction",
    "factorial_valuation",
    "int_to_decimal",
    "is_probable_prime",
    "p_adic_valuation",
    "pi_interval",
    "primes_up_to",
    "rising_factorial_ratio",
]

Rational = Fraction

_ZERO = Fraction(0)

# Strong pseudoprime witnesses; the test is deterministic for n < 3.317e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Above this bit length the builtin str(), quadratic in CPython 3.11, is
# slower than a divide-and-conquer conversion through `decimal`, whose
# libmpdec multiplies in subquadratic time.  Measured by
# tools/str_crossover.py on a 2-core container: the two tie within 3 % from
# 20,000 to 32,200 bits, and from 32,400 bits on the divide-and-conquer
# conversion is 30-35 % faster.
_STR_MAX_BITS = 32_000
# Pieces of at most this many bits are converted by Decimal() directly
# (measured from 80,000 to 300,000 bits: leaves of 512 to 8192 bits perform
# alike, 4096 best by a little, all 10-15 % faster than 128).
_DECIMAL_LEAF_BITS = 4096
# Integer arithmetic in Decimal of any size, raising rather than rounding;
# `decimal.localcontext` enters a copy of it.
_EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow, decimal.Inexact],
)


# Rendering converts an integer again within a few calls: the points of a
# scan row share their denominator, and the text line of a point converts
# at most four integers (numerator, denominator, whole and fractional
# digits).  So the last four conversions are kept, each holding one integer
# and its digits.
@lru_cache(maxsize=4)
def int_to_decimal(n: int) -> str:
    """Decimal digits of an integer of any size."""
    if n.bit_length() <= _STR_MAX_BITS:
        return _without_digit_limit(str, n)
    digits = str(_natural_to_decimal(abs(n)))
    return "-" + digits if n < 0 else digits


def _natural_to_decimal(n: int) -> decimal.Decimal:
    # The algorithm of CPython 3.12's Lib/_pylong.py int_to_decimal: n splits
    # at bit w2 into hi * 2**w2 + lo, the halves convert recursively, and the
    # sum is formed exactly in Decimal.
    def convert(n: int, w: int) -> decimal.Decimal:
        if w <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(n)
        w2 = w >> 1
        hi = n >> w2
        return convert(n - (hi << w2), w2) + convert(hi, w - w2) * _decimal_power_of_two(w2)

    with decimal.localcontext(_EXACT_DECIMAL):
        return convert(n, n.bit_length())


# The split widths of integers of like size repeat, so the powers are shared
# by every integer converted, as those of one JSON document are; the cache
# holds the ones used most recently.
@lru_cache(maxsize=1024)
def _decimal_power_of_two(w: int) -> decimal.Decimal:
    """2**w as an exact Decimal, whatever the caller's context.

    A power above a leaf is the square of the power for half of w, doubled
    once more when w is odd.
    """
    with decimal.localcontext(_EXACT_DECIMAL):
        if w <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(2) ** w
        half = _decimal_power_of_two(w >> 1)
        square = half * half
        return square + square if w & 1 else square


def decimal_to_int(text: str) -> int:
    """The integer written in decimal by `text`, of any size."""
    return _without_digit_limit(int, text)


def _without_digit_limit(convert, value):
    # Bit-exact decimal rendering and parsing of very large integers is part
    # of this library's contract (caches, JSON, decimal display); CPython's
    # default 4300-digit cap, a mitigation for untrusted inputs, breaks it
    # past roughly B_2100.  Lifted (0: no limit) for the process on first use.
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        sys.set_int_max_str_digits(0)
    return convert(value)


@lru_cache(maxsize=65536)
def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality check, deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(limit: int) -> list[int]:
    """The primes p <= limit, increasing, by the sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for d in range(2, math.isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(sieve[d * d :: d]))
    return list(itertools.compress(range(limit + 1), sieve))


def rising_factorial_ratio(a: int, b: int) -> int:
    """a!/b! computed as the telescoped product (b+1)(b+2)...a.

    The empty product (a == b) is 1.  Rejects b > a: no formula in scope
    ever needs a falling ratio.
    """
    if b < 0:
        raise ValueError(f"arguments must be nonnegative, got b={b}")
    if b > a:
        raise ValueError(f"need b <= a, got a={a}, b={b}")
    return _tree_product(range(b + 1, a + 1))


# A leaf of the product tree multiplies a run of factors one at a time: at
# most _PRODUCT_LEAF of them, and fewer when they are wide, so that the run
# times the last factor's bit length stays within _PRODUCT_LEAF_BITS.
# Measured on 2 cores: runs of 32 to 256 perform alike on the 11- to 17-bit
# factors of rising factorials (676 to 10^5 of them); on the 1,900- to
# 10,500-bit zeta numerators of `zeta_product` (m = 200 to 800) runs of 2
# beat runs of 64 by 22-31 %, as the tree reaches Karatsuba sizes sooner.
_PRODUCT_LEAF = 64
_PRODUCT_LEAF_BITS = 4096


def _tree_product(factors: Sequence[int]) -> int:
    """The product of a list or range of integers, by a balanced product tree.

    math.prod over one long run multiplies a growing product by one factor
    at a time, quadratic in the size of the result.  The run length of the
    leaves is set once, from the last factor's bit length: the largest in a
    range, and nearly so among the growing zeta numerators.
    """
    size = factors[-1].bit_length() if factors else 0
    if size * _PRODUCT_LEAF <= _PRODUCT_LEAF_BITS:
        return _product_of_runs(factors, _PRODUCT_LEAF)
    return _product_of_runs(factors, max(1, _PRODUCT_LEAF_BITS // size))


def _product_of_runs(factors: Sequence[int], run: int) -> int:
    if len(factors) <= run:
        return math.prod(factors)
    middle = len(factors) >> 1
    return _product_of_runs(factors[:middle], run) * _product_of_runs(factors[middle:], run)


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_adic_valuation(q: Fraction | int, p: int) -> int:
    """v_p of a nonzero rational: v_p(numerator) - v_p(denominator).

    Primality of p is the caller's responsibility in principle; a cheap
    probable-prime check rejects obvious non-primes.
    """
    if not is_probable_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    q = Fraction(q)
    if q == 0:
        raise ValueError("p-adic valuation of 0 is undefined")
    return _int_valuation(abs(q.numerator), p) - _int_valuation(q.denominator, p)


def factorial_valuation(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula, sum_{i>=1} floor(n / p^i), for a prime p."""
    if n < 0 or p < 2:
        raise ValueError(f"need n >= 0 and p >= 2, got n={n}, p={p}")
    total = 0
    while n:
        n //= p
        total += n
    return total


class _LowestTerms:
    # A numerator and a positive denominator already in lowest terms.  The
    # `numbers.Rational` contract keeps them so, and `Fraction(r)` for such
    # an r copies the two without a gcd.
    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int) -> None:
        self.numerator = numerator
        self.denominator = denominator


class _Registered(numbers.Rational):
    # _LowestTerms is registered through this abstract subclass, not with
    # numbers.Rational itself: the ABC caches a class it finds that way, so
    # the isinstance test in `Fraction(r)` stays in C.  For a class
    # registered directly it would run ABCMeta.__subclasscheck__ each time.
    __slots__ = ()


_Registered.register(_LowestTerms)


def dyadic_fraction(mantissa: int, exponent: int) -> Fraction:
    """mantissa * 2**exponent as a Fraction in lowest terms.

    The common factor of numerator and denominator is the power of two the
    mantissa and 2**-exponent share, so no gcd of the (possibly huge)
    mantissa against the denominator is needed.
    """
    if exponent >= 0:
        return Fraction(mantissa << exponent)
    if mantissa == 0:
        return _ZERO
    shift = min((mantissa & -mantissa).bit_length() - 1, -exponent)
    return Fraction(_LowestTerms(mantissa >> shift, 1 << (-exponent - shift)))


def _dyadic_quotient(numerator: int, exponent: int, denominator: int) -> _LowestTerms:
    """numerator * 2**exponent / denominator, for denominator > 0, in lowest terms.

    A rational whose numerator and denominator can be read off, and which
    `Fraction()`, and with it `RationalInterval`, copies without a gcd.
    One gcd of the two integers as given reduces the pair; the power of two
    then goes onto the numerator or the denominator by the exponent's sign,
    less the twos the other side can cancel, found by a shift.  So the gcd
    never sees the power of two.
    """
    if numerator == 0:
        return _LowestTerms(0, 1)
    g = math.gcd(numerator, denominator)
    numerator, denominator = numerator // g, denominator // g
    if exponent >= 0:
        shift = min(exponent, (denominator & -denominator).bit_length() - 1)
        numerator, denominator = numerator << (exponent - shift), denominator >> shift
    else:
        shift = min(-exponent, (numerator & -numerator).bit_length() - 1)
        numerator, denominator = numerator >> shift, denominator << (-exponent - shift)
    return _LowestTerms(numerator, denominator)


def _ratio_to_bits(numerator: int, denominator: int, bits: int) -> tuple[int, int]:
    """numerator/denominator, denominator > 0, floored to about `bits` significant bits.

    Returns (mantissa, exponent), not reduced: the quotient is floored to
    bits + 1 significant bits, counted from the bit lengths of the two
    operands as given.
    """
    shift = bits - (numerator.bit_length() - denominator.bit_length())
    if shift >= 0:
        return (numerator << shift) // denominator, -shift
    return numerator // (denominator << -shift), -shift


def _dyadic_to_bits(mantissa: int, exponent: int, bits: int, ceil: bool) -> tuple[int, int]:
    """mantissa * 2**exponent rounded down (or up) as `RationalInterval.outward` rounds.

    The same rule as `_ratio_to_bits`: keep the top bits + 1 bits of the
    mantissa, rounding the rest down (or up), so the result is bit for bit
    `outward`'s without forming its power-of-two denominator.  Returns (mantissa,
    exponent) with the mantissa odd, as in the reduced Fraction, or (0, 0).
    """
    if mantissa == 0:
        return 0, 0
    drop = mantissa.bit_length() - bits - 1
    if drop > 0:
        mantissa = -(-mantissa >> drop) if ceil else mantissa >> drop
        exponent += drop
    zeros = (mantissa & -mantissa).bit_length() - 1
    return mantissa >> zeros, exponent + zeros


# An interval with positive dyadic endpoints, held in integers as
# (lo mantissa, lo exponent, hi mantissa, hi exponent): its endpoints as
# Fractions would carry power-of-two denominators of ~10^5 bits.
_Dyadic = tuple[int, int, int, int]

_DYADIC_ONE: _Dyadic = (1, 0, 1, 0)


def _interval_from_dyadic(entry: _Dyadic, factor: int = 1) -> "RationalInterval":
    """The entry scaled by a positive integer, each endpoint reduced by a shift."""
    lo, lo_exp, hi, hi_exp = entry
    return RationalInterval(
        dyadic_fraction(lo * factor, lo_exp), dyadic_fraction(hi * factor, hi_exp)
    )


def _mul_outward(a: _Dyadic, b: _Dyadic, bits: int) -> _Dyadic:
    """a * b rounded outward to `bits`, bit for bit as `RationalInterval` would.

    Both intervals are positive, so the product's lo is lo * lo and its hi
    is hi * hi, and each is rounded as `RationalInterval.outward` rounds.
    """
    lo, lo_exp, hi, hi_exp = a
    b_lo, b_lo_exp, b_hi, b_hi_exp = b
    return (
        _dyadic_to_bits(lo * b_lo, lo_exp + b_lo_exp, bits, ceil=False)
        + _dyadic_to_bits(hi * b_hi, hi_exp + b_hi_exp, bits, ceil=True)
    )


def _rounded_ratio(numerator: int, denominator: int, bits: int, ceil: bool) -> tuple[int, int]:
    """numerator/denominator > 0, in lowest terms, rounded down (or up) to `bits`.

    Bit for bit the lo (or hi) end of `RationalInterval.outward` of the
    Fraction, as (mantissa, exponent) with the mantissa odd.  Rounding up
    floors the negation, as `outward` rounds hi.
    """
    if ceil:
        mantissa, exponent = _ratio_to_bits(-numerator, denominator, bits)
        mantissa = -mantissa
    else:
        mantissa, exponent = _ratio_to_bits(numerator, denominator, bits)
    zeros = (mantissa & -mantissa).bit_length() - 1
    return mantissa >> zeros, exponent + zeros


def _ratios_outward(
    lo_num: int, lo_den: int, hi_num: int, hi_den: int, bits: int
) -> _Dyadic:
    """[lo_num/lo_den, hi_num/hi_den], each in lowest terms, rounded outward to `bits`.

    Bit for bit `RationalInterval.outward` of the two Fractions, with odd
    mantissas.
    """
    return _rounded_ratio(lo_num, lo_den, bits, ceil=False) + _rounded_ratio(
        hi_num, hi_den, bits, ceil=True
    )


def _positive_power(interval: "RationalInterval", n: int, bits: int) -> _Dyadic:
    """`interval.power(n, bits)` for 0 < interval.lo, in integers.

    The binary powering of `power`, in which each product of positive
    intervals is lo * lo and hi * hi.  The first operand is the interval
    itself; the first square of a reduced fraction is reduced as it stands,
    numerator and denominator squared; every later operand has been rounded,
    so is dyadic, and goes through `_mul_outward`.
    """
    lo, hi = interval.lo, interval.hi
    result = _DYADIC_ONE
    if n & 1:
        result = _ratios_outward(lo.numerator, lo.denominator, hi.numerator, hi.denominator, bits)
    n >>= 1
    if n:
        square = _ratios_outward(
            lo.numerator**2, lo.denominator**2, hi.numerator**2, hi.denominator**2, bits
        )
        while True:
            if n & 1:
                result = _mul_outward(result, square, bits)
            n >>= 1
            if not n:
                break
            square = _mul_outward(square, square, bits)
    return result


class _Record:
    """Base of the package's immutable value records.

    A record lists its fields, in declaration order, in `_fields` and holds
    them in slots; its `__init__` takes them by those names and sets them
    through `object.__setattr__`, then calls `__post_init__` where the class
    has one, to normalise or validate them.  Equality (within one class
    only), hash and repr are over the fields alone, the repr in the form
    `Name(field=value, ...)`.  The methods are written out, not generated
    when the module loads: a fresh process would pay for generating them,
    and for the modules that generate them, on every command.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # Copies and pickles are rebuilt through `__init__`, so revalidated.
        return self.__class__, self._values()


class RationalInterval(_Record):
    """Closed interval with exact rational endpoints.

    Every operation returns an enclosure of the exact image of its operands,
    so chained computations stay certified.  Division by an interval that
    contains zero is an error rather than an unbounded interval.
    """

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        object.__setattr__(self, "lo", lo if isinstance(lo, Fraction) else Fraction(lo))
        object.__setattr__(self, "hi", hi if isinstance(hi, Fraction) else Fraction(hi))
        self.__post_init__()

    def __post_init__(self) -> None:
        lo, hi = self.lo, self.hi
        lo_den, hi_den = lo.denominator, hi.denominator
        if lo_den & (lo_den - 1) == 0 and hi_den & (hi_den - 1) == 0:
            # Power-of-two denominators: cross-multiplying is a shift.
            shift = lo_den.bit_length() - hi_den.bit_length()
            if shift >= 0:
                empty = lo.numerator > hi.numerator << shift
            else:
                empty = lo.numerator << -shift > hi.numerator
        else:
            # lo > hi, cross-multiplied over the positive denominators.
            empty = lo.numerator * hi_den > hi.numerator * lo_den
        if empty:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @classmethod
    def point(cls, q: Fraction | int) -> "RationalInterval":
        q = Fraction(q)
        return cls(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, q: Fraction | int) -> bool:
        return self.lo <= q <= self.hi

    def encloses(self, other: "RationalInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __neg__(self) -> "RationalInterval":
        return RationalInterval(-self.hi, -self.lo)

    def __add__(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "RationalInterval") -> "RationalInterval":
        if not isinstance(other, RationalInterval):
            return NotImplemented
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RationalInterval(min(products), max(products))

    def scale(self, q: Fraction | int) -> "RationalInterval":
        """Multiply by an exact rational scalar."""
        q = Fraction(q)
        if q.numerator >= 0:
            return RationalInterval(self.lo * q, self.hi * q)
        return RationalInterval(self.hi * q, self.lo * q)

    def reciprocal(self) -> "RationalInterval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval containing zero has no reciprocal")
        return RationalInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other: "RationalInterval") -> "RationalInterval":
        if not isinstance(other, RationalInterval):
            return NotImplemented
        return self * other.reciprocal()

    def power(self, n: int, bits: int | None = None) -> "RationalInterval":
        """Enclosure of x**n over the interval, by binary exponentiation.

        With `bits`, endpoints are rounded outward to about that many
        significant bits after every multiply, so their size stays near
        `bits` however large n gets; without, no rounding takes place.  A
        strictly positive interval with `bits` is powered in integers by
        `_positive_power`, whose endpoints are bit for bit those of the
        Fraction loop below.  That loop stays for `bits=None`, where
        endpoints are not dyadic, and for intervals reaching 0 or below,
        where a product's ends are not lo * lo and hi * hi.
        """
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"interval power wants a nonnegative integer, got {n}")
        if bits is not None and self.lo > 0:
            return _interval_from_dyadic(_positive_power(self, n, bits))
        rounded = (lambda x: x) if bits is None else (lambda x: x.outward(bits))
        result, square = RationalInterval.point(1), self
        while n:
            if n & 1:
                result = rounded(result * square)
            n >>= 1
            if n:
                square = rounded(square * square)
        return result

    __pow__ = power

    def outward(self, bits: int) -> "RationalInterval":
        """Round endpoints outward to about `bits` significant bits.

        Keeps the enclosure valid while stopping endpoint denominators from
        blowing up in long interval products.  lo is floored by
        `_ratio_to_bits`, hi ceiled as the negation of -hi floored.
        """
        lo, hi = self.lo, self.hi
        return RationalInterval(
            dyadic_fraction(*_ratio_to_bits(lo.numerator, lo.denominator, bits)),
            -dyadic_fraction(*_ratio_to_bits(-hi.numerator, hi.denominator, bits)),
        )


def _arctan_recip_interval(x: int, tail_bound: Fraction) -> RationalInterval:
    """Enclose arctan(1/x) for integer x >= 2.

    The Gregory series sum_k (-1)^k / ((2k+1) x^(2k+1)) alternates with
    strictly decreasing terms, so the truncation error is bounded by the
    first omitted term and the value lies between consecutive partial sums.
    Summation stops at the first term K at most `tail_bound`, found by
    integer comparisons.  The partial sums through terms K - 1 and K are
    then summed in integers over the one denominator
    lcm(1, 3, ..., 2K+1) x^(2K+1) and reduced once each: the same
    Fractions as a term-by-term sum.
    """
    bound_num, bound_den = tail_bound.numerator, tail_bound.denominator
    xx = x * x
    last, power = 0, x  # power = x^(2 last + 1)
    # 1/((2k+1) x^(2k+1)) <= tail_bound, cross-multiplied.
    while bound_num * (2 * last + 1) * power < bound_den:
        last += 1
        power *= xx
    odd_lcm = math.lcm(*range(1, 2 * last + 2, 2))
    with_last = 0  # the sum through term `last` times the common denominator
    for k in range(last + 1):
        with_last = with_last * xx + (-1) ** k * (odd_lcm // (2 * k + 1))
    without_last = with_last - (-1) ** last * (odd_lcm // (2 * last + 1))
    denominator = odd_lcm * power
    before, after = Fraction(without_last, denominator), Fraction(with_last, denominator)
    return RationalInterval(before, after) if last % 2 == 0 else RationalInterval(after, before)


# zeta_special.zeta_abs_lower_bound alone asks for a precision per k above
# 16 (105 distinct ones for k <= 120); the cache holds all of them.
@lru_cache(maxsize=256)
def pi_interval(precision: int) -> RationalInterval:
    """Enclosure of pi with width <= 2**(1 - precision).

    Machin's identity pi = 16 arctan(1/5) - 4 arctan(1/239), each arctangent
    enclosed via its alternating series.  Enclosures at higher precision are
    nested inside lower-precision ones because the partial-sum brackets of an
    alternating series are nested.  Each series is summed in integers over
    one common denominator and reduced once; Fractions being canonical, the
    endpoints are bit for bit those of a term-by-term Fraction sum.
    """
    if precision < 8:
        raise ValueError(f"precision must be at least 8 bits, got {precision}")
    budget = Fraction(1, 1 << precision)
    a5 = _arctan_recip_interval(5, budget / 32)
    a239 = _arctan_recip_interval(239, budget / 8)
    return a5.scale(16) - a239.scale(4)
