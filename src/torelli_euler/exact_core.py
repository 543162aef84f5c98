"""Exact arithmetic primitives shared by every other module.

Values are plain `fractions.Fraction` objects (arbitrary precision, always
reduced, denominator positive).  Every rounded endpoint is rounded by one
rule, `_round_to_bits`: the exact quotient floored or ceiled to a number of
significant bits, kept in integers as an odd mantissa and an exponent.
`dyadic_fraction` turns such a pair, over an optional integer denominator,
into a Fraction, moving the power of two by a shift and taking no gcd of
it.  On top of that the module provides factorial-ratio products, p-adic
valuations, and a small rational interval arithmetic whose only
transcendental constant, pi, enters through a certified enclosure.  No
float ever participates in a certified computation; floats are for
display only.
"""

from __future__ import annotations

import bisect
import decimal
import itertools
import math
import numbers
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

__all__ = [
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

_ZERO = Fraction(0)

# A natural number's decimal digits as this library writes and reads them,
# a regular expression: ASCII, no sign, no leading zero.  `decimal_to_int`
# reads these after at most one minus, and the cache reader an index.
_NATURAL_DIGITS = "0|[1-9][0-9]*"

# Strong pseudoprime witnesses; the test is deterministic for n < 3.317e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# `int_to_decimal` has three tiers, by bit length.  Below _SPLIT_MIN_BITS
# the builtin str(), quadratic in CPython 3.11, is fastest.  From there the
# integer is split by powers of ten, each division by Burnikel and
# Ziegler's recursion, and the leaves go to str().  From _DECIMAL_MIN_BITS
# on the split by powers of two through `decimal`, whose libmpdec
# multiplies large numbers by a number-theoretic transform, wins.  Measured
# cold, every cache cleared before each conversion as when a CLI request
# starts, by tools/str_crossover.py (four runs, 2-core container, CPython
# 3.11.7): the split is at least 10 % faster than str() from 8,000 or
# 10,000 bits on (30,000 bits: 0.70 against 1.21 ms), and the `decimal`
# route faster than the split from 170,000, 185,000 or 200,000 bits on (the
# two tie within 10 % from 140,000 to 200,000 bits; 300,000 bits: 21
# against 24 ms, and 1,500,000 bits: 0.18 against 0.47 s).
_SPLIT_MIN_BITS = 10_000
_DECIMAL_MIN_BITS = 185_000
# The split's leaves have at most this many digits.  From 512 to 2048 they
# perform alike, from 5,000 to 200,000 digits.
_LEAF_DIGITS = 1024
# A Burnikel-Ziegler division hands a quotient of at most this many bits to
# the builtin divmod (1,000 and 1,500 were 5-20 % slower from 12,000 to
# 90,000 bits, 3,000 alike).  The split with the builtin divmod at every
# level instead was 1.4-2.8x slower from 30,000 to 185,000 bits, lost to
# the `decimal` route from 60,000 bits on, and cut the cli-requests
# benchmark's 95th-percentile request time by 4.5 % where this cuts it by
# 8.2 % (same host, BENCH_46.json).
_DIVMOD_LEAF_BITS = 2000
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
    bits = n.bit_length()
    if bits < _SPLIT_MIN_BITS:
        return _without_digit_limit(str, n)
    if bits < _DECIMAL_MIN_BITS:
        # 0.30103 > log10(2): an integer of `bits` bits has at most that many digits.
        digits = _split_to_decimal(abs(n), _level(bits * 30103 // 100_000 + 1))
    else:
        digits = str(_natural_to_decimal(abs(n)))
    return "-" + digits if n < 0 else digits


def _level(digits: int) -> int:
    """The least level whose pieces, _LEAF_DIGITS << level digits, hold `digits` >= 1."""
    return ((digits - 1) // _LEAF_DIGITS).bit_length()


# The powers at each level: a handful, shared by every integer converted.
# 10 ** w is 5 ** w shifted by w bits, and the smaller power is the cheaper
# to square.
@lru_cache(maxsize=None)
def _power_of_five(level: int) -> int:
    """5 ** (_LEAF_DIGITS << level), each level the square of the one below."""
    if level == 0:
        return 5**_LEAF_DIGITS
    half = _power_of_five(level - 1)
    return half * half


def _split_to_decimal(n: int, level: int) -> str:
    """The digits of 0 <= n < 10 ** (_LEAF_DIGITS << level), no leading zeros.

    The split of CPython 3.12's Lib/_pylong.py int_to_decimal_string, at
    fixed widths: n = hi * 10**w + lo, w = _LEAF_DIGITS << (level - 1),
    and the digits of lo are padded to w.
    """
    if level == 0:
        return str(n)
    level -= 1
    width = _LEAF_DIGITS << level
    hi, lo = _divmod_2n_by_n(n, _power_of_five(level) << width)
    if not hi:
        return _split_to_decimal(lo, level)
    return _split_to_decimal(hi, level) + _split_to_decimal(lo, level).zfill(width)


def _divmod_2n_by_n(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for 0 <= a < b * 2**n, n = b.bit_length().

    The recursion of Burnikel and Ziegler, "Fast Recursive Division"
    (MPI-I-98-1-022, 1998), as in CPython 3.12's Lib/_pylong.py: the
    quotient's two halves are each found by a division of 3 half-words by
    2, whose correction multiplies at Karatsuba speed, where the builtin
    divmod of CPython 3.11 is quadratic.
    """
    n = b.bit_length()
    if a.bit_length() - n <= _DIVMOD_LEAF_BITS:
        return divmod(a, b)
    odd = n & 1
    if odd:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _divmod_3_by_2(a >> n, (a >> half) & mask, b, b1, b2, half)
    q2, r = _divmod_3_by_2(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> odd


def _divmod_3_by_2(
    a12: int, a3: int, b: int, b1: int, b2: int, half: int
) -> tuple[int, int]:
    # (a12 * 2**half + a3) divided by b = b1 * 2**half + b2, for a12 < b: the
    # quotient estimated from a12 / b1, then lowered at most twice.
    if a12 >> half == b1:
        q, r = (1 << half) - 1, a12 - (b1 << half) + b1
    else:
        q, r = _divmod_2n_by_n(a12, b1)
    r = (r << half | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


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
    """The integer written by `text`: _NATURAL_DIGITS after at most one minus, not "-0".

    Anything else raises ValueError: another sign, leading zeros, spaces,
    underscores, non-ASCII digits, and any value not a str.
    """
    # Within the text the builtin int() takes nothing but digits and
    # underscores; these tests refuse what else it would take.  Each is
    # O(1) but for the search for an underscore.  A last digit makes the
    # text one digit long at least, two after a minus.
    if not (
        isinstance(text, str)
        and text.isascii()
        and text[-1:].isdigit()
        and "_" not in text
        and ("1" <= (text[1] if text[0] == "-" else text[0]) <= "9" or text == "0")
    ):
        raise ValueError(f"not a decimal integer: {text!r}")
    return _without_digit_limit(int, text)


# The interpreter's int-digit limit; CPython before 3.11 has none.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _without_digit_limit(convert, value):
    # Bit-exact decimal rendering and parsing of very large integers is part
    # of this library's contract (caches, JSON, decimal display); CPython's
    # default 4300-digit cap, a mitigation for untrusted inputs, breaks it
    # past roughly B_2100.  Lifted (0: no limit) for the process on first use.
    if _digit_limit():
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
    """a!/b!, the telescoped product (b+1)(b+2)...a.

    The empty product (a == b) is 1.  Rejects b > a: no formula in scope
    ever needs a falling ratio.  math.perm(a, a - b) is that product,
    formed in C.
    """
    if b < 0:
        raise ValueError(f"arguments must be nonnegative, got b={b}")
    if b > a:
        raise ValueError(f"need b <= a, got a={a}, b={b}")
    return math.perm(a, a - b)


# A leaf of the product tree multiplies a run of factors one at a time: at
# most _PRODUCT_LEAF of them, and fewer when they are wide, so that the run
# times the last factor's bit length stays within _PRODUCT_LEAF_BITS.
# Measured on 2 cores: on the 1,900- to 10,500-bit zeta numerators of
# `zeta_product` (m = 200 to 800) runs of 2 beat runs of 64 by 22-31 %, as
# the tree reaches Karatsuba sizes sooner.  Runs of 64 serve factors of up
# to 64 bits, such as the zeta numerators and denominators of low k.
_PRODUCT_LEAF = 64
_PRODUCT_LEAF_BITS = 4096


def _tree_product(factors: Sequence[int]) -> int:
    """The product of a list of integers, by a balanced product tree.

    math.prod over one long run multiplies a growing product by one factor
    at a time, quadratic in the size of the result.  The run length of the
    leaves is set once, from the last factor's bit length: nearly the
    largest among the growing zeta numerators.
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
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    if not is_probable_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return _legendre(n, p)


def _legendre(n: int, p: int) -> int:
    # Legendre's sum for n >= 0, with p unchecked: the caller has checked it.
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


def dyadic_fraction(numerator: int, exponent: int, denominator: int = 1) -> Fraction:
    """numerator * 2**exponent / denominator, for denominator > 0, in lowest terms.

    One gcd of numerator and denominator as given reduces the pair, and none
    is taken when the denominator is 1.  The power of two then goes onto the
    numerator or the denominator by the exponent's sign, less the twos the
    other side can cancel, found by a shift.  So no gcd ever sees the power
    of two, and the Fraction copies the reduced pair without one.
    """
    if denominator != 1:
        if denominator < 1:
            raise ValueError(f"denominator must be positive, got {denominator}")
        g = math.gcd(numerator, denominator)
        numerator, denominator = numerator // g, denominator // g
    if numerator == 0:
        return _ZERO
    if exponent >= 0:
        shift = min(exponent, (denominator & -denominator).bit_length() - 1)
        numerator, denominator = numerator << (exponent - shift), denominator >> shift
    else:
        shift = min(-exponent, (numerator & -numerator).bit_length() - 1)
        numerator, denominator = numerator >> shift, denominator << (-exponent - shift)
    return Fraction(_LowestTerms(numerator, denominator))


def _round_to_bits(
    numerator: int, exponent: int, denominator: int, bits: int, ceil: bool
) -> tuple[int, int]:
    """numerator * 2**exponent / denominator, denominator > 0, rounded to `bits`.

    The one rounding rule of every certified endpoint: the quotient is
    floored (or, with `ceil`, ceiled) to bits + 1 significant bits, counted
    from the bit lengths of numerator and denominator.  These must be in
    lowest terms but for twos they share, which move both bit lengths
    alike, so the result is that of the reduced Fraction, and the exponent
    only shifts it.  A denominator of 1 is rounded by a shift.  Returns
    (mantissa, exponent) with the mantissa odd, as in the reduced Fraction,
    or (0, 0).
    """
    if ceil:
        numerator = -numerator
    if denominator == 1:
        drop = numerator.bit_length() - bits - 1
        if drop > 0:
            numerator >>= drop
            exponent += drop
    else:
        shift = bits - (numerator.bit_length() - denominator.bit_length())
        if shift >= 0:
            numerator = (numerator << shift) // denominator
        else:
            numerator //= denominator << -shift
        exponent -= shift
    if ceil:
        numerator = -numerator
    if numerator == 0:
        return 0, 0
    zeros = (numerator & -numerator).bit_length() - 1
    return numerator >> zeros, exponent + zeros


# An interval with positive dyadic endpoints, held in integers as
# (lo mantissa, lo exponent, hi mantissa, hi exponent): its endpoints as
# Fractions would carry power-of-two denominators of ~10^5 bits.
_Dyadic = tuple[int, int, int, int]


def _interval_from_dyadic(entry: _Dyadic, factor: int = 1) -> "RationalInterval":
    """The entry scaled by a positive integer, each endpoint reduced by a shift."""
    lo, lo_exp, hi, hi_exp = entry
    return RationalInterval(
        dyadic_fraction(lo * factor, lo_exp), dyadic_fraction(hi * factor, hi_exp)
    )


def _positive_power(interval: "RationalInterval", n: int, bits: int) -> _Dyadic:
    """x**n over an interval with 0 < lo, rounded outward to `bits`, in integers.

    Binary powering, one end at a time: each end of a product of positive
    intervals is the product of the same ends, lo rounded down and hi up
    by `_round_to_bits` after every multiply.  The first square is the
    end's numerator and denominator squared; every later operand has been
    rounded, so is dyadic, and its products are rounded by a shift.
    """
    result: tuple[int, ...] = ()
    for end, ceil in ((interval.lo, False), (interval.hi, True)):
        numerator, denominator = end.numerator, end.denominator
        power = _round_to_bits(numerator, 0, denominator, bits, ceil) if n & 1 else (1, 0)
        k = n >> 1
        if k:
            square = _round_to_bits(numerator**2, 0, denominator**2, bits, ceil)
            while True:
                if k & 1:
                    power = _round_to_bits(
                        power[0] * square[0], power[1] + square[1], 1, bits, ceil
                    )
                k >>= 1
                if not k:
                    break
                square = _round_to_bits(square[0] ** 2, 2 * square[1], 1, bits, ceil)
        result += power
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
        fields = ", ".join(
            f"{name}={_without_digit_limit(repr, getattr(self, name))}" for name in self._fields
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # Copies and pickles are rebuilt through `__init__`, so revalidated.
        return self.__class__, self._values()


class RationalInterval(_Record):
    """Closed interval with exact rational endpoints.

    Every operation returns an enclosure of the exact image of its operands,
    so chained computations stay certified.
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

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, q: Fraction | int) -> bool:
        return self.lo <= q <= self.hi

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

    def power(self, n: int, bits: int) -> "RationalInterval":
        """Enclosure of x**n over a strictly positive interval, by binary powering.

        Endpoints are rounded outward to about `bits` significant bits after
        every multiply, so their size stays near `bits` however large n
        gets.  The powering runs in integers, in `_positive_power`.
        """
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"interval power wants a nonnegative integer, got {n}")
        if self.lo <= 0 or not isinstance(bits, int):
            raise ValueError(f"interval power wants 0 < lo and integer bits, got {self.lo}, {bits}")
        return _interval_from_dyadic(_positive_power(self, n, bits))

    __pow__ = power

    def outward(self, bits: int) -> "RationalInterval":
        """Round endpoints outward to about `bits` significant bits.

        Keeps the enclosure valid while stopping endpoint denominators from
        blowing up in long interval products.  lo is floored and hi ceiled
        to bits + 1 significant bits by `_round_to_bits`.
        """
        lo, hi = self.lo, self.hi
        return RationalInterval(
            dyadic_fraction(*_round_to_bits(lo.numerator, 0, lo.denominator, bits, False)),
            dyadic_fraction(*_round_to_bits(hi.numerator, 0, hi.denominator, bits, True)),
        )


class _GregorySeries:
    # The Gregory series arctan(1/x) = sum_k (-1)^k / ((2k+1) x^(2k+1)) for
    # an odd x >= 3, grown one term at a time.  Partial sum K is
    # numerators[K] / (lcms[K] x^(2K+1)), with lcms[K] = lcm(1, 3, ..., 2K+1),
    # and tails[K] = (2K+1) x^(2K+1) is the reciprocal of term K.  Each step
    # appends tails[K] last, so a reader that sees it sees the rest of K.
    __slots__ = ("x", "numerators", "lcms", "tails")

    def __init__(self, x: int) -> None:
        self.x = x
        self.numerators = [1]
        self.lcms = [1]
        self.tails = [x]

    def bracket(self, bound: int) -> tuple[int, int, int]:
        """(lo, hi, d) with arctan(1/x) in [lo/d, hi/d] and hi - lo <= d/bound.

        The ends are the partial sums through terms K - 1 and K, for the
        first K whose term is at most 1/bound, found by a binary search of
        the tails after growing the series to it; d = lcms[K] x^(2K+1).
        Step K sets numerators[K] = numerators[K-1] x^2 lcms[K]/lcms[K-1]
        + (-1)^K lcms[K]/(2K+1).
        """
        tails = self.tails
        if tails[-1] < bound:
            with _SERIES_LOCK:
                xx = self.x * self.x
                while tails[-1] < bound:
                    k = len(tails)
                    lcm = self.lcms[-1]
                    step = (2 * k + 1) // math.gcd(lcm, 2 * k + 1)
                    lcm *= step
                    term = lcm // (2 * k + 1)
                    self.numerators.append(
                        self.numerators[-1] * xx * step + (-term if k & 1 else term)
                    )
                    self.lcms.append(lcm)
                    tails.append(tails[-1] // (2 * k - 1) * xx * (2 * k + 1))
        k = bisect.bisect_left(tails, bound)
        with_last = self.numerators[k]
        term = self.lcms[k] // (2 * k + 1)
        if k & 1:
            return with_last, with_last + term, term * tails[k]
        return with_last - term, with_last, term * tails[k]


# Growing a series reads its last term and appends the next: two threads
# doing so at once could append one term twice.
_SERIES_LOCK = threading.Lock()


# One series per x, shared by every precision.  An lru cache, not a
# module-level object: clearing the module's lru caches then starts both
# series over as in a fresh process.
@lru_cache(maxsize=2)
def _gregory_series(x: int) -> _GregorySeries:
    return _GregorySeries(x)


# zeta_special.zeta_abs_lower_bound alone asks for a precision per k above
# 16 (105 distinct ones for k <= 120); the cache holds all of them.
@lru_cache(maxsize=256)
def pi_interval(precision: int) -> RationalInterval:
    """Enclosure of pi with width <= 2**(1 - precision).

    Machin's identity pi = 16 arctan(1/5) - 4 arctan(1/239), each arctangent
    enclosed between consecutive partial sums of its alternating Gregory
    series, which therefore nest: an enclosure at a higher precision lies
    inside one at a lower.  The two series are shared by every precision and
    grown a term at a time on demand, so a new precision pays only for terms
    no precision has needed before.  Each series' last term K is the first
    at most 2**-(precision + 5) for x = 5 and 2**-(precision + 3) for
    x = 239, found by a binary search of the stored tails (2K+1) x^(2K+1).
    Both ends of pi are formed in integers over the product of the two
    series' denominators and reduced once each; Fractions being canonical,
    they are bit for bit those of a term-by-term Fraction sum.
    """
    if precision < 8:
        raise ValueError(f"precision must be at least 8 bits, got {precision}")
    lo5, hi5, d5 = _gregory_series(5).bracket(1 << (precision + 5))
    lo239, hi239, d239 = _gregory_series(239).bracket(1 << (precision + 3))
    return RationalInterval(
        Fraction(16 * lo5 * d239 - 4 * hi239 * d5, d5 * d239),
        Fraction(16 * hi5 * d239 - 4 * lo239 * d5, d5 * d239),
    )
