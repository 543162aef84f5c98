"""Machine-checkable non-integrality certificates for e(m,n).

Three certificate forms, each validated at construction time so that an
unsound certificate cannot exist as an object:

  IntegerValue      e(m,n) reduced to denominator 1
  PrimeWitness      a prime with negative valuation in e(m,n)
  MagnitudeWitness  a certified bound 0 < e(m,n) < 1

plus an explicit Inconclusive outcome which is never silently conflated
with either answer.  The magnitude route goes through the certified
upper-bound product

  U(m,n) = (2m+n-1)!/(2m)! * prod_{k=1..m} (2pi)^(2k) / (2 (2k-1)!),

evaluated in rational interval arithmetic, together with its consecutive
ratio, which certifies that the bound sequence decreases below 1 from some
threshold on.  Its single terms, each from the one before times
(2pi)^2 / ((2k-2)(2k-1)), and its prefix products are memoised one end at a
time, lo rounded down and hi rounded up; `_bound_memo` extends an end's memo
only when that end is read: a certificate reads the hi end alone, an
enclosure both.  Exact certificates read the exact e(m,n)
of `euler_char.e_mn`; witness primes are chosen deterministically (691,
then 3617, then the smallest prime factor of the reduced denominator up to
WITNESS_SEARCH_LIMIT).  `first_n_reaching` inverts Legendre's formula: the
least n at which a prime's valuation of (2m+n-1)!/(2m)! meets a given bar.
The claim for every m >= 6 and n <= 677 is proved by the standalone
`recheck` module, not here.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Union

from .bernoulli import BernoulliTable, CapacityError
from .exact_core import (
    RationalInterval,
    _Dyadic,
    _Record,
    _interval_from_dyadic,
    _legendre,
    _positive_power,
    _round_to_bits,
    dyadic_fraction,
    factorial_valuation,
    p_adic_valuation,
    pi_interval,
    primes_up_to,
    rising_factorial_ratio,
)
from .euler_char import e_mn

__all__ = [
    "BoundSequence",
    "Certificate",
    "CertificateError",
    "Inconclusive",
    "IntegerValue",
    "MAX_EXACT_M",
    "MAX_WITNESSED_N",
    "MagnitudeWitness",
    "PrimeWitness",
    "STRATEGIES",
    "ScanPoint",
    "ThresholdResult",
    "WITNESS_PRIMES",
    "WITNESS_SEARCH_LIMIT",
    "WideRangeBoundForms",
    "certificate_from_exact",
    "certify_non_integrality",
    "first_n_reaching",
    "scan",
    "single_term_interval",
    "threshold_for_n",
    "threshold_m0",
    "upper_bound_interval",
    "wide_range_bound_forms",
    "wide_range_constant_form_threshold",
]

STRATEGIES = ("auto", "exact", "bound")

# Witness primes tried first: they sit in the denominator of e(m,n) through
# the numerators of B_12 and B_16 and cannot be cancelled by the integer
# prefactor while the window (2m, 2m+n-1] stays below them.
WITNESS_PRIMES = (691, 3617)

# The paper's bound on n: e(m,n) is not an integer for every m >= 6 and
# n <= 677, and e(7,678) is one.
MAX_WITNESSED_N = 677

# Trial division for a witness prime stops here: a denominator with no prime
# factor up to it gets an Inconclusive certificate.  Above every witness seen
# off the witnessed window (largest: 108023, at m = 100, n = 100000).
WITNESS_SEARCH_LIMIT = 1 << 17

# `auto` falls back to exact e(m,n) only up to m = 200 (B_400): each exact
# value is a product of m big rationals, and its cost grows quadratically.
MAX_EXACT_M = 200


class CertificateError(ValueError):
    """A certificate failed its own soundness recheck at construction."""


class IntegerValue(_Record):
    """e(m,n) is the integer `value`."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: int) -> None:
        object.__setattr__(self, "value", value)
        self.__post_init__()

    def __post_init__(self) -> None:
        if isinstance(self.value, bool) or not isinstance(self.value, int):
            raise CertificateError(f"integer certificate holds {self.value!r}")


class PrimeWitness(_Record):
    """v_p(value) < 0 for the prime p, so value is not an integer."""

    __slots__ = _fields = ("value", "p", "valuation")

    def __init__(self, value: Fraction, p: int, valuation: int) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "valuation", valuation)
        self.__post_init__()

    def __post_init__(self) -> None:
        recomputed = p_adic_valuation(self.value, self.p)
        if recomputed != self.valuation or recomputed >= 0:
            raise CertificateError(
                f"claimed v_{self.p} = {self.valuation}, recomputed {recomputed}"
            )


class MagnitudeWitness(_Record):
    """0 < e(m,n) <= upper < 1, so e(m,n) is not an integer.

    Positivity comes from the factor structure of e(m,n); `upper` is the hi
    endpoint of a certified enclosure of the bound product, an exact
    Fraction: its denominator is positive, so 0 < upper < 1 is
    0 < numerator < denominator.
    """

    __slots__ = _fields = ("upper", "statement")

    def __init__(self, upper: Fraction, statement: str) -> None:
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "statement", statement)
        self.__post_init__()

    def __post_init__(self) -> None:
        upper = self.upper
        if not (isinstance(upper, Fraction) and 0 < upper.numerator < upper.denominator):
            raise CertificateError(f"magnitude witness needs 0 < upper < 1, got {self.upper}")


class Inconclusive(_Record):
    """Neither certified; a distinct outcome, never an implicit answer."""

    __slots__ = _fields = ("reason",)

    def __init__(self, reason: str) -> None:
        object.__setattr__(self, "reason", reason)


Certificate = Union[IntegerValue, PrimeWitness, MagnitudeWitness, Inconclusive]


# Primes up to WITNESS_SEARCH_LIMIT in blocks of 128, each with its product:
# one reduction of a huge denominator modulo the product leaves a small
# residue to trial-divide by each prime of the block.
@lru_cache(maxsize=1)
def _prime_blocks() -> tuple[tuple[int, list[int]], ...]:
    primes = primes_up_to(WITNESS_SEARCH_LIMIT)
    blocks = [primes[i : i + 128] for i in range(0, len(primes), 128)]
    return tuple((math.prod(block), block) for block in blocks)


def _witness_prime(denominator: int) -> int | None:
    for p in WITNESS_PRIMES:
        if denominator % p == 0:
            return p
    for product, primes in _prime_blocks():
        residue = denominator % product
        for p in primes:
            if residue % p == 0:
                return p
    return None


def certificate_from_exact(value: Fraction) -> Certificate:
    """Certificate for an exactly known positive rational.

    Deterministic: 691 and 3617 are tried first, then the smallest prime
    factor of the reduced denominator up to WITNESS_SEARCH_LIMIT; past that
    limit the outcome is Inconclusive.
    """
    if value.denominator == 1:
        return IntegerValue(int(value))
    p = _witness_prime(value.denominator)
    if p is None:
        return Inconclusive(f"no prime factor up to witness search limit {WITNESS_SEARCH_LIMIT}")
    return PrimeWitness(value=value, p=p, valuation=p_adic_valuation(value, p))


# ---------------------------------------------------------------------------
# Certified upper-bound machinery.

# Extra significant bits kept through interval products; endpoint rounding
# is outward, so enclosures stay valid, only slightly wider.
_GUARD_BITS = 32

# The one precision of the certified bound: 64 significant bits and the
# guard bits, to which every endpoint of its interval products is rounded.
_BITS = 64 + _GUARD_BITS


# Extending a memo reads its last entry and appends the next: two threads
# doing so at once would file one entry under two indices.
_MEMO_LOCK = threading.Lock()

# One end of a positive dyadic interval, (mantissa, exponent) for
# mantissa * 2**exponent, the mantissa odd.
_End = tuple[int, int]


class _BoundEnd:
    # One end of the bound's interval products, lo rounded down or hi rounded
    # up: `square`, that end of (2pi)^2 rounded to _BITS; the single terms
    # for k = 1..len(terms), term k at index k - 1; and the prefix products
    # for m = 0..len(products)-1.  `_bound_memo` keeps
    # len(products) == len(terms) + 1.
    __slots__ = ("square", "terms", "products")

    def __init__(self, ceil: bool) -> None:
        # pi^2 with both exponents raised by 2: the ends of pi have odd
        # denominators, so the mantissas are those of (2pi)^2.
        lo, lo_exp, hi, hi_exp = _positive_power(pi_interval(_BITS), 2, _BITS)
        self.square = (hi, hi_exp + 2) if ceil else (lo, lo_exp + 2)
        self.terms: list[_End] = []
        self.products: list[_End] = [(1, 0)]


# The memo of each end, ceil=False for lo and ceil=True for hi, each made
# and filled only when that end is read.  An lru cache, not a module-level
# object: clearing the module's lru caches then starts both ends over as in
# a fresh process.
@lru_cache(maxsize=2)
def _bound_end(ceil: bool) -> _BoundEnd:
    return _BoundEnd(ceil)


def _lowest_terms(numerator: int, divisor: int) -> tuple[int, int]:
    """numerator / divisor in lowest terms, as a pair of integers."""
    g = math.gcd(numerator, divisor)
    return numerator // g, divisor // g


def _bound_memo(k: int, ceil: bool) -> _BoundEnd:
    """One end's memo, extended through single term k and prefix product k.

    Step j appends single term j, then prefix product j.  With S the
    memo's end of (2pi)^2, term 1 is S/2 and term j is term j-1 times
    S / ((2j-2)(2j-1)), and prefix product j is prefix product j-1 times
    term j: each end of a product of positive intervals is the product of
    the same ends.  Each step is one `_round_to_bits` of the two mantissas'
    product over the divisor (1 for the prefix), in lowest terms by
    `_lowest_terms`, the pair a Fraction would hold, with the exponents'
    sum, rounded down (ceil=False) or up.  Each mantissa is odd and of at
    most _BITS + 1 bits, so no step forms an integer wider than two
    mantissas: an endpoint as a Fraction would carry a power-of-two
    denominator of ~10^5 bits by m = 200.

    Readers test `products`, which each step appends last, so that a
    reader that sees prefix product k sees single term k too.
    """
    memo = _bound_end(ceil)
    if len(memo.products) <= k:
        with _MEMO_LOCK:
            (square, square_exp), terms, products = memo.square, memo.terms, memo.products
            for j in range(len(products), k + 1):
                if terms:
                    last, last_exp = terms[-1]
                    top, divisor = _lowest_terms(last * square, (2 * j - 2) * (2 * j - 1))
                    term, term_exp = _round_to_bits(
                        top, last_exp + square_exp, divisor, _BITS, ceil
                    )
                else:
                    term, term_exp = square, square_exp - 1
                terms.append((term, term_exp))
                prefix, prefix_exp = products[-1]
                products.append(
                    _round_to_bits(prefix * term, prefix_exp + term_exp, 1, _BITS, ceil)
                )
    return memo


def _single_term(k: int) -> _Dyadic:
    """Both ends of single term k, in integers."""
    return _bound_memo(k, ceil=False).terms[k - 1] + _bound_memo(k, ceil=True).terms[k - 1]


def single_term_interval(k: int) -> RationalInterval:
    """Enclosure of (2pi)^(2k) / (2 (2k-1)!), the k-th bound factor.

    The factor crosses 1 between k = 8 and k = 9, which is what makes the
    bound sequence eventually decrease.  Its endpoints are those of the
    integer memos of `_bound_memo`, as Fractions.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return _interval_from_dyadic(_single_term(k))


class BoundSequence(_Record):
    """Certified enclosures of U(m,n) and of the ratio U(m+1,n)/U(m,n)."""

    __slots__ = _fields = ("m", "n", "value", "ratio_next")

    def __init__(
        self, m: int, n: int, value: RationalInterval, ratio_next: RationalInterval
    ) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "ratio_next", ratio_next)
        self.__post_init__()

    def __post_init__(self) -> None:
        # lo <= 0, read off the numerator as the denominator is positive.
        if self.value.lo.numerator <= 0:
            raise ValueError("the bound product is positive; enclosure must show it")


def _term_product(m: int) -> _Dyadic:
    """Both ends of the m-th prefix product, in integers."""
    return _bound_memo(m, ceil=False).products[m] + _bound_memo(m, ceil=True).products[m]


def _bound_sequence(m: int, n: int, prefix: int) -> BoundSequence:
    """U(m,n) and U(m+1,n)/U(m,n) from both ends of `_bound_memo` entries.

    prefix is the integer (2m+n-1)!/(2m)!.  The value is both ends of the
    m-th prefix product times the prefix.  The ratio is single term m+1
    times (2m+n+1)(2m+n)/((2m+2)(2m+1)), each end one `dyadic_fraction` of
    the term's mantissa times (2m+n+1)(2m+n), its exponent, and
    (2m+2)(2m+1).  Lowest terms being unique, the endpoints are those of
    `single_term_interval(m+1).scale(factor)`.
    """
    lo, lo_exp, hi, hi_exp = _single_term(m + 1)
    rise, fall = (2 * m + n + 1) * (2 * m + n), (2 * m + 2) * (2 * m + 1)
    return BoundSequence(
        m=m,
        n=n,
        value=_interval_from_dyadic(_term_product(m), prefix),
        ratio_next=RationalInterval(
            dyadic_fraction(lo * rise, lo_exp, fall), dyadic_fraction(hi * rise, hi_exp, fall)
        ),
    )


def upper_bound_interval(m: int, n: int) -> BoundSequence:
    """Certified enclosure of U(m,n) together with the consecutive ratio."""
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    return _bound_sequence(m, n, rising_factorial_ratio(2 * m + n - 1, 2 * m))


def _upper_end(m: int, n: int) -> tuple[int, int]:
    """`upper_bound_interval(m, n).value.hi`, the one end a certificate reads.

    In integers, as (top, exponent) for top * 2**exponent, with top the hi
    memo's mantissa times (2m+n-1)!/(2m)!: no lo end, no ratio, no Fraction.
    Only the hi memo is extended.
    """
    hi, hi_exp = _bound_memo(m, ceil=True).products[m]
    return hi * rising_factorial_ratio(2 * m + n - 1, 2 * m), hi_exp


class ThresholdResult(_Record):
    """Least m0 with U(m,n) and its ratio certified below 1 for m = m0..m_cap.

    chain holds the `BoundSequence` of each such m in increasing order, so
    the bound (and with it e(m,n)) stays below 1 on the whole checked tail;
    it is empty, and m_found None, when a test fails at m_cap itself.
    """

    __slots__ = _fields = ("n", "m_cap", "m_found", "chain")

    def __init__(
        self, n: int, m_cap: int, m_found: int | None, chain: tuple[BoundSequence, ...]
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m_cap", m_cap)
        object.__setattr__(self, "m_found", m_found)
        object.__setattr__(self, "chain", chain)

    @property
    def found(self) -> bool:
        return self.m_found is not None


def _threshold_walk(n: int, m_cap: int) -> Iterator[tuple[int, int]]:
    """(m, (2m+n-1)!/(2m)!) for m = m_cap down to 1 while both tests pass.

    Both tests run in integers, on the hi entries of `_bound_memo`:
    ratio_next(m).hi < 1 cross-multiplies single term m+1 by the factor
    (2m+n+1)(2m+n)/((2m+2)(2m+1)), and U(m,n).hi < 1 holds when the m-th
    prefix product's mantissa times the prefix has at most -exponent bits,
    the rule `_certificates` reads.  The prefix is formed once, at m_cap,
    and stepped down by an exact division at each m that passes.  The walk
    stops at the first m where either test fails, and forms no enclosure.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if m_cap < 1:
        raise ValueError(f"m_cap must be positive, got {m_cap}")
    hi_end = _bound_memo(m_cap + 1, ceil=True)
    prefix = rising_factorial_ratio(2 * m_cap + n - 1, 2 * m_cap)
    for m in range(m_cap, 0, -1):
        # ratio_next(m).hi < 1: hi * 2**hi_exp * rise < fall, in integers.
        hi, hi_exp = hi_end.terms[m]
        rise, fall = (2 * m + n + 1) * (2 * m + n), (2 * m + 2) * (2 * m + 1)
        if hi * rise << max(hi_exp, 0) >= fall << max(-hi_exp, 0):
            return
        # U(m,n).hi = hi * 2**hi_exp * prefix, below 1 iff hi * prefix < 2**-hi_exp.
        hi, hi_exp = hi_end.products[m]
        if (hi * prefix).bit_length() > -hi_exp:
            return
        yield m, prefix
        prefix = prefix * (2 * m - 1) * (2 * m) // ((2 * m + n - 2) * (2 * m + n - 1))


def threshold_m0(n: int, m_cap: int = 64) -> int | None:
    """`threshold_for_n(n, m_cap).m_found`, from the walk alone: no link is formed."""
    m0 = None
    for m0, _ in _threshold_walk(n, m_cap):
        pass
    return m0


def threshold_for_n(n: int, m_cap: int = 64) -> ThresholdResult:
    """Walk m = m_cap down to 1 while U(m,n) and its ratio are certified below 1.

    Each m that `_threshold_walk` passes adds its `_bound_sequence` to the
    chain.  Its value carries a power-of-two denominator of 2.8 million bits
    at m = 700, so `threshold_m0` takes m0 from the walk alone.
    """
    chain = [_bound_sequence(m, n, prefix) for m, prefix in _threshold_walk(n, m_cap)]
    chain.reverse()
    m_found = chain[0].m if chain else None
    return ThresholdResult(n=n, m_cap=m_cap, m_found=m_found, chain=tuple(chain))


# ---------------------------------------------------------------------------
# Certification strategies.


def _check_request(strategy: str, table: BernoulliTable | None, m_hi: int) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if strategy == "exact":
        if table is None:
            raise ValueError("exact strategy needs a Bernoulli table")
        if 2 * m_hi > table.max_index:
            raise CapacityError(
                f"exact e(m,n) up to m={m_hi} needs B_{2 * m_hi}, "
                f"table stops at B_{table.max_index}"
            )


class ScanPoint(_Record):
    __slots__ = _fields = ("m", "n", "certificate")

    def __init__(self, m: int, n: int, certificate: Certificate) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "certificate", certificate)

    @property
    def preferred_witness(self) -> bool | None:
        """For prime witnesses: whether p is one of the tried-first primes."""
        if isinstance(self.certificate, PrimeWitness):
            return self.certificate.p in WITNESS_PRIMES
        return None


# A Bernoulli table, a function that returns one when called, or None.
_TableSource = Union[BernoulliTable, Callable[[], BernoulliTable], None]


def _certificates(
    m_lo: int, m_hi: int, n_lo: int, n_hi: int, strategy: str, table: _TableSource
) -> Iterator[ScanPoint]:
    """The one certification decision, at each point of a grid, row by row.

    `bound` and `auto` try the certified upper bound first; `exact`, and
    `auto` within MAX_EXACT_M and the table, then read the answer off
    e(m,n); anything else is Inconclusive.  A `table` given as a function
    is called once, only if the answer reads the table: at once for
    `exact`, for `auto` only when the bound does not decide and
    m <= MAX_EXACT_M.

    Row-incremental evaluation: for fixed m, e(m,n+1) = e(m,n) * (2m+n) and
    likewise for the bound product, so a full grid costs one update per
    point instead of one full product.  Of the bound only the upper end is
    kept, the one end a certificate reads, as the integer top of
    `_upper_end` over a fixed power of two: top * 2**exponent < 1 exactly
    when top has at most -exponent bits, and only a witness forms the
    Fraction.  Each running value is formed only when a point of its row
    needs it: e(m,n) by `e_mn`, from the table's running zeta product; the
    bound's from the hi memo alone, by `_upper_end`.
    """
    if strategy == "exact" and callable(table):
        table = table()
    _check_request(strategy, table, m_hi)
    for m in range(m_lo, m_hi + 1):
        exact_value: Fraction | None = None
        top: int | None = None
        for n in range(n_lo, n_hi + 1):
            cert: Certificate | None = None
            if strategy != "exact":
                if top is None:
                    top, exponent = _upper_end(m, n)
                if top.bit_length() <= -exponent:
                    cert = MagnitudeWitness(
                        upper=dyadic_fraction(top, exponent), statement=f"0 < e({m},{n}) < 1"
                    )
                elif strategy == "bound":
                    cert = Inconclusive(f"certified upper bound for e({m},{n}) is not below 1")
                else:
                    if m <= MAX_EXACT_M and callable(table):
                        table = table()
                    if table is None or m > MAX_EXACT_M or m > table.max_index // 2:
                        cert = Inconclusive(
                            f"upper bound for e({m},{n}) is not below 1 and exact evaluation "
                            f"is unavailable (limit m <= {MAX_EXACT_M}, table required)"
                        )
            if cert is None:
                if exact_value is None:
                    exact_value = e_mn(m, n, table)
                cert = certificate_from_exact(exact_value)
            yield ScanPoint(m=m, n=n, certificate=cert)
            # Advance the row: both running values gain the factor (2m+n).
            if exact_value is not None:
                exact_value *= 2 * m + n
            if top is not None:
                top *= 2 * m + n


def certify_non_integrality(
    m: int, n: int, strategy: str = "auto", table: _TableSource = None
) -> Certificate:
    """Certificate for e(m,n) under the chosen strategy: a scan of one point.

    `exact` computes e(m,n) and reads the answer off its denominator;
    `bound` emits a magnitude witness when the certified U(m,n) < 1 and is
    otherwise inconclusive; `auto` tries the cheap certified bound first and
    falls back to exact up to m = MAX_EXACT_M.  A `table` given as a
    function is called only if the answer reads the table.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    return next(_certificates(m, m, n, n, strategy, table)).certificate


def _validate_range(bounds: tuple[int, int], name: str) -> tuple[int, int]:
    lo, hi = bounds
    if lo < 1 or hi < lo:
        raise ValueError(f"{name} range must be nonempty with lo >= 1, got {bounds}")
    return lo, hi


def scan(
    m_range: tuple[int, int],
    n_range: tuple[int, int],
    strategy: str = "exact",
    table: _TableSource = None,
) -> Iterator[ScanPoint]:
    """One certificate per grid point, yielded row by row.

    Each point is decided by `_certificates`, as `certify_non_integrality`
    decides one; inconclusive points are reported and the scan continues.
    """
    m_lo, m_hi = _validate_range(m_range, "m")
    n_lo, n_hi = _validate_range(n_range, "n")
    yield from _certificates(m_lo, m_hi, n_lo, n_hi, strategy, table)


def first_n_reaching(m: int, p: int, bar: int) -> int:
    """The least n >= 1 with D_p(m,n) = v_p((2m+n-1)!) - v_p((2m)!) >= bar.

    Legendre's formula inverted, not searched: v_p(N!) changes only at
    multiples of p, and v_p((pM)!) = M + v_p(M!), so n = max(1, pM - 2m + 1)
    for the least M >= 0 with M + v_p(M!) >= bar + v_p((2m)!), bisected.  A
    p that is not prime is refused once, by `factorial_valuation` on entry.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    target = bar + factorial_valuation(2 * m, p)
    lo, hi = 0, max(target, 0)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid + _legendre(mid, p) >= target:
            hi = mid
        else:
            lo = mid + 1
    return max(1, p * lo - 2 * m + 1)


# ---------------------------------------------------------------------------
# The closing bound over the full witnessed window n <= MAX_WITNESSED_N.
#
# Two readings of the same display exist: a per-index product of
# (2pi)^(2k)/(2(2k-1)!), consistent with the bound U(m,n) above, and a
# product whose factor (2pi)^(2m+2)/(2(2m+1)!) does not depend on the
# product index at all.  They differ astronomically; both are evaluated and
# reported, with no guess about which was intended.  The constant-factor
# reading first drops below 1 at m = 37.


class WideRangeBoundForms(_Record):
    __slots__ = _fields = ("m", "per_index_product", "constant_factor_product")

    def __init__(
        self,
        m: int,
        per_index_product: RationalInterval,
        constant_factor_product: RationalInterval,
    ) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "per_index_product", per_index_product)
        object.__setattr__(self, "constant_factor_product", constant_factor_product)


def wide_range_bound_forms(m: int) -> WideRangeBoundForms:
    """Both readings of the closing bound, sharing the (2m+677)!/(2m)! prefix."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    prefix = rising_factorial_ratio(2 * m + MAX_WITNESSED_N, 2 * m)
    per_index = _interval_from_dyadic(_term_product(m), prefix)
    # single_term_interval(m + 1).power(m, _BITS).scale(prefix), scaled by shifts.
    power = _positive_power(single_term_interval(m + 1), m, _BITS)
    constant = _interval_from_dyadic(power, prefix)
    return WideRangeBoundForms(
        m=m, per_index_product=per_index, constant_factor_product=constant
    )


def wide_range_constant_form_threshold(m_cap: int = 60) -> int | None:
    """Smallest m <= m_cap with the constant-factor form certified below 1."""
    for m in range(1, m_cap + 1):
        if wide_range_bound_forms(m).constant_factor_product.hi < 1:
            return m
    return None
