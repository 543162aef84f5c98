"""Machine-checkable non-integrality certificates for e(m,n).

Four certificate forms, each validated at construction time so that an
unsound certificate cannot exist as an object:

  IntegerValue      e(m,n) reduced to denominator 1
  PrimeWitness      a prime with negative valuation in e(m,n)
  ValuationWitness  the same, with v_p(e(m,n)) assembled from Legendre's
                    formula and the p-adic valuations of zeta(1-2k)
  MagnitudeWitness  a certified bound 0 < e(m,n) < 1

plus an explicit Inconclusive outcome which is never silently conflated
with either answer.  The magnitude route goes through the certified
upper-bound product

  U(m,n) = (2m+n-1)!/(2m)! * prod_{k=1..m} (2pi)^(2k) / (2 (2k-1)!),

evaluated in rational interval arithmetic, together with its consecutive
ratio, which certifies that the bound sequence decreases below 1 from some
threshold on.  Its powers of 2pi, single terms and prefix products are
memoised one end at a time, lo rounded down and hi rounded up, and each
end's memo is extended only when that end is read: a certificate reads the
hi end alone, an enclosure both.  Exact certificates use exact rational
arithmetic; witness primes are chosen deterministically (691, then 3617,
then the smallest prime factor of the reduced denominator up to
WITNESS_SEARCH_LIMIT).  The valuation ledger (`ledger_segments`, point by
point `ledger_scan`) reaches the same witnesses over a grid without forming
e(m,n) wherever 691 or 3617 suffices, with one witness per prime per row.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Union

from .bernoulli import BernoulliTable, CapacityError
from .exact_core import (
    RationalInterval,
    _Dyadic,
    _dyadic_quotient,
    _dyadic_to_bits,
    _interval_from_dyadic,
    _positive_power,
    _rounded_ratio,
    dyadic_fraction,
    factorial_valuation,
    is_probable_prime,
    p_adic_valuation,
    pi_interval,
    primes_up_to,
    rising_factorial_ratio,
)
from .euler_char import EmnQuery, e_mn
from .zeta_special import abs_zeta_one_minus_2k

__all__ = [
    "BoundSequence",
    "Certificate",
    "CertificateError",
    "DEEP_MAX_M",
    "Inconclusive",
    "IntegerValue",
    "LedgerSegment",
    "MAX_EXACT_M",
    "MAX_WITNESSED_N",
    "MagnitudeWitness",
    "MonotoneReport",
    "PrimeWitness",
    "STRATEGIES",
    "ScanPoint",
    "ThresholdResult",
    "ValuationWitness",
    "WITNESS_PRIMES",
    "WITNESS_SEARCH_LIMIT",
    "WideRangeBoundForms",
    "certificate_from_exact",
    "certify_non_integrality",
    "ledger_scan",
    "ledger_segments",
    "monotone_decrease_check",
    "scan",
    "single_term_interval",
    "threshold_for_n",
    "upper_bound_interval",
    "wide_range_bound_forms",
    "wide_range_constant_form_threshold",
]

STRATEGIES = ("auto", "exact", "bound")

# Witness primes tried first: they sit in the denominator of e(m,n) through
# the numerators of B_12 and B_16 and cannot be cancelled by the integer
# prefactor while the window (2m, 2m+n-1] stays below them.
WITNESS_PRIMES = (691, 3617)

# Largest m and n for which that window stays below 3617 on the whole grid:
# 2*1470 + 677 - 1 = 3616.
DEEP_MAX_M = 1470
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


@dataclass(frozen=True)
class IntegerValue:
    """e(m,n) is the integer `value`."""

    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int):
            raise CertificateError(f"integer certificate holds {self.value!r}")


@dataclass(frozen=True)
class PrimeWitness:
    """v_p(value) < 0 for the prime p, so value is not an integer."""

    value: Fraction
    p: int
    valuation: int

    def __post_init__(self) -> None:
        recomputed = p_adic_valuation(self.value, self.p)
        if recomputed != self.valuation or recomputed >= 0:
            raise CertificateError(
                f"claimed v_{self.p} = {self.valuation}, recomputed {recomputed}"
            )


@dataclass(frozen=True)
class ValuationWitness:
    """v_p(e(m,n)) < 0 for the prime p, read off valuations alone.

    v_p(e(m,n)) = v_p((2m+n-1)!) - v_p((2m)!) - sum_{k<=m} v_p(zeta(1-2k)).
    `zeta_valuations` lists (k, v_p(zeta(1-2k))) for the k <= m with a
    nonzero valuation, k increasing; every k it omits counts as 0.  The
    recheck recomputes the factorial terms by Legendre's formula and the sum
    from the list.  The listed valuations themselves come from a validated
    Bernoulli table, against which they can be checked again.
    """

    m: int
    n: int
    p: int
    valuation: int
    zeta_valuations: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise CertificateError(f"need m, n >= 1, got m={self.m}, n={self.n}")
        if not is_probable_prime(self.p):
            raise CertificateError(f"witness {self.p} is not prime")
        zeta_sum = previous = 0
        for k, v in self.zeta_valuations:
            if not previous < k <= self.m or v == 0:
                raise CertificateError(
                    f"zeta valuations must be nonzero, at increasing k in 1..{self.m}; "
                    f"got ({k}, {v})"
                )
            zeta_sum += v
            previous = k
        recomputed = (
            factorial_valuation(2 * self.m + self.n - 1, self.p)
            - factorial_valuation(2 * self.m, self.p)
            - zeta_sum
        )
        if recomputed != self.valuation or recomputed >= 0:
            raise CertificateError(
                f"claimed v_{self.p} = {self.valuation}, recomputed {recomputed}"
            )


@dataclass(frozen=True)
class MagnitudeWitness:
    """0 < e(m,n) <= upper < 1, so e(m,n) is not an integer.

    Positivity comes from the factor structure of e(m,n); `upper` is the hi
    endpoint of a certified enclosure of the bound product, an exact
    Fraction: its denominator is positive, so 0 < upper < 1 is
    0 < numerator < denominator.
    """

    upper: Fraction
    statement: str

    def __post_init__(self) -> None:
        upper = self.upper
        if not (isinstance(upper, Fraction) and 0 < upper.numerator < upper.denominator):
            raise CertificateError(f"magnitude witness needs 0 < upper < 1, got {self.upper}")


@dataclass(frozen=True)
class Inconclusive:
    """Neither certified; a distinct outcome, never an implicit answer."""

    reason: str


Certificate = Union[IntegerValue, PrimeWitness, ValuationWitness, MagnitudeWitness, Inconclusive]


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
# doing so at once would file one entry under two indices.  Reentrant, as
# extending the prefix products extends the single terms.
_MEMO_LOCK = threading.RLock()

# One end of a positive dyadic interval, (mantissa, exponent) for
# mantissa * 2**exponent, the mantissa odd.
_End = tuple[int, int]


class _BoundEnd:
    # One end of the bound's interval products, lo rounded down or hi rounded
    # up: (2pi)^(2k) for k = 0..len(powers)-1, the single terms for
    # k = 1..len(terms), term k at index k - 1, the prefix products for
    # m = 0..len(products)-1, and 2 (2k+1)! for the last term's k, the next
    # term's divisor.
    __slots__ = ("powers", "terms", "products", "divisor")

    def __init__(self) -> None:
        self.powers: list[_End] = [(1, 0)]
        self.terms: list[_End] = []
        self.products: list[_End] = [(1, 0)]
        self.divisor = 2  # 2 * 1!


# The memo of each end, ceil=False for lo and ceil=True for hi, each filled
# only when that end is read.  An lru cache, not a module-level object:
# clearing the module's lru caches then starts both ends over as in a
# fresh process.
@lru_cache(maxsize=2)
def _bound_end(ceil: bool) -> _BoundEnd:
    return _BoundEnd()


def _next_power(powers: list[_End], ceil: bool) -> _End:
    """One end of (2pi)^(2j), j = len(powers), bit for bit as `(2pi).power(2j, _BITS)`.

    That power multiplies in the squares (2pi)^(2^(i+1)) for the set bits
    of j, lowest first, rounding outward after each multiply.  So it is the
    power for j less its top bit times the power for the top bit alone; the
    power for a power of two is the square of the power for its half, and
    for j = 1 the square of 2pi from the pi enclosure.  Each end of a
    product of positive intervals is the product of the same ends.
    """
    j = len(powers)
    top = 1 << (j.bit_length() - 1)
    if j > top:
        (a, a_exp), (b, b_exp) = powers[j - top], powers[top]
    elif j > 1:
        (a, a_exp) = (b, b_exp) = powers[top >> 1]
    else:
        two_pi = pi_interval(_BITS).scale(2)
        end = two_pi.hi if ceil else two_pi.lo
        return _rounded_ratio(end.numerator**2, end.denominator**2, _BITS, ceil)
    return _dyadic_to_bits(a * b, a_exp + b_exp, _BITS, ceil)


def _single_terms(k: int, ceil: bool) -> list[_End]:
    """One end of the single terms through k, in integers: term j at index j - 1.

    The end's memo is extended in k order, one power of 2pi per term from
    two earlier ones.  The divisor 2 (2k-1)! is carried from one term to
    the next, times 2k (2k+1), and the quotient, taken in lowest terms, is
    rounded down (ceil=False) or up as `RationalInterval.outward` rounds
    the lo or hi end.
    """
    memo = _bound_end(ceil)
    powers, terms = memo.powers, memo.terms
    if len(terms) < k:
        with _MEMO_LOCK:
            for j in range(len(terms) + 1, k + 1):
                powers.append(_next_power(powers, ceil))
                quotient = _dyadic_quotient(*powers[j], memo.divisor)
                terms.append(
                    _rounded_ratio(quotient.numerator, quotient.denominator, _BITS, ceil)
                )
                memo.divisor *= 2 * j * (2 * j + 1)
    return terms


def _single_term(k: int) -> _Dyadic:
    """Both ends of single term k, in integers."""
    return _single_terms(k, ceil=False)[k - 1] + _single_terms(k, ceil=True)[k - 1]


def single_term_interval(k: int) -> RationalInterval:
    """Enclosure of (2pi)^(2k) / (2 (2k-1)!), the k-th bound factor.

    The factor crosses 1 between k = 8 and k = 9, which is what makes the
    bound sequence eventually decrease.  Its endpoints are those of the
    integer memos of `_single_terms`, as Fractions.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return _interval_from_dyadic(_single_term(k))


@dataclass(frozen=True)
class BoundSequence:
    """Certified enclosures of U(m,n) and of the ratio U(m+1,n)/U(m,n)."""

    m: int
    n: int
    value: RationalInterval
    ratio_next: RationalInterval

    def __post_init__(self) -> None:
        # lo <= 0, read off the numerator as the denominator is positive.
        if self.value.lo.numerator <= 0:
            raise ValueError("the bound product is positive; enclosure must show it")


def _term_products(m: int, ceil: bool) -> list[_End]:
    """One end of the prefix products, its memo extended through m: entry j
    is that end of prod_{k<=j} single_term_interval(k), rounded outward
    after each factor.

    Each end of a product of positive intervals is the product of the same
    ends, so a step multiplies the end's last prefix by its single term and
    rounds as `RationalInterval.outward` would, bit for bit.  Each mantissa
    is odd and of at most _BITS + 1 bits: an endpoint as a Fraction would
    carry a power-of-two denominator of ~10^5 bits by m = 200.
    """
    memo = _bound_end(ceil)
    products = memo.products
    if len(products) <= m:
        with _MEMO_LOCK:
            terms = _single_terms(m, ceil)
            for k in range(len(products), m + 1):
                (p, p_exp), (t, t_exp) = products[-1], terms[k - 1]
                products.append(_dyadic_to_bits(p * t, p_exp + t_exp, _BITS, ceil))
    return products


def _term_product(m: int) -> _Dyadic:
    """Both ends of the m-th prefix product, in integers."""
    return _term_products(m, ceil=False)[m] + _term_products(m, ceil=True)[m]


def _ratio_next_interval(m: int, n: int, term: _Dyadic) -> RationalInterval:
    """Enclosure of U(m+1,n)/U(m,n), from `term`, single term m+1 as the memo holds it.

    The ratio is that term times (2m+n+1)(2m+n)/((2m+2)(2m+1)).  Each end is
    one quotient in lowest terms: the term's mantissa times (2m+n+1)(2m+n),
    over (2m+2)(2m+1), times the power of two of its exponent.  Lowest terms
    being unique, the endpoints are those of
    `single_term_interval(m+1).scale(factor)`.
    """
    lo, lo_exp, hi, hi_exp = term
    rise, fall = (2 * m + n + 1) * (2 * m + n), (2 * m + 2) * (2 * m + 1)
    return RationalInterval(
        _dyadic_quotient(lo * rise, lo_exp, fall), _dyadic_quotient(hi * rise, hi_exp, fall)
    )


def _bound_sequence(
    m: int, n: int, prefix: int, product: _Dyadic, term: _Dyadic
) -> BoundSequence:
    # prefix is the integer (2m+n-1)!/(2m)!, product and term both ends of
    # the m-th term product and of single term m+1, as the memos hold them.
    return BoundSequence(
        m=m,
        n=n,
        value=_interval_from_dyadic(product, prefix),
        ratio_next=_ratio_next_interval(m, n, term),
    )


def upper_bound_interval(m: int, n: int) -> BoundSequence:
    """Certified enclosure of U(m,n) together with the consecutive ratio."""
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    return _bound_sequence(
        m,
        n,
        rising_factorial_ratio(2 * m + n - 1, 2 * m),
        _term_product(m),
        _single_term(m + 1),
    )


def _upper_end(m: int, n: int) -> tuple[int, int]:
    """`upper_bound_interval(m, n).value.hi`, the one end a certificate reads.

    In integers, as (top, exponent) for top * 2**exponent, with top the hi
    memo's mantissa times (2m+n-1)!/(2m)!: no lo end, no ratio, no Fraction.
    Only the hi memo is extended.
    """
    hi, hi_exp = _term_products(m, ceil=True)[m]
    return hi * rising_factorial_ratio(2 * m + n - 1, 2 * m), hi_exp


@dataclass(frozen=True)
class ThresholdResult:
    """Smallest m0 with U(m0,n) certified below 1 and a certified decreasing tail.

    For every m >= m0 up to the cap, ratio_next < 1, so the bound sequence
    (and with it e(m,n)) stays below 1 on the whole checked tail.
    """

    n: int
    m_cap: int
    m_found: int | None
    chain: tuple[BoundSequence, ...]

    @property
    def found(self) -> bool:
        return self.m_found is not None


def _product_fits(a: int, b: int, bits: int) -> bool:
    """Whether (a * b).bit_length() <= bits, for positive a and b.

    The product has the sum of the two bit lengths, or one bit less, so it
    is formed only when `bits` is that sum less one.
    """
    size = a.bit_length() + b.bit_length()
    if size - 1 == bits:
        return (a * b).bit_length() <= bits
    return size <= bits


def threshold_for_n(n: int, m_cap: int = 64) -> ThresholdResult:
    """Scan m = 1..m_cap for the certified crossing of the bound below 1.

    The comparisons run in integers, on the hi memo entries of
    `_single_terms` and `_term_products`, each end's memo extended once.
    ratio_next(m).hi < 1 cross-multiplies the hi mantissa of single term
    m+1 by the integer factor, from m_cap down while it holds.  On that
    tail, U(m,n).hi < 1 compares the m-th prefix product's hi mantissa times
    the prefix (2m+n-1)!/(2m)! with a power of two, from bit lengths unless
    they leave it open, the prefix stepped from one m to the next by an
    exact division.  Enclosures are built only for the returned chain, each
    end straight from its integers: the value's as the end's memo entry
    times the prefix reduced by a shift, the ratio's as in
    `_ratio_next_interval`.  Both equal the Fraction arithmetic on
    `single_term_interval` and `upper_bound_interval`.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if m_cap < 1:
        raise ValueError(f"m_cap must be positive, got {m_cap}")
    lo_terms, hi_terms = _single_terms(m_cap + 1, ceil=False), _single_terms(m_cap + 1, ceil=True)
    lo_products, hi_products = _term_products(m_cap, ceil=False), _term_products(m_cap, ceil=True)
    tail_start = m_cap + 1
    while tail_start > 1:
        m = tail_start - 1
        # ratio_next(m).hi < 1: hi * 2**hi_exp * rise < fall, in integers.
        hi, hi_exp = hi_terms[m]
        rise, fall = (2 * m + n + 1) * (2 * m + n), (2 * m + 2) * (2 * m + 1)
        if hi * rise << max(hi_exp, 0) >= fall << max(-hi_exp, 0):
            break
        tail_start = m
    prefix = rising_factorial_ratio(2 * tail_start + n - 1, 2 * tail_start)
    chain: list[BoundSequence] = []
    for m in range(tail_start, m_cap + 1):
        hi, hi_exp = hi_products[m]
        # U(m,n).hi = hi * 2**hi_exp * prefix, below 1 iff hi * prefix < 2**-hi_exp.
        if chain or _product_fits(hi, prefix, -hi_exp):
            chain.append(
                _bound_sequence(
                    m, n, prefix, lo_products[m] + hi_products[m], lo_terms[m] + hi_terms[m]
                )
            )
        prefix = prefix * (2 * m + n) * (2 * m + n + 1) // ((2 * m + 1) * (2 * m + 2))
    return ThresholdResult(
        n=n, m_cap=m_cap, m_found=chain[0].m if chain else None, chain=tuple(chain)
    )


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


@dataclass(frozen=True)
class ScanPoint:
    m: int
    n: int
    certificate: Certificate

    @property
    def preferred_witness(self) -> bool | None:
        """For prime witnesses: whether p is one of the tried-first primes."""
        if isinstance(self.certificate, (PrimeWitness, ValuationWitness)):
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
                    exact_value = e_mn(EmnQuery(m, n), table)
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


@dataclass(frozen=True)
class LedgerSegment:
    """The points (m, n_first), ..., (m, n_last) of one row under one certificate.

    A ValuationWitness sits at (m, n_last) and covers the whole segment:
    v_p((2m+n-1)!) never decreases as n grows, so neither does v_p(e(m,n)),
    and a valuation negative at n_last is negative at every n before it.
    Any other certificate covers a single point.
    """

    m: int
    n_first: int
    n_last: int
    certificate: Certificate

    def __post_init__(self) -> None:
        if self.m < 1 or not 1 <= self.n_first <= self.n_last:
            raise CertificateError(
                f"need m >= 1 and 1 <= n_first <= n_last, got m={self.m}, "
                f"n = {self.n_first}..{self.n_last}"
            )
        cert = self.certificate
        if isinstance(cert, ValuationWitness):
            if (cert.m, cert.n) != (self.m, self.n_last):
                raise CertificateError(
                    f"witness at ({cert.m}, {cert.n}) cannot cover the segment "
                    f"ending at ({self.m}, {self.n_last})"
                )
        elif self.n_first != self.n_last:
            raise CertificateError(
                f"{type(cert).__name__} covers one point, not n = {self.n_first}..{self.n_last}"
            )


def _valuation_bar(m: int, p: int, entries: Iterable[tuple[int, int]]) -> int:
    # v_p(e(m,n)) = v_p((2m+n-1)!) - bar, given the row's ledger entries.
    return factorial_valuation(2 * m, p) + sum(v for _, v in entries)


def ledger_segments(
    m_range: tuple[int, int],
    n_range: tuple[int, int],
    table: BernoulliTable,
) -> Iterator[LedgerSegment]:
    """The certificates of an exact scan as row segments, from p-adic valuations.

    For each p in WITNESS_PRIMES a running ledger holds the nonzero
    v_p(zeta(1-2k)) for k <= m, each taken once from the table.  As
    v_p(e(m,n)) never decreases along a row, the points a prime witnesses
    there form one run, whose end a bisection of the Legendre sum finds.
    So each row is at most a 691 segment, then a 3617 segment, then single
    points neither prime witnesses, certified by certificate_from_exact of
    the exact e(m,n).  691 comes before 3617 as in certificate_from_exact,
    so every point gets the p and valuation it would report.  For m >= 6 no
    point of the window 2m + n - 1 < 3617 needs e(m,n).
    """
    m_lo, m_hi = _validate_range(m_range, "m")
    n_lo, n_hi = _validate_range(n_range, "n")
    _check_request("exact", table, m_hi)
    ledgers: dict[int, list[tuple[int, int]]] = {p: [] for p in WITNESS_PRIMES}
    for m in range(1, m_hi + 1):
        zeta = abs_zeta_one_minus_2k(m, table)
        for p, entries in ledgers.items():
            v = p_adic_valuation(zeta, p)
            if v:
                entries.append((m, v))
        if m < m_lo:
            continue
        n_first = n_lo
        for p, entries in ledgers.items():
            bar = _valuation_bar(m, p, entries)
            n_last = n_first - 1 + bisect.bisect_left(
                range(n_first, n_hi + 1), bar,
                key=lambda n: factorial_valuation(2 * m + n - 1, p),
            )
            if n_last >= n_first:
                valuation = factorial_valuation(2 * m + n_last - 1, p) - bar
                witness = ValuationWitness(m, n_last, p, valuation, tuple(entries))
                yield LedgerSegment(m, n_first, n_last, witness)
                n_first = n_last + 1
        for n in range(n_first, n_hi + 1):
            yield LedgerSegment(m, n, n, certificate_from_exact(e_mn(EmnQuery(m, n), table)))


def ledger_scan(
    m_range: tuple[int, int],
    n_range: tuple[int, int],
    table: BernoulliTable,
) -> Iterator[ScanPoint]:
    """The certificates of an exact scan, point by point, from `ledger_segments`.

    Each point of a witnessed segment gets its own ValuationWitness, with
    the p and valuation certificate_from_exact would report; any other
    segment is a single point and keeps its certificate.
    """
    for segment in ledger_segments(m_range, n_range, table):
        m, cert = segment.m, segment.certificate
        if not isinstance(cert, ValuationWitness):
            yield ScanPoint(m=m, n=segment.n_first, certificate=cert)
            continue
        p, entries = cert.p, cert.zeta_valuations
        bar = _valuation_bar(m, p, entries)
        for n in range(segment.n_first, segment.n_last + 1):
            valuation = factorial_valuation(2 * m + n - 1, p) - bar
            yield ScanPoint(m=m, n=n, certificate=ValuationWitness(m, n, p, valuation, entries))


@dataclass(frozen=True)
class MonotoneReport:
    """Exact comparison of consecutive e(m,n) over a range of m."""

    n: int
    m_lo: int
    m_hi: int
    increasing_steps: tuple[int, ...]  # m where e(m+1,n) >= e(m,n)

    @property
    def strictly_decreasing(self) -> bool:
        return not self.increasing_steps


def monotone_decrease_check(
    n: int, m_range: tuple[int, int], table: BernoulliTable
) -> MonotoneReport:
    """Verify e(m+1,n) < e(m,n) exactly for each consecutive pair in range."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    m_lo, m_hi = _validate_range(m_range, "m")
    _check_request("exact", table, m_hi)
    current = e_mn(EmnQuery(m_lo, n), table)
    increasing: list[int] = []
    for m in range(m_lo, m_hi):
        nxt = e_mn(EmnQuery(m + 1, n), table)
        if nxt >= current:
            increasing.append(m)
        current = nxt
    return MonotoneReport(
        n=n, m_lo=m_lo, m_hi=m_hi, increasing_steps=tuple(increasing)
    )


# ---------------------------------------------------------------------------
# The closing bound over the full witnessed window n <= MAX_WITNESSED_N.
#
# Two readings of the same display exist: a per-index product of
# (2pi)^(2k)/(2(2k-1)!), consistent with the bound U(m,n) above, and a
# product whose factor (2pi)^(2m+2)/(2(2m+1)!) does not depend on the
# product index at all.  They differ astronomically; both are evaluated and
# reported, with no guess about which was intended.  The constant-factor
# reading first drops below 1 at m = 37.


@dataclass(frozen=True)
class WideRangeBoundForms:
    m: int
    per_index_product: RationalInterval
    constant_factor_product: RationalInterval


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
