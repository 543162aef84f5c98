import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import torelli_euler.certify as certify_module
from torelli_euler.bernoulli import BernoulliTable, CapacityError, bernoulli_table
from torelli_euler.certify import (
    _BITS,
    _GUARD_BITS,
    _bound_end,
    _bound_memo,
    _interval_from_dyadic,
    _single_term,
    _term_product,
    _upper_end,
    BoundSequence,
    CertificateError,
    Inconclusive,
    IntegerValue,
    MagnitudeWitness,
    PrimeWitness,
    ScanPoint,
    WITNESS_SEARCH_LIMIT,
    certificate_from_exact,
    certify_non_integrality,
    first_n_reaching,
    scan,
    single_term_interval,
    threshold_for_n,
    upper_bound_interval,
    wide_range_bound_forms,
    wide_range_constant_form_threshold,
)
from torelli_euler.euler_char import e_mn
from torelli_euler.exact_core import (
    RationalInterval,
    _gregory_series,
    dyadic_fraction,
    factorial_valuation,
    p_adic_valuation,
    pi_interval,
    primes_up_to,
    rising_factorial_ratio,
)
from torelli_euler.zeta_special import zeta_abs_lower_bound, zeta_one_minus_2k, zeta_product

from interval_oracles import fraction_power, fraction_scale


# --- certificate soundness is enforced at construction -------------------------


def test_prime_witness_rejects_wrong_claims():
    with pytest.raises(CertificateError):
        PrimeWitness(value=Fraction(1, 3), p=3, valuation=1)
    with pytest.raises(CertificateError):
        PrimeWitness(value=Fraction(3, 2), p=3, valuation=-1)
    with pytest.raises(CertificateError):
        PrimeWitness(value=Fraction(3), p=3, valuation=1)  # nonnegative valuation


def test_integer_value_refuses_anything_but_an_int():
    # A bool is an int to isinstance, but would render as "True".
    assert IntegerValue(1).value == 1
    for value in (True, False, 1.0, Fraction(1), "1"):
        with pytest.raises(CertificateError):
            IntegerValue(value)


def test_magnitude_witness_rejects_bounds_at_least_one():
    with pytest.raises(CertificateError):
        MagnitudeWitness(upper=Fraction(3, 2), statement="0 < e < 1")
    with pytest.raises(CertificateError):
        MagnitudeWitness(upper=Fraction(0), statement="0 < e < 1")


@pytest.mark.parametrize(
    "upper",
    [0.5, 0, 1, Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 3)],
    ids=repr,
)
def test_magnitude_witness_rejects_anything_but_a_fraction_strictly_between_0_and_1(upper):
    # Floats are display-only: 0 < 0.5 < 1 holds, yet 0.5 is no certified bound.
    with pytest.raises(CertificateError):
        MagnitudeWitness(upper=upper, statement="0 < e < 1")


@pytest.mark.parametrize("lo", [Fraction(0), Fraction(-1, 3), Fraction(-1, 2**80)], ids=str)
def test_bound_sequence_rejects_an_enclosure_that_does_not_show_positivity(lo):
    ratio = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    with pytest.raises(ValueError):
        BoundSequence(m=1, n=1, value=RationalInterval(lo, Fraction(1)), ratio_next=ratio)
    tiny = BoundSequence(
        m=1, n=1, value=RationalInterval(Fraction(1, 2**80), Fraction(1)), ratio_next=ratio
    )
    assert tiny.value.lo > 0


def test_certificate_from_exact_witness_order():
    # 691 and 3617 are tried before smaller primes.
    cert = certificate_from_exact(Fraction(1, 691 * 7))
    assert isinstance(cert, PrimeWitness) and cert.p == 691
    cert = certificate_from_exact(Fraction(1, 3617 * 10))
    assert cert.p == 3617
    cert = certificate_from_exact(Fraction(5, 21))
    assert cert.p == 3
    assert certificate_from_exact(Fraction(9)) == IntegerValue(9)


def test_witness_search_stops_at_its_limit():
    # 2^61 - 1 is prime, far past the limit: no unbounded trial division.
    cert = certificate_from_exact(Fraction(1, 2**61 - 1))
    assert isinstance(cert, Inconclusive)
    assert str(WITNESS_SEARCH_LIMIT) in cert.reason
    # 2^17 - 1 = 131071 is the largest prime up to the limit.
    assert WITNESS_SEARCH_LIMIT == 131072
    cert = certificate_from_exact(Fraction(1, 131071 * (2**61 - 1)))
    assert isinstance(cert, PrimeWitness) and cert.p == 131071


# --- certified bound machinery --------------------------------------------------


def test_single_term_crossing():
    assert single_term_interval(8).lo > 1
    assert single_term_interval(9).hi < 1
    # Float sanity anchors, far from the certified comparisons.
    assert abs(float(single_term_interval(8).lo) - 2.256) < 0.01
    assert abs(float(single_term_interval(9).hi) - 0.3274) < 0.001


def test_upper_bound_crossing_for_n1():
    assert upper_bound_interval(13, 1).value.lo > 1
    assert upper_bound_interval(14, 1).value.hi < 1


def test_ratio_matches_spec_shape():
    # ratio_next for n = 1 is exactly the next single term.
    for m in (3, 9, 15):
        seq = upper_bound_interval(m, 1)
        term = single_term_interval(m + 1)
        assert seq.ratio_next.lo == term.lo and seq.ratio_next.hi == term.hi


def test_threshold_for_n1(table60):
    result = threshold_for_n(1, m_cap=30)
    assert result.m_found == 14
    assert result.chain[0].m == 14
    assert all(seq.ratio_next.hi < 1 for seq in result.chain)
    # Tail ratios are below 1 from m = 9 on (in fact from m = 8).
    for m in range(9, 31):
        assert upper_bound_interval(m, 1).ratio_next.hi < 1


def test_threshold_not_found_below_cap():
    result = threshold_for_n(1, m_cap=5)
    assert result.m_found is None and not result.found and result.chain == ()


def _reference_sequence(m, n):
    # U(m,n) formed from the memo entry as plain Fractions, reduced by gcds,
    # and scaled by (2m+n-1)!/(2m)! taken one factor at a time; the ratio as
    # single_term_interval(m+1) times the factor, by Fraction multiplies.
    lo, lo_exp, hi, hi_exp = _term_product(m)
    product = RationalInterval(Fraction(lo, 2**-lo_exp), Fraction(hi, 2**-hi_exp))
    ratio = Fraction((2 * m + n + 1) * (2 * m + n), (2 * m + 2) * (2 * m + 1))
    return BoundSequence(
        m=m,
        n=n,
        value=fraction_scale(product, math.prod(range(2 * m + 1, 2 * m + n))),
        ratio_next=fraction_scale(single_term_interval(m + 1), ratio),
    )


def _reference_threshold(n, m_cap):
    # The all-m loop the integer search replaced: one enclosure per m.
    sequences = [_reference_sequence(m, n) for m in range(1, m_cap + 1)]
    tail_start = m_cap + 1
    for m in range(m_cap, 0, -1):
        if sequences[m - 1].ratio_next.hi < 1:
            tail_start = m
        else:
            break
    for m in range(tail_start, m_cap + 1):
        if sequences[m - 1].value.hi < 1:
            return m, tuple(sequences[m - 1 :])
    return None, ()


@pytest.mark.parametrize("n", [1, 2, 13, 100, 677, 1000])
def test_threshold_matches_the_all_m_loop(n):
    found = {}
    for m_cap in (1, 5, 14, 30, 64, 100):
        result = threshold_for_n(n, m_cap=m_cap)
        m_found, chain = _reference_threshold(n, m_cap)
        assert (result.m_found, result.chain) == (m_found, chain), m_cap
        found[m_cap] = m_found
    assert found[1] is None and found[5] is None
    if n == 677:
        assert found[64] == 55


def test_threshold_matches_the_all_m_loop_at_large_n():
    # Chain endpoints here carry prefixes of ~60,000 bits.
    result = threshold_for_n(5000, m_cap=200)
    assert (result.m_found, result.chain) == _reference_threshold(5000, 200)
    assert result.m_found == 132


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3000), m_cap=st.integers(1, 120))
def test_threshold_is_the_all_m_loop_at_random_n_and_cap(n, m_cap):
    # Past the fixed lists: the walk stopped by the ratio test at the cap,
    # and by the value test at the cap and below it.
    result = threshold_for_n(n, m_cap=m_cap)
    assert (result.m_found, result.chain) == _reference_threshold(n, m_cap)


def _threshold_by_products(n, m_cap):
    # The tail walk with U(m,n).hi < 1 read off the product hi * prefix
    # itself, as before the bit-length test; the chain from fresh enclosures.
    tail_start = m_cap + 1
    while tail_start > 1:
        m = tail_start - 1
        ratio = Fraction((2 * m + n + 1) * (2 * m + n), (2 * m + 2) * (2 * m + 1))
        if single_term_interval(m + 1).hi * ratio >= 1:
            break
        tail_start = m
    prefix = rising_factorial_ratio(2 * tail_start + n - 1, 2 * tail_start)
    for m in range(tail_start, m_cap + 1):
        _, _, hi, hi_exp = _term_product(m)
        if (hi * prefix).bit_length() <= -hi_exp:
            return m, tuple(upper_bound_interval(k, n) for k in range(m, m_cap + 1))
        prefix = prefix * (2 * m + n) * (2 * m + n + 1) // ((2 * m + 1) * (2 * m + 2))
    return None, ()


@pytest.mark.parametrize(
    "n, m_cap, m_found",
    [
        (1, 30, 14),
        (13, 64, 16),
        (100, 64, 27),
        (677, 64, 55),
        (1000, 64, 64),
        (5000, 200, 132),
        (20000, 300, 251),
    ],
)
def test_threshold_chain_is_the_one_the_products_give(n, m_cap, m_found):
    result = threshold_for_n(n, m_cap=m_cap)
    assert (result.m_found, result.chain) == _threshold_by_products(n, m_cap)
    assert result.m_found == m_found


def _lowest_terms(interval):
    return [(q.numerator, q.denominator) for q in (interval.lo, interval.hi)]


@pytest.mark.parametrize("m_cap", [64, 200])
@pytest.mark.parametrize("n", [1, 13, 100, 677, 5000])
def test_threshold_chain_is_the_fraction_arithmetic_bit_for_bit(n, m_cap):
    result = threshold_for_n(n, m_cap=m_cap)
    # Only n = 5000 crosses above m = 64 (m0 = 132), leaving no chain there.
    assert result.found == (n < 5000 or m_cap == 200)
    assert [seq.m for seq in result.chain] == list(range(result.m_found or m_cap + 1, m_cap + 1))
    for seq in result.chain:
        reference = _reference_sequence(seq.m, n)
        assert seq.n == n and seq.value.hi < 1 and seq.ratio_next.hi < 1
        assert _lowest_terms(seq.value) == _lowest_terms(reference.value), seq.m
        assert _lowest_terms(seq.ratio_next) == _lowest_terms(reference.ratio_next), seq.m


def test_bound_path_takes_no_gcd_of_large_operands(monkeypatch):
    # Endpoints with power-of-two denominators are reduced by shifts: a gcd
    # of a prefix (2m+n-1)!/(2m)! against such a denominator would have two
    # operands of thousands of bits.
    large, gcd = [], math.gcd
    # A dyadic interval with ~1,500-bit endpoints, to be powered at 1,200 bits.
    dyadic = RationalInterval(
        dyadic_fraction(3**900 + 1, -1500), dyadic_fraction(3**900 + 3, -1500)
    )

    def counting_gcd(*integers):
        if len(integers) > 1 and all(abs(x).bit_length() > 1000 for x in integers):
            large.append(integers)
        return gcd(*integers)

    monkeypatch.setattr(math, "gcd", counting_gcd)
    assert threshold_for_n(677, m_cap=64).m_found == 55
    assert isinstance(certify_non_integrality(150, 600, "bound"), MagnitudeWitness)
    assert upper_bound_interval(150, 600).value.hi < 1
    points = list(scan((100, 109), (1, 20), "bound"))
    assert all(isinstance(point.certificate, MagnitudeWitness) for point in points)
    for m in (1, 30, 60):
        wide_range_bound_forms(m)
    dyadic.power(40, 1200)
    for k in (1, 60, 120):
        zeta_abs_lower_bound(k)
    assert not large


# The precision of the certified bound in significant bits, to which the
# references below add the guard bits themselves.
_SIGNIFICANT_BITS = [64]

# The precision of the independent oracle, far past the bound's own.
_ORACLE_BITS = 256


def _reference_single_term(k, precision):
    # A fresh power of 2pi for each k, divided and rounded as Fractions.
    bits = precision + _GUARD_BITS
    power = fraction_power(pi_interval(bits).scale(2), 2 * k, bits)
    return power.scale(Fraction(1, 2 * math.factorial(2 * k - 1))).outward(bits)


def _reference_single_terms(k_max, precision):
    # Terms 1..k_max by the ratio recurrence, as Fractions rounded outward
    # at each step: with S the square of the 2pi enclosure, term 1 is S/2
    # and term k is term k-1 times S / ((2k-2)(2k-1)).
    bits = precision + _GUARD_BITS
    two_pi = pi_interval(bits).scale(2)
    square = (two_pi * two_pi).outward(bits)
    terms = [fraction_scale(square, Fraction(1, 2)).outward(bits)]
    for k in range(2, k_max + 1):
        ratio = Fraction(1, (2 * k - 2) * (2 * k - 1))
        terms.append(fraction_scale(terms[-1] * square, ratio).outward(bits))
    return terms


def _reference_term_products(terms, precision):
    # The Fraction loop the memo replaced, keeping every prefix on the way.
    bits = precision + _GUARD_BITS
    product = RationalInterval(1, 1)
    prefixes = [product]
    for term in terms:
        product = (product * term).outward(bits)
        prefixes.append(product)
    return prefixes


def _memo_term_interval(k):
    # The k-th entries of the two integer single-term memos as Fractions.
    return _interval_from_dyadic(
        _bound_memo(k, ceil=False).terms[k - 1] + _bound_memo(k, ceil=True).terms[k - 1]
    )


@pytest.mark.parametrize("precision", _SIGNIFICANT_BITS)
def test_single_terms_match_the_ratio_recurrence(precision):
    # Each term comes from the one before, both ends bit for bit as the
    # Fraction recurrence: filled in one call, read warm, and one term per
    # query.
    reference = dict(enumerate(_reference_single_terms(400, precision), start=1))

    def check(ks):
        for k in ks:
            for term in (_memo_term_interval(k), single_term_interval(k)):
                assert (term.lo, term.hi) == (reference[k].lo, reference[k].hi), k

    _bound_end.cache_clear()
    check(range(400, 0, -1))  # the whole memo at k = 400, then lookups
    check(range(1, 401))
    _bound_end.cache_clear()
    check(range(1, 401))  # one term per query


def test_single_terms_and_prefixes_enclose_a_fresh_power_of_2pi():
    # Against an oracle that shares no step with the recurrence, at 256
    # significant bits: every single term to k = 400 and every prefix
    # product to m = 300 holds the oracle's enclosure.
    terms = [_reference_single_term(k, _ORACLE_BITS) for k in range(1, 401)]
    products = _reference_term_products(terms[:300], _ORACLE_BITS)
    for k, reference in enumerate(terms, start=1):
        term = single_term_interval(k)
        assert term.lo <= reference.lo and reference.hi <= term.hi, k
    for m, reference in enumerate(products):
        product = _interval_from_dyadic(_term_product(m))
        assert product.lo <= reference.lo and reference.hi <= product.hi, m


def test_memo_steps_work_on_narrow_integers(monkeypatch):
    # Filling both ends from cold to k = 700 hands the memo kernels nothing
    # wider than the one-time square of the 2pi enclosure: each step works
    # on two mantissas and a divisor of a few bits, never on a factorial.
    widest = {}

    def recording(name):
        kernel = getattr(certify_module, name)

        def record(*args):
            widths = [abs(x).bit_length() for x in args if type(x) is int]
            widest[name] = max([widest.get(name, 0), *widths])
            return kernel(*args)

        return record

    for name in ("_lowest_terms", "_round_to_bits"):
        monkeypatch.setattr(certify_module, name, recording(name))
    _bound_end.cache_clear()
    for ceil in (False, True):
        assert len(_bound_memo(700, ceil).terms) == 700
    _bound_end.cache_clear()
    assert set(widest) == {"_lowest_terms", "_round_to_bits"}
    assert max(widest.values()) <= 1000, widest


def test_single_term_memo_stores_odd_mantissas():
    # Each term of each end as (mantissa, exponent): an odd mantissa of at
    # most bits + 1 bits.
    for ceil in (False, True):
        for k, (mantissa, _) in enumerate(_bound_memo(300, ceil).terms[:300], start=1):
            assert mantissa % 2 == 1, (ceil, k)
            assert mantissa.bit_length() <= _BITS + 1, (ceil, k)


@pytest.fixture(scope="module")
def reference_to_300():
    # The single terms k = 1..300 and the prefix products m = 0..300.
    terms = _reference_single_terms(300, 64)
    return terms, _reference_term_products(terms, 64)


@pytest.mark.parametrize("ceil", [False, True], ids=["lo", "hi"])
def test_each_end_of_the_memos_is_that_end_of_the_fraction_loop(ceil, reference_to_300):
    # Each end's memo, filled alone from cold, holds that end of every
    # reference single term and prefix product; the other end's memo stays
    # empty.
    terms, products = reference_to_300

    def end(interval):
        return interval.hi if ceil else interval.lo

    _bound_end.cache_clear()
    memo_products = _bound_memo(300, ceil).products
    memo_terms = _bound_memo(300, ceil).terms
    other = _bound_end(not ceil)
    assert (other.terms, other.products) == ([], [(1, 0)])
    assert len(memo_terms) == 300 and len(memo_products) == 301
    for k, (mantissa, exponent) in enumerate(memo_terms, start=1):
        assert dyadic_fraction(mantissa, exponent) == end(terms[k - 1]), k
    for m, (mantissa, exponent) in enumerate(memo_products):
        assert dyadic_fraction(mantissa, exponent) == end(products[m]), m


def test_bound_decisions_extend_only_the_hi_memo():
    # A certificate reads the upper end of U(m,n) alone: a bound-decided
    # certify, bound scan or auto point leaves both lo memos empty.
    _bound_end.cache_clear()
    assert isinstance(certify_non_integrality(150, 600, "bound"), MagnitudeWitness)
    assert isinstance(certify_non_integrality(250, 1, "auto"), MagnitudeWitness)
    points = list(scan((100, 109), (1, 20), "bound"))
    assert all(isinstance(point.certificate, MagnitudeWitness) for point in points)
    assert _bound_end.cache_info().currsize == 1
    lo, hi = _bound_end(False), _bound_end(True)
    assert (lo.terms, lo.products) == ([], [(1, 0)])
    assert (len(hi.terms), len(hi.products)) == (250, 251)


@pytest.fixture(scope="module")
def bound_memos_in_one_call():
    # Both ends' memos, each extended through m = 151 by one call from cold.
    _bound_end.cache_clear()
    memos = [_bound_memo(151, ceil) for ceil in (False, True)]
    _bound_end.cache_clear()
    return memos


# A read of the bound memos and its arguments: k, m <= 150 throughout.
_BOUND_READS = st.one_of(
    st.tuples(st.just(_single_term), st.integers(1, 150)),
    st.tuples(st.just(_term_product), st.integers(0, 150)),
    st.tuples(st.just(_upper_end), st.integers(1, 150), st.just(1)),
    st.tuples(st.just(threshold_for_n), st.integers(1, 677), st.integers(1, 150)),
)


@settings(max_examples=60, deadline=None)
@given(reads=st.lists(_BOUND_READS, max_size=5))
def test_any_reads_leave_each_memo_whole(bound_memos_in_one_call, reads):
    # Whatever reads extend them, in whatever order, each end's memo holds
    # one prefix product more than single terms, and the square and entries
    # of the memo extended in one call.
    _bound_end.cache_clear()
    for read, *args in reads:
        read(*args)
    for ceil, whole in zip((False, True), bound_memos_in_one_call):
        memo = _bound_end(ceil)
        assert len(memo.products) == len(memo.terms) + 1
        assert memo.square == whole.square
        assert memo.terms == whole.terms[: len(memo.terms)]
        assert memo.products == whole.products[: len(memo.products)]


@pytest.mark.parametrize("precision", _SIGNIFICANT_BITS)
def test_term_product_memo_matches_the_fraction_loop(precision):
    reference = _reference_term_products(_reference_single_terms(300, precision), precision)

    def check(ms):
        for m in ms:
            product = _interval_from_dyadic(_term_product(m))
            assert (product.lo, product.hi) == (reference[m].lo, reference[m].hi), m

    _bound_end.cache_clear()
    check(range(300, -1, -1))  # one extension to 300, then lookups
    check(range(301))
    _bound_end.cache_clear()
    check(range(301))  # one step per query


def test_prefix_memo_stores_small_integers():
    # Fraction endpoints would carry ~10^5-bit denominators at m = 300.
    for ceil in (False, True):
        memo = _bound_memo(300, ceil).products
        assert len(memo) >= 301
        for entry in memo:
            assert all(type(x) is int and x.bit_length() <= _BITS + 64 for x in entry)


def test_prefix_memo_is_dropped_with_the_module_lru_caches(monkeypatch):
    # Each end's memo, with its square of 2pi, single terms and prefix
    # products, lives behind an lru cache of the module, so clearing those
    # caches starts both over as in a fresh process: the square is rebuilt
    # from the pi enclosure, once per end, and every term after the first
    # from the one before, divided by (2k-2)(2k-1).
    _term_product(50)
    for obj in vars(certify_module).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
    enclosures, divisors = [], []
    enclose, divide = certify_module.pi_interval, certify_module._lowest_terms

    def recording_enclose(bits):
        enclosures.append(bits)
        return enclose(bits)

    def recording_divide(numerator, divisor):
        divisors.append(divisor)
        return divide(numerator, divisor)

    monkeypatch.setattr(certify_module, "pi_interval", recording_enclose)
    monkeypatch.setattr(certify_module, "_lowest_terms", recording_divide)
    _term_product(50)
    assert enclosures == [64 + _GUARD_BITS] * 2
    assert divisors == [(2 * k - 2) * (2 * k - 1) for _ in ("lo", "hi") for k in range(2, 51)]
    assert _bound_end.cache_info().misses == 2
    for ceil in (False, True):
        memo = _bound_end(ceil)
        assert (len(memo.terms), len(memo.products)) == (50, 51)


def _bound_memos_case():
    # Both ends' memos, started over after one thread's pass.
    m_max = 400

    def state():
        return [
            (memo.square, list(memo.terms), list(memo.products))
            for memo in (_bound_end(False), _bound_end(True))
        ]

    def read(m):
        # The hi prefix alone, then both ends of a single term with no prefix
        # step around it, then both ends of the prefix: each end's memo is
        # extended along every path at once.
        return _upper_end(m, 1), _single_term(m + 1), _term_product(m)

    expected = [read(m) for m in range(m_max + 1)]
    expected_state = state()
    _bound_end.cache_clear()
    orders = [
        range(m_max, -1, -1) if worker % 2 else range(0, m_max + 1, worker + 1)
        for worker in range(8)
    ]
    return read, orders, expected, state, expected_state


def _shared_table_case(table):
    # One table's zeta memo, fresh, against another's read by one thread.
    m_max = 120
    alone, shared = (BernoulliTable(table.max_index, table.values) for _ in "ab")

    def state():
        memo = shared._zeta_memo
        return memo.values, memo.product == expected[memo.m]

    expected = [zeta_product(m, alone) for m in range(m_max + 1)]
    orders = [random.Random(worker).sample(range(m_max + 1), m_max + 1) for worker in range(8)]
    return (
        lambda m: zeta_product(m, shared), orders, expected, state, (alone._zeta_memo.values, True)
    )


def _pi_series_case():
    # Both Gregory series of pi_interval, started over after one thread's
    # pass, asked at shuffled precisions.
    p_max = 400

    def state():
        return [
            (list(series.numerators), list(series.lcms), list(series.tails))
            for series in (_gregory_series(5), _gregory_series(239))
        ]

    expected = [None] * 8 + [pi_interval(p) for p in range(8, p_max + 1)]
    expected_state = state()
    pi_interval.cache_clear()
    _gregory_series.cache_clear()
    orders = [random.Random(worker).sample(range(8, p_max + 1), p_max - 7) for worker in range(8)]
    return pi_interval, orders, expected, state, expected_state


def test_memos_extended_from_many_threads_match_one_thread(table600):
    # Threads extending both ends' single-term and prefix memos at once must
    # file every entry under its own k, each term stepped once from the one
    # before.
    # Threads moving one table's running zeta product in shuffled orders
    # must each read the product at their own m, with each zeta value filed
    # under its own k.
    # Threads growing pi's two shared series from cleared caches must append
    # each term once, and read every enclosure as one thread does.
    # Each case is set up just before its threads start: the bound memos'
    # threads grow the pi series too.
    for case in (_bound_memos_case, lambda: _shared_table_case(table600), _pi_series_case):
        read, orders, expected, state, expected_state = case()
        results, errors = {}, []
        start = threading.Barrier(8)

        def work(worker):
            try:
                start.wait(timeout=60)
                results[worker] = {m: read(m) for m in orders[worker]}
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert len(results) == 8
        for found in results.values():
            assert all(entry == expected[m] for m, entry in found.items())
        assert state() == expected_state


# --- certification strategies ----------------------------------------------------


def test_exact_certificates(table60):
    assert certify_non_integrality(1, 1, "exact", table60) == IntegerValue(12)
    assert certify_non_integrality(2, 1, "exact", table60) == IntegerValue(1440)
    cert = certify_non_integrality(6, 1, "exact", table60)
    assert isinstance(cert, PrimeWitness)
    assert cert.p == 691 and cert.valuation == -1
    assert cert.value == e_mn(6, 1, table60)


def test_bound_certificates():
    cert = certify_non_integrality(14, 1, "bound")
    assert isinstance(cert, MagnitudeWitness)
    assert cert.upper < 1 and "e(14,1)" in cert.statement
    assert isinstance(certify_non_integrality(13, 1, "bound"), Inconclusive)


def test_auto_strategy(table60):
    # Bound first when conclusive, exact fallback otherwise.
    assert isinstance(certify_non_integrality(14, 1, "auto", table60), MagnitudeWitness)
    assert certify_non_integrality(1, 1, "auto", table60) == IntegerValue(12)
    assert isinstance(certify_non_integrality(6, 1, "auto", table60), PrimeWitness)
    # Bound conclusive without any table for large m.
    assert isinstance(certify_non_integrality(250, 1, "auto"), MagnitudeWitness)
    # Neither available: inconclusive, not an exception.
    assert isinstance(certify_non_integrality(13, 1, "auto"), Inconclusive)


def test_a_table_function_is_called_only_when_the_answer_reads_the_table(table60):
    calls = []

    def table():
        calls.append(None)
        return table60

    def certify(m, n, strategy):
        calls.clear()
        cert = certify_non_integrality(m, n, strategy, table)
        assert cert == certify_non_integrality(m, n, strategy, table60)
        return cert, len(calls)

    assert certify(14, 1, "auto")[1] == 0  # the bound decides
    assert certify(14, 1, "bound")[1] == 0
    assert certify(6, 1, "auto") == (certify_non_integrality(6, 1, "exact", table60), 1)
    assert certify(6, 1, "exact")[1] == 1
    cert, count = certify(201, 20000, "auto")  # past the exact limit, bound undecided
    assert isinstance(cert, Inconclusive) and count == 0


def test_strategy_agreement_where_both_conclusive(table60):
    for m in (14, 16, 20):
        exact = certify_non_integrality(m, 1, "exact", table60)
        bound = certify_non_integrality(m, 1, "bound")
        assert isinstance(exact, PrimeWitness) and isinstance(bound, MagnitudeWitness)


def test_certify_validation(table60):
    with pytest.raises(ValueError):
        certify_non_integrality(0, 1, "exact", table60)
    with pytest.raises(ValueError):
        certify_non_integrality(1, 1, "guess", table60)
    with pytest.raises(ValueError):
        certify_non_integrality(1, 1, "exact", None)
    with pytest.raises(CapacityError):
        certify_non_integrality(31, 1, "exact", table60)


# --- scans -------------------------------------------------------------------------


def test_scan_small_m_integers(table60):
    points = list(scan((1, 5), (1, 1), "exact", table60))
    values = [point.certificate.value for point in points]
    assert values == [12, 1440, 362880, 87091200, 11496038400]
    assert all(point.preferred_witness is None for point in points)


def test_scan_direct_range(table60):
    points = list(scan((6, 13), (1, 1), "exact", table60))
    assert len(points) == 8
    assert all(isinstance(point.certificate, PrimeWitness) for point in points)
    assert all(point.preferred_witness for point in points)


def test_scan_matches_single_point_evaluation(table60):
    # One decision behind both entry points: equal certificates at every
    # point, m past the table included (auto degrades there, exact refuses).
    for strategy in ("exact", "auto", "bound"):
        m_hi = 30 if strategy == "exact" else 35
        points = list(scan((1, m_hi), (1, 5), strategy, table60))
        grid = [(m, n) for m in range(1, m_hi + 1) for n in range(1, 6)]
        assert [(point.m, point.n) for point in points] == grid
        for point in points:
            expected = certify_non_integrality(point.m, point.n, strategy, table60)
            assert point.certificate == expected, (strategy, point)
    with pytest.raises(CapacityError):
        list(scan((1, 35), (1, 5), "exact", table60))
    with pytest.raises(CapacityError):
        certify_non_integrality(35, 5, "exact", table60)
    for m, n in ((6, 3), (10, 5), (14, 7), (3, 11)):
        (point,) = scan((m, m), (n, n), "exact", table60)
        assert point.certificate.value == e_mn(m, n, table60)


def test_scan_bound_and_auto_strategies(table60):
    kinds = [
        type(point.certificate).__name__
        for point in scan((13, 15), (1, 1), "bound")
    ]
    assert kinds == ["Inconclusive", "MagnitudeWitness", "MagnitudeWitness"]
    kinds = [
        type(point.certificate).__name__
        for point in scan((13, 15), (1, 1), "auto", table60)
    ]
    assert kinds == ["PrimeWitness", "MagnitudeWitness", "MagnitudeWitness"]


@pytest.mark.parametrize(
    "block", [((10, 20), (1, 120)), ((53, 56), (600, 720)), ((1, 50), (1, 5))]
)
def test_bound_points_read_the_hi_end_of_the_enclosure(table60, table600, block):
    # The first two blocks hold rows that cross 1 mid-row (m = 14..20 and
    # 53..55); the second starts past n = 1.  The third is the window of
    # verify's bound-dominates-exact, which reads `_upper_end`.  The upper
    # end, stepped along each row in integers, must be the enclosure's hi
    # end at every point, and the verdict must follow it.
    m_range, n_range = block
    hi = {
        (m, n): upper_bound_interval(m, n).value.hi
        for m in range(m_range[0], m_range[1] + 1)
        for n in range(n_range[0], n_range[1] + 1)
    }
    assert min(hi.values()) < 1 <= max(hi.values())
    assert all(dyadic_fraction(*_upper_end(m, n)) == upper for (m, n), upper in hi.items())
    table = table60 if m_range[1] <= 30 else table600
    runs = [
        (None, list(scan(m_range, n_range, "bound"))),
        (None, list(scan(m_range, n_range, "auto"))),
        (table, list(scan(m_range, n_range, "auto", table))),
        (None, [ScanPoint(m, n, certify_non_integrality(m, n, "bound")) for m, n in hi]),
    ]
    for fallback, points in runs:
        assert [(point.m, point.n) for point in points] == list(hi)
        for point in points:
            cert, upper = point.certificate, hi[point.m, point.n]
            if upper < 1:
                assert isinstance(cert, MagnitudeWitness) and cert.upper == upper, point
            elif fallback is None:
                assert isinstance(cert, Inconclusive), point
            else:
                assert cert == certificate_from_exact(e_mn(point.m, point.n, fallback))


@pytest.mark.parametrize("m_lo", [1, 6, 150])
def test_exact_scan_rows_are_e_mn(table600, m_lo):
    # The first row multiplies its whole zeta product out, each later row
    # folds in one more zeta value; both must give e(m,n) at every point.
    points = list(scan((m_lo, m_lo + 3), (1, 4), "exact", table600))
    assert [(point.m, point.n) for point in points] == [
        (m, n) for m in range(m_lo, m_lo + 4) for n in range(1, 5)
    ]
    for point in points:
        expected = certificate_from_exact(e_mn(point.m, point.n, table600))
        assert point.certificate == expected, (point.m, point.n)


def test_scan_auto_degrades_past_table_capacity(table60):
    # m beyond both the exact limit and the table: the bound either settles
    # it or the point is reported inconclusive; nothing raises.
    points = list(scan((31, 32), (1, 2), "auto", table60))
    assert [type(p.certificate).__name__ for p in points] == ["MagnitudeWitness"] * 4
    points = list(scan((13, 13), (1, 1), "auto", None))
    assert isinstance(points[0].certificate, Inconclusive)


def test_scan_rectangle_all_non_integer(table60):
    points = list(scan((6, 20), (1, 10), "exact", table60))
    assert len(points) == 15 * 10
    assert all(isinstance(point.certificate, PrimeWitness) for point in points)


def test_scan_is_deterministic(table60):
    first = list(scan((6, 10), (1, 4), "exact", table60))
    second = list(scan((6, 10), (1, 4), "exact", table60))
    assert first == second


def test_scan_validation(table60):
    with pytest.raises(ValueError):
        list(scan((5, 4), (1, 1), "exact", table60))
    with pytest.raises(ValueError):
        list(scan((1, 2), (0, 1), "exact", table60))
    with pytest.raises(CapacityError):
        list(scan((1, 31), (1, 1), "exact", table60))


# --- monotonicity ---------------------------------------------------------------


def _increasing_steps(m_lo, m_hi, table):
    """The m in m_lo..m_hi-1 with e(m+1,1) >= e(m,1)."""
    return tuple(m for m in range(m_lo, m_hi) if e_mn(m + 1, 1, table) >= e_mn(m, 1, table))


def test_monotone_decrease_tail(table600):
    assert _increasing_steps(9, 50, table600) == ()


def test_monotone_identifies_increasing_steps(table60):
    assert _increasing_steps(1, 8, table60) == (1, 2, 3, 4, 5, 6, 7)


def test_monotone_values_below_one_past_fourteen(table60):
    assert _increasing_steps(14, 20, table60) == ()
    for m in range(14, 21):
        assert e_mn(m, 1, table60) < 1


# --- the closing bound for the wide window ---------------------------------------


def test_wide_range_forms_threshold():
    assert wide_range_constant_form_threshold(45) == 37
    forms = wide_range_bound_forms(37)
    assert forms.constant_factor_product.hi < 1
    assert forms.per_index_product.lo > 1
    assert wide_range_bound_forms(36).constant_factor_product.lo > 1


# --- the first n at which a prime's bar is met ------------------------------------


def _diff(m, n, p):
    # D_p(m,n) = v_p((2m+n-1)!) - v_p((2m)!), which never decreases in n.
    return factorial_valuation(2 * m + n - 1, p) - factorial_valuation(2 * m, p)


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from(primes_up_to(10**4)), m=st.integers(1, 10**4), bar=st.integers(-3, 20)
)
def test_first_n_reaching_is_where_the_diff_meets_the_bar(p, m, bar):
    # D_p is monotone in n, so this makes n the least n >= 1 reaching the bar.
    n = first_n_reaching(m, p, bar)
    assert _diff(m, n, p) >= bar
    assert n == 1 or _diff(m, n - 1, p) < bar


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from(primes_up_to(50)), m=st.integers(1, 10**4), bar=st.integers(-3, 8))
def test_first_n_reaching_is_a_linear_scan(p, m, bar):
    n = 1
    while _diff(m, n, p) < bar:
        n += 1
    assert first_n_reaching(m, p, bar) == n


def _row_frontier(m, table):
    # The least n with e(m,n) in Z: the largest first n over the primes that
    # divide a numerator of |zeta(1-2k)|, k <= 11.
    bars = {
        p: sum(p_adic_valuation(zeta_one_minus_2k(k, table), p) for k in range(1, m + 1))
        for p in (691, 3617, 43867, 283, 617, 131, 593)
    }
    return max(first_n_reaching(m, p, bar) for p, bar in bars.items())


def test_row_frontiers_are_exact():
    table = bernoulli_table(30)
    frontiers = [_row_frontier(m, table) for m in range(6, 12)]
    assert frontiers == [680, 678, 3602, 43850, 43848, 43846]
    for m, frontier in zip(range(6, 12), frontiers):
        assert e_mn(m, frontier - 1, table).denominator != 1, m
        assert e_mn(m, frontier, table).denominator == 1, m


def test_first_n_reaching_needs_a_row():
    assert first_n_reaching(1, 691, 0) == 1
    with pytest.raises(ValueError):
        first_n_reaching(0, 691, 1)


def test_first_n_reaching_needs_a_prime():
    # Legendre's formula is v_p(N!) for a prime p alone: for p = 4 its sum
    # would give n = 5 at m = 6, bar 1, which means nothing.
    for p in (-7, 0, 1, 4, 6, 691 * 3617):
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            first_n_reaching(6, p, 1)
