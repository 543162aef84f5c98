import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import torelli_euler.certify as certify_module
from torelli_euler.bernoulli import BernoulliTable, CapacityError
from torelli_euler.certify import (
    _BITS,
    _GUARD_BITS,
    _bound_end,
    _interval_from_dyadic,
    _single_term,
    _single_terms,
    _term_product,
    _term_products,
    _upper_end,
    BoundSequence,
    CertificateError,
    Inconclusive,
    IntegerValue,
    LedgerSegment,
    MagnitudeWitness,
    PrimeWitness,
    ScanPoint,
    ValuationWitness,
    WITNESS_PRIMES,
    WITNESS_SEARCH_LIMIT,
    certificate_from_exact,
    certify_non_integrality,
    ledger_scan,
    ledger_segments,
    monotone_decrease_check,
    scan,
    single_term_interval,
    threshold_for_n,
    upper_bound_interval,
    wide_range_bound_forms,
    wide_range_constant_form_threshold,
)
from torelli_euler.euler_char import EmnQuery, e_mn
from torelli_euler import verify
from torelli_euler.exact_core import (
    RationalInterval,
    dyadic_fraction,
    factorial_valuation,
    p_adic_valuation,
    pi_interval,
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


def test_valuation_witness_rejects_wrong_claims():
    # e(6,1) = 12!/12! / prod |zeta(1-2k)|; 691 divides zeta(-11) once.
    assert ValuationWitness(6, 1, 691, -1, ((6, 1),)).valuation == -1
    bad_claims = [
        (6, 1, 691, -2, ((6, 1),)),  # valuation off by one
        (6, 1, 691, 0, ()),  # nonnegative valuation
        (6, 1, 693, -1, ((6, 1),)),  # p not prime
        (6, 1, 691, -1, ((7, 1),)),  # k past m
        (6, 1, 691, -1, ((0, 1),)),  # k below 1
        (6, 1, 691, -1, ((5, 0), (6, 1))),  # zero entry
        (6, 1, 691, -2, ((6, 1), (6, 1))),  # repeated k
        (6, 1, 691, -1, ((3, 2), (2, -1))),  # k out of order
        (0, 1, 691, -1, ()),  # m below 1
    ]
    for claim in bad_claims:
        with pytest.raises(CertificateError):
            ValuationWitness(*claim)


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
    "n, m_cap, m_found", [(1, 30, 14), (677, 64, 55), (5000, 200, 132), (20000, 300, 251)]
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


@given(st.integers(1, 2**300), st.integers(1, 2**300), st.integers(0, 700))
def test_product_fits_decides_as_the_product(a, b, bits):
    for x, y in ((a, b), (1 << (a.bit_length() - 1), b), (a, (1 << b.bit_length()) - 1)):
        for budget in (bits, x.bit_length() + y.bit_length() - 1, x.bit_length() + y.bit_length()):
            assert certify_module._product_fits(x, y, budget) == ((x * y).bit_length() <= budget)


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


def _reference_single_term(k, precision):
    # A fresh power of 2pi for each k, divided and rounded as Fractions.
    bits = precision + _GUARD_BITS
    power = fraction_power(pi_interval(bits).scale(2), 2 * k, bits)
    return power.scale(Fraction(1, 2 * math.factorial(2 * k - 1))).outward(bits)


def _memo_term_interval(k):
    # The k-th entries of the two integer single-term memos as Fractions.
    return _interval_from_dyadic(
        _single_terms(k, ceil=False)[k - 1] + _single_terms(k, ceil=True)[k - 1]
    )


@pytest.mark.parametrize("precision", _SIGNIFICANT_BITS)
def test_single_terms_from_the_square_chain_match_the_power(precision):
    # Each power of 2pi comes from two earlier ones, the squares among them
    # from the one before: the same multiplications, in the same order, as
    # the binary powering of the reference.
    reference = {k: _reference_single_term(k, precision) for k in range(1, 401)}

    def check(ks):
        for k in ks:
            for term in (_memo_term_interval(k), single_term_interval(k)):
                assert (term.lo, term.hi) == (reference[k].lo, reference[k].hi), k

    _bound_end.cache_clear()
    check(range(400, 0, -1))  # the whole memo at k = 400, then lookups
    check(range(1, 401))
    _bound_end.cache_clear()
    check(range(1, 401))  # one term per query


def test_single_term_memo_stores_odd_mantissas():
    # Each term of each end as (mantissa, exponent): an odd mantissa of at
    # most bits + 1 bits.
    for ceil in (False, True):
        for k, (mantissa, _) in enumerate(_single_terms(300, ceil)[:300], start=1):
            assert mantissa % 2 == 1, (ceil, k)
            assert mantissa.bit_length() <= _BITS + 1, (ceil, k)


def _reference_term_products(m_max, precision):
    # The Fraction loop the memo replaced, keeping every prefix on the way,
    # over single terms that are themselves Fraction references.
    bits = precision + _GUARD_BITS
    product = RationalInterval.point(1)
    prefixes = [product]
    for k in range(1, m_max + 1):
        product = (product * _reference_single_term(k, precision)).outward(bits)
        prefixes.append(product)
    return prefixes


@pytest.fixture(scope="module")
def reference_to_300():
    # The single terms k = 1..300 and the prefix products m = 0..300.
    terms = [_reference_single_term(k, 64) for k in range(1, 301)]
    return terms, _reference_term_products(300, 64)


@pytest.mark.parametrize("ceil", [False, True], ids=["lo", "hi"])
def test_each_end_of_the_memos_is_that_end_of_the_fraction_loop(ceil, reference_to_300):
    # Each end's memo, filled alone from cold, holds that end of every
    # reference single term and prefix product; the other end's memo stays
    # empty.
    terms, products = reference_to_300

    def end(interval):
        return interval.hi if ceil else interval.lo

    _bound_end.cache_clear()
    memo_products = _term_products(300, ceil)
    memo_terms = _single_terms(300, ceil)
    other = _bound_end(not ceil)
    assert (other.powers, other.terms, other.products) == ([(1, 0)], [], [(1, 0)])
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
    assert (lo.powers, lo.terms, lo.products, lo.divisor) == ([(1, 0)], [], [(1, 0)], 2)
    assert (len(hi.terms), len(hi.products)) == (250, 251)


@pytest.mark.parametrize("precision", _SIGNIFICANT_BITS)
def test_term_product_memo_matches_the_fraction_loop(precision):
    reference = _reference_term_products(300, precision)

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
        memo = _term_products(300, ceil)
        assert len(memo) >= 301
        for entry in memo:
            assert all(type(x) is int and x.bit_length() <= _BITS + 64 for x in entry)


def test_prefix_memo_is_dropped_with_the_module_lru_caches(monkeypatch):
    # Each end's memo, with its powers of 2pi, single terms, prefix products
    # and carried divisor, lives behind an lru cache of the module, so
    # clearing those caches starts both over as in a fresh process: every
    # factor is rebuilt, divided by a factorial carried from 1!, from powers
    # rebuilt from the pi enclosure, once per end.
    _term_product(50)
    for obj in vars(certify_module).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
    enclosures, divisors = [], []
    enclose, divide = certify_module.pi_interval, certify_module._dyadic_quotient

    def recording_enclose(bits):
        enclosures.append(bits)
        return enclose(bits)

    def recording_divide(mantissa, exponent, divisor):
        divisors.append(divisor)
        return divide(mantissa, exponent, divisor)

    monkeypatch.setattr(certify_module, "pi_interval", recording_enclose)
    monkeypatch.setattr(certify_module, "_dyadic_quotient", recording_divide)
    _term_product(50)
    assert enclosures == [64 + _GUARD_BITS] * 2
    assert divisors == [2 * math.factorial(2 * k - 1) for _ in ("lo", "hi") for k in range(1, 51)]
    assert _bound_end.cache_info().misses == 2
    for ceil in (False, True):
        memo = _bound_end(ceil)
        assert (len(memo.powers), len(memo.terms), len(memo.products)) == (51, 50, 51)
        assert memo.divisor == 2 * math.factorial(101)


def _bound_memos_case():
    # Both ends' memos, started over after one thread's pass.
    m_max = 400

    def state():
        return [
            (list(memo.powers), list(memo.terms), list(memo.products), memo.divisor)
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
    alone, shared = (BernoulliTable(table.max_index, table.values, table.algorithm) for _ in "ab")

    def state():
        memo = shared._zeta_memo
        return memo.values, memo.product == expected[memo.m]

    expected = [zeta_product(m, alone) for m in range(m_max + 1)]
    orders = [random.Random(worker).sample(range(m_max + 1), m_max + 1) for worker in range(8)]
    return (
        lambda m: zeta_product(m, shared), orders, expected, state, (alone._zeta_memo.values, True)
    )


def test_memos_extended_from_many_threads_match_one_thread(table600):
    # Threads extending both ends' single-term and prefix memos at once must
    # file every entry under its own k, with the divisor carried once per
    # term.
    # Threads moving one table's running zeta product in shuffled orders
    # must each read the product at their own m, with each zeta value filed
    # under its own k.
    for read, orders, expected, state, expected_state in (
        _bound_memos_case(),
        _shared_table_case(table600),
    ):
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
    assert cert.value == e_mn(EmnQuery(6, 1), table60)


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
        assert point.certificate.value == e_mn(EmnQuery(m, n), table60)


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
                assert cert == certificate_from_exact(e_mn(EmnQuery(point.m, point.n), fallback))


@pytest.mark.parametrize("m_lo", [1, 6, 150])
def test_exact_scan_rows_are_e_mn(table600, m_lo):
    # The first row multiplies its whole zeta product out, each later row
    # folds in one more zeta value; both must give e(m,n) at every point.
    points = list(scan((m_lo, m_lo + 3), (1, 4), "exact", table600))
    assert [(point.m, point.n) for point in points] == [
        (m, n) for m in range(m_lo, m_lo + 4) for n in range(1, 5)
    ]
    for point in points:
        expected = certificate_from_exact(e_mn(EmnQuery(point.m, point.n), table600))
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


def test_monotone_decrease_tail(table600):
    report = monotone_decrease_check(1, (9, 50), table600)
    assert report.strictly_decreasing


def test_monotone_identifies_increasing_steps(table60):
    report = monotone_decrease_check(1, (1, 8), table60)
    assert not report.strictly_decreasing
    assert report.increasing_steps == (1, 2, 3, 4, 5, 6, 7)


def test_monotone_values_below_one_past_fourteen(table60):
    report = monotone_decrease_check(1, (14, 20), table60)
    assert report.strictly_decreasing
    for m in range(14, 21):
        assert e_mn(EmnQuery(m, 1), table60) < 1


def test_monotone_check_validation(table60):
    with pytest.raises(CapacityError):
        monotone_decrease_check(1, (14, 31), table60)
    with pytest.raises(ValueError):
        monotone_decrease_check(0, (14, 20), table60)
    with pytest.raises(ValueError):
        monotone_decrease_check(1, (14, 20), None)


# --- the closing bound for the wide window ---------------------------------------


def test_wide_range_forms_threshold():
    assert wide_range_constant_form_threshold(45) == 37
    forms = wide_range_bound_forms(37)
    assert forms.constant_factor_product.hi < 1
    assert forms.per_index_product.lo > 1
    assert wide_range_bound_forms(36).constant_factor_product.lo > 1


# --- the valuation ledger against the exact scan --------------------------------


def test_ledger_scan_matches_exact_scan(table60):
    # m = 1..5 reaches the exact fallback: integers and witnesses other than
    # 691 and 3617.  Where the ledger witnesses, p and v_p must agree.
    exact = list(scan((1, 30), (1, 40), "exact", table60))
    ledger = list(ledger_scan((1, 30), (1, 40), table60))
    assert [(a.m, a.n) for a in exact] == [(b.m, b.n) for b in ledger]
    fallbacks = 0
    for a, b in zip(exact, ledger):
        if isinstance(b.certificate, ValuationWitness):
            assert (b.certificate.p, b.certificate.valuation) == (
                a.certificate.p, a.certificate.valuation
            ), (a.m, a.n)
            assert b.preferred_witness is True
        else:
            fallbacks += 1
            assert b.certificate == a.certificate
    assert 0 < fallbacks < len(ledger)


def test_ledger_scan_validation(table60):
    with pytest.raises(CapacityError):
        next(ledger_scan((6, 31), (1, 1), table60))
    for m_range, n_range in (((0, 3), (1, 1)), ((3, 2), (1, 1)), ((6, 6), (2, 1))):
        with pytest.raises(ValueError):
            next(ledger_scan(m_range, n_range, table60))


def test_ledger_lists_every_nonzero_zeta_valuation(table600):
    # For each witness prime, the certificate at its largest m lists exactly
    # the k with nonzero v_p(zeta(1-2k)), with the table's values.
    deepest = {}
    for point in ledger_scan((6, 200), (1, 677), table600):
        cert = point.certificate
        assert isinstance(cert, ValuationWitness), (point.m, point.n)
        if cert.m >= deepest.get(cert.p, cert).m:
            deepest[cert.p] = cert
    assert set(deepest) == set(WITNESS_PRIMES) and deepest[691].m == 200
    for p, cert in deepest.items():
        expected = []
        for k in range(1, cert.m + 1):
            v = p_adic_valuation(zeta_one_minus_2k(k, table600).value, p)
            if v:
                expected.append((k, v))
        assert cert.zeta_valuations == tuple(expected), p


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 200), n=st.integers(1, 677))
def test_ledger_matches_exact_certificate_at_random_points(table600, m, n):
    (point,) = ledger_scan((m, m), (n, n), table600)
    exact = certificate_from_exact(e_mn(EmnQuery(m, n), table600))
    if isinstance(point.certificate, ValuationWitness):
        assert isinstance(exact, PrimeWitness)
        assert (point.certificate.p, point.certificate.valuation) == (exact.p, exact.valuation)
    else:
        assert point.certificate == exact


# --- the ledger's row segments ----------------------------------------------------


def _valuation(witness, n):
    # v_p(e(m,n)) for the witness's prime and ledger, at another n of its row.
    m, p = witness.m, witness.p
    zeta_sum = sum(v for _, v in witness.zeta_valuations)
    return factorial_valuation(2 * m + n - 1, p) - factorial_valuation(2 * m, p) - zeta_sum


@pytest.mark.parametrize("window", ["small", "standard"])
def test_segments_expand_to_the_ledger_scan(table60, table600, window):
    # The small window reaches the exact fallback (m <= 5); the standard one
    # is the wide-grid scan of verify-paper.
    if window == "small":
        m_range, n_range, table = (1, 30), (1, 40), table60
    else:
        m_range, n_range, table = (6, 200), (1, 677), table600
    segments = list(ledger_segments(m_range, n_range, table))
    points = list(ledger_scan(m_range, n_range, table))
    expanded = [
        (segment, n)
        for segment in segments
        for n in range(segment.n_first, segment.n_last + 1)
    ]
    assert [(s.m, n) for s, n in expanded] == [(point.m, point.n) for point in points]
    for (segment, n), point in zip(expanded, points):
        cert = segment.certificate
        if isinstance(cert, ValuationWitness):
            assert point.certificate == ValuationWitness(
                segment.m, n, cert.p, _valuation(cert, n), cert.zeta_valuations
            )
        else:
            assert point.certificate == cert
    witnessed = [s for s in segments if isinstance(s.certificate, ValuationWitness)]
    if window == "small":
        assert len(witnessed) < len(segments)
    else:
        assert len(segments) == len(witnessed) == 287


@pytest.mark.parametrize("window", ["small", "standard"])
def test_every_witnessed_segment_is_maximal(table60, table600, window):
    if window == "small":
        m_range, (n_lo, n_hi), table = (1, 30), (1, 40), table60
    else:
        m_range, (n_lo, n_hi), table = (6, 200), (1, 677), table600
    rows = {}
    for segment in ledger_segments(m_range, (n_lo, n_hi), table):
        rows.setdefault(segment.m, []).append(segment)
    for m, row in rows.items():
        # Segments tile the row in order, each prime's run at most once.
        assert row[0].n_first == n_lo and row[-1].n_last == n_hi
        assert all(a.n_last + 1 == b.n_first for a, b in zip(row, row[1:]))
        primes = [s.certificate.p for s in row if isinstance(s.certificate, ValuationWitness)]
        assert primes == sorted(set(primes), key=WITNESS_PRIMES.index)
        for segment in row:
            cert = segment.certificate
            if isinstance(cert, ValuationWitness) and segment.n_last < n_hi:
                assert _valuation(cert, segment.n_last + 1) >= 0, (m, segment)


def test_ledger_segment_rechecks_its_extent():
    witness = ValuationWitness(6, 5, 691, -1, ((6, 1),))
    assert LedgerSegment(6, 1, 5, witness).n_last == 5
    assert LedgerSegment(1, 3, 3, IntegerValue(12)).certificate == IntegerValue(12)
    bad_segments = [
        (6, 5, 4, witness),  # n_first > n_last
        (6, 0, 5, witness),  # n_first below 1
        (0, 1, 1, IntegerValue(12)),  # m below 1
        (6, 1, 4, witness),  # witness past n_last
        (6, 1, 6, witness),  # witness before n_last
        (7, 1, 5, witness),  # witness in another row
        (1, 3, 4, IntegerValue(12)),  # a point certificate over two n
        (2, 1, 3, Inconclusive("no witness")),
    ]
    for args in bad_segments:
        with pytest.raises(CertificateError):
            LedgerSegment(*args)


def test_standard_wide_grid_check_builds_one_witness_per_segment(table600, monkeypatch):
    # Reading segments, the check rechecks 287 witnesses, not one for each of
    # its 132,015 points: a return to per-point work fails here.
    built = []
    recheck = ValuationWitness.__post_init__

    def counting(self):
        built.append(self)
        recheck(self)

    monkeypatch.setattr(ValuationWitness, "__post_init__", counting)
    ctx = {"mode": "standard", "table": table600}
    status, witness = verify._check_wide_grid_scan(ctx)
    assert status == "pass" and "all 132015 points" in witness
    assert 0 < len(built) < 1000
    # Each segment counts its points, witnessed ones included.
    assert ctx["scan_stats"] == {
        "m_hi": 200, "total": 132015, "integers": [], "inconclusive": [],
        "prime_witnesses": 132015, "preferred": 132015, "other_witness": [],
    }
