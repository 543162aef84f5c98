"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; stated runtime limits are asserted where given.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

from torelli_euler.bernoulli import (
    TableInvariantError,
    bernoulli_table,
    load_table,
    persist_table,
    von_staudt_clausen_denominator,
    von_staudt_clausen_primes,
)
from torelli_euler.certify import (
    Inconclusive,
    IntegerValue,
    MagnitudeWitness,
    PrimeWitness,
    ValuationWitness,
    certify_non_integrality,
    ledger_scan,
    monotone_decrease_check,
    scan,
    single_term_interval,
    threshold_for_n,
    upper_bound_interval,
)
from torelli_euler.euler_char import (
    EmnQuery,
    check_product_formula,
    chi_torelli,
    e_mn,
    euler_moduli,
    siegel_zeta_product,
)
from torelli_euler.exact_core import pi_interval
from torelli_euler.render import (
    certificate_from_json,
    certificate_to_json,
    decimal_string,
)
from torelli_euler.verify import PI_REFERENCE, run_verification_suite
from torelli_euler.zeta_special import zeta_one_minus_2k


def _passed(number, name, elapsed, limit=None):
    budget = f", limit {limit:.0f}s" if limit is not None else ""
    print(f"\nACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s{budget})")


def test_criterion_1_zeta_product():
    started = time.perf_counter()
    table = bernoulli_table(28)
    product = Fraction(1)
    for k in range(1, 15):
        product *= zeta_one_minus_2k(k, table).value
    # Exact expansion, frozen from two independent computations; the printed
    # -297203.11 is this value rounded to two decimals (truncation gives .10).
    assert decimal_string(product, 6) == "-297203.109482…"
    assert decimal_string(product, 2) == "-297203.10…"
    assert round(product * 100) == -29720311
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(1, "zeta product k=1..14", elapsed, 1.0)


def test_criterion_2_direct_calculations():
    started = time.perf_counter()
    table = bernoulli_table(26)
    for m, expected in ((1, 12), (2, 1440)):
        assert certify_non_integrality(m, 1, "exact", table) == IntegerValue(expected)
    for m in range(6, 14):
        cert = certify_non_integrality(m, 1, "exact", table)
        assert isinstance(cert, PrimeWitness) and cert.valuation < 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(2, "direct checks m=6..13 and integers m=1,2", elapsed, 1.0)


def test_criterion_3_magnitude_tail():
    started = time.perf_counter()
    table = bernoulli_table(202)
    for m in range(14, 101):
        assert e_mn(EmnQuery(m, 1), table) < 1
    report = monotone_decrease_check(1, (9, 100), table)
    assert report.strictly_decreasing
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passed(3, "e(m,1) < 1 for m>=14 and decreasing for m>=9", elapsed, 30.0)


def test_criterion_4_wide_grid_scan(table600):
    started = time.perf_counter()
    total = preferred = prime_witnesses = 0
    exceptions = []
    ledger = ledger_scan((6, 200), (1, 677), table600)
    for point, ledger_point in zip(scan((6, 200), (1, 677), "exact", table600), ledger):
        total += 1
        cert = point.certificate
        assert not isinstance(cert, (IntegerValue, Inconclusive)), (point.m, point.n)
        # The valuation ledger reaches the same witness without e(m,n).
        witness = ledger_point.certificate
        assert isinstance(witness, ValuationWitness), (point.m, point.n)
        assert (ledger_point.m, ledger_point.n, witness.p, witness.valuation) == (
            point.m, point.n, cert.p, cert.valuation
        )
        if isinstance(cert, PrimeWitness):
            prime_witnesses += 1
            if point.preferred_witness:
                preferred += 1
            else:
                exceptions.append((point.m, point.n, cert.p))
    elapsed = time.perf_counter() - started
    assert total == 195 * 677
    assert next(ledger, None) is None
    assert prime_witnesses == total
    fraction = Fraction(preferred, prime_witnesses)
    # Expected to be all of them; an exception is reported, not failed.
    print(f"\n  witness fraction for p in (691, 3617): {preferred}/{prime_witnesses}")
    if exceptions:
        print(f"  exceptions (m, n, p): {exceptions[:10]}")
    assert elapsed < 600.0
    _passed(4, f"scan m=6..200, n=1..677 non-integer (witness fraction {fraction})",
            elapsed, 600.0)


def test_criterion_5_bound_machinery(table600):
    started = time.perf_counter()
    for k in range(1, 9):
        assert single_term_interval(k).lo > 1
    for k in range(9, 101):
        assert single_term_interval(k).hi < 1
    assert threshold_for_n(1, m_cap=30).m_found == 14
    for m in range(1, 51):
        for n in range(1, 6):
            assert e_mn(EmnQuery(m, n), table600) <= upper_bound_interval(m, n).value.hi
    elapsed = time.perf_counter() - started
    _passed(5, "single terms, threshold n=1, bound dominates exact", elapsed)


def test_criterion_6_bernoulli_engine():
    started = time.perf_counter()
    seidel = bernoulli_table(600, "seidel")
    akiyama = bernoulli_table(600, "akiyama-tanigawa")
    assert seidel.values == akiyama.values
    for k in range(1, 301):
        b = seidel.even(k)
        primes = von_staudt_clausen_primes(k)
        assert b.denominator == von_staudt_clausen_denominator(k)
        assert (b + sum(Fraction(1, p) for p in primes)).denominator == 1
    assert abs(seidel.bernoulli(12).numerator) == 691
    assert abs(seidel.bernoulli(16).numerator) == 3617
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passed(6, "two algorithms to 600, von Staudt-Clausen to k=300", elapsed, 60.0)


def test_criterion_7_euler_characteristics():
    started = time.perf_counter()
    table = bernoulli_table(60)
    for g in range(2, 31):
        for n in range(0, 11):
            assert check_product_formula(g, n, table).holds
    assert euler_moduli(2, 0, table).value == Fraction(-1, 240)
    assert chi_torelli(2, 0, table).value == 6
    assert chi_torelli(3, 0, table).value == 360
    assert decimal_string(siegel_zeta_product(14, table), 6) == "-297203.109482…"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _passed(7, "product formula g=2..30, n=0..10 and spot values", elapsed, 5.0)


def test_criterion_8_infrastructure(table600):
    started = time.perf_counter()
    # Cache round trip with revalidation.
    small = bernoulli_table(100)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bern.cache"
        persist_table(small, path)
        assert load_table(path) == small
        path.write_text(path.read_text().replace("-691/2730", "-692/2730"))
        with pytest.raises(TableInvariantError):
            load_table(path)
    # JSON round trip for every certificate kind.
    certificates = [
        certify_non_integrality(1, 1, "exact", table600),
        certify_non_integrality(6, 1, "exact", table600),
        certify_non_integrality(14, 1, "bound"),
        certify_non_integrality(13, 1, "bound"),
    ]
    assert [type(c).__name__ for c in certificates] == [
        "IntegerValue", "PrimeWitness", "MagnitudeWitness", "Inconclusive",
    ]
    for cert in certificates:
        assert certificate_from_json(json.loads(
            json.dumps(certificate_to_json(cert)))) == cert
    # Pi enclosure quality at 128 bits.
    enclosure = pi_interval(128)
    assert enclosure.width <= Fraction(1, 2**120)
    assert enclosure.lo < PI_REFERENCE < enclosure.hi
    # Exit-code contract through the real process boundary.
    env = dict(os.environ)
    env.pop("TORELLI_EULER_CACHE", None)
    def run_cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "torelli_euler", *argv],
            capture_output=True, text=True, env=env,
        ).returncode
    assert run_cli("zeta", "--k", "2") == 0
    assert run_cli("threshold", "-n", "1", "--m-cap", "5") == 1
    assert run_cli("certify", "-m", "13", "-n", "1", "--strategy", "bound") == 1
    assert run_cli("zeta", "--k", "0") == 2
    assert run_cli("zeta", "--nope") == 2
    elapsed = time.perf_counter() - started
    _passed(8, "cache, JSON, pi enclosure, exit codes", elapsed)


def test_full_verification_suite_standard_via_cli(tmp_path):
    started = time.perf_counter()
    cache = tmp_path / "suite.cache"
    env = dict(os.environ)
    env.pop("TORELLI_EULER_CACHE", None)
    proc = subprocess.run(
        [sys.executable, "-m", "torelli_euler", "verify-paper",
         "--format", "json", "--cache", str(cache)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["mode"] == "standard"
    failing = [c for c in report["checks"] if c["status"] != "pass"]
    assert not failing, failing
    assert report["summary"]["fail"] == 0 and report["summary"]["inconclusive"] == 0
    assert cache.exists()
    elapsed = time.perf_counter() - started
    print(f"\nverification suite via CLI (standard): all {len(report['checks'])} "
          f"checks pass, exit 0 ({elapsed:.1f}s)")


def test_deep_verification_suite():
    started = time.perf_counter()
    report = run_verification_suite("deep")
    failing = [c for c in report.checks if c.status != "pass"]
    assert not failing, failing
    assert len(report.checks) == 21
    scan_check = next(c for c in report.checks if c.id == "wide-grid-scan")
    assert scan_check.witness == (
        "all 991805 points on m = 6..1470, n = 1..677 are non-integers"
    )
    elapsed = time.perf_counter() - started
    print(f"\nverification suite (deep): all 21 checks pass ({elapsed:.1f}s)")
