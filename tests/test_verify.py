import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torelli_euler import recheck, verify
from torelli_euler.bernoulli import CapacityError, bernoulli_table, persist_table
from torelli_euler.certify import MagnitudeWitness, certify_non_integrality, scan
from torelli_euler.exact_core import RationalInterval
from torelli_euler.recheck import certificate, check

from test_recheck import _CLAIM, _run, _set


# The report's check ids, in the suite's order.
_CHECK_IDS = (
    "table-source",
    "bernoulli-irregular-numerators",
    "von-staudt-clausen",
    "zeta-product-14",
    "zeta-lower-bound",
    "euler-product-formula",
    "euler-spot-values",
    "integer-small-m",
    "direct-6-13",
    "magnitude-tail",
    "monotone-decrease",
    "single-term-threshold",
    "threshold-n1",
    "bound-dominates-exact",
    "whole-claim",
    "claim-sharp",
    "closing-bound-forms",
    "pi-enclosure",
)
# The checks that read no table, and so run when none can be had.
_TABLE_FREE = (
    "single-term-threshold", "threshold-n1", "whole-claim", "closing-bound-forms", "pi-enclosure",
)


def _assert_only_table_free_checks_ran(rest):
    assert set(_TABLE_FREE) == verify._TABLE_FREE
    assert [check.id for check in rest if check.status == "pass"] == list(_TABLE_FREE)
    assert all(check.status == "inconclusive" for check in rest if check.id not in _TABLE_FREE)


def test_table_capacity_failure_is_recorded(monkeypatch):
    # A table build that runs out of resources surfaces as CapacityError;
    # the suite records it, marks every table-dependent check inconclusive
    # and runs the rest.
    def exhausted(required, cache):
        raise CapacityError(f"table build for max_index={required} exhausted memory")

    monkeypatch.setattr(verify, "obtain_table", exhausted)
    report = verify.run_verification_suite("standard")
    source, *rest = report.checks
    assert source.id == "table-source" and source.status == "fail"
    assert "exhausted memory" in source.witness
    assert "build failed" in source.witness and "validation" not in source.witness
    assert tuple(check.id for check in report.checks) == _CHECK_IDS
    _assert_only_table_free_checks_ran(rest)
    assert not report.passed


@pytest.mark.parametrize(
    "corrupt, diagnosis",
    [
        (lambda raw: raw + "12 -691/2730\u00e9\n".encode(), "not ASCII"),
        (
            lambda raw: raw.replace(b"max=20", b"max=99999999999"),
            "cache through B_99999999999 has no whole line for B_22",
        ),
    ],
    ids=["non-ascii", "huge-max"],
)
def test_unreadable_cache_is_recorded_as_a_failed_table_source(tmp_path, corrupt, diagnosis):
    # The suite still reports every check: the table source as failed with
    # the cache diagnosis, the 12 checks that need the table as inconclusive.
    cache = tmp_path / "bad.cache"
    persist_table(bernoulli_table(20), cache)
    cache.write_bytes(corrupt(cache.read_bytes()))
    report = verify.run_verification_suite("standard", cache_path=str(cache))
    source, *rest = report.checks
    assert source.id == "table-source" and source.status == "fail"
    assert source.witness.startswith("cache error: ") and diagnosis in source.witness
    assert len(rest) == 17
    _assert_only_table_free_checks_ran(rest)


def test_a_table_that_fails_validation_is_told_apart_from_a_cache_error(tmp_path):
    cache = tmp_path / "bad.cache"
    persist_table(bernoulli_table(20), cache)
    cache.write_text(cache.read_text().replace("12 -691/2730", "12 -697/2730"))
    source, *rest = verify.run_verification_suite("standard", cache_path=str(cache)).checks
    assert source.status == "fail"
    assert source.witness == (
        "table validation failed: B_12 + sum(1/p) is not an integer; numerator corrupt"
    )
    _assert_only_table_free_checks_ran(rest)


def test_an_unwritable_cache_is_recorded_as_a_cache_error(tmp_path):
    cache = tmp_path / "absent" / "bern.cache"
    report = verify.run_verification_suite("standard", cache_path=str(cache))
    source, *rest = report.checks
    assert source.id == "table-source" and source.status == "fail"
    assert source.witness == (
        f"cache error: cannot write cache file {cache}: No such file or directory"
    )
    _assert_only_table_free_checks_ran(rest)


def test_every_check_function_is_registered_once():
    # A check that lost its decorator would drop out of the report unnoticed.
    defined = {fn for name, fn in vars(verify).items() if name.startswith("_check_")}
    registered = [fn for _, _, fn in verify._CHECKS]
    assert len(registered) == len(set(registered))
    assert set(registered) == defined


class _StubTable:
    # The table's even-index values, with B_2k replaced at one k.
    def __init__(self, table, k, value):
        self.table, self.k, self.value = table, k, value

    def even(self, k):
        return self.value if k == self.k else self.table.even(k)


@pytest.mark.parametrize(
    "tamper, diagnosis",
    [
        # B_300 = a/d: a + 1 shares 330 with d and a - 1 shares 2, so a - 6 is
        # the nearest move of a that keeps the denominator d.
        (lambda b: Fraction(b.numerator - 6, b.denominator), "B_2k + sum 1/p not an integer"),
        (lambda b: Fraction(b.numerator, b.denominator * 17), "denominator law broken"),
    ],
    ids=["numerator-moved", "extra-prime"],
)
def test_von_staudt_clausen_fails_on_a_tampered_value(table600, tamper, diagnosis):
    check = next(fn for cid, _, fn in verify._CHECKS if cid == "von-staudt-clausen")
    status, witness = check({"table": _StubTable(table600, 150, tamper(table600.even(150)))})
    assert (status, witness) == ("fail", f"{diagnosis} at 2k = 300")


def test_pi_enclosure_states_its_rational_premises(monkeypatch):
    check = next(fn for cid, _, fn in verify._CHECKS if cid == "pi-enclosure")
    assert check({}) == (
        "pass",
        "pi enclosed at 128 bits, width <= 2^-120, reference value inside, 333/106 < pi < 22/7",
    )
    # An enclosure that meets the width and holds the reference but reaches
    # either premise's bound fails on that premise.
    for bound, diagnosis in (
        (Fraction(333, 106), "the enclosure does not lie above 333/106"),
        (Fraction(22, 7), "the enclosure does not lie below 22/7"),
    ):
        monkeypatch.setattr(verify, "pi_interval", lambda _: RationalInterval(bound, bound))
        monkeypatch.setattr(verify, "PI_REFERENCE", bound)
        assert check({}) == ("fail", diagnosis)


# The checks that read e(m,1) from the suite's one n = 1 column.
_COLUMN_CHECKS = (
    "integer-small-m",
    "direct-6-13",
    "magnitude-tail",
    "monotone-decrease",
    "bound-dominates-exact",
)


@pytest.mark.parametrize("check_id", _COLUMN_CHECKS)
def test_a_column_check_passes_alone(check_id, table600):
    # Run first on a fresh context, the check forms the column itself.
    check = next(fn for cid, _, fn in verify._CHECKS if cid == check_id)
    status, witness = check({"table": table600})
    assert status == "pass", witness


def test_the_column_is_formed_once_per_run(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[:3])
        return scan(*args, **kwargs)

    monkeypatch.setattr(verify, "scan", counted)
    report = verify.run_verification_suite("standard")
    assert report.passed
    assert calls == [((1, 100), (1, 1), "exact")]


def test_standard_is_the_one_mode():
    with pytest.raises(ValueError, match="mode must be 'standard', got 'deep'"):
        verify.run_verification_suite("deep")


# --- the whole claim, from the rechecker's certificate -------------------------------


def test_the_whole_claim_holds_on_its_parts():
    assert certificate(677) == _CLAIM and check(_CLAIM) is None
    # The rechecker's B_0..B_16, from the binomial recurrence, are the package's.
    assert recheck.bernoulli(16) == list(bernoulli_table(16).values)
    whole_claim = next(fn for cid, _, fn in verify._CHECKS if cid == "whole-claim")
    status, witness = whole_claim({})
    assert status == "pass"
    assert witness.startswith("rows 6..7 by 691 and rows 8..54 by 3617, ")
    assert "from m0 = 55 on" in witness and "zeta(2k) > 1" in witness


def test_the_whole_claim_reports_the_recheckers_first_failure(monkeypatch):
    whole_claim = next(fn for cid, _, fn in verify._CHECKS if cid == "whole-claim")
    monkeypatch.setattr(recheck, "check", lambda cert: f"m0 = {cert['m0']} refused")
    assert whole_claim({}) == ("fail", "m0 = 55 refused")


def test_the_whole_claim_witnesses_against_sympy():
    # The certificate's primes and rows, rechecked with none of the package's
    # arithmetic: B_2k and e(m,677) from sympy.  v_p(e(m,n)) never falls as
    # n grows, so v_p < 0 at n = 677 holds at every n <= 677.
    sympy = pytest.importorskip("sympy")

    def zeta(k):
        return -sympy.bernoulli(2 * k) / (2 * k)

    assert sympy.numer(zeta(6)) % 691 == 0 and sympy.numer(zeta(8)) % 3617 == 0
    zetas = [abs(zeta(k)) for k in range(1, 55)]
    first = 6
    for p, _, last in _CLAIM["prime_rows"]:
        for m in range(first, last + 1):
            value = sympy.ff(2 * m + 676, 676) / sympy.prod(zetas[:m])  # e(m,677)
            valuation = sympy.multiplicity(p, sympy.numer(value))
            valuation -= sympy.multiplicity(p, sympy.denom(value))
            assert valuation < 0, (m, p)
        first = last + 1
    assert first == _CLAIM["m0"]


def _tamper(**fields):
    # A tamper that replaces whole fields of the certificate.
    def tamper(cert):
        cert.update(copy.deepcopy(fields))

    return tamper


_DEGREES = "is not A's denominator minus numerator with degrees <= 4 and c >= 0"
_TAMPERED = {
    "segment-dropped": (
        _tamper(prime_rows=[[3617, 8, 54]]),
        "prime row [3617, 8, 54] does not start at row 6 with k <= 6",
    ),
    "rows-short-of-m0": (
        _set(("prime_rows", 1, 2), 39),
        "the prime rows end at row 39, not at m0 - 1 = 54",
    ),
    # 3617 divides no numerator of zeta(1-2k) for k <= 7.
    "witness-prime-changed": (
        _set(("prime_rows", 0, 0), 3617),
        "3617 does not divide the numerator of zeta(-11)",
    ),
    # Row 8 at n = 677 reaches 2m+n-1 = 692 > 691.
    "691-last-row-raised-to-8": (
        _tamper(prime_rows=[[691, 6, 8], [3617, 8, 54]]),
        "691 has a prime factor at most 2m+n-1 or 2m+1 on row 8",
    ),
    "m0-lowered-to-54": (
        _tamper(m0=54, prime_rows=[[691, 6, 7], [3617, 8, 53]]),
        "U(54,677) and its ratio are not both below 1",
    ),
    # Row 7 meets an integer at n = 678: e(7,678) is one.
    "n_max-raised-to-678": (
        _tamper(**certificate(678)),
        "691 has a prime factor at most 2m+n-1 or 2m+1 on row 7",
    ),
    "n_max-past-the-limit": (
        _tamper(n_max=1001),
        "need 1 <= n_max <= 1000 and 2 <= m0 <= 100, got 1001 and 55",
    ),
    "gap-coefficient-negative": (_set(("gap", 4, 2), -22), _DEGREES),
    "gap-coefficient-changed": (_set(("gap", 4, 2), 23), _DEGREES),
    # x(x-1)(x-2)(x-3)(x-4) vanishes on x = 0..4: the sum agrees with A's gap
    # on the whole grid, but its degree in x is 5.
    "gap-plus-a-quintic-zero-on-the-grid": (
        _tamper(gap=[*_CLAIM["gap"], [5, 0, 1], [4, 0, -10], [3, 0, 35], [2, 0, -50], [1, 0, 24]]),
        _DEGREES,
    ),
    "field-added": (
        _tamper(premises=[]),
        "a certificate has exactly the fields n_max, m0, prime_rows and gap",
    ),
}


def _refused(recheck_copy, cert, name):
    # The first failure, in process and from the copied module, which exits 1.
    failure = check(cert)
    path = recheck_copy.parent / f"{name}.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    proc = _run(recheck_copy, path.name)
    assert proc.returncode == 1 and proc.stderr == f"FAIL: {failure}\n"
    assert "PASS" not in proc.stdout
    return failure


@pytest.mark.parametrize("case", list(_TAMPERED))
def test_a_tampered_part_of_the_whole_claim_is_rejected(recheck_copy, case):
    tamper, diagnosis = _TAMPERED[case]
    cert = copy.deepcopy(_CLAIM)
    tamper(cert)
    assert diagnosis in _refused(recheck_copy, cert, case)


def test_a_witness_prime_changed_so_that_it_witnesses_nothing_is_refused(recheck_copy):
    # 3613 is prime, above 2m+n-1 on rows 8..54, and divides neither numerator.
    cert = copy.deepcopy(_CLAIM)
    _set(("prime_rows", 1, 0), 3613)(cert)
    failure = _refused(recheck_copy, cert, "3613")
    assert failure == "3613 does not divide the numerator of zeta(-15)"


@settings(max_examples=200, deadline=None)
@given(m=st.integers(55, 600), n=st.integers(1, 677))
def test_the_bound_certifies_every_point_past_m0(m, n):
    # The conclusion of the whole claim's bound part, past the chain's cap of 64.
    assert isinstance(certify_non_integrality(m, n, "bound"), MagnitudeWitness)
