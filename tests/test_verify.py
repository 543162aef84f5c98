from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torelli_euler import verify
from torelli_euler.bernoulli import CapacityError, bernoulli_table, persist_table
from torelli_euler.certify import (
    CertificateError,
    MagnitudeWitness,
    ValuationWitness,
    certify_non_integrality,
    ledger_segments,
    scan,
    threshold_for_n,
    upper_bound_interval,
)
from torelli_euler.exact_core import RationalInterval


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


def test_table_capacity_failure_is_recorded(monkeypatch):
    # A table build that runs out of resources surfaces as CapacityError;
    # the suite records it and marks every table-dependent check.
    def exhausted(required, cache):
        raise CapacityError(f"table build for max_index={required} exhausted memory")

    monkeypatch.setattr(verify, "obtain_table", exhausted)
    report = verify.run_verification_suite("standard")
    source, *rest = report.checks
    assert source.id == "table-source" and source.status == "fail"
    assert "exhausted memory" in source.witness
    assert "build failed" in source.witness and "validation" not in source.witness
    assert tuple(check.id for check in report.checks) == _CHECK_IDS
    assert all(check.status == "inconclusive" for check in rest)
    assert not report.passed


@pytest.mark.parametrize(
    "corrupt, diagnosis",
    [
        (lambda raw: raw + "12 -691/2730\u00e9\n".encode(), "not ASCII"),
        (lambda raw: raw.replace(b"max=20", b"max=99999999999"), "declares max=99999999999"),
    ],
    ids=["non-ascii", "huge-max"],
)
def test_unreadable_cache_is_recorded_as_a_failed_table_source(tmp_path, corrupt, diagnosis):
    # The suite still reports every check: the table source as failed with
    # the cache diagnosis, the 17 checks that need the table as inconclusive.
    cache = tmp_path / "bad.cache"
    persist_table(bernoulli_table(20), cache)
    cache.write_bytes(corrupt(cache.read_bytes()))
    report = verify.run_verification_suite("standard", cache_path=str(cache))
    source, *rest = report.checks
    assert source.id == "table-source" and source.status == "fail"
    assert source.witness.startswith("table validation failed: ") and diagnosis in source.witness
    assert len(rest) == 17
    assert all(check.status == "inconclusive" for check in rest)


def test_an_unwritable_cache_is_recorded_as_a_cache_error(tmp_path):
    cache = tmp_path / "absent" / "bern.cache"
    report = verify.run_verification_suite("standard", cache_path=str(cache))
    source, *rest = report.checks
    assert source.id == "table-source" and source.status == "fail"
    assert source.witness == (
        f"cache error: cannot write cache file {cache}: No such file or directory"
    )
    assert all(check.status == "inconclusive" for check in rest)


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


# --- the whole claim from its parts ------------------------------------------------


@pytest.fixture(scope="module")
def claim_parts(table600):
    # The rows below m0 = 55 and the first link of the bound's chain at n = 677.
    witnesses = tuple(ledger_segments((6, 54), (1, 677), table600))
    return witnesses, threshold_for_n(677).chain[0], 677, table600


def test_the_whole_claim_holds_on_its_parts(claim_parts):
    status, witness = verify._prove_claim(*claim_parts)
    assert status == "pass"
    assert witness.startswith(
        "rows m = 6..54 by 96 valuation witnesses (49 with p = 691, 47 with p = 3617); "
        "from m0 = 55 on, "
    )
    assert "zeta(2k) > 1" in witness


def test_the_whole_claim_witnesses_against_sympy(claim_parts):
    # The 96 runs of the whole claim, rechecked with none of the package's
    # arithmetic: B_2k from sympy, v_p(N!) summed afresh.
    sympy = pytest.importorskip("sympy")

    def v_p(q, p):
        return sympy.multiplicity(p, q.p) - sympy.multiplicity(p, q.q)

    def legendre(big_n, p):
        total, power = 0, p
        while power <= big_n:
            total, power = total + big_n // power, power * p
        return total

    witnesses = claim_parts[0]
    assert [w.p for w in witnesses].count(691) == 49
    assert [w.p for w in witnesses].count(3617) == 47 and len(witnesses) == 96
    # zeta(1-2k) = -B_2k/(2k).
    zetas = [-sympy.bernoulli(2 * k) / (2 * k) for k in range(1, 55)]
    rows = {}
    for w in witnesses:
        rows.setdefault(w.m, []).append(w)
        nonzero = [(k, v) for k in range(1, w.m + 1) if (v := v_p(zetas[k - 1], w.p))]
        assert w.zeta_valuations == tuple(nonzero), (w.m, w.p)
        bar = sum(v for _, v in nonzero)

        def valuation(n):
            return legendre(2 * w.m + n - 1, w.p) - legendre(2 * w.m, w.p) - bar

        assert valuation(w.n_last) == w.valuation < 0, (w.m, w.p)
        assert w.n_last == 677 or valuation(w.n_last + 1) >= 0, (w.m, w.p)
    assert list(rows) == list(range(6, 55))
    for m, row in rows.items():
        assert [w.n_first for w in row] == [1, *(w.n_last + 1 for w in row[:-1])], m
        assert row[-1].n_last == 677, m


def _reissued(witnesses, index, p):
    # One witness reissued for the prime p, with its run, valuation and zeta
    # valuations kept.
    w = witnesses[index]
    forged = ValuationWitness(w.m, w.n_first, w.n_last, p, w.valuation, w.zeta_valuations)
    return (*witnesses[:index], forged, *witnesses[index + 1 :])


def _raised_n_max(witnesses, link, n_max, table):
    # Row 7 meets an integer at n = 678.
    witnesses = tuple(ledger_segments((6, 54), (1, 678), table))
    return witnesses, threshold_for_n(678).chain[0], 678, table


_TAMPERED = {
    # Rows 6 and 7 have one run each, rows 8 on two: witness 10 opens row 12.
    "segment-dropped": (
        lambda witnesses, *rest: (witnesses[:10] + witnesses[11:], *rest),
        "no valuation witness starts at (m, n) = (12, 1)",
    ),
    "rows-short-of-m0": (
        lambda witnesses, *rest: (tuple(w for w in witnesses if w.m < 40), *rest),
        "no valuation witness starts at (m, n) = (40, 1)",
    ),
    # The diff of 3617 is 0 on row 6, so the reissued witness rechecks; its
    # zeta valuation at k = 6 is 691's, not the table's for 3617.
    "witness-prime-changed": (
        lambda witnesses, *rest: (_reissued(witnesses, 0, 3617), *rest),
        "the witness of (6, 1..677) lists zeta valuations not the table's",
    ),
    "m0-lowered-to-54": (
        lambda witnesses, link, *rest: (witnesses, upper_bound_interval(54, 677), *rest),
        "U(54,677) and its ratio are not both certified below 1",
    ),
    "n_max-raised-to-678": (
        _raised_n_max,
        "no valuation witness starts at (m, n) = (7, 678)",
    ),
    "gap-coefficient-negative": (
        lambda *parts: (*parts, verify._RATIO_GAP[:4] + ((0, 1, -22),)),
        "is not A's with degrees <= 4 and no negative coefficient",
    ),
    "gap-coefficient-changed": (
        lambda *parts: (*parts, verify._RATIO_GAP[:4] + ((0, 1, 23),)),
        "is not A's with degrees <= 4 and no negative coefficient",
    ),
    # x(x-1)(x-2)(x-3)(x-4) vanishes on x = 0..4: the sum agrees with A's gap
    # on the whole grid, but its degree in x is 5.
    "gap-plus-a-quintic-zero-on-the-grid": (
        lambda *parts: (
            *parts,
            verify._RATIO_GAP + ((5, 0, 1), (4, 0, -10), (3, 0, 35), (2, 0, -50), (1, 0, 24)),
        ),
        "is not A's with degrees <= 4 and no negative coefficient",
    ),
}


@pytest.mark.parametrize("case", list(_TAMPERED))
def test_a_tampered_part_of_the_whole_claim_is_rejected(claim_parts, case):
    tamper, diagnosis = _TAMPERED[case]
    status, witness = verify._prove_claim(*tamper(*claim_parts))
    assert status == "fail" and diagnosis in witness


def test_a_witness_prime_changed_so_that_it_witnesses_nothing_is_refused(claim_parts):
    # v_683 of (2m+n-1)!/(2m)! is 1 on row 6 at n = 677: the reissued valuation is 0.
    with pytest.raises(CertificateError):
        _reissued(claim_parts[0], 0, 683)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(55, 600), n=st.integers(1, 677))
def test_the_bound_certifies_every_point_past_m0(m, n):
    # The conclusion of the whole claim's bound part, past the chain's cap of 64.
    assert isinstance(certify_non_integrality(m, n, "bound"), MagnitudeWitness)
