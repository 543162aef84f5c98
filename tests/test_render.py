import json
from fractions import Fraction

import pytest

from torelli_euler.certify import (
    CertificateError,
    Inconclusive,
    IntegerValue,
    MagnitudeWitness,
    PrimeWitness,
    ValuationWitness,
    certify_non_integrality,
    ledger_scan,
)
from torelli_euler.render import (
    certificate_from_json,
    certificate_text,
    certificate_to_json,
    decimal_string,
    dumps,
    format_rational,
    rational_from_json,
    rational_to_json,
)
from torelli_euler.verify import (
    CheckResult,
    VerificationReport,
    report_from_json,
    report_to_json,
)


def test_decimal_string_truncates_toward_zero_and_marks():
    assert decimal_string(Fraction(-1, 1440), 6) == "-0.000694…"
    assert decimal_string(Fraction(1, 8), 3) == "0.125"
    assert decimal_string(Fraction(1, 8), 6) == "0.125000"
    assert decimal_string(Fraction(2, 3), 4) == "0.6666…"
    assert decimal_string(Fraction(-2, 3), 4) == "-0.6666…"  # toward zero, not floor
    assert decimal_string(Fraction(5), 2) == "5.00"
    with pytest.raises(ValueError):
        decimal_string(Fraction(1, 3), 0)


def test_format_rational():
    assert format_rational(Fraction(12)) == "12"
    assert format_rational(Fraction(-1, 1440), 6) == "-1/1440 ≈ -0.000694…"


def test_rational_json_round_trip():
    for q in (Fraction(0), Fraction(-691, 2730), Fraction(10**40 + 1, 3)):
        assert rational_from_json(rational_to_json(q)) == q
    with pytest.raises(ValueError):
        rational_from_json({"num": "1"})


def _sample_certificates():
    return [
        IntegerValue(value=12),
        PrimeWitness(value=Fraction(1, 691), p=691, valuation=-1),
        MagnitudeWitness(upper=Fraction(1, 3), statement="0 < e(14,1) < 1"),
        Inconclusive(reason="bound not below 1"),
    ]


def test_certificate_json_round_trip():
    for cert in _sample_certificates():
        blob = dumps(certificate_to_json(cert))
        assert certificate_from_json(json.loads(blob)) == cert


def test_certificate_json_shapes():
    integer, witness, magnitude, inconclusive = map(
        certificate_to_json, _sample_certificates()
    )
    assert integer == {"kind": "integer", "value": "12"}
    assert witness["kind"] == "prime-witness"
    assert witness["p"] == "691" and witness["valuation"] == -1
    assert magnitude["kind"] == "magnitude"
    assert inconclusive == {"kind": "inconclusive", "reason": "bound not below 1"}


def test_certificate_json_rejects_unsound_witness():
    blob = certificate_to_json(_sample_certificates()[1])
    blob["valuation"] = -2
    with pytest.raises(Exception):
        certificate_from_json(blob)


@pytest.mark.parametrize(
    "blob",
    [
        {"kind": "magnitude", "upper": {"num": "1", "den": "0"}, "statement": "x"},
        {"kind": "prime-witness", "value": {"num": "1", "den": "-691"}, "p": "691",
         "valuation": -1},
        {"kind": "integer"},
        {"kind": "integer", "value": None},
    ],
    ids=["zero-denominator", "negative-denominator", "missing-field", "field-type"],
)
def test_malformed_certificate_json_is_a_value_error(blob):
    with pytest.raises(ValueError):
        certificate_from_json(blob)


def _ledger_certificates(table600):
    # e(200,677): the window (400, 1076] holds 691 once, and 691 divides
    # zeta(-11) and zeta(-199); e(99,600) is witnessed by 3617 alone.
    return [
        next(ledger_scan((m, m), (n, n), table600)).certificate
        for m, n in ((200, 677), (99, 600))
    ]


def test_bound_witness_json_round_trip():
    # A witness as the bound path builds it, with a power-of-two denominator.
    cert = certify_non_integrality(150, 600, "bound")
    assert isinstance(cert, MagnitudeWitness)
    restored = certificate_from_json(json.loads(dumps(certificate_to_json(cert))))
    assert restored == cert and type(restored.upper) is Fraction
    assert (restored.upper.numerator, restored.upper.denominator) == (
        cert.upper.numerator, cert.upper.denominator
    )


def test_valuation_witness_json_round_trip(table600):
    certs = _ledger_certificates(table600)
    assert certs == [
        ValuationWitness(200, 677, 691, -1, ((6, 1), (100, 1))),
        ValuationWitness(99, 600, 3617, -1, ((8, 1),)),
    ]
    for cert in certs:
        blob = dumps(certificate_to_json(cert))
        assert certificate_from_json(json.loads(blob)) == cert
    assert certificate_to_json(certs[1]) == {
        "kind": "valuation-witness",
        "m": 99,
        "n": 600,
        "p": "3617",
        "valuation": -1,
        "zeta_valuations": [[8, 1]],
    }
    assert certificate_text(certs[0]) == (
        "non-integer (valuation witness): v_691 = -1 of e(200,677); "
        "nonzero v_691(zeta(1-2k)): k=6: 1, k=100: 1"
    )


@pytest.mark.parametrize(
    "tamper",
    [
        lambda blob: blob.update(p="3617"),
        lambda blob: blob.update(valuation=-2),
        lambda blob: blob["zeta_valuations"][1].__setitem__(1, 2),
    ],
    ids=["p", "valuation", "listed-entry"],
)
def test_valuation_witness_json_rejects_tampering(table600, tamper):
    blob = json.loads(dumps(certificate_to_json(_ledger_certificates(table600)[0])))
    tamper(blob)
    with pytest.raises(CertificateError):
        certificate_from_json(blob)


def test_certificate_text_forms():
    texts = [certificate_text(cert) for cert in _sample_certificates()]
    assert texts[0] == "integer: 12"
    assert "v_691 = -1" in texts[1]
    assert "0 < e(14,1) < 1" in texts[2]
    assert texts[3].startswith("inconclusive")


def test_dumps_is_deterministic():
    cert = certificate_to_json(_sample_certificates()[1])
    assert dumps(cert) == dumps(json.loads(dumps(cert)))


def test_report_json_round_trip():
    report = VerificationReport(
        mode="standard",
        checks=(
            CheckResult(id="a", paper_ref="r1", status="pass", witness="w1", elapsed_s=0.0),
            CheckResult(id="b", paper_ref="r2", status="fail", witness="w2", elapsed_s=0.1),
            CheckResult(id="c", paper_ref="r3", status="inconclusive", witness="w3", elapsed_s=3),
        ),
    )
    blob = dumps(report_to_json(report))
    restored = report_from_json(json.loads(blob))
    assert restored == report
    assert [check.elapsed_s for check in restored.checks] == [0.0, 0.1, 3]
    assert report.summary == {"pass": 1, "fail": 1, "inconclusive": 1}
    assert not report.passed


def test_report_rejects_duplicate_ids_and_bad_summary():
    check = CheckResult(id="a", paper_ref="r", status="pass", witness="w", elapsed_s=0.5)
    with pytest.raises(ValueError):
        VerificationReport(mode="standard", checks=(check, check))
    good = report_to_json(VerificationReport(mode="standard", checks=(check,)))

    def edited(edit):
        blob = json.loads(json.dumps(good))
        edit(blob)
        return blob

    def check_with(**changes):
        return edited(lambda blob: blob["checks"][0].update(changes))

    malformed = [
        edited(lambda blob: blob["summary"].update(fail=3)),
        {"mode": "standard"},
        [],
        None,
        edited(lambda blob: blob.update(checks={"a": 1})),
        edited(lambda blob: blob.update(mode="bogus")),
        edited(lambda blob: blob.pop("mode")),
        edited(lambda blob: blob["checks"][0].pop("paper_ref")),
        edited(lambda blob: blob["checks"][0].pop("elapsed_s")),
        check_with(elapsed_s="0.5"),
        check_with(elapsed_s=True),
        check_with(elapsed_s=-1.0),
        check_with(id=7),
        check_with(witness=None),
        check_with(status="passed"),
    ]
    for blob in malformed:
        with pytest.raises(ValueError):
            report_from_json(blob)
    assert report_from_json(good).checks == (check,)
