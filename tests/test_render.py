import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torelli_euler.certify import (
    Inconclusive,
    IntegerValue,
    MagnitudeWitness,
    PrimeWitness,
    certify_non_integrality,
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
from torelli_euler.exact_core import p_adic_valuation
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
    # Only decimal strings: not a bool, a number, or digits with a sign or a
    # leading zero.
    for bad in ({"num": "1", "den": True}, {"num": 1, "den": "2"}, {"num": "1", "den": "+2"},
                {"num": "01", "den": "2"}):
        with pytest.raises(ValueError):
            rational_from_json(bad)


def _sample_certificates():
    return [
        IntegerValue(value=12),
        PrimeWitness(value=Fraction(1, 691), p=691, valuation=-1),
        MagnitudeWitness(upper=Fraction(1, 3), statement="0 < e(14,1) < 1"),
        Inconclusive(reason="bound not below 1"),
    ]


def test_certificate_json_round_trip(table600):
    # Besides the samples, one of each kind as the library computes it: exact
    # e(1,1) and e(6,1), bound e(14,1) and e(13,1).
    computed = [
        *(certify_non_integrality(m, 1, "exact", table600) for m in (1, 6)),
        *(certify_non_integrality(m, 1, "bound") for m in (14, 13)),
    ]
    kinds = [certificate_to_json(cert)["kind"] for cert in computed]
    assert kinds == ["integer", "prime-witness", "magnitude", "inconclusive"]
    for cert in _sample_certificates() + computed:
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
        {"kind": "integer", "value": "True"},
        # The three valuation-witness blobs are of a kind the reader does not
        # know, so each is refused whatever its fields.
        {"kind": "valuation-witness", "m": 6, "n_last": 1, "p": "691", "valuation": -1,
         "zeta_valuations": [[6, 1]]},
        {"kind": "integer", "value": True},
        {"kind": "integer", "value": 12},
        {"kind": "integer", "value": "+12"},
        {"kind": "integer", "value": "012"},
        {"kind": "prime-witness", "value": {"num": "1", "den": "691"}, "p": 691.0,
         "valuation": -1.5},
        {"kind": "prime-witness", "value": {"num": "1", "den": "691"}, "p": "691",
         "valuation": -1.0},
        {"kind": "valuation-witness", "m": 6.0, "n_first": 1, "n_last": 1, "p": "691",
         "valuation": -1, "zeta_valuations": [[6, 1]]},
        {"kind": "valuation-witness", "m": 6, "n_first": 1, "n_last": 1, "p": "691",
         "valuation": -1, "zeta_valuations": [[6, True]]},
    ],
    ids=["zero-denominator", "negative-denominator", "missing-field", "field-type",
         "bool-text", "no-n_first", "bool-value", "number-value", "plus-sign", "leading-zero",
         "float-p-and-valuation", "float-valuation", "float-m", "bool-zeta-valuation"],
)
def test_malformed_certificate_json_is_a_value_error(blob):
    with pytest.raises(ValueError):
        certificate_from_json(blob)


def test_bound_witness_json_round_trip():
    # A witness as the bound path builds it, with a power-of-two denominator.
    cert = certify_non_integrality(150, 600, "bound")
    assert isinstance(cert, MagnitudeWitness)
    restored = certificate_from_json(json.loads(dumps(certificate_to_json(cert))))
    assert restored == cert and type(restored.upper) is Fraction
    assert (restored.upper.numerator, restored.upper.denominator) == (
        cert.upper.numerator, cert.upper.denominator
    )


def test_certificate_text_forms():
    texts = [certificate_text(cert) for cert in _sample_certificates()]
    assert texts[0] == "integer: 12"
    assert "v_691 = -1" in texts[1]
    assert "0 < e(14,1) < 1" in texts[2]
    assert texts[3].startswith("inconclusive")


def test_dumps_writes_one_line_that_loads_back():
    # Every certificate kind and a report: one line, sorted keys, the
    # separators ", " and ": ", and json.loads gives back what was dumped.
    certs = _sample_certificates()
    assert {type(cert) for cert in certs} == {
        IntegerValue, PrimeWitness, MagnitudeWitness, Inconclusive
    }
    check = CheckResult(id="a", paper_ref="r", status="pass", witness="w …", elapsed_s=0.5)
    report = report_to_json(VerificationReport(mode="standard", checks=(check,)))
    for obj in [*map(certificate_to_json, certs), report]:
        text = dumps(obj)
        assert "\n" not in text
        assert json.loads(text) == obj
        assert text == json.dumps(obj, sort_keys=True, ensure_ascii=False)
    assert dumps({"p": "691", "a": [1, 2]}) == '{"a": [1, 2], "p": "691"}'
    assert "…" in dumps(report)


# Text without lone surrogates, which UTF-8 cannot carry.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
# Integers of every size the decimal conversion tells apart: up to a few
# hundred bits, and past 10,000 bits, where it splits by powers of ten.
_INTEGERS = st.one_of(
    st.integers(),
    st.builds(lambda a, e: a * 7**e + 1, st.integers(), st.integers(3600, 12_000)),
)


@st.composite
def _prime_witnesses(draw):
    p = draw(st.sampled_from([2, 3, 691, 3617]))
    numerator = draw(_INTEGERS.filter(lambda a: a % p))
    value = Fraction(numerator, p ** draw(st.integers(1, 40)) * draw(st.integers(1, 10**30)))
    return PrimeWitness(value=value, p=p, valuation=p_adic_valuation(value, p))


@st.composite
def _magnitude_witnesses(draw):
    denominator = draw(st.integers(2, 1 << 200))
    upper = Fraction(draw(st.integers(1, denominator - 1)), denominator)
    return MagnitudeWitness(upper=upper, statement=draw(_TEXT))


_CERTIFICATES = st.one_of(
    st.builds(IntegerValue, _INTEGERS),
    _prime_witnesses(),
    _magnitude_witnesses(),
    st.builds(Inconclusive, _TEXT),
)


@st.composite
def _reports(draw):
    ids = draw(st.lists(_TEXT, unique=True, max_size=6))
    elapsed = st.floats(0, 1e6, allow_nan=False) | st.integers(0, 10**6)
    checks = tuple(
        CheckResult(
            id=check_id,
            paper_ref=draw(_TEXT),
            status=draw(st.sampled_from(["pass", "fail", "inconclusive"])),
            witness=draw(_TEXT),
            elapsed_s=draw(elapsed),
        )
        for check_id in ids
    )
    return VerificationReport(mode="standard", checks=checks)


@settings(max_examples=150, deadline=None)
@given(record=_CERTIFICATES | _reports())
def test_dumped_json_loads_back_and_dumps_again_byte_identically(record):
    # Every certificate kind and a report: the dumped JSON reads back to the
    # same record, and that record dumps to the same bytes.
    if isinstance(record, VerificationReport):
        to_json, from_json = report_to_json, report_from_json
    else:
        to_json, from_json = certificate_to_json, certificate_from_json
    text = dumps(to_json(record))
    restored = from_json(json.loads(text))
    assert restored == record
    assert dumps(to_json(restored)).encode() == text.encode()


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
        edited(lambda blob: blob["summary"].update({"pass": True})),
        edited(lambda blob: blob["summary"].update(fail=0.0)),
        edited(lambda blob: blob.update(summary=None)),
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
