"""The package's immutable records: repr, equality, hash, immutability and
construction, as the frozen dataclasses they replace behaved."""

import copy
import pickle
from fractions import Fraction

import pytest

from torelli_euler import (
    BernoulliTable,
    BoundSequence,
    CertificateError,
    CheckResult,
    Inconclusive,
    IntegerValue,
    MagnitudeWitness,
    PrimeWitness,
    RationalInterval,
    ScanPoint,
    ThresholdResult,
    VerificationReport,
    bernoulli_table,
)
from torelli_euler.bernoulli import CONVENTION
from torelli_euler.certify import WideRangeBoundForms

_IV = "RationalInterval(lo=Fraction(1, 3), hi=Fraction(1, 2))"
_BS = f"BoundSequence(m=1, n=2, value={_IV}, ratio_next={_IV})"
_PW = "PrimeWitness(value=Fraction(1, 691), p=691, valuation=-1)"
_CR = "CheckResult(id='x', paper_ref='ref', status='pass', witness='w', elapsed_s=0.5)"


def _records():
    """One new instance of each record, and the repr its dataclass printed."""
    iv = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    bound = BoundSequence(m=1, n=2, value=iv, ratio_next=iv)
    witness = PrimeWitness(Fraction(1, 691), 691, -1)
    check = CheckResult("x", "ref", "pass", "w", 0.5)
    return [
        (
            bernoulli_table(4),
            "BernoulliTable(max_index=4, values=(Fraction(1, 1), Fraction(-1, 2), "
            "Fraction(1, 6), Fraction(0, 1), Fraction(-1, 30)), convention='minus-half')",
        ),
        (IntegerValue(12), "IntegerValue(value=12)"),
        (witness, _PW),
        (
            MagnitudeWitness(Fraction(1, 2), "0 < e(14,1) < 1"),
            "MagnitudeWitness(upper=Fraction(1, 2), statement='0 < e(14,1) < 1')",
        ),
        (Inconclusive("no witness"), "Inconclusive(reason='no witness')"),
        (bound, _BS),
        (
            ThresholdResult(n=1, m_cap=64, m_found=None, chain=(bound,)),
            f"ThresholdResult(n=1, m_cap=64, m_found=None, chain=({_BS},))",
        ),
        (ScanPoint(6, 1, witness), f"ScanPoint(m=6, n=1, certificate={_PW})"),
        (
            WideRangeBoundForms(3, iv, iv),
            f"WideRangeBoundForms(m=3, per_index_product={_IV}, constant_factor_product={_IV})",
        ),
        (iv, _IV),
        (check, _CR),
        (
            VerificationReport("standard", (check,)),
            f"VerificationReport(mode='standard', checks=({_CR},))",
        ),
    ]


_NAMES = [type(record).__name__ for record, _ in _records()]


def test_every_record_is_covered_once():
    assert len(_NAMES) == len(set(_NAMES)) == 12


@pytest.mark.parametrize("index", range(12), ids=_NAMES)
def test_repr_is_the_dataclass_text(index):
    record, text = _records()[index]
    assert repr(record) == text


@pytest.mark.parametrize("index", range(12), ids=_NAMES)
def test_equal_records_compare_and_hash_equal(index):
    record, twin = _records()[index][0], _records()[index][0]
    assert record is not twin
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)


def test_records_of_different_classes_never_compare_equal():
    records = [record for record, _ in _records()]
    for a in records:
        for b in records:
            assert (a == b) is (a is b)
    # Same field values, another class: not equal, and no error either way.
    witness = PrimeWitness(Fraction(1, 691), 691, -1)
    assert witness != (Fraction(1, 691), 691, -1) and (Fraction(1, 691), 691, -1) != witness
    assert IntegerValue(12) != 12
    point = RationalInterval(Fraction(1, 2), Fraction(1, 2))
    assert point != RationalInterval(Fraction(1, 2), Fraction(2, 3))


@pytest.mark.parametrize("index", range(12), ids=_NAMES)
def test_fields_cannot_be_assigned_or_deleted(index):
    record = _records()[index][0]
    for name in record._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert repr(record) == _records()[index][1]


@pytest.mark.parametrize("index", range(12), ids=_NAMES)
def test_copies_and_pickles_are_equal_records(index):
    record = _records()[index][0]
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record


def test_construction_by_keyword_with_the_defaults():
    values = bernoulli_table(4).values
    table = BernoulliTable(max_index=4, values=values)
    assert table.convention == CONVENTION == "minus-half"
    assert table == BernoulliTable(4, values, CONVENTION)
    witness = PrimeWitness(value=Fraction(1, 691), p=691, valuation=-1)
    assert witness == PrimeWitness(Fraction(1, 691), 691, -1)
    assert ScanPoint(m=6, n=1, certificate=witness) == ScanPoint(6, 1, witness)
    assert RationalInterval(lo=1, hi=2) == RationalInterval(Fraction(1), Fraction(2))
    check = CheckResult(id="x", paper_ref="ref", status="pass", witness="w", elapsed_s=0.5)
    assert check == CheckResult("x", "ref", "pass", "w", 0.5)
    with pytest.raises(TypeError):
        ScanPoint(6, 1)
    with pytest.raises(TypeError):
        IntegerValue(12, 13)


def test_construction_still_validates():
    with pytest.raises(ValueError):
        RationalInterval(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(CertificateError):
        PrimeWitness(Fraction(1, 691), 691, 1)
    with pytest.raises(ValueError):
        CheckResult("x", "ref", "maybe", "w", 0.5)
