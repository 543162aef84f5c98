"""Deterministic text and JSON rendering of exact values and certificates.

Decimal display truncates toward zero and marks any discarded nonzero tail,
so printed digits are always correct leading digits of the exact value.
JSON carries all arbitrary-precision numbers as decimal strings; rationals
are {"num": ..., "den": ...} objects and certificates are tagged by "kind".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .certify import (
    BoundSequence,
    Certificate,
    Inconclusive,
    IntegerValue,
    MagnitudeWitness,
    PrimeWitness,
)
from .exact_core import RationalInterval, decimal_to_int, int_to_decimal

__all__ = [
    "TRUNCATION_MARK",
    "certificate_from_json",
    "certificate_text",
    "certificate_to_json",
    "decimal_string",
    "dumps",
    "format_rational",
    "interval_to_json",
    "rational_from_json",
    "rational_to_json",
]

TRUNCATION_MARK = "…"


def decimal_string(q: Fraction, digits: int) -> str:
    """Decimal expansion of q with `digits` fractional digits, truncated toward zero."""
    if digits < 1:
        raise ValueError(f"digits must be positive, got {digits}")
    sign = "-" if q < 0 else ""
    magnitude = -q if q < 0 else q
    whole, remainder = divmod(magnitude.numerator, magnitude.denominator)
    fractional, tail = divmod(remainder * 10**digits, magnitude.denominator)
    text = f"{sign}{int_to_decimal(whole)}.{int_to_decimal(fractional).zfill(digits)}"
    return text + TRUNCATION_MARK if tail else text


def format_rational(q: Fraction, digits: int = 12) -> str:
    """`num/den ≈ decimal` for proper fractions, plain digits for integers."""
    if q.denominator == 1:
        return int_to_decimal(q.numerator)
    return (
        f"{int_to_decimal(q.numerator)}/{int_to_decimal(q.denominator)} "
        f"≈ {decimal_string(q, digits)}"
    )


def rational_to_json(q: Fraction) -> dict[str, str]:
    return {"num": int_to_decimal(q.numerator), "den": int_to_decimal(q.denominator)}


def _json_int(value: Any) -> int:
    # A field written as a JSON integer.  json.loads reads 12 as an int and
    # 12.0 as a float; a bool is an int to Python, but not to JSON.
    if type(value) is not int:
        raise ValueError(f"not a JSON integer: {value!r}")
    return value


def rational_from_json(obj: Any) -> Fraction:
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise ValueError(f"not a rational object: {obj!r}")
    denominator = decimal_to_int(obj["den"])
    if denominator <= 0:
        raise ValueError(f"rational denominator must be positive: {obj!r}")
    return Fraction(decimal_to_int(obj["num"]), denominator)


def interval_to_json(interval: RationalInterval) -> dict[str, Any]:
    return {"lo": rational_to_json(interval.lo), "hi": rational_to_json(interval.hi)}


def bound_sequence_to_json(seq: BoundSequence) -> dict[str, Any]:
    return {
        "m": seq.m,
        "n": seq.n,
        "value": interval_to_json(seq.value),
        "ratio_next": interval_to_json(seq.ratio_next),
    }


def certificate_to_json(cert: Certificate) -> dict[str, Any]:
    if isinstance(cert, IntegerValue):
        return {"kind": "integer", "value": int_to_decimal(cert.value)}
    if isinstance(cert, PrimeWitness):
        return {
            "kind": "prime-witness",
            "value": rational_to_json(cert.value),
            "p": str(cert.p),
            "valuation": cert.valuation,
        }
    if isinstance(cert, MagnitudeWitness):
        return {
            "kind": "magnitude",
            "upper": rational_to_json(cert.upper),
            "statement": cert.statement,
        }
    if isinstance(cert, Inconclusive):
        return {"kind": "inconclusive", "reason": cert.reason}
    raise TypeError(f"not a certificate: {cert!r}")


def certificate_from_json(obj: Any) -> Certificate:
    """Rebuild a certificate; construction reruns its soundness checks."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"not a certificate object: {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "integer":
            return IntegerValue(value=decimal_to_int(obj["value"]))
        if kind == "prime-witness":
            return PrimeWitness(
                value=rational_from_json(obj["value"]),
                p=decimal_to_int(obj["p"]),
                valuation=_json_int(obj["valuation"]),
            )
        if kind == "magnitude":
            return MagnitudeWitness(
                upper=rational_from_json(obj["upper"]), statement=str(obj["statement"])
            )
        if kind == "inconclusive":
            return Inconclusive(reason=str(obj["reason"]))
    except (KeyError, TypeError) as exc:  # a missing field, or one of the wrong type
        raise ValueError(f"malformed {kind} certificate: {exc!r}") from None
    raise ValueError(f"unknown certificate kind {kind!r}")


def certificate_text(cert: Certificate, digits: int = 12) -> str:
    if isinstance(cert, IntegerValue):
        return f"integer: {int_to_decimal(cert.value)}"
    if isinstance(cert, PrimeWitness):
        return (
            f"non-integer (prime witness): v_{cert.p} = {cert.valuation} "
            f"of {format_rational(cert.value, digits)}"
        )
    if isinstance(cert, MagnitudeWitness):
        return (
            f"non-integer (magnitude witness): {cert.statement}, "
            f"certified upper bound {decimal_string(cert.upper, digits)}"
        )
    if isinstance(cert, Inconclusive):
        return f"inconclusive: {cert.reason}"
    raise TypeError(f"not a certificate: {cert!r}")


def dumps(obj: Any) -> str:
    """Canonical JSON: one line, sorted keys, UTF-8 text.

    With no indent the standard library's C encoder writes it; `python -m
    json.tool` indents it for reading.
    """
    import json  # only JSON output pays for the import

    return json.dumps(obj, sort_keys=True, ensure_ascii=False)
