"""The end-to-end verification suite behind `torelli-euler verify-paper`.

Every computer-checkable claim in scope is a named check with a stable id;
the suite runs them in deterministic order, records pass/fail/inconclusive
with a rendered witness and the check's wall time (`CheckResult.elapsed_s`,
table acquisition included for `table-source`), and never lets one check's
failure stop the rest.  `_CHECKS` is the one encoding of each claim: the
acceptance tests run the suite and assert every check, rather than
restating them.
Standard mode works over a Bernoulli table to index 600 and scans the wide
grid to m = 200; deep mode extends the table to index 2940 and the scan to
m = 1470.  The wide-grid scan reads its witnesses off the valuation ledger
as row segments (`certify.ledger_segments`): one rechecked witness per
prime per row covers a run of points, so a row costs about ten Legendre
sums per prime, and no exact ~10^5-digit e(m,n) is formed.
"""

from __future__ import annotations

import json
import math
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from .bernoulli import (
    BernoulliTable,
    CacheError,
    CachePathError,
    CapacityError,
    bernoulli_table,
    load_table,
    obtain_table,
    persist_table,
    _von_staudt_clausen_prime_lists,
)
from .certify import (
    DEEP_MAX_M,
    Inconclusive,
    IntegerValue,
    MAX_WITNESSED_N,
    PrimeWitness,
    ValuationWitness,
    WITNESS_PRIMES,
    _upper_end,
    certify_non_integrality,
    ledger_segments,
    monotone_decrease_check,
    single_term_interval,
    threshold_for_n,
    wide_range_bound_forms,
    wide_range_constant_form_threshold,
)
from .euler_char import (
    EmnQuery,
    check_product_formula,
    chi_torelli,
    e_mn,
    euler_moduli,
    siegel_zeta_product,
)
from .exact_core import _Record, dyadic_fraction, pi_interval
from .render import certificate_from_json, certificate_to_json, decimal_string, dumps
from .zeta_special import abs_zeta_one_minus_2k, zeta_abs_lower_bound

__all__ = [
    "CheckResult",
    "PI_REFERENCE",
    "VerificationReport",
    "report_from_json",
    "report_to_json",
    "run_verification_suite",
]

MODES = ("standard", "deep")
STANDARD_TABLE_INDEX = 600
DEEP_TABLE_INDEX = 2 * DEEP_MAX_M
STANDARD_SCAN_MAX_M = 200

# Published 50-digit reference value of pi, used as the containment oracle
# for the certified enclosure.
PI_REFERENCE = Fraction(
    314159265358979323846264338327950288419716939937510, 10**50
)


class CheckResult(_Record):
    __slots__ = _fields = ("id", "paper_ref", "status", "witness", "elapsed_s")

    def __init__(
        self,
        id: str,
        paper_ref: str,
        status: str,  # pass | fail | inconclusive
        witness: str,
        elapsed_s: float,  # wall time of the check, in seconds
    ) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "paper_ref", paper_ref)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "elapsed_s", elapsed_s)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not all(isinstance(text, str) for text in (self.id, self.paper_ref, self.witness)):
            raise ValueError("id, paper_ref and witness must be strings")
        if self.status not in ("pass", "fail", "inconclusive"):
            raise ValueError(f"bad status {self.status!r}")
        elapsed = self.elapsed_s
        if isinstance(elapsed, bool) or not isinstance(elapsed, (int, float)) or not elapsed >= 0:
            raise ValueError(f"elapsed_s must be a number of seconds >= 0, got {elapsed!r}")


class VerificationReport(_Record):
    __slots__ = _fields = ("mode", "checks")

    def __init__(self, mode: str, checks: tuple[CheckResult, ...]) -> None:
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "checks", checks)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be 'standard' or 'deep', got {self.mode!r}")
        ids = [check.id for check in self.checks]
        if len(ids) != len(set(ids)):
            raise ValueError("check ids must be unique")

    @property
    def summary(self) -> dict[str, int]:
        counts = {"pass": 0, "fail": 0, "inconclusive": 0}
        for check in self.checks:
            counts[check.status] += 1
        return counts

    @property
    def passed(self) -> bool:
        summary = self.summary
        return summary["fail"] == 0 and summary["inconclusive"] == 0


def report_to_json(report: VerificationReport) -> dict[str, Any]:
    return {
        "mode": report.mode,
        "checks": [
            {name: getattr(check, name) for name in CheckResult._fields} for check in report.checks
        ],
        "summary": report.summary,
    }


def report_from_json(obj: Any) -> VerificationReport:
    """The inverse of `report_to_json`; malformed input raises ValueError."""
    try:
        checks = tuple(
            CheckResult(**{name: entry[name] for name in CheckResult._fields})
            for entry in obj["checks"]
        )
        report = VerificationReport(mode=obj["mode"], checks=checks)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed verification report: {exc!r}") from None
    if obj.get("summary") != report.summary:
        raise ValueError("summary does not match the checks")
    return report


# ---------------------------------------------------------------------------
# Individual checks.  Each returns (status, witness).

Outcome = tuple[str, str]


def _check_cross_algorithms(ctx: dict) -> Outcome:
    limit = STANDARD_TABLE_INDEX
    other = bernoulli_table(limit, algorithm="akiyama-tanigawa")
    table: BernoulliTable = ctx["table"]
    for n in range(limit + 1):
        if table.values[n] != other.values[n]:
            return "fail", f"first disagreement at index {n}"
    return "pass", f"seidel and akiyama-tanigawa identical through index {limit}"


def _check_irregular_numerators(ctx: dict) -> Outcome:
    table: BernoulliTable = ctx["table"]
    n12 = abs(table.bernoulli(12).numerator)
    n16 = abs(table.bernoulli(16).numerator)
    if (n12, n16) != (691, 3617):
        return "fail", f"|num B_12| = {n12}, |num B_16| = {n16}"
    return "pass", "|num B_12| = 691 and |num B_16| = 3617"


def _check_von_staudt_clausen(ctx: dict) -> Outcome:
    # Table construction already enforces the law; recheck the full form
    # here explicitly so the suite does not rest on constructor behavior.
    table: BernoulliTable = ctx["table"]
    prime_lists = _von_staudt_clausen_prime_lists(300)
    for k in range(1, 301):
        b = table.even(k)
        primes = prime_lists[k]
        if b.denominator != math.prod(primes):
            return "fail", f"denominator law broken at 2k = {2 * k}"
        total = b + sum(Fraction(1, p) for p in primes)
        if total.denominator != 1:
            return "fail", f"B_2k + sum 1/p not an integer at 2k = {2 * k}"
    return "pass", "denominator law and integrality hold for k = 1..300"


def _check_zeta_product_14(ctx: dict) -> Outcome:
    # The reported value -297203.11 is the product rounded to two decimals;
    # the exact expansion begins -297203.109482..., so a truncating renderer
    # shows -297203.10.  All three renderings are asserted so none can drift.
    product = siegel_zeta_product(14, ctx["table"])
    rendered = decimal_string(product, 6)
    if rendered != "-297203.109482…":
        return "fail", f"product renders as {rendered}"
    if decimal_string(product, 2) != "-297203.10…":
        return "fail", f"product truncates to {decimal_string(product, 2)}"
    hundredths = round(product * 100)  # round-half-even is exact here
    if Fraction(hundredths, 100) != Fraction(-29720311, 100):
        return "fail", f"product does not round to -297203.11 (got {hundredths}/100)"
    return (
        "pass",
        f"product is {rendered} exactly, i.e. -297203.11 after rounding "
        "to the two printed decimals",
    )


def _check_zeta_lower_bounds(ctx: dict) -> Outcome:
    table: BernoulliTable = ctx["table"]
    for k in range(1, 101):
        bound = zeta_abs_lower_bound(k)
        if not abs_zeta_one_minus_2k(k, table) > bound.hi:
            return "fail", f"|zeta(1-2k)| does not clear the bound at k = {k}"
    return "pass", "|zeta(1-2k)| exceeds the certified bound for k = 1..100"


def _check_product_formula(ctx: dict) -> Outcome:
    table: BernoulliTable = ctx["table"]
    for g in range(2, 31):
        for n in range(0, 11):
            if not check_product_formula(g, n, table).holds:
                return "fail", f"identity breaks at g={g}, n={n}"
    return "pass", "identity holds exactly for g = 2..30, n = 0..10"


def _check_spot_values(ctx: dict) -> Outcome:
    table: BernoulliTable = ctx["table"]
    observed = (
        euler_moduli(2, 0, table).value,
        chi_torelli(2, 0, table).value,
        chi_torelli(3, 0, table).value,
    )
    expected = (Fraction(-1, 240), Fraction(6), Fraction(360))
    if observed != expected:
        return "fail", f"got {observed}, expected {expected}"
    return "pass", "moduli(2,0) = -1/240, torelli chi(2,0) = 6, torelli chi(3,0) = 360"


def _check_small_m_integers(ctx: dict) -> Outcome:
    table: BernoulliTable = ctx["table"]
    for m, expected in ((1, 12), (2, 1440)):
        cert = certify_non_integrality(m, 1, "exact", table)
        if not isinstance(cert, IntegerValue) or cert.value != expected:
            return "fail", f"e({m},1) gave {cert!r}"
    return "pass", "e(1,1) = 12 and e(2,1) = 1440, both integers"


def _check_direct_6_13(ctx: dict) -> Outcome:
    table: BernoulliTable = ctx["table"]
    witnesses = []
    for m in range(6, 14):
        cert = certify_non_integrality(m, 1, "exact", table)
        if not isinstance(cert, PrimeWitness):
            return "fail", f"e({m},1) gave {cert!r}"
        witnesses.append(f"m={m}: p={cert.p}")
    return "pass", "; ".join(witnesses)


def _check_magnitude_tail(ctx: dict) -> Outcome:
    table: BernoulliTable = ctx["table"]
    for m in range(14, 101):
        if not e_mn(EmnQuery(m, 1), table) < 1:
            return "fail", f"e({m},1) is not below 1"
    return "pass", "exact e(m,1) < 1 for m = 14..100"


def _check_monotone(ctx: dict) -> Outcome:
    report = monotone_decrease_check(1, (9, 100), ctx["table"])
    if not report.strictly_decreasing:
        return "fail", f"increasing steps at m in {report.increasing_steps}"
    return "pass", "e(m,1) strictly decreasing for m = 9..100"


def _check_single_terms(ctx: dict) -> Outcome:
    for k in range(1, 9):
        if not single_term_interval(k).lo > 1:
            return "fail", f"term at k = {k} is not certified above 1"
    for k in range(9, 101):
        if not single_term_interval(k).hi < 1:
            return "fail", f"term at k = {k} is not certified below 1"
    return "pass", "term > 1 for k = 1..8 and term < 1 for k = 9..100, certified"


def _check_threshold_n1(ctx: dict) -> Outcome:
    result = threshold_for_n(1, m_cap=30)
    if result.m_found != 14:
        return "fail", f"threshold for n = 1 reported {result.m_found}"
    return "pass", "bound sequence for n = 1 certified below 1 from m = 14 on"


def _check_bound_dominates(ctx: dict) -> Outcome:
    table: BernoulliTable = ctx["table"]
    for m in range(1, 51):
        # e(m,n) and U(m,n) = top * 2**exponent both gain the factor 2m+n from n to n+1.
        exact, (top, exponent) = e_mn(EmnQuery(m, 1), table), _upper_end(m, 1)
        for n in range(1, 6):
            if not exact <= dyadic_fraction(top, exponent):
                return "fail", f"bound fails to dominate at m={m}, n={n}"
            exact *= 2 * m + n
            top *= 2 * m + n
    return "pass", "exact e(m,n) <= certified U(m,n) for m = 1..50, n = 1..5"


def _check_wide_grid_scan(ctx: dict) -> Outcome:
    table: BernoulliTable = ctx["table"]
    m_hi = DEEP_MAX_M if ctx["mode"] == "deep" else STANDARD_SCAN_MAX_M
    total = 0
    integers: list[tuple[int, int]] = []
    inconclusive: list[tuple[int, int]] = []
    other_witness: list[tuple[int, int, int]] = []
    preferred = 0
    prime_witnesses = 0
    for segment in ledger_segments((6, m_hi), (1, MAX_WITNESSED_N), table):
        # Only a ValuationWitness covers more than its one point.
        m, n, points = segment.m, segment.n_first, segment.n_last - segment.n_first + 1
        total += points
        cert = segment.certificate
        if isinstance(cert, IntegerValue):
            integers.append((m, n))
        elif isinstance(cert, Inconclusive):
            inconclusive.append((m, n))
        elif isinstance(cert, (PrimeWitness, ValuationWitness)):
            prime_witnesses += points
            if cert.p in WITNESS_PRIMES:
                preferred += points
            else:
                other_witness.append((m, n, cert.p))
    ctx["scan_stats"] = {
        "m_hi": m_hi,
        "total": total,
        "integers": integers,
        "inconclusive": inconclusive,
        "prime_witnesses": prime_witnesses,
        "preferred": preferred,
        "other_witness": other_witness,
    }
    if integers or inconclusive:
        return (
            "fail",
            f"integer points {integers[:5]}, inconclusive points {inconclusive[:5]}",
        )
    return (
        "pass",
        f"all {total} points on m = 6..{m_hi}, n = 1..{MAX_WITNESSED_N} are non-integers",
    )


def _check_witness_coverage(ctx: dict) -> Outcome:
    stats = ctx.get("scan_stats")
    if stats is None:
        return "inconclusive", "wide-grid scan did not run"
    pw = stats["prime_witnesses"]
    if pw == 0:
        return "inconclusive", "no prime witnesses were emitted"
    fraction = Fraction(stats["preferred"], pw)
    exceptions = stats["other_witness"]
    witness = (
        f"{stats['preferred']}/{pw} prime witnesses use p in {set(WITNESS_PRIMES)}"
        f" (fraction {fraction})"
    )
    if exceptions:
        witness += f"; exceptions (m, n, p): {exceptions[:10]}"
    # An exception is reported, not failed: which prime certifies a point is
    # an observation about the argument, not about non-integrality itself.
    return "pass", witness


def _check_closing_bound_forms(ctx: dict) -> Outcome:
    threshold = wide_range_constant_form_threshold(m_cap=45)
    forms = wide_range_bound_forms(37)
    if threshold != 37:
        return "fail", f"constant-factor reading crosses 1 at m = {threshold}"
    if not forms.constant_factor_product.hi < 1 < forms.per_index_product.lo:
        return "fail", "expected ordering of the two readings fails at m = 37"
    return (
        "pass",
        "constant-factor reading first dips below 1 at m = 37; the per-index "
        "reading is still far above 1 there (the two readings of the closing "
        "display disagree and are both reported)",
    )


def _check_pi_enclosure(ctx: dict) -> Outcome:
    enclosure = pi_interval(128)
    if enclosure.width > Fraction(1, 1 << 120):
        return "fail", f"width {decimal_string(enclosure.width, 45)} exceeds 2^-120"
    if not enclosure.contains(PI_REFERENCE):
        return "fail", "reference value of pi falls outside the enclosure"
    return "pass", "pi enclosed at 128 bits, width <= 2^-120, reference value inside"


def _check_cache_round_trip(ctx: dict) -> Outcome:
    small = bernoulli_table(100)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bern.cache"
        persist_table(small, path)
        if load_table(path) != small:
            return "fail", "round trip changed the table"
        # A tampered numerator must be rejected by revalidation.
        text = path.read_text(encoding="ascii").replace("-691/2730", "-690/2730")
        path.write_text(text, encoding="ascii")
        try:
            load_table(path)
        except CacheError as exc:
            return "pass", f"round trip exact; tampered line rejected ({exc})"
        return "fail", "tampered cache was accepted"


def _check_json_round_trip(ctx: dict) -> Outcome:
    table: BernoulliTable = ctx["table"]
    certificates = [
        certify_non_integrality(1, 1, "exact", table),
        certify_non_integrality(6, 1, "exact", table),
        certify_non_integrality(14, 1, "bound"),
        certify_non_integrality(13, 1, "bound"),
    ]
    kinds = [certificate_to_json(cert)["kind"] for cert in certificates]
    if kinds != ["integer", "prime-witness", "magnitude", "inconclusive"]:
        return "fail", f"certificate kinds {kinds}, not one of each in order"
    for cert in certificates:
        if certificate_from_json(json.loads(dumps(certificate_to_json(cert)))) != cert:
            return "fail", f"round trip changed {cert!r}"
    return "pass", f"certificate kinds {kinds} round trip through JSON"


_CHECKS: tuple[tuple[str, str, Callable[[dict], Outcome]], ...] = (
    (
        "bernoulli-cross-check",
        "agreement of two independent Bernoulli recurrences",
        _check_cross_algorithms,
    ),
    (
        "bernoulli-irregular-numerators",
        "691 and 3617 as numerators of B_12 and B_16",
        _check_irregular_numerators,
    ),
    (
        "von-staudt-clausen",
        "denominator law for Bernoulli numbers",
        _check_von_staudt_clausen,
    ),
    (
        "zeta-product-14",
        "decimal expansion of the product of zeta(1-2k), k = 1..14",
        _check_zeta_product_14,
    ),
    (
        "zeta-lower-bound",
        "strict bound |zeta(1-2k)| > 2(2k-1)!/(2pi)^2k",
        _check_zeta_lower_bounds,
    ),
    (
        "euler-product-formula",
        "moduli = torelli x siegel-quotient Euler characteristic identity",
        _check_product_formula,
    ),
    (
        "euler-spot-values",
        "closed-form Euler characteristic spot values",
        _check_spot_values,
    ),
    (
        "integer-small-m",
        "integer values e(1,1) = 12 and e(2,1) = 1440",
        _check_small_m_integers,
    ),
    (
        "direct-6-13",
        "non-integrality of e(m,1) for m = 6..13 by direct calculation",
        _check_direct_6_13,
    ),
    (
        "magnitude-tail",
        "e(m,1) < 1 for all m >= 14",
        _check_magnitude_tail,
    ),
    (
        "monotone-decrease",
        "e(m,1) strictly decreasing for m >= 9",
        _check_monotone,
    ),
    (
        "single-term-threshold",
        "(2pi)^2k/(2(2k-1)!) < 1 exactly for k >= 9",
        _check_single_terms,
    ),
    (
        "threshold-n1",
        "bound sequence for n = 1 crosses below 1 at m = 14",
        _check_threshold_n1,
    ),
    (
        "bound-dominates-exact",
        "e(m,n) below the certified upper-bound product",
        _check_bound_dominates,
    ),
    (
        "wide-grid-scan",
        "e(m,n) non-integer for m >= 6 and n <= 677",
        _check_wide_grid_scan,
    ),
    (
        "witness-prime-coverage",
        "691 and 3617 witness the whole wide grid",
        _check_witness_coverage,
    ),
    (
        "closing-bound-forms",
        "two readings of the closing bound display for the wide window",
        _check_closing_bound_forms,
    ),
    (
        "pi-enclosure",
        "certified pi enclosure (infrastructure)",
        _check_pi_enclosure,
    ),
    (
        "cache-round-trip",
        "cache persistence with invariant revalidation (infrastructure)",
        _check_cache_round_trip,
    ),
    (
        "json-round-trip",
        "lossless certificate serialization (infrastructure)",
        _check_json_round_trip,
    ),
)


def run_verification_suite(
    mode: str = "standard",
    cache_path: str | None = None,
    echo: Callable[[str], None] | None = None,
) -> VerificationReport:
    """Run every check and collect a report.

    A failing or erroring check (including resource exhaustion in deep mode)
    is recorded and the remaining checks still run.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be 'standard' or 'deep', got {mode!r}")
    checks: list[CheckResult] = []

    def record(check_id: str, paper_ref: str, started: float, outcome: Outcome) -> None:
        elapsed = time.perf_counter() - started
        checks.append(CheckResult(check_id, paper_ref, *outcome, elapsed_s=elapsed))
        if echo:
            echo(_format_check_line(checks[-1]))

    ctx: dict = {"mode": mode}
    required = DEEP_TABLE_INDEX if mode == "deep" else STANDARD_TABLE_INDEX
    started = time.perf_counter()
    try:
        ctx["table"] = table = obtain_table(required, cache_path)
        outcome = "pass", f"table through B_{table.max_index} (algorithm {table.algorithm})"
    except CachePathError as exc:
        outcome = "fail", f"cache error: {exc}"
    except CacheError as exc:
        outcome = "fail", f"table validation failed: {exc}"
    except (CapacityError, MemoryError) as exc:
        outcome = "fail", f"table build failed: {exc}"
    record("table-source", "Bernoulli table acquisition (infrastructure)", started, outcome)

    for check_id, paper_ref, fn in _CHECKS:
        started = time.perf_counter()
        if "table" not in ctx:
            outcome = "inconclusive", "no valid Bernoulli table"
        else:
            try:
                outcome = fn(ctx)
            except Exception as exc:  # noqa: BLE001 - one check must not stop the rest
                outcome = "fail", f"{type(exc).__name__}: {exc}"
        record(check_id, paper_ref, started, outcome)
    return VerificationReport(mode=mode, checks=tuple(checks))


def _format_check_line(check: CheckResult) -> str:
    return f"[{check.status.upper():^12}] {check.id}: {check.witness}"
