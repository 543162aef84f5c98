"""The end-to-end verification suite behind `torelli-euler verify-paper`.

Every computer-checkable claim in scope is a named check with a stable id;
the suite runs them in deterministic order, records pass/fail/inconclusive
with a rendered witness and the check's wall time (`CheckResult.elapsed_s`,
table acquisition included for the first check, the table's source), and
never lets one check's failure stop the rest.  Each other check registers
itself in `_CHECKS` with `_check`, which names its id and paper reference,
in definition order: the acceptance tests run the suite and assert every
check, rather than restating them.
The suite works over a Bernoulli table to index 600.  The check of the
whole claim proves it for every m >= 6 and n <= 677 with the standalone
rechecker (`recheck.check(recheck.certificate(677))`), in process: rows
6..m0-1 by the primes 691 and 3617, the rows from m0 on by the magnitude
bound with 2pi replaced by 44/7.  The n = 1 column, e(m,1) for m = 1..100 in
one exact scan, is formed once per run, by the first check that asks
(`_column`).
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Any, Callable

from . import recheck
from .bernoulli import (
    BernoulliTable,
    CacheError,
    CapacityError,
    TableInvariantError,
    obtain_table,
    _von_staudt_clausen_prime_lists,
)
from .certify import (
    Certificate,
    IntegerValue,
    MAX_WITNESSED_N,
    PrimeWitness,
    _upper_end,
    certify_non_integrality,
    scan,
    single_term_interval,
    threshold_for_n,
    threshold_m0,
    wide_range_bound_forms,
    wide_range_constant_form_threshold,
)
from .euler_char import chi_torelli, euler_moduli
from .exact_core import _Record, dyadic_fraction, pi_interval
from .render import decimal_string
from .zeta_special import zeta_abs_lower_bound, zeta_one_minus_2k, zeta_product

__all__ = [
    "CheckResult",
    "PI_REFERENCE",
    "VerificationReport",
    "report_from_json",
    "report_to_json",
    "run_verification_suite",
]

STANDARD_TABLE_INDEX = 600

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
        if self.mode != "standard":
            raise ValueError(f"mode must be 'standard', got {self.mode!r}")
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
    summary = obj.get("summary")
    # Counts are JSON integers: True == 1 and 1.0 == 1 in Python, not in JSON.
    if not isinstance(summary, dict) or any(type(count) is not int for count in summary.values()):
        raise ValueError(f"summary counts must be integers: {summary!r}")
    if summary != report.summary:
        raise ValueError("summary does not match the checks")
    return report


# ---------------------------------------------------------------------------
# Individual checks.  Each returns (status, witness).

Outcome = tuple[str, str]
Check = Callable[[dict], Outcome]

# (id, paper_ref, check) for each check after the table's source, in the suite's order.
_CHECKS: list[tuple[str, str, Check]] = []
# The ids of the checks that read no table: they run when none can be had.
_TABLE_FREE: set[str] = set()


def _check(check_id: str, paper_ref: str, reads_table: bool = True) -> Callable[[Check], Check]:
    """Register the decorated check under `check_id`, after those defined above it.

    A check that does not read `ctx["table"]` says so, and joins `_TABLE_FREE`.
    """

    def register(fn: Check) -> Check:
        _CHECKS.append((check_id, paper_ref, fn))
        if not reads_table:
            _TABLE_FREE.add(check_id)
        return fn

    return register


@_check("bernoulli-irregular-numerators", "691 and 3617 as numerators of B_12 and B_16")
def _check_irregular_numerators(ctx: dict) -> Outcome:
    table: BernoulliTable = ctx["table"]
    n12 = abs(table.bernoulli(12).numerator)
    n16 = abs(table.bernoulli(16).numerator)
    if (n12, n16) != (691, 3617):
        return "fail", f"|num B_12| = {n12}, |num B_16| = {n16}"
    return "pass", "|num B_12| = 691 and |num B_16| = 3617"


@_check("von-staudt-clausen", "denominator law for Bernoulli numbers")
def _check_von_staudt_clausen(ctx: dict) -> Outcome:
    # Table construction already enforces the law; recheck the full form
    # here explicitly so the suite does not rest on constructor behavior.
    table: BernoulliTable = ctx["table"]
    prime_lists = _von_staudt_clausen_prime_lists(300)
    for k in range(1, 301):
        b = table.even(k)
        primes = prime_lists[k]
        denominator = math.prod(primes)
        if b.denominator != denominator:
            return "fail", f"denominator law broken at 2k = {2 * k}"
        # Over that denominator, B_2k + sum 1/p has the numerator below.
        if (b.numerator + sum(denominator // p for p in primes)) % denominator:
            return "fail", f"B_2k + sum 1/p not an integer at 2k = {2 * k}"
    return "pass", "denominator law and integrality hold for k = 1..300"


@_check("zeta-product-14", "decimal expansion of the product of zeta(1-2k), k = 1..14")
def _check_zeta_product_14(ctx: dict) -> Outcome:
    # The reported value -297203.11 is the product rounded to two decimals;
    # the exact expansion begins -297203.109482..., so a truncating renderer
    # shows -297203.10.  All three renderings are asserted so none can drift.
    product = zeta_product(14, ctx["table"])
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


@_check("zeta-lower-bound", "strict bound |zeta(1-2k)| > 2(2k-1)!/(2pi)^2k")
def _check_zeta_lower_bounds(ctx: dict) -> Outcome:
    table: BernoulliTable = ctx["table"]
    for k in range(1, 101):
        bound = zeta_abs_lower_bound(k)
        if not abs(zeta_one_minus_2k(k, table)) > bound.hi:
            return "fail", f"|zeta(1-2k)| does not clear the bound at k = {k}"
    return "pass", "|zeta(1-2k)| exceeds the certified bound for k = 1..100"


@_check("euler-product-formula", "moduli = torelli x siegel-quotient Euler characteristic identity")
def _check_product_formula(ctx: dict) -> Outcome:
    # Every zeta product is the table's one running product, but the sides
    # read it apart: the left reads the single value zeta(1-2g) and no
    # product, the right the running product at g-1 and at g.  The identity
    # holds only if moving the product by one factor multiplies in exactly
    # that value.
    table: BernoulliTable = ctx["table"]
    for g in range(2, 31):
        for n in range(0, 11):
            if euler_moduli(g, n, table) != chi_torelli(g, n, table) * zeta_product(g, table):
                return "fail", f"identity breaks at g={g}, n={n}"
    return "pass", "identity holds exactly for g = 2..30, n = 0..10"


@_check("euler-spot-values", "closed-form Euler characteristic spot values")
def _check_spot_values(ctx: dict) -> Outcome:
    table: BernoulliTable = ctx["table"]
    observed = (
        euler_moduli(2, 0, table),
        chi_torelli(2, 0, table),
        chi_torelli(3, 0, table),
    )
    expected = (Fraction(-1, 240), Fraction(6), Fraction(360))
    if observed != expected:
        return "fail", f"got {observed}, expected {expected}"
    return "pass", "moduli(2,0) = -1/240, torelli chi(2,0) = 6, torelli chi(3,0) = 360"


def _column(ctx: dict) -> tuple[Certificate, ...]:
    """The exact certificates of e(m,1) at index m - 1, m = 1..100, formed on first use."""
    if "column" not in ctx:
        points = scan((1, 100), (1, 1), "exact", ctx["table"])
        ctx["column"] = tuple(point.certificate for point in points)
    return ctx["column"]


@_check("integer-small-m", "integer values e(1,1) = 12 and e(2,1) = 1440")
def _check_small_m_integers(ctx: dict) -> Outcome:
    for m, expected in ((1, 12), (2, 1440)):
        cert = _column(ctx)[m - 1]
        if not isinstance(cert, IntegerValue) or cert.value != expected:
            return "fail", f"e({m},1) gave {cert!r}"
    return "pass", "e(1,1) = 12 and e(2,1) = 1440, both integers"


@_check("direct-6-13", "non-integrality of e(m,1) for m = 6..13 by direct calculation")
def _check_direct_6_13(ctx: dict) -> Outcome:
    witnesses = []
    for m, cert in enumerate(_column(ctx)[5:13], 6):
        if not isinstance(cert, PrimeWitness):
            return "fail", f"e({m},1) gave {cert!r}"
        witnesses.append(f"m={m}: p={cert.p}")
    return "pass", "; ".join(witnesses)


@_check("magnitude-tail", "e(m,1) < 1 for all m >= 14")
def _check_magnitude_tail(ctx: dict) -> Outcome:
    for m, cert in enumerate(_column(ctx)[13:], 14):
        if not cert.value < 1:
            return "fail", f"e({m},1) is not below 1"
    return "pass", "exact e(m,1) < 1 for m = 14..100"


@_check("monotone-decrease", "e(m,1) strictly decreasing for m >= 9")
def _check_monotone(ctx: dict) -> Outcome:
    values = [cert.value for cert in _column(ctx)[8:]]
    increasing = tuple(m for m, (now, nxt) in enumerate(zip(values, values[1:]), 9) if nxt >= now)
    if increasing:
        return "fail", f"increasing steps at m in {increasing}"
    return "pass", "e(m,1) strictly decreasing for m = 9..100"


@_check("single-term-threshold", "(2pi)^2k/(2(2k-1)!) < 1 exactly for k >= 9", reads_table=False)
def _check_single_terms(ctx: dict) -> Outcome:
    for k in range(1, 9):
        if not single_term_interval(k).lo > 1:
            return "fail", f"term at k = {k} is not certified above 1"
    for k in range(9, 101):
        if not single_term_interval(k).hi < 1:
            return "fail", f"term at k = {k} is not certified below 1"
    return "pass", "term > 1 for k = 1..8 and term < 1 for k = 9..100, certified"


@_check("threshold-n1", "bound sequence for n = 1 crosses below 1 at m = 14", reads_table=False)
def _check_threshold_n1(ctx: dict) -> Outcome:
    result = threshold_for_n(1, m_cap=30)
    if result.m_found != 14:
        return "fail", f"threshold for n = 1 reported {result.m_found}"
    return "pass", "bound sequence for n = 1 certified below 1 from m = 14 on"


@_check("bound-dominates-exact", "e(m,n) below the certified upper-bound product")
def _check_bound_dominates(ctx: dict) -> Outcome:
    for m, cert in enumerate(_column(ctx)[:50], 1):
        # e(m,n) and U(m,n) = top * 2**exponent both gain the factor 2m+n from n to n+1.
        exact, (top, exponent) = cert.value, _upper_end(m, 1)
        for n in range(1, 6):
            if not exact <= dyadic_fraction(top, exponent):
                return "fail", f"bound fails to dominate at m={m}, n={n}"
            exact *= 2 * m + n
            top *= 2 * m + n
    return "pass", "exact e(m,n) <= certified U(m,n) for m = 1..50, n = 1..5"


@_check("whole-claim", "e(m,n) non-integer for m >= 6 and n <= 677", reads_table=False)
def _check_whole_claim(ctx: dict) -> Outcome:
    cert = recheck.certificate(MAX_WITNESSED_N)
    failure = recheck.check(cert)
    if failure:
        return "fail", failure
    m0, ((p, k, last), (q, j, end)) = cert["m0"], cert["prime_rows"]
    return (
        "pass",
        f"rows 6..{last} by {p} and rows {last + 1}..{end} by {q}, each prime dividing the "
        f"numerator of zeta({1 - 2 * k}) or zeta({1 - 2 * j}) and above 2m+n-1; from m0 = {m0} "
        f"on, 0 < e(m,n) < U(m,n) <= U({m0},{MAX_WITNESSED_N}) < 1 with 2pi < 44/7, as U rises "
        "in n and its ratio, below 1 at m0, falls in m; rechecked by torelli_euler.recheck, "
        "whose premises not computed are zeta(2k) > 1, pi < 22/7 and von Staudt-Clausen",
    )


@_check("claim-sharp", "n <= 677 is sharp: e(7,678) and e(6,680) are integers")
def _check_claim_sharp(ctx: dict) -> Outcome:
    # Row m first meets an integer at n = N(m): N(7) = 678 and N(6) = 680.
    for m, n in ((7, 678), (6, 680)):
        below, at = (certify_non_integrality(m, k, "exact", ctx["table"]) for k in (n - 1, n))
        witnessed = isinstance(below, PrimeWitness) and below.p == 691
        if not (witnessed and isinstance(at, IntegerValue)):
            kinds = type(below).__name__, type(at).__name__
            return "fail", f"e({m},{n - 1}) and e({m},{n}) gave {kinds}"
    return "pass", "e(7,678) and e(6,680) are integers; e(7,677) and e(6,679) have v_691 < 0"


@_check(
    "closing-bound-forms",
    "two readings of the closing bound display for the wide window",
    reads_table=False,
)
def _check_closing_bound_forms(ctx: dict) -> Outcome:
    threshold = wide_range_constant_form_threshold(m_cap=45)
    forms = wide_range_bound_forms(37)
    m0 = threshold_m0(MAX_WITNESSED_N)
    if threshold != 37:
        return "fail", f"constant-factor reading crosses 1 at m = {threshold}"
    if not forms.constant_factor_product.hi < 1 < forms.per_index_product.lo:
        return "fail", "expected ordering of the two readings fails at m = 37"
    if m0 != 55:
        return "fail", f"U(m,{MAX_WITNESSED_N}) and its ratio are below 1 from m0 = {m0}"
    return (
        "pass",
        "constant-factor reading first dips below 1 at m = 37; the per-index "
        "reading is still far above 1 there (the two readings of the closing "
        "display disagree and are both reported); the reading that closes the "
        f"argument is U(m,{MAX_WITNESSED_N}), below 1 with its ratio from m0 = 55 on",
    )


@_check("pi-enclosure", "certified pi enclosure (infrastructure)", reads_table=False)
def _check_pi_enclosure(ctx: dict) -> Outcome:
    enclosure = pi_interval(128)
    if enclosure.width > Fraction(1, 1 << 120):
        return "fail", f"width {decimal_string(enclosure.width, 45)} exceeds 2^-120"
    if not enclosure.contains(PI_REFERENCE):
        return "fail", "reference value of pi falls outside the enclosure"
    # The two rational premises a recheck of the bound can rest on.
    if not Fraction(333, 106) < enclosure.lo:
        return "fail", "the enclosure does not lie above 333/106"
    if not enclosure.hi < Fraction(22, 7):
        return "fail", "the enclosure does not lie below 22/7"
    return (
        "pass",
        "pi enclosed at 128 bits, width <= 2^-120, reference value inside, 333/106 < pi < 22/7",
    )


def run_verification_suite(
    mode: str = "standard",
    cache_path: str | None = None,
    echo: Callable[[str], None] | None = None,
) -> VerificationReport:
    """Run every check and collect a report.

    `standard` is the one mode.  A failing or erroring check (including
    resource exhaustion in the table build) is recorded and the remaining
    checks still run.  With no table, the checks that read one are
    inconclusive and the rest run as always.
    """
    if mode != "standard":
        raise ValueError(f"mode must be 'standard', got {mode!r}")
    checks: list[CheckResult] = []

    def record(check_id: str, paper_ref: str, started: float, outcome: Outcome) -> None:
        elapsed = time.perf_counter() - started
        checks.append(CheckResult(check_id, paper_ref, *outcome, elapsed_s=elapsed))
        if echo:
            echo(_format_check_line(checks[-1]))

    ctx: dict = {}
    started = time.perf_counter()
    try:
        ctx["table"] = table = obtain_table(STANDARD_TABLE_INDEX, cache_path)
        outcome = "pass", f"table through B_{table.max_index}"
    except TableInvariantError as exc:
        outcome = "fail", f"table validation failed: {exc}"
    except CacheError as exc:
        outcome = "fail", f"cache error: {exc}"
    except (CapacityError, MemoryError) as exc:
        outcome = "fail", f"table build failed: {exc}"
    record("table-source", "Bernoulli table acquisition (infrastructure)", started, outcome)

    for check_id, paper_ref, fn in _CHECKS:
        started = time.perf_counter()
        if check_id not in _TABLE_FREE and "table" not in ctx:
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
