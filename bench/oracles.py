"""Independent checks of a run's outputs, made after the run, never timed.

Nothing here imports torelli_euler.  Bernoulli numbers come from sympy
(converted to the package's B_1 = -1/2 convention), e(m,n) from factorials
and those numbers, p-adic valuations of e(m,n) from Legendre's formula and
the Bernoulli numerators, and every certified enclosure is compared with its
true value computed by mpmath at PREC bits.  Each check returns a list of
mismatch messages; an empty list means the output is right.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from functools import lru_cache

import mpmath
import sympy

PREC = 400
mpmath.mp.prec = PREC
# Relative error allowed for an mpmath value: far below any enclosure width
# the program produces (about 2^-90), far above mpmath's rounding error.
SLACK = Fraction(1, 1 << (PREC - 40))
# A bound within this distance of 1 may be certified either way.
NEAR_ONE = Fraction(1, 1 << 60)

WITNESS_PRIMES = (691, 3617)
MAX_N = 677
TRUNCATION_MARK = "…"

sys.set_int_max_str_digits(0)


# -- exact values -------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    if n == 1:
        return Fraction(-1, 2)
    b = sympy.bernoulli(n)
    return Fraction(int(b.p), int(b.q))


def zeta(k: int) -> Fraction:
    """zeta(1-2k) = -B_2k / 2k."""
    return -bernoulli(2 * k) / (2 * k)


_prefix = [Fraction(1)]  # _prefix[m] = prod_{k<=m} 1/|zeta(1-2k)|


def zeta_reciprocal_product(m: int) -> Fraction:
    while len(_prefix) <= m:
        k = len(_prefix)
        _prefix.append(_prefix[-1] / abs(zeta(k)))
    return _prefix[m]


def factorial_ratio(m: int, n: int) -> int:
    """(2m+n-1)!/(2m)!."""
    return math.factorial(2 * m + n - 1) // math.factorial(2 * m)


def emn(m: int, n: int) -> Fraction:
    return zeta_reciprocal_product(m) * factorial_ratio(m, n)


def emn_equals(m: int, n: int, num: int, den: int) -> bool:
    """num/den == e(m,n), by cross-multiplication (no big gcd)."""
    p = zeta_reciprocal_product(m)
    return num * p.denominator == den * p.numerator * factorial_ratio(m, n)


def _vp_int(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _legendre(n: int, p: int) -> int:
    total, power = 0, p
    while power <= n:
        total += n // power
        power *= p
    return total


_ledger: dict[int, list[int]] = {}


def _zeta_valuation_sum(p: int, m: int) -> int:
    """sum_{k<=m} v_p(|zeta(1-2k)|)."""
    sums = _ledger.setdefault(p, [0])
    while len(sums) <= m:
        k = len(sums)
        b = bernoulli(2 * k)
        v = _vp_int(abs(b.numerator), p) - _vp_int(b.denominator, p) - _vp_int(2 * k, p)
        sums.append(sums[-1] + v)
    return sums[m]


def emn_valuation(m: int, n: int, p: int) -> int:
    """v_p(e(m,n)) without forming e(m,n)."""
    return _legendre(2 * m + n - 1, p) - _legendre(2 * m, p) - _zeta_valuation_sum(p, m)


def expected_witness(m: int, n: int) -> tuple[int, int] | None:
    """(p, v_p) the program must report, or None when e(m,n) is an integer."""
    for p in WITNESS_PRIMES:
        v = emn_valuation(m, n, p)
        if v < 0:
            return p, v
    den = emn(m, n).denominator
    if den == 1:
        return None
    for p in sympy.primerange(2, 10**7):
        if den % p == 0:
            return p, -_vp_int(den, p)
    raise ValueError(f"no prime factor below 10^7 in the denominator of e({m},{n})")


def truncated_decimal(q: Fraction, digits: int = 12) -> str:
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = q.numerator * 10**digits
    whole_digits, tail = divmod(scaled, q.denominator)
    whole, fractional = divmod(whole_digits, 10**digits)
    text = f"{sign}{whole}.{fractional:0{digits}d}"
    return text + TRUNCATION_MARK if tail else text


def rational_text(q: Fraction, digits: int = 12) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator} ≈ {truncated_decimal(q, digits)}"


# -- true values of the bound products (mpmath) ----------------------------------


@lru_cache(maxsize=None)
def term(k: int):
    """(2pi)^(2k) / (2 (2k-1)!)."""
    return (2 * mpmath.pi) ** (2 * k) / (2 * mpmath.factorial(2 * k - 1))


_term_prefix = [mpmath.mpf(1)]


def term_product(m: int):
    while len(_term_prefix) <= m:
        _term_prefix.append(_term_prefix[-1] * term(len(_term_prefix)))
    return _term_prefix[m]


def bound_value(m: int, n: int):
    return term_product(m) * factorial_ratio(m, n)


def bound_ratio(m: int, n: int):
    return term(m + 1) * mpmath.mpf((2 * m + n + 1) * (2 * m + n)) / ((2 * m + 2) * (2 * m + 1))


def wide_forms(m: int):
    prefix = math.factorial(2 * m + MAX_N) // math.factorial(2 * m)
    return term_product(m) * prefix, term(m + 1) ** m * prefix


def exact(x) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def encloses(lo: Fraction, hi: Fraction, x) -> bool:
    value = exact(x)
    return lo <= value * (1 + SLACK) and value * (1 - SLACK) <= hi


def threshold(n: int, m_cap: int) -> int | None:
    tail_start = m_cap + 1
    for m in range(m_cap, 0, -1):
        if bound_ratio(m, n) < 1:
            tail_start = m
        else:
            break
    for m in range(tail_start, m_cap + 1):
        if bound_value(m, n) < 1:
            return m
    return None


# -- bound-sweep outputs (hex text written by the worker) --------------------------


def _hex_fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num, 16), int(den, 16))


def _hex_interval(text: str) -> tuple[Fraction, Fraction]:
    lo, hi = text.strip("[]").split(",")
    return _hex_fraction(lo), _hex_fraction(hi)


def _check_bound_certificate(m: int, n: int, text: str) -> list[str]:
    kind, _, rest = text.partition(" ")
    x = exact(bound_value(m, n))
    if kind == "magnitude":
        upper_text, _, statement = rest.partition(" ")
        upper = _hex_fraction(upper_text)
        if statement != f"0 < e({m},{n}) < 1":
            return [f"e({m},{n}): magnitude statement {statement!r}"]
        if not (upper < 1 and x * (1 - SLACK) <= upper):
            return [f"e({m},{n}): magnitude witness does not bound U(m,n) below 1"]
        return []
    if kind == "inconclusive":
        if x < 1 - NEAR_ONE:
            return [f"e({m},{n}): inconclusive although U(m,n) < 1"]
        return []
    return [f"e({m},{n}): bound strategy produced {kind}"]


def check_bound_op(op: dict, out: str) -> list[str]:
    kind = op["kind"]
    if kind == "threshold":
        lines = out.split("\n")
        _, n, m_cap, found = lines[0].split()
        n, m_cap = int(n), int(m_cap)
        m_found = None if found == "None" else int(found)
        errors = []
        expected = threshold(n, m_cap)
        if m_found != expected:
            errors.append(f"threshold n={n}: got {m_found}, expected {expected}")
        chain_ms = []
        for line in lines[1:]:
            _, m, n_seq, value, ratio = line.split()
            m = int(m)
            chain_ms.append(m)
            if not encloses(*_hex_interval(value), bound_value(m, n)):
                errors.append(f"threshold n={n}: U({m},{n}) not enclosed")
            if not encloses(*_hex_interval(ratio), bound_ratio(m, n)):
                errors.append(f"threshold n={n}: ratio at m={m} not enclosed")
        expected_chain = list(range(m_found, m_cap + 1)) if m_found else []
        if chain_ms != expected_chain:
            errors.append(f"threshold n={n}: chain covers {chain_ms[:3]}...")
        return errors
    if kind == "certify-bound":
        return _check_bound_certificate(op["m"], op["n"], out)
    if kind == "zeta-bound":
        k = op["k"]
        lo, hi = _hex_interval(out)
        errors = []
        if not encloses(lo, hi, 1 / term(k)):
            errors.append(f"zeta bound k={k}: 2(2k-1)!/(2pi)^2k not enclosed")
        if not abs(zeta(k)) > hi:
            errors.append(f"zeta bound k={k}: not below |zeta(1-2k)|")
        return errors
    if kind == "wide-forms":
        m = op["m"]
        per_index, constant = out.split()
        true_per_index, true_constant = wide_forms(m)
        errors = []
        if not encloses(*_hex_interval(per_index), true_per_index):
            errors.append(f"wide forms m={m}: per-index product not enclosed")
        if not encloses(*_hex_interval(constant), true_constant):
            errors.append(f"wide forms m={m}: constant-factor product not enclosed")
        return errors
    (m_lo, m_hi), (n_lo, n_hi) = op["m"], op["n"]
    lines = out.split("\n")
    grid = [(m, n) for m in range(m_lo, m_hi + 1) for n in range(n_lo, n_hi + 1)]
    if len(lines) != len(grid):
        return [f"scan {op['m']}x{op['n']}: {len(lines)} points for a grid of {len(grid)}"]
    errors = []
    for (m, n), line in zip(grid, lines):
        pm, pn, cert = line.split(" ", 2)
        if (int(pm), int(pn)) != (m, n):
            errors.append(f"scan: point ({pm},{pn}) where ({m},{n}) was due")
            continue
        errors += _check_bound_certificate(m, n, cert)
    return errors


# -- CLI outputs --------------------------------------------------------------------


def _check_exact_certificate(m: int, n: int, kind: str, p, valuation, num, den) -> list[str]:
    """Prime witness / integer verdicts against the ledger and exact e(m,n)."""
    where = f"e({m},{n})"
    expected = expected_witness(m, n)
    if kind == "integer":
        if expected is not None:
            return [f"{where}: reported integer, but v_{expected[0]} = {expected[1]}"]
        if not emn_equals(m, n, num, 1):
            return [f"{where}: integer value is wrong"]
        return []
    if kind != "prime-witness":
        return [f"{where}: exact strategy produced {kind}"]
    if expected is None:
        return [f"{where}: prime witness for an integer value"]
    if (p, valuation) != expected:
        return [f"{where}: witness v_{p} = {valuation}, expected v_{expected[0]} = {expected[1]}"]
    if not emn_equals(m, n, num, den):
        return [f"{where}: witness value is not e(m,n)"]
    return []


_CERT_TEXT = re.compile(r"^e\((\d+),(\d+)\): (.*)$", re.S)
_PRIME_TEXT = re.compile(r"^non-integer \(prime witness\): v_(\d+) = (-?\d+) of (.*)$", re.S)
_MAGNITUDE_TEXT = re.compile(
    r"^non-integer \(magnitude witness\): 0 < e\((\d+),(\d+)\) < 1, certified upper bound (\S+)$"
)


def _parse_rational_text(text: str) -> Fraction:
    """Inverse of rational_text; checks the decimal part as well."""
    head, sep, decimal = text.partition(" ≈ ")
    num, _, den = head.partition("/")
    q = Fraction(int(num), int(den) if den else 1)
    if rational_text(q) != text:
        raise ValueError(f"rendering mismatch for {head[:40]}...")
    return q


def _check_certify_text(m: int, n: int, strategy: str, text: str) -> list[str]:
    match = _CERT_TEXT.match(text)
    if not match or (int(match[1]), int(match[2])) != (m, n):
        return [f"certify {m} {n}: unexpected output {text[:60]!r}"]
    body = match[3]
    x = exact(bound_value(m, n))
    if body.startswith("non-integer (magnitude witness)"):
        found = _MAGNITUDE_TEXT.match(body)
        if strategy == "exact" or not found:
            return [f"certify {m} {n}: unexpected magnitude witness"]
        shown = Fraction(found[3].rstrip(TRUNCATION_MARK))
        if not (shown < 1 and x * (1 - SLACK) <= shown + Fraction(1, 10**12)):
            return [f"certify {m} {n}: magnitude bound {found[3]} does not cover U(m,n)"]
        return []
    if strategy == "auto" and x < 1 - NEAR_ONE:
        return [f"certify {m} {n}: bound is below 1 but auto did not use it"]
    if body.startswith("integer: "):
        return _check_exact_certificate(m, n, "integer", None, None, int(body[9:]), 1)
    found = _PRIME_TEXT.match(body)
    if not found:
        return [f"certify {m} {n}: unexpected output {body[:60]!r}"]
    try:
        value = _parse_rational_text(found[3])
    except ValueError as exc:
        return [f"certify {m} {n}: {exc}"]
    return _check_exact_certificate(
        m, n, "prime-witness", int(found[1]), int(found[2]), value.numerator, value.denominator
    )


def _check_certificate_json(m: int, n: int, cert: dict) -> list[str]:
    if cert["kind"] == "integer":
        return _check_exact_certificate(m, n, "integer", None, None, int(cert["value"]), 1)
    if cert["kind"] == "prime-witness":
        value = cert["value"]
        return _check_exact_certificate(
            m, n, "prime-witness", int(cert["p"]), cert["valuation"],
            int(value["num"]), int(value["den"]),
        )
    return [f"e({m},{n}): exact strategy produced {cert['kind']}"]


def chi_value(space: str, g: int, n: int) -> Fraction:
    def zeta_product(top: int) -> Fraction:
        return math.prod((zeta(k) for k in range(1, top + 1)), start=Fraction(1))

    if space == "siegel":
        return zeta_product(g)
    if n == 0:
        prefactor = Fraction(1, 2 - 2 * g)
    else:
        prefactor = Fraction((-1) ** (n - 1) * math.factorial(2 * g + n - 3), math.factorial(2 * g - 2))
    if space == "moduli":
        return prefactor * zeta(g)
    return prefactor / zeta_product(g - 1)


def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check_cli_op(op: dict, result: dict, fresh_cache) -> list[str]:
    """Check one CLI request; `fresh_cache` is the file a write request made."""
    argv, out, rc = op["argv"], result["stdout"], result["rc"]
    command = argv[0]
    label = " ".join(argv[:7])
    if command == "certify":
        m, n = int(_flag(argv, "-m")), int(_flag(argv, "-n"))
        strategy = _flag(argv, "--strategy", "auto")
        if _flag(argv, "--format") == "json":
            payload = json.loads(out)
            if (payload["m"], payload["n"]) != (m, n):
                return [f"{label}: wrong point in output"]
            errors = _check_certificate_json(m, n, payload)
        else:
            errors = _check_certify_text(m, n, strategy, out.rstrip("\n"))
        if rc != (1 if "inconclusive" in out else 0):
            errors.append(f"{label}: exit code {rc}")
        return errors
    if command == "emn":
        m, n = int(_flag(argv, "-m")), int(_flag(argv, "-n"))
        if out != f"e({m},{n}) = {rational_text(emn(m, n))}\n" or rc != 0:
            return [f"{label}: wrong e(m,n)"]
        return []
    if command == "zeta":
        k = int(_flag(argv, "--k"))
        if out != f"zeta(1-2k) for k={k}: {rational_text(zeta(k))}\n" or rc != 0:
            return [f"{label}: wrong zeta value"]
        return []
    if command == "chi":
        space, g, n = _flag(argv, "--space"), int(_flag(argv, "-g")), int(_flag(argv, "-n", "0"))
        kind = {"siegel": "siegel-quotient", "moduli": "moduli", "torelli": "torelli"}[space]
        expected = f"{kind} (g={g}, n={n}): {rational_text(chi_value(space, g, n))}\n"
        if space == "torelli":
            expected += "note: formula value under the finiteness hypothesis\n"
        if out != expected or rc != 0:
            return [f"{label}: wrong Euler characteristic"]
        return []
    if command == "threshold":
        n, m_cap = int(_flag(argv, "-n")), int(_flag(argv, "--m-cap", "64"))
        found = threshold(n, m_cap)
        if found is None:
            expected = f"threshold for n={n}: not found below cap {m_cap}\n"
        else:
            expected = (
                f"threshold for n={n}: m0 = {found} "
                f"(bound and ratio certified below 1 through m = {m_cap})\n"
            )
        if out != expected or rc != (0 if found else 1):
            return [f"{label}: wrong threshold"]
        return []
    if command == "scan":
        m_lo, m_hi = int(_flag(argv, "--m-min")), int(_flag(argv, "--m-max"))
        n_lo, n_hi = int(_flag(argv, "--n-min")), int(_flag(argv, "--n-max"))
        points = json.loads(out)["points"]
        grid = [(m, n) for m in range(m_lo, m_hi + 1) for n in range(n_lo, n_hi + 1)]
        if [(p["m"], p["n"]) for p in points] != grid:
            return [f"{label}: points do not cover the block in order"]
        errors = []
        for point in points:
            cert = point["certificate"]
            errors += _check_certificate_json(point["m"], point["n"], cert)
            preferred = cert.get("p") in ("691", "3617") if cert["kind"] == "prime-witness" else None
            if point.get("preferred_witness") != preferred:
                errors.append(f"{label}: preferred_witness flag at ({point['m']},{point['n']})")
        return errors
    if command == "bernoulli":
        top = 2 * int(_flag(argv, "--max-k"))
        indices = [n for n in range(top + 1) if n < 3 or n % 2 == 0]
        expected = "".join(f"B_{n} = {rational_text(bernoulli(n))}\n" for n in indices)
        errors = [] if out == expected and rc == 0 else [f"{label}: wrong Bernoulli numbers"]
        lines = fresh_cache.read_text(encoding="ascii").splitlines()
        cached = [f"{n} {bernoulli(n).numerator}/{bernoulli(n).denominator}" for n in indices]
        if lines[1:] != cached or f"max={top}" not in lines[0]:
            errors.append(f"{label}: cache file written wrongly")
        return errors
    return [f"{label}: no oracle for command {command}"]


# -- verify-paper checks ----------------------------------------------------------------


def scan_ledger(m_lo: int, m_hi: int, n_hi: int) -> dict[str, int]:
    """Witness histogram of the wide-grid scan, from valuations alone."""
    counts = {"points": 0, "691": 0, "3617": 0, "unwitnessed": 0}
    for m in range(m_lo, m_hi + 1):
        for n in range(1, n_hi + 1):
            counts["points"] += 1
            for p in WITNESS_PRIMES:
                if emn_valuation(m, n, p) < 0:
                    counts[str(p)] += 1
                    break
            else:
                counts["unwitnessed"] += 1
    return counts


def check_verify_report(checks: list[dict], ledger: dict[str, int]) -> list[str]:
    """Compare the claims in the standard suite's witnesses with the oracles."""
    by_id = {c["id"]: c["witness"] for c in checks}
    errors = []

    def expect(check_id: str, ok: bool) -> None:
        if check_id in by_id and not ok:
            errors.append(f"verify {check_id}: witness {by_id[check_id][:80]!r} disagrees with the oracle")

    expect(
        "bernoulli-irregular-numerators",
        (abs(bernoulli(12).numerator), abs(bernoulli(16).numerator)) == (691, 3617),
    )
    product = math.prod((zeta(k) for k in range(1, 15)), start=Fraction(1))
    expect("zeta-product-14", f"product is {truncated_decimal(product, 6)} exactly" in by_id.get("zeta-product-14", ""))
    expect("zeta-lower-bound", all(abs(zeta(k)) > exact(1 / term(k)) for k in range(1, 101)))
    expect("integer-small-m", emn(1, 1) == 12 and emn(2, 1) == 1440)
    direct = "; ".join(f"m={m}: p={expected_witness(m, 1)[0]}" for m in range(6, 14))
    expect("direct-6-13", by_id.get("direct-6-13") == direct)
    expect("magnitude-tail", all(emn(m, 1) < 1 for m in range(14, 101)))
    expect("threshold-n1", threshold(1, 30) == 14)
    total = ledger["points"]
    expect(
        "wide-grid-scan",
        ledger["unwitnessed"] == 0
        and by_id.get("wide-grid-scan") == f"all {total} points on m = 6..200, n = 1..{MAX_N} are non-integers",
    )
    preferred = ledger["691"] + ledger["3617"]
    expect("witness-prime-coverage", by_id.get("witness-prime-coverage", "").startswith(f"{preferred}/{total} "))
    crossing = next((m for m in range(1, 46) if wide_forms(m)[1] < 1), None)
    expect("closing-bound-forms", crossing == 37 and wide_forms(37)[0] > 1)
    return errors
