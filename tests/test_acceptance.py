"""Acceptance suite: every check of the verification registry.

`verify._CHECKS` is the one encoding of each paper claim.  The suite runs
once, through the CLI in JSON, and one test per check id asserts that the
check passed, within its time budget where it has one.  Run with
`pytest -s tests/test_acceptance.py` to see one line per check with its
elapsed time and budget.

Two earlier per-criterion tests stay, as they restate no check: criterion 4,
the exact e(m,n) of the rows below m0 = 55 and out to m = 200, each with its
witness prime, and criterion 8, the CLI's exit codes through the process
boundary.
"""

import json
import math
import os
import subprocess
import sys
import time

import pytest

from torelli_euler.euler_char import e_mn
from torelli_euler.verify import _CHECKS, report_from_json

CHECK_IDS = ("table-source", *(check_id for check_id, _, _ in _CHECKS))

# Seconds per check.  Each group splits the bound of one earlier acceptance
# criterion, so a group's budgets sum to at most that bound.
BUDGETS = {
    # the zeta product at 14 (1 s)
    "zeta-product-14": 1.0,
    # direct calculations (1 s)
    "integer-small-m": 0.5,
    "direct-6-13": 0.5,
    # the magnitude tail (30 s)
    "magnitude-tail": 15.0,
    "monotone-decrease": 15.0,
    # the Bernoulli engine (60 s)
    "bernoulli-irregular-numerators": 10.0,
    "von-staudt-clausen": 10.0,
    # Euler characteristics (5 s)
    "euler-product-formula": 4.0,
    "euler-spot-values": 1.0,
}


def _env():
    env = dict(os.environ)
    env.pop("TORELLI_EULER_CACHE", None)
    return env


@pytest.fixture(scope="module")
def standard_cli_run(tmp_path_factory):
    cache = tmp_path_factory.mktemp("suite") / "suite.cache"
    proc = subprocess.run(
        [sys.executable, "-m", "torelli_euler", "verify-paper",
         "--format", "json", "--cache", str(cache)],
        capture_output=True, text=True, env=_env(),
    )
    return proc, cache


@pytest.fixture(scope="module")
def standard_report(standard_cli_run):
    proc, _ = standard_cli_run
    return report_from_json(json.loads(proc.stdout))


# Each case is named for the report's mode, "standard", the one the suite has.
@pytest.mark.parametrize("check_id", CHECK_IDS, ids=lambda check_id: f"standard-{check_id}")
def test_check_passes_within_budget(standard_report, check_id):
    checks = {check.id: check for check in standard_report.checks}
    assert check_id in checks
    check, budget = checks[check_id], BUDGETS.get(check_id)
    limit = f", budget {budget:g}s" if budget is not None else ""
    print(f"\n{check_id}: {check.status.upper()} ({check.elapsed_s:.3f}s{limit})")
    assert check.status == "pass", check.witness
    if budget is not None:
        assert check.elapsed_s < budget


def test_full_verification_suite_standard_via_cli(standard_cli_run, standard_report):
    proc, cache = standard_cli_run
    assert proc.returncode == 0, proc.stderr
    assert standard_report.mode == "standard" and standard_report.passed
    assert [check.id for check in standard_report.checks] == list(CHECK_IDS)
    assert set(BUDGETS) <= set(CHECK_IDS)
    assert cache.exists()
    witnesses = {check.id: check.witness for check in standard_report.checks}
    assert witnesses["whole-claim"].startswith(
        "rows 6..7 by 691 and rows 8..54 by 3617, each prime dividing the numerator of "
        "zeta(-11) or zeta(-15) and above 2m+n-1; from m0 = 55 on, "
        "0 < e(m,n) < U(m,n) <= U(55,677) < 1 with 2pi < 44/7"
    )


def test_criterion_4_wide_grid_scan(table600):
    # Each row's exact e(m,n) walked as a reduced numerator and denominator,
    # with no witness search of the library.
    started = time.perf_counter()
    total = 0
    for m in range(6, 201):
        value = e_mn(m, 1, table600)
        numerator, denominator = value.numerator, value.denominator
        for n in range(1, 678):
            if n > 1:
                # e(m,n) = e(m,n-1) (2m+n-1), reduced by one gcd against the factor.
                factor = 2 * m + n - 1
                common = math.gcd(factor, denominator)
                numerator *= factor // common
                if common > 1:
                    denominator //= common
            total += 1
            assert denominator != 1, (m, n)
            # The witness rule of certificate_from_exact: 691 if it divides the
            # denominator, else 3617, one of which does at every point.
            assert denominator % 691 == 0 or denominator % 3617 == 0, (m, n)
    elapsed = time.perf_counter() - started
    # The walk ends at e(200,677), in lowest terms.
    assert (numerator, denominator) == e_mn(200, 677, table600).as_integer_ratio()
    assert total == 195 * 677
    assert elapsed < 600.0
    print(f"ACCEPTANCE 4 (exact e(m,n) on m=6..200, n=1..677, witnessed by 691 or 3617): "
          f"PASS ({elapsed:.2f}s, limit 600s)")


def test_criterion_8_infrastructure():
    # Exit-code contract through the real process boundary.
    def run_cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "torelli_euler", *argv],
            capture_output=True, text=True, env=_env(),
        ).returncode
    assert run_cli("zeta", "--k", "2") == 0
    assert run_cli("threshold", "-n", "1", "--m-cap", "5") == 1
    assert run_cli("certify", "-m", "13", "-n", "1", "--strategy", "bound") == 1
    assert run_cli("zeta", "--k", "0") == 2
    assert run_cli("zeta", "--nope") == 2
