"""Acceptance suite: every check of the verification registry, in both modes.

`verify._CHECKS` is the one encoding of each paper claim.  The suite runs
once per mode (standard through the CLI in JSON, deep in-process), and one
test per (mode, check id) asserts that the check passed, within its time
budget where it has one.  Run with `pytest -s tests/test_acceptance.py` to
see one line per check with its elapsed time and budget.

Two earlier per-criterion tests stay, as they restate no check: criterion 4,
the exact scan as the oracle of the valuation ledger, and criterion 8, the
CLI's exit codes through the process boundary.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from torelli_euler.certify import (
    Inconclusive,
    IntegerValue,
    PrimeWitness,
    ValuationWitness,
    ledger_scan,
    scan,
)
from torelli_euler.verify import MODES, _CHECKS, report_from_json, run_verification_suite

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
    "bernoulli-cross-check": 40.0,
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


@pytest.fixture(scope="module")
def deep_report():
    return run_verification_suite("deep")


@pytest.mark.parametrize(
    "mode, check_id", [(mode, check_id) for mode in MODES for check_id in CHECK_IDS]
)
def test_check_passes_within_budget(request, mode, check_id):
    checks = {check.id: check for check in request.getfixturevalue(f"{mode}_report").checks}
    assert check_id in checks
    check, budget = checks[check_id], BUDGETS.get(check_id)
    limit = f", budget {budget:g}s" if budget is not None else ""
    print(f"\n{mode} {check_id}: {check.status.upper()} ({check.elapsed_s:.3f}s{limit})")
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


def test_deep_verification_suite(deep_report):
    assert deep_report.mode == "deep" and deep_report.passed
    assert [check.id for check in deep_report.checks] == list(CHECK_IDS)
    scan_check = next(c for c in deep_report.checks if c.id == "wide-grid-scan")
    assert scan_check.witness == (
        "all 991805 points on m = 6..1470, n = 1..677 are non-integers"
    )


def test_criterion_4_wide_grid_scan(table600):
    started = time.perf_counter()
    total = preferred = prime_witnesses = 0
    exceptions = []
    ledger = ledger_scan((6, 200), (1, 677), table600)
    for point, ledger_point in zip(scan((6, 200), (1, 677), "exact", table600), ledger):
        total += 1
        cert = point.certificate
        assert not isinstance(cert, (IntegerValue, Inconclusive)), (point.m, point.n)
        # The valuation ledger reaches the same witness without e(m,n).
        witness = ledger_point.certificate
        assert isinstance(witness, ValuationWitness), (point.m, point.n)
        assert (ledger_point.m, ledger_point.n, witness.p, witness.valuation) == (
            point.m, point.n, cert.p, cert.valuation
        )
        if isinstance(cert, PrimeWitness):
            prime_witnesses += 1
            if point.preferred_witness:
                preferred += 1
            else:
                exceptions.append((point.m, point.n, cert.p))
    elapsed = time.perf_counter() - started
    assert total == 195 * 677
    assert next(ledger, None) is None
    assert prime_witnesses == total
    # Expected to be all of them; an exception is reported, not failed.
    print(f"\n  witness fraction for p in (691, 3617): {preferred}/{prime_witnesses}")
    if exceptions:
        print(f"  exceptions (m, n, p): {exceptions[:10]}")
    assert elapsed < 600.0
    print(f"ACCEPTANCE 4 (exact scan m=6..200, n=1..677 matches the ledger): "
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
