"""Exact zeta values, Bernoulli numbers, orbifold Euler characteristics, and
machine-checkable certificates that e(m,n) is not an integer.

The verification suite (`verify`, and `CheckResult`, `VerificationReport`
and `run_verification_suite` from it) loads on first use, so importing the
package or running a command other than `verify-paper` does not compile it.
"""

from .bernoulli import (
    BernoulliTable,
    CacheError,
    CacheFormatError,
    CacheMissingError,
    CachePathError,
    CacheVersionError,
    CapacityError,
    TableInvariantError,
    bernoulli_table,
    load_table,
    obtain_bernoulli,
    obtain_table,
    persist_table,
    tangent_numbers,
    von_staudt_clausen_denominator,
    von_staudt_clausen_primes,
)
from .certify import (
    BoundSequence,
    Certificate,
    CertificateError,
    Inconclusive,
    IntegerValue,
    LedgerSegment,
    MagnitudeWitness,
    PrimeWitness,
    ScanPoint,
    ThresholdResult,
    ValuationWitness,
    certificate_from_exact,
    certify_non_integrality,
    ledger_segments,
    scan,
    single_term_interval,
    threshold_for_n,
    upper_bound_interval,
    wide_range_bound_forms,
    wide_range_constant_form_threshold,
)
from .euler_char import (
    ProductFormulaCheck,
    check_product_formula,
    chi_torelli,
    e_mn,
    euler_moduli,
)
from .exact_core import (
    RationalInterval,
    decimal_to_int,
    factorial_valuation,
    int_to_decimal,
    is_probable_prime,
    p_adic_valuation,
    pi_interval,
    rising_factorial_ratio,
)
from .zeta_special import (
    abs_zeta_one_minus_2k,
    zeta_abs_lower_bound,
    zeta_one_minus_2k,
    zeta_product,
)

__version__ = "0.1.0"

# Names resolved from the verify submodule on first access (PEP 562).
_FROM_VERIFY = ("CheckResult", "VerificationReport", "run_verification_suite")


def __getattr__(name: str):
    if name == "verify" or name in _FROM_VERIFY:
        # import_module, not `from . import verify`: the from-import looks the
        # name up on this package first, which calls back into __getattr__.
        import importlib

        verify = importlib.import_module(__name__ + ".verify")
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "verify", *_FROM_VERIFY})
