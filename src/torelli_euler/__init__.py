"""Exact zeta values, Bernoulli numbers, orbifold Euler characteristics, and
machine-checkable certificates that e(m,n) is not an integer."""

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
    MonotoneReport,
    PrimeWitness,
    ScanPoint,
    ThresholdResult,
    ValuationWitness,
    certificate_from_exact,
    certify_non_integrality,
    ledger_scan,
    ledger_segments,
    monotone_decrease_check,
    scan,
    single_term_interval,
    threshold_for_n,
    upper_bound_interval,
    wide_range_bound_forms,
    wide_range_constant_form_threshold,
)
from .euler_char import (
    EmnQuery,
    EulerChar,
    ProductFormulaCheck,
    SpaceDescriptor,
    check_product_formula,
    chi_torelli,
    e_mn,
    euler_moduli,
    euler_siegel_quotient,
    siegel_zeta_product,
)
from .exact_core import (
    Rational,
    RationalInterval,
    decimal_to_int,
    factorial_valuation,
    int_to_decimal,
    is_probable_prime,
    p_adic_valuation,
    pi_interval,
    rising_factorial_ratio,
)
from .verify import CheckResult, VerificationReport, run_verification_suite
from .zeta_special import (
    ZetaValue,
    abs_zeta_one_minus_2k,
    zeta_abs_lower_bound,
    zeta_one_minus_2k,
    zeta_product,
)

__version__ = "0.1.0"
