"""Exact zeta values, Bernoulli numbers, orbifold Euler characteristics, and
machine-checkable certificates that e(m,n) is not an integer.

The verification suite (`verify`, and `CheckResult`, `VerificationReport`
and `run_verification_suite` from it) loads on first use, so importing the
package or running a command other than `verify-paper` does not compile it.
The rest of the namespace is the `__all__` of each of the five eager layers.
"""

from .bernoulli import *
from .certify import *
from .euler_char import *
from .exact_core import *
from .zeta_special import *

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
