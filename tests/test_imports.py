"""The import budget: the verification suite, json and traceback load only
when a command or a caller uses them, and dataclasses and inspect never."""

import importlib
import subprocess
import sys

import pytest

import torelli_euler
from torelli_euler import verify as verify_module

# The package's records are written out, not generated: no command loads these.
_NEVER = ("dataclasses", "inspect")
_DEFERRED = ("torelli_euler.verify", "json", "traceback", *_NEVER)


def _new_modules(code: str) -> set[str]:
    """Modules that `code` adds to a fresh interpreter's, beyond a bare start."""
    # conftest.py puts the source tree on PYTHONPATH, which the child inherits.
    report = "import sys; print(' '.join(sys.modules))"
    loaded = []
    for body in ("", code):
        proc = subprocess.run(
            [sys.executable, "-c", f"{body}\n{report}"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        loaded.append(set(proc.stdout.split()))
    return loaded[1] - loaded[0]


@pytest.mark.parametrize("module", ["torelli_euler.cli", "torelli_euler"])
def test_importing_loads_none_of_the_deferred_modules(module):
    new = _new_modules(f"import {module}")
    assert module in new
    assert not new & set(_DEFERRED)


def test_every_command_but_verify_paper_leaves_the_suite_unloaded():
    requests = [
        ["zeta", "--k", "6"],
        ["chi", "--space", "torelli", "-g", "3", "-n", "1"],
        ["emn", "-m", "6", "-n", "1"],
        ["certify", "-m", "14", "-n", "1"],
        ["threshold", "-n", "1"],
        ["scan", "--m-min", "6", "--m-max", "8", "--n-min", "1", "--n-max", "2"],
        ["bernoulli", "--max-k", "6"],
    ]
    code = "\n".join(
        ["import contextlib, io", "from torelli_euler import cli"]
        + [
            f"with contextlib.redirect_stdout(io.StringIO()): assert cli.main({argv!r}) == 0"
            for argv in requests
        ]
    )
    new = _new_modules(code)
    assert not new & {"torelli_euler.verify", "json", *_NEVER}


def test_verify_paper_loads_neither_dataclasses_nor_inspect(tmp_path):
    code = "\n".join(
        [
            "import contextlib, io",
            "from torelli_euler import cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    assert cli.main(['verify-paper', '--cache', {str(tmp_path / 'b.cache')!r}]) == 0",
        ]
    )
    new = _new_modules(code)
    assert "torelli_euler.verify" in new
    assert not new & set(_NEVER)


def test_the_deferred_names_are_the_verify_modules_own():
    from torelli_euler import CheckResult, VerificationReport, run_verification_suite, verify

    assert verify is verify_module
    assert CheckResult is verify.CheckResult
    assert VerificationReport is verify.VerificationReport
    assert run_verification_suite is verify.run_verification_suite


def test_dir_lists_the_deferred_names():
    names = dir(torelli_euler)
    for name in ("verify", "CheckResult", "VerificationReport", "run_verification_suite"):
        assert name in names
    assert "certify_non_integrality" in names and names == sorted(names)


@pytest.mark.parametrize(
    "layer", ["bernoulli", "certify", "euler_char", "exact_core", "zeta_special"]
)
def test_the_package_exports_each_eager_layers_public_names(layer):
    module = importlib.import_module(f"torelli_euler.{layer}")
    for name in module.__all__:
        assert getattr(torelli_euler, name) is getattr(module, name), name


def test_an_unknown_name_is_an_attribute_error_naming_the_module():
    message = "module 'torelli_euler' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=message):
        torelli_euler.no_such_name
