"""The standalone rechecker of the whole claim, as a module and as a copied file."""

import ast
import copy
import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from torelli_euler import recheck
from torelli_euler.certify import threshold_m0
from torelli_euler.recheck import certificate, check

_CLAIM = {
    "n_max": 677,
    "m0": 55,
    "prime_rows": [[691, 6, 7], [3617, 8, 54]],
    "gap": [[2, 1, 4], [1, 2, 4], [1, 1, 20], [0, 2, 10], [0, 1, 22]],
}


def _run(script, *args):
    return subprocess.run(
        [sys.executable, str(script), *map(str, args)],
        capture_output=True, text=True, timeout=60, cwd=script.parent,
    )


@pytest.mark.parametrize("n", [1, 13, 100, 677, 1000])
def test_the_walk_up_with_44_over_7_meets_the_threshold(n):
    # The walk down from the cap on pi's enclosure finds the same m0.
    assert certificate(n)["m0"] == threshold_m0(n)


def test_a_copy_of_the_module_rechecks_the_claim(recheck_copy):
    proc = _run(recheck_copy)
    assert proc.returncode == 0 and proc.stderr == ""
    text = json.dumps(_CLAIM, sort_keys=True, separators=(",", ":"))
    lines = proc.stdout.splitlines()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert lines[:2] == [f"certificate {text}", f"sha256 {digest}"]
    assert lines[2] == "premises, not computed:"
    assert lines[3:7] == [f"  {premise}" for premise in recheck.PREMISES]
    assert lines[7:] == ["PASS: e(m,n) is not an integer for m >= 6 and 1 <= n <= 677"]
    # The same as a module of the package.
    module = subprocess.run(
        [sys.executable, "-m", "torelli_euler.recheck"], capture_output=True, text=True, timeout=60
    )
    assert (module.returncode, module.stdout) == (0, proc.stdout)


def _set(path, value):
    # A tamper that puts `value` at `path` in the certificate.
    def tamper(cert):
        *outer, last = path
        target = cert
        for key in outer:
            target = target[key]
        target[last] = value

    return tamper


def test_a_larger_m0_still_proves_the_claim():
    assert check(dict(_CLAIM, m0=56, prime_rows=[[691, 6, 7], [3617, 8, 55]])) is None


def _paths(obj, prefix=()):
    # The path to each int in the certificate.
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [prefix]
    return [path for key, value in items for path in _paths(value, (*prefix, key))]


def test_a_bool_or_float_in_any_field_is_refused():
    paths = _paths(_CLAIM)
    assert len(paths) == 2 + 3 * 2 + 3 * 5
    for path in paths:
        for value in (True, False, 6.0, Fraction(6), "6"):
            cert = copy.deepcopy(_CLAIM)
            _set(path, value)(cert)
            assert check(cert) == (
                "n_max and m0 are ints, prime_rows and gap lists of [int, int, int]"
            ), (path, value)
    shapes = ({"rows": 1}, [], None, {**_CLAIM, "gap": {}}, {**_CLAIM, "prime_rows": [[1, 2]]})
    for shape in shapes:
        assert check(shape) is not None, shape


def test_the_module_imports_the_standard_library_alone():
    tree = ast.parse(Path(recheck.__file__).read_text(encoding="utf-8"))
    top = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert sorted(ast.unparse(node) for node in top) == [
        "from fractions import Fraction", "import math"
    ]
    (main,) = [node for node in tree.body if isinstance(node, ast.If)]
    assert ast.unparse(main.test) == "__name__ == '__main__'"
    late = {
        alias.name
        for node in ast.walk(main)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert late == {"hashlib", "json", "sys"}
    # No other import anywhere, and none relative or outside the standard library.
    kinds = (ast.Import, ast.ImportFrom)
    everywhere = [node for node in ast.walk(tree) if isinstance(node, kinds)]
    assert len(everywhere) == len(top) + len(late)
    assert all(isinstance(node, ast.Import) or node.level == 0 for node in everywhere)
    modules = {
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in everywhere
        for alias in node.names
    }
    assert modules == {"fractions", "math", "hashlib", "json", "sys"}
    assert modules <= set(sys.stdlib_module_names)
