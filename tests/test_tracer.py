"""The benchmark's tracer against the package it wraps.

`bench/tracer.py` wraps the public functions of every layer module and a
few named methods, and counts each certificate in the hook of the public
function that returned it.  Installing it patches classes for the whole
interpreter, so the check runs in a child process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, "bench")
import torelli_euler.cli  # noqa: F401  -- the tracer wraps what the CLI imports
import torelli_euler
from tracer import Tracer

tracer = Tracer()
tracer.install(torelli_euler)
torelli_euler.certify_non_integrality(14, 1, "bound")
list(torelli_euler.scan((14, 14), (1, 2), "bound"))
counts = dict(tracer.counts)
assert counts["certify.outcome.magnitude"] == 3, counts
assert counts["certify.scan.bound.points"] == 2, counts
"""


def test_the_tracer_counts_each_certificate_once():
    # A public function that called another would count its certificates twice.
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
