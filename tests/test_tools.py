"""Smoke tests of the two A/B timing tools, each run on two copies of one tree."""

import json
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_RECORDS = ["RationalInterval", "PrimeWitness", "MagnitudeWitness", "ScanPoint"]


def _bench_files():
    return {
        path: path.stat().st_mtime_ns for path in (_ROOT / "bench").rglob("*") if path.is_file()
    }


def _run_tool(*argv):
    before = _bench_files()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=_ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert _bench_files() == before
    return json.loads(proc.stdout)


def test_record_construction_labels_copies_by_position():
    # The same tree twice is two copies, so a copy can be timed against itself.
    result = _run_tool(
        "tools/record_construction.py", "src", "src", "--repeats", "2", "--number", "10"
    )
    assert list(result) == ["src", "a", "b"]
    assert result["src"] == {"a": "src", "b": "src"}
    for label in "ab":
        assert list(result[label]) == _RECORDS
    assert set(result["a"]["ScanPoint"]) == {"min_ns", "median_ns", "q1_ns", "q3_ns"}
    for entry in result["b"].values():
        assert set(entry) == {"min_ns", "median_ns", "q1_ns", "q3_ns", "faster_than_first"}
        assert 0 <= entry["faster_than_first"] <= 2


def test_bound_sweep_ab_compares_two_copies():
    result = _run_tool("tools/bound_sweep_ab.py", "src", "src", "--repeats", "2")
    assert (result["src_a"], result["src_b"], result["seed"], result["repeats"]) == (
        "src", "src", 1, 2
    )
    kinds = list(result["ops"])
    assert kinds and all(count > 0 for count in result["ops"].values())
    for key in ("total", *kinds):
        summary = result[key]
        assert set(summary) == {"a", "b", "b_vs_a_pct", "b_faster"}
        assert set(summary["a"]) == set(summary["b"]) == {"median_ms", "q1_ms", "q3_ms"}
        assert 0 <= summary["b_faster"] <= 2
