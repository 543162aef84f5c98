"""Smoke tests of the timing tools: the two A/B tools, each run on two copies
of one tree, and the crossover measurement of the decimal conversions."""

import json
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_RECORDS = ["RationalInterval", "PrimeWitness", "MagnitudeWitness", "ScanPoint"]


def _bench_files():
    return {
        path: path.stat().st_mtime_ns for path in (_ROOT / "bench").rglob("*") if path.is_file()
    }


def _run_tool(*argv, env=None):
    before = _bench_files()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=_ROOT, capture_output=True, text=True, timeout=120, env=env
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


def test_str_crossover_times_every_tier():
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    result = _run_tool("tools/str_crossover.py", "--repeats", "1", env=env)
    names = {"split_min_bits", "decimal_min_bits"}
    assert result["repeats"] == 1
    assert set(result["crossovers"]) == set(result["in_use"]) == names
    from torelli_euler import exact_core

    in_use = result["in_use"]
    assert in_use == {
        "split_min_bits": exact_core._SPLIT_MIN_BITS,
        "decimal_min_bits": exact_core._DECIMAL_MIN_BITS,
    }
    rows = result["int_to_decimal_ms"]
    assert rows and all(set(row) == {"bits", "str", "split", "decimal"} for row in rows)
    assert all(row[way] > 0 for row in rows for way in ("str", "split", "decimal"))
    # The lengths measured straddle the crossovers in use.
    lengths = [row["bits"] for row in rows]
    assert lengths == sorted(lengths)
    assert all(lengths[0] < in_use[name] < lengths[-1] for name in names)
