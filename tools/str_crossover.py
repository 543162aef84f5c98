"""Measure the crossovers of `exact_core.int_to_decimal`.

    PYTHONPATH=src python3 tools/str_crossover.py [--repeats 9]

`int_to_decimal` has three tiers: the builtin str(), the split by powers
of ten (from `_SPLIT_MIN_BITS`), and the split by powers of two through
`decimal` (from `_DECIMAL_MIN_BITS`).  Each tier is timed through the
public function, with the crossovers set so that it serves every bit
length, on random integers of each length; the ways alternate, and every
lru cache of `exact_core` is cleared before each conversion, as it is
when a CLI request starts.  Digits are compared
across the ways.  Prints one JSON object: the median milliseconds of each
way at each length, and the crossovers read from them.  A crossover is the
least length from which the next tier was faster at every larger length
measured, by at least 10 % for the split over str(), or null.
"""

import argparse
import json
import math
import random
import statistics
import sys
import time

from torelli_euler import exact_core

_BITS = (
    4_000, 6_000, 8_000, 10_000, 12_000, 14_000, 16_000, 20_000, 30_000, 40_000, 60_000,
    90_000, 120_000, 140_000, 155_000, 170_000, 185_000, 200_000, 250_000, 300_000,
)

# The tiers as crossovers (_SPLIT_MIN_BITS, _DECIMAL_MIN_BITS).
_WAYS = {"str": (math.inf, math.inf), "split": (0, math.inf), "decimal": (0, 0)}


def _cold_ms(convert, value):
    for obj in vars(exact_core).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
    start = time.perf_counter()
    result = convert(value)
    return (time.perf_counter() - start) * 1e3, result


def _measure(rng, repeats):
    rows = []
    for bits in _BITS:
        times = {way: [] for way in _WAYS}
        for _ in range(repeats):
            n = rng.getrandbits(bits) | 1 << (bits - 1)
            results = set()
            for way, crossovers in _WAYS.items():
                exact_core._SPLIT_MIN_BITS, exact_core._DECIMAL_MIN_BITS = crossovers
                ms, result = _cold_ms(exact_core.int_to_decimal, n)
                times[way].append(ms)
                results.add(result)
            if len(results) != 1:
                raise SystemExit(f"the ways disagree at {bits} bits")
        rows.append({way: round(statistics.median(times[way]), 4) for way in _WAYS})
    return rows


def _crossover(rows, slow, fast, factor):
    """The least length from which `fast` beat factor * `slow` at every larger one."""
    found = None
    for length, row in zip(_BITS, rows):
        if row[fast] < factor * row[slow]:
            found = found or length
        else:
            found = None
    return found


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args()
    saved = exact_core._SPLIT_MIN_BITS, exact_core._DECIMAL_MIN_BITS
    # No digit limit for str() (CPython 3.11 on; earlier versions have none).
    getattr(sys, "set_int_max_str_digits", lambda digits: None)(0)
    try:
        rows = _measure(random.Random(2026), args.repeats)
    finally:
        exact_core._SPLIT_MIN_BITS, exact_core._DECIMAL_MIN_BITS = saved
    print(json.dumps({
        "repeats": args.repeats,
        "int_to_decimal_ms": [{"bits": bits, **row} for bits, row in zip(_BITS, rows)],
        "crossovers": {
            "split_min_bits": _crossover(rows, "str", "split", 0.9),
            "decimal_min_bits": _crossover(rows, "split", "decimal", 1.0),
        },
        "in_use": {"split_min_bits": saved[0], "decimal_min_bits": saved[1]},
    }, indent=1))


if __name__ == "__main__":
    main()
