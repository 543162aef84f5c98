"""Measure where `int_to_decimal` should leave the builtin str() for its
divide-and-conquer conversion (`exact_core._STR_MAX_BITS`).

    PYTHONPATH=src python3 tools/str_crossover.py [--repeats 15]

For each bit length, random odd integers of that length are converted both
ways, alternately, and the digits compared, after one untimed conversion
that fills the cache of powers of two for that length.  Prints one line per
bit length with the median milliseconds of each way over the repeats, then
the least bit length from which the divide-and-conquer conversion was at
least 10 % faster at every larger length measured.
"""

import argparse
import random
import statistics
import sys
import time

from torelli_euler import exact_core

_BITS = (
    16_000, 20_000, 24_000, 28_000, 30_000, 31_000, 32_000, 32_200, 32_400, 33_000, 34_000,
    36_000, 40_000, 48_000,
)


def _ms(convert, n: int) -> tuple[float, str]:
    start = time.perf_counter()
    digits = convert(n)
    return (time.perf_counter() - start) * 1e3, digits


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    # No digit limit for str() (CPython 3.11 on; earlier versions have none).
    getattr(sys, "set_int_max_str_digits", lambda digits: None)(0)
    rng = random.Random(2026)
    divide_and_conquer = lambda n: str(exact_core._natural_to_decimal(n))  # noqa: E731
    faster_from = None
    print("bits  str_ms  divide_and_conquer_ms")
    for bits in _BITS:
        divide_and_conquer(rng.getrandbits(bits) | (1 << (bits - 1)))
        builtin, split = [], []
        for _ in range(args.repeats):
            n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            a_ms, a = _ms(str, n)
            b_ms, b = _ms(divide_and_conquer, n)
            if a != b:
                raise SystemExit(f"digits differ at {bits} bits")
            builtin.append(a_ms)
            split.append(b_ms)
        str_ms, split_ms = statistics.median(builtin), statistics.median(split)
        print(f"{bits:>6} {str_ms:7.3f} {split_ms:7.3f}")
        if split_ms < 0.9 * str_ms:
            faster_from = faster_from or bits
        else:
            faster_from = None
    print(f"divide-and-conquer at least 10 % faster from {faster_from} bits on" if faster_from
          else "divide-and-conquer not 10 % faster at the largest length measured")


if __name__ == "__main__":
    main()
