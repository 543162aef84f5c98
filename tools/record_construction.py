"""Time the construction of the records built on hot paths, in one or more checkouts.

    python3 tools/record_construction.py src [OTHER/src ...] [--repeats 40]

Each source directory's copy of the package is loaded into this one process
under its own name, and the copies are timed in turn within each repeat, so
that drift of the host's speed falls on all of them alike.  A repeat times a
loop of `--number` constructions per record.  Prints one JSON object: per
source directory and record, the nanoseconds one construction takes as the
minimum, the median and the quartiles over the repeats, and, for every
directory after the first, in how many repeats it was faster than the first.
The arguments are fixed, so the validation each record does on construction
is the same work in every copy.
"""

import argparse
import importlib
import json
import statistics
import sys
import time
from fractions import Fraction

_PACKAGE = "torelli_euler"


def _load(src: str):
    """The package as found in `src`, removed from sys.modules so the next loads afresh."""
    sys.path.insert(0, src)
    try:
        package = importlib.import_module(_PACKAGE)
    finally:
        sys.path.pop(0)
    for name in [n for n in sys.modules if n == _PACKAGE or n.startswith(_PACKAGE + ".")]:
        del sys.modules[name]
    return package


def _cases(te):
    lo, hi = Fraction(5, 1 << 70), Fraction(7, 1 << 69)
    value = Fraction(12, 691 * 5)
    upper = Fraction(3, 1 << 40)
    zeta = Fraction(-1, 12)
    witness = te.MagnitudeWitness(upper, "0 < e(14,1) < 1")
    return {
        "RationalInterval": lambda: te.RationalInterval(lo, hi),
        "ZetaValue": lambda: te.ZetaValue(1, zeta),
        "PrimeWitness": lambda: te.PrimeWitness(value, 691, -1),
        "MagnitudeWitness": lambda: te.MagnitudeWitness(upper, "0 < e(14,1) < 1"),
        "ScanPoint": lambda: te.ScanPoint(14, 1, witness),
    }


def _time_ns(build, number: int) -> float:
    loop = range(number)
    start = time.perf_counter_ns()
    for _ in loop:
        build()
    return (time.perf_counter_ns() - start) / number


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", help="source directories holding the package")
    parser.add_argument("--repeats", type=int, default=40)
    parser.add_argument("--number", type=int, default=20_000)
    args = parser.parse_args()
    cases = {src: _cases(_load(src)) for src in args.src}
    samples = {src: {name: [] for name in cases[src]} for src in args.src}
    for _ in range(args.repeats):
        for src in args.src:
            for name, build in cases[src].items():
                samples[src][name].append(_time_ns(build, args.number))
    first = args.src[0]
    result = {}
    for src in args.src:
        result[src] = {}
        for name, values in samples[src].items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry = {
                "min_ns": round(min(values), 1),
                "median_ns": round(median, 1),
                "q1_ns": round(q1, 1),
                "q3_ns": round(q3, 1),
            }
            if src != first:
                base = samples[first][name]
                entry["faster_than_first"] = sum(a < b for a, b in zip(values, base))
            result[src][name] = entry
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
