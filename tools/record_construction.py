"""Time the construction of the records built on hot paths, in one or more checkouts.

    python3 tools/record_construction.py src [OTHER/src ...] [--repeats 40]

Each source directory's copy of the package is loaded into this one process
under its own name and labelled by its position, "a" for the first, "b" for
the second and so on, so the same directory may be given twice.  Each repeat
times each record in every copy back to back, in order on even repeats and
in reverse on odd ones, so that drift of the host's speed and the order of
the copies fall on all of them alike.  A timing is a loop of `--number`
constructions.  Prints one JSON object: the directory of each label, and per
label and record the nanoseconds one construction takes as the minimum, the
median and the quartiles over the repeats, and, for every copy after the
first, in how many repeats it was faster than the first.  The arguments are
fixed, so the validation each record does on construction is the same work
in every copy.
"""

import argparse
import importlib
import json
import statistics
import string
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
    witness = te.MagnitudeWitness(upper, "0 < e(14,1) < 1")
    return {
        "RationalInterval": lambda: te.RationalInterval(lo, hi),
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
    if len(args.src) > len(string.ascii_lowercase):
        parser.error(f"at most {len(string.ascii_lowercase)} source directories")
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 for quartiles")
    labels = string.ascii_lowercase[: len(args.src)]
    cases = {label: _cases(_load(src)) for label, src in zip(labels, args.src)}
    names = list(cases[labels[0]])
    samples = {label: {name: [] for name in names} for label in labels}
    for repeat in range(args.repeats):
        for name in names:
            for label in labels if repeat % 2 == 0 else labels[::-1]:
                samples[label][name].append(_time_ns(cases[label][name], args.number))
    first = labels[0]
    result = {"src": dict(zip(labels, args.src))}
    for label in labels:
        result[label] = {}
        for name, values in samples[label].items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry = {
                "min_ns": round(min(values), 1),
                "median_ns": round(median, 1),
                "q1_ns": round(q1, 1),
                "q3_ns": round(q3, 1),
            }
            if label != first:
                base = samples[first][name]
                entry["faster_than_first"] = sum(a < b for a, b in zip(values, base))
            result[label][name] = entry
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
