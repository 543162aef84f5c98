"""Time the bound-sweep op list in two checkouts, alternating, in one process.

    python3 tools/bound_sweep_ab.py SRC_A SRC_B [--seed 1] [--repeats 41]

Each source directory's copy of the package is loaded into this one process
under its own name, as in tools/record_construction.py.  The op list is the
bound-sweep workload's for the seed, built by bench/ops.py, and each op is
the library call bench/worker.py makes for it.  Each copy first runs the
whole list once, untimed, so that its memos and lru caches are warm.  Then
each repeat times the ops of each kind in one copy and straight after in
the other, A first on even repeats and B first on odd ones, so that drift
of the host's speed and the order of the two fall on both alike.
Prints one JSON object: per op kind, and for the whole list, each copy's
median and quartiles in milliseconds over the repeats, the change of B's
median against A's in per cent, and in how many repeats B was faster.
"""

import sys

sys.dont_write_bytecode = True  # nothing written under bench/

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

_PACKAGE = "torelli_euler"
_BENCH = Path(__file__).resolve().parent.parent / "bench"
# BENCHMARK.json's run_seconds, which sets the length of the op list.
_RUN_SECONDS = 30


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


def _op_list(seed: int) -> list[dict]:
    sys.path.insert(0, str(_BENCH))
    try:
        ops = importlib.import_module("ops")
    finally:
        sys.path.pop(0)
    return ops.make_ops("bound-sweep", seed, _RUN_SECONDS)


def _call(te, op: dict):
    # The call bench/worker.py's run_bound_op makes for the op.
    kind = op["kind"]
    if kind == "threshold":
        return te.threshold_for_n(op["n"], m_cap=64)
    if kind == "certify-bound":
        return te.certify_non_integrality(op["m"], op["n"], "bound")
    if kind == "zeta-bound":
        return te.zeta_abs_lower_bound(op["k"])
    if kind == "wide-forms":
        return te.wide_range_bound_forms(op["m"])
    return list(te.scan(tuple(op["m"]), tuple(op["n"]), "bound"))


def _time_ms(te, ops: list[dict]) -> float:
    start = time.perf_counter()
    for op in ops:
        _call(te, op)
    return (time.perf_counter() - start) * 1000


def _summary(a: list[float], b: list[float]) -> dict:
    result = {}
    for label, values in (("a", a), ("b", b)):
        q1, median, q3 = statistics.quantiles(values, n=4)
        result[label] = {
            "median_ms": round(median, 3), "q1_ms": round(q1, 3), "q3_ms": round(q3, 3)
        }
    result["b_vs_a_pct"] = round(100 * (result["b"]["median_ms"] / result["a"]["median_ms"] - 1), 2)
    result["b_faster"] = sum(y < x for x, y in zip(a, b))
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", help="source directory holding copy A of the package")
    parser.add_argument("src_b", help="source directory holding copy B of the package")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=41)
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 for quartiles")
    copies = {"a": _load(args.src_a), "b": _load(args.src_b)}
    ops = _op_list(args.seed)
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op["kind"], []).append(op)
    for te in copies.values():
        for op in ops:
            _call(te, op)
    samples = {label: {kind: [] for kind in by_kind} for label in copies}
    for repeat in range(args.repeats):
        for kind, kind_ops in by_kind.items():
            for label in ("a", "b") if repeat % 2 == 0 else ("b", "a"):
                samples[label][kind].append(_time_ms(copies[label], kind_ops))
    totals = {label: [sum(run) for run in zip(*samples[label].values())] for label in copies}
    result = {
        "src_a": args.src_a,
        "src_b": args.src_b,
        "seed": args.seed,
        "repeats": args.repeats,
        "ops": {kind: len(kind_ops) for kind, kind_ops in by_kind.items()},
        "total": _summary(totals["a"], totals["b"]),
    }
    for kind in by_kind:
        result[kind] = _summary(samples["a"][kind], samples["b"][kind])
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
