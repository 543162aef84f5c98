"""Seeded op lists for the three benchmark workloads.

An op is a small JSON-able dict.  The same (workload, seed, seconds) always
gives the same list, and `op_list_hash` fingerprints it so a run record can
show which inputs it measured.  Parameters are drawn by stratified sampling
(one draw per equal slice of each range, then shuffled), so the total cost
of a run depends little on the seed while the order and exact values still
vary with it.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("verify-standard", "bound-sweep", "cli-requests")

# Ops per measured second, tuned so a run of --seconds lasts about that long
# on a 2-core container; the floor keeps ten samples beyond the p95.
OPS_PER_SECOND = {"bound-sweep": 15.0, "cli-requests": 10.0}
MIN_OPS = 200

# Requests marked with these placeholders get real paths inside the run's
# work directory, so the op list (and its hash) does not depend on where the
# checkout lives.
SETUP_CACHE = "{cache}"
FRESH_CACHE = "{fresh}"

# (share, kind) pairs; shares follow the workload definitions.
BOUND_SWEEP_MIX = (
    (0.25, "threshold"),
    (0.30, "certify-bound"),
    (0.25, "zeta-bound"),
    (0.10, "wide-forms"),
    (0.10, "scan-bound"),
)
CLI_MIX = (
    (0.35, "certify-auto"),
    (0.15, "certify-exact-json"),
    (0.10, "emn"),
    (0.10, "zeta"),
    (0.05, "chi"),
    (0.10, "threshold"),
    (0.05, "scan-json"),
    (0.05, "certify-out-of-window"),
    (0.05, "bernoulli-write"),
)

# The witnessed window of the paper: m <= 200 for exact work here, n <= 677.
MAX_N = 677
SCAN_BOUND_BLOCK = (10, 20)  # m rows by n columns
SCAN_CLI_BLOCK = (5, 40)


def op_count(workload: str, seconds: int) -> int:
    if workload == "verify-standard":
        return 1
    return max(MIN_OPS, round(seconds * OPS_PER_SECOND[workload]))


def _class_counts(mix, total: int) -> list[tuple[str, int]]:
    # Largest-remainder rounding, so the counts always sum to `total`.
    raw = [(share * total, kind) for share, kind in mix]
    counts = [int(value) for value, _ in raw]
    order = sorted(range(len(raw)), key=lambda i: raw[i][0] - counts[i], reverse=True)
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return [(kind, count) for (_, kind), count in zip(raw, counts)]


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """`count` integers in [lo, hi], one uniform draw per equal slice, shuffled."""
    span = hi - lo + 1
    values = [min(hi, lo + int((i + rng.random()) * span / count)) for i in range(count)]
    rng.shuffle(values)
    return values


def _bound_sweep_ops(rng: random.Random, total: int) -> list[dict]:
    ops: list[dict] = []
    for kind, count in _class_counts(BOUND_SWEEP_MIX, total):
        if kind == "threshold":
            ops += [{"kind": kind, "n": n} for n in _strata(rng, 1, MAX_N, count)]
        elif kind == "certify-bound":
            pairs = zip(_strata(rng, 1, 200, count), _strata(rng, 1, MAX_N, count))
            ops += [{"kind": kind, "m": m, "n": n} for m, n in pairs]
        elif kind == "zeta-bound":
            ops += [{"kind": kind, "k": k} for k in _strata(rng, 1, 120, count)]
        elif kind == "wide-forms":
            ops += [{"kind": kind, "m": m} for m in _strata(rng, 1, 60, count)]
        else:
            rows, cols = SCAN_BOUND_BLOCK
            pairs = zip(_strata(rng, 1, 120, count), _strata(rng, 1, MAX_N - cols + 1, count))
            ops += [
                {"kind": kind, "m": [m, m + rows - 1], "n": [n, n + cols - 1]}
                for m, n in pairs
            ]
    rng.shuffle(ops)
    return ops


def _cli_ops(rng: random.Random, total: int) -> list[dict]:
    cache = ["--cache", SETUP_CACHE]
    ops: list[dict] = []
    for kind, count in _class_counts(CLI_MIX, total):
        if kind == "certify-auto":
            pairs = zip(_strata(rng, 1, 200, count), _strata(rng, 1, MAX_N, count))
            argvs = [["certify", "-m", str(m), "-n", str(n)] + cache for m, n in pairs]
        elif kind == "certify-exact-json":
            pairs = zip(_strata(rng, 6, 200, count), _strata(rng, 1, MAX_N, count))
            argvs = [
                ["certify", "-m", str(m), "-n", str(n), "--strategy", "exact",
                 "--format", "json"] + cache
                for m, n in pairs
            ]
        elif kind == "emn":
            pairs = zip(_strata(rng, 1, 200, count), _strata(rng, 1, MAX_N, count))
            argvs = [["emn", "-m", str(m), "-n", str(n)] + cache for m, n in pairs]
        elif kind == "zeta":
            argvs = [["zeta", "--k", str(k)] + cache for k in _strata(rng, 1, 600, count)]
        elif kind == "chi":
            spaces = [("siegel", "moduli", "torelli")[i % 3] for i in range(count)]
            rng.shuffle(spaces)
            argvs = []
            for space, g, n in zip(spaces, _strata(rng, 2, 100, count), _strata(rng, 0, 10, count)):
                marked = 0 if space == "siegel" else n
                argvs.append(["chi", "--space", space, "-g", str(g), "-n", str(marked)] + cache)
        elif kind == "threshold":
            argvs = [["threshold", "-n", str(n)] + cache for n in _strata(rng, 1, MAX_N, count)]
        elif kind == "scan-json":
            rows, cols = SCAN_CLI_BLOCK
            pairs = zip(_strata(rng, 1, 60 - rows + 1, count), _strata(rng, 1, MAX_N - cols + 1, count))
            argvs = [
                ["scan", "--m-min", str(m), "--m-max", str(m + rows - 1),
                 "--n-min", str(n), "--n-max", str(n + cols - 1), "--format", "json"] + cache
                for m, n in pairs
            ]
        elif kind == "certify-out-of-window":
            pairs = zip(_strata(rng, 6, 20, count), _strata(rng, MAX_N + 1, 5000, count))
            argvs = [
                ["certify", "-m", str(m), "-n", str(n), "--strategy", "exact"]
                for m, n in pairs
            ]
        else:
            argvs = [
                ["bernoulli", "--max-k", str(k), "--cache", FRESH_CACHE]
                for k in _strata(rng, 50, 300, count)
            ]
        ops += [{"kind": kind, "argv": argv} for argv in argvs]
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int, seconds: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if workload == "verify-standard":
        # The suite's input is fixed by the paper; the seed has nothing to vary.
        return [{"kind": "verify-paper", "mode": "standard"}]
    rng = random.Random(f"{workload}:{seed}")
    total = op_count(workload, seconds)
    if workload == "bound-sweep":
        return _bound_sweep_ops(rng, total)
    return _cli_ops(rng, total)


def op_list_hash(ops: list[dict]) -> str:
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
