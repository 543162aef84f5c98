"""Benchmark entry point: one run of one workload, ending in one JSON line.

    python3 bench/run.py --workload cli-requests --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository (it needs src/torelli_euler next to
bench/).  The op list comes from the seed; the ops run in a fresh
interpreter (bench/worker.py) with tracing off, and the outputs are then
checked by the oracles in bench/oracles.py, outside any timed region.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json; set-up time
is the median over several fresh interpreters spread over the run.  Set-up
times, and the op times of bound-sweep and cli-requests, are scaled to a
reference host speed measured during the run (see bench/probe.py); the raw
times are printed beside them.
--trace 1 runs the same op list a second time with every public function of
the package wrapped in spans, checks that each op's output is byte-identical
to the untraced run, times launches of the CLI, and prints the per-layer
metrics instead.  Everything the run writes goes under
.bench_work/ in the checkout; the spans of the latest traced run of each
workload are kept there as CSV.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import ops as oplib  # noqa: E402
import oracles  # noqa: E402
import probe as speed  # noqa: E402

# Set-up is sampled in fresh interpreters before and after the op loop,
# because the machine's speed drifts over seconds.
SETUP_SAMPLES = (2, 3)
COLD_START_LAUNCHES = 15
COLD_START_ARGV = ["-m", "torelli_euler", "zeta", "--k", "6"]
# Workloads whose op times are scaled by the host-speed probe.
SCALED_WORKLOADS = ("bound-sweep", "cli-requests")
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


def child_env(run_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(run_dir / "tmp")
    # A fresh user process: no cache override, interpreter's own digit limit.
    env.pop("TORELLI_EULER_CACHE", None)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def run_worker(workload: str, run_dir: Path, name: str, *flags: str) -> dict:
    work = run_dir / name
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--ops", str(run_dir / "ops.json"), "--dir", str(work), *flags,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(run_dir), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    if "--setup-only" in flags:
        return json.loads(proc.stdout)
    return json.loads((work / "record.json").read_text())


def read_outputs(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def setup_samples(workload: str, run_dir: Path, count: int, first: int) -> list[dict]:
    return [
        run_worker(workload, run_dir, f"setup{first + i}", "--setup-only")
        for i in range(count)
    ]


def scaled_setup_s(record: dict) -> float:
    return record["setup_s"] * speed.REFERENCE_MS / record["setup_probe_ms"]


def cold_start_ms(run_dir: Path) -> tuple[float, list[str]]:
    """Fastest of several CLI launches, and any wrong outputs."""
    expected = f"zeta(1-2k) for k=6: {oracles.rational_text(oracles.zeta(6))}\n"
    samples, errors = [], []
    for _ in range(COLD_START_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *COLD_START_ARGV], cwd=ROOT, env=child_env(run_dir),
            capture_output=True, text=True, timeout=60,
        )
        samples.append((time.perf_counter() - t0) * 1000)
        if proc.returncode != 0 or proc.stdout != expected:
            errors.append(f"cold start: exit {proc.returncode}, output {proc.stdout[:80]!r}")
    return min(samples), errors


def p95(values: list[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def latency_metrics(workload: str, op_s: list[float]) -> dict:
    # The suite's 21 checks count as ops for success, but the request a
    # user waits for is the one verify-paper call, so its latency
    # percentiles are over suite calls: one sample, equal to wall_s.
    wall_s = sum(op_s)
    latency_s = [wall_s] if workload == "verify-standard" else op_s
    return {
        "wall_s": wall_s,
        "op_p50_ms": statistics.median(latency_s) * 1000,
        "op_p95_ms": p95(latency_s) * 1000,
    }


def check_outputs(workload: str, ops: list[dict], outputs: list[dict], failed: set, run_dir: Path):
    """Oracle mismatches plus the input properties read off the outputs."""
    errors: list[str] = []
    props: dict = {}
    if workload == "verify-standard":
        ledger = oracles.scan_ledger(6, 200, oracles.MAX_N)
        errors += oracles.check_verify_report(outputs, ledger)
        props["witness_histogram"] = {"691": ledger["691"], "3617": ledger["3617"], "other": 0}
        props["checks"] = [o["id"] for o in outputs]
        return errors, props
    if workload == "bound-sweep":
        kinds = {"magnitude": 0, "inconclusive": 0}
        for op, result in zip(ops, outputs):
            if result["i"] in failed:
                continue
            errors += oracles.check_bound_op(op, result["out"])
            if op["kind"] in ("certify-bound", "scan-bound"):
                for line in result["out"].split("\n"):
                    kinds["magnitude" if "magnitude" in line else "inconclusive"] += 1
        props["bound_certificates"] = kinds
        return errors, props
    histogram = {"691": 0, "3617": 0, "other": 0}
    auto = auto_exact = 0
    for op, result in zip(ops, outputs):
        if result["i"] in failed:
            continue
        fresh = run_dir / "plain" / "fresh" / f"{result['i']}.cache"
        errors += oracles.check_cli_op(op, result, fresh)
        for p in re.findall(r'v_(\d+) = |"p": "(\d+)"', result["stdout"]):
            prime = p[0] or p[1]
            histogram[prime if prime in histogram else "other"] += 1
        if op["kind"] == "certify-auto":
            auto += 1
            auto_exact += "magnitude witness" not in result["stdout"]
    table_kinds = {"certify-auto", "certify-exact-json", "emn", "zeta", "chi", "scan-json"}
    acquiring = [op for op in ops if op["kind"] != "threshold"]
    props["cache_request_frac"] = sum(op["kind"] in table_kinds for op in acquiring) / len(acquiring)
    props["auto_exact_fallback_frac"] = auto_exact / auto if auto else 0.0
    out_of_window = [i for i, op in enumerate(ops) if op["kind"] == "certify-out-of-window"]
    props["out_of_window_frac"] = len(out_of_window) / len(ops)
    props["out_of_window_failed"] = sum(i in failed for i in out_of_window)
    props["witness_histogram"] = histogram
    return errors, props


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=oplib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "torelli_euler" / "__init__.py").is_file():
        print(f"bench: {SRC}/torelli_euler is missing; run from a full checkout", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    try:
        ops = oplib.make_ops(args.workload, args.seed, args.seconds)
        (run_dir / "ops.json").write_text(json.dumps(ops))
        setups = [] if args.trace else setup_samples(args.workload, run_dir, SETUP_SAMPLES[0], 0)
        plain = run_worker(args.workload, run_dir, "plain")
        if not args.trace:
            setups += setup_samples(args.workload, run_dir, SETUP_SAMPLES[1], len(setups))
        outputs = read_outputs(run_dir / "plain" / "outputs.jsonl")
        failed = set(plain["failed"])
        errors, props = check_outputs(args.workload, ops, outputs, failed, run_dir)
        del outputs
        props.update(ops=len(ops), op_list_hash=oplib.op_list_hash(ops))
        op_s = plain["op_s"]
        if args.trace:
            traced = run_worker(args.workload, run_dir, "traced", "--trace")
            mismatched = sum(a != b for a, b in zip(plain["hashes"], traced["hashes"]))
            if mismatched or len(plain["hashes"]) != len(traced["hashes"]):
                errors.append(f"trace: {mismatched} op outputs differ with tracing on")
            values = dict(traced["layers"])
            values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            values["input.out_of_window_frac"] = props.get("out_of_window_frac", 0.0)
            # Cold start is a layer metric: on a 2-core container whose speed
            # drifts, its run-to-run spread reaches the largest bound an
            # end-to-end metric may have.
            values["cli.cold_start_ms"], cold_errors = cold_start_ms(run_dir)
            errors += cold_errors
            if args.workload == "verify-standard":
                for check_id, seconds in zip(props["checks"], op_s):
                    values[f"verify.check.{check_id}.s"] = seconds
            shutil.copy(run_dir / "traced" / "spans.csv.gz", WORK / f"spans-{args.workload}.csv.gz")
        else:
            setups.append(plain)
            scaled_s = op_s
            if args.workload in SCALED_WORKLOADS:
                scaled_s = speed.scale_ops(op_s, plain["probe_s"])
            raw, values = latency_metrics(args.workload, op_s), latency_metrics(args.workload, scaled_s)
            raw["setup_s"] = statistics.median(r["setup_s"] for r in setups)
            values.update(
                setup_s=statistics.median(scaled_setup_s(r) for r in setups),
                success_rate=1 - len(failed) / len(op_s),
                peak_rss_mb=plain["peak_rss_mb"],
            )
            probe_s = plain["probe_s"]
            props["speed"] = {
                "probe_ms": statistics.median(probe_s) * 1000 if probe_s else None,
                "probe_samples": len(probe_s),
                "setup_probe_ms": [r["setup_probe_ms"] for r in setups],
                "raw": raw,
            }
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in metric_specs}
    result = {
        "correct": not errors,
        "attempted": len(op_s),
        "failed": len(failed),
        "metrics": metrics,
    }
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"input": props, "errors": errors, **result}, indent=1)
    )
    for message in errors[:20]:
        print(f"oracle: {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(op_s)} ops, {len(failed)} failed, "
          f"op list {props['op_list_hash']}, outputs {'correct' if not errors else 'WRONG'}")
    print("input: " + json.dumps({k: v for k, v in props.items() if k != "checks"}, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
