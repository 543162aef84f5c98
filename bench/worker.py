"""One workload run in a fresh interpreter: import, set up, run the op list.

Started by run.py, never by hand.  The package is imported before anything
else so the measured import matches what a user pays.  The worker writes
each op's output to a JSON-lines file as soon as the op returns (so the
outputs do not inflate peak memory) and a record of timings to record.json;
run.py checks the outputs against the oracles afterwards.

    python bench/worker.py --workload W --ops OPS.json --dir DIR [--trace] [--setup-only]
"""

import sys
import time

_t0 = time.perf_counter()
import torelli_euler.cli  # noqa: E402,F401  -- the import being measured

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import torelli_euler as te  # noqa: E402

import ops as oplib  # noqa: E402
import probe as speed  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# A fresh process starts with the interpreter's digit limit; requests that
# lift it must not leak that into the next request.
INITIAL_INT_DIGITS = sys.get_int_max_str_digits()
# Every lru cache in the package, found before tracing wraps anything, so a
# CLI request can start from a fresh process's state.
LRU_CACHES = {
    id(obj): obj
    for layer in LAYERS
    for obj in vars(getattr(te, layer)).values()
    if callable(getattr(obj, "cache_clear", None))
}.values()

SETUP_TABLE_INDEX = 1200


def _fraction(q) -> str:
    # Hex keeps the text independent of the int<->str digit limit.
    return f"{q.numerator:x}/{q.denominator:x}"


def _interval(iv) -> str:
    return f"[{_fraction(iv.lo)},{_fraction(iv.hi)}]"


def _certificate(cert) -> str:
    if isinstance(cert, te.MagnitudeWitness):
        return f"magnitude {_fraction(cert.upper)} {cert.statement}"
    if isinstance(cert, te.PrimeWitness):
        return f"prime {cert.p} {cert.valuation} {_fraction(cert.value)}"
    if isinstance(cert, te.IntegerValue):
        return f"integer {cert.value:x}"
    return f"inconclusive {cert.reason}"


def run_bound_op(op: dict):
    """One bound-sweep library call; returns its result unconverted."""
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


def bound_output(op: dict, result) -> str:
    kind = op["kind"]
    if kind == "threshold":
        lines = [f"threshold {result.n} {result.m_cap} {result.m_found}"]
        lines += [
            f"seq {s.m} {s.n} {_interval(s.value)} {_interval(s.ratio_next)}" for s in result.chain
        ]
        return "\n".join(lines)
    if kind == "certify-bound":
        return _certificate(result)
    if kind == "zeta-bound":
        return _interval(result)
    if kind == "wide-forms":
        return f"{_interval(result.per_index_product)} {_interval(result.constant_factor_product)}"
    return "\n".join(f"{p.m} {p.n} {_certificate(p.certificate)}" for p in result)


def setup(workload: str, work: Path) -> dict:
    """Workload set-up; returns the paths requests refer to."""
    if workload != "cli-requests":
        return {}
    cache = work / "setup.cache"
    te.persist_table(te.bernoulli_table(SETUP_TABLE_INDEX), cache)
    (work / "fresh").mkdir(exist_ok=True)
    return {"cache": str(cache)}


def peak_rss_mb() -> float:
    """High-water resident memory of this process image.

    Not `ru_maxrss`: Linux carries that across fork and exec, so it would
    report the launching process's size whenever that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def reset_process_state() -> None:
    sys.set_int_max_str_digits(INITIAL_INT_DIGITS)
    for cache in LRU_CACHES:
        cache.cache_clear()


class Run:
    """Closed loop over the op list: each op starts when the previous returned.

    In bound-sweep and cli-requests a host-speed sample follows every op,
    outside its timing.
    """

    def __init__(self, out, tracer):
        self.out = out
        self.tracer = tracer
        self.probe = speed.Probe()
        self.op_s: list[float] = []
        self.hashes: list[str] = []
        self.failed: list[int] = []
        self.cache_ops = 0  # ops that acquired a Bernoulli table (traced runs)
        self.cache_served = 0  # ... and got it from the cache without a rebuild
        self.output_bytes = 0  # rendered CLI output

    def record(self, index: int, seconds: float, ok: bool, payload: dict) -> None:
        # One serialised copy of the output, so that big outputs add little
        # to the peak memory being measured.
        line = json.dumps({"i": index, **payload}, sort_keys=True)
        self.out.write(line)
        self.out.write("\n")
        self.op_s.append(seconds)
        self.hashes.append(hashlib.sha256(line.encode()).hexdigest())
        if not ok:
            self.failed.append(index)

    def traced(self, fn):
        if self.tracer is None:
            return fn()
        counts = self.tracer.counts
        loads, builds = counts["bernoulli.loads"], counts["bernoulli.builds"]
        with self.tracer.span("op"):
            result = fn()
        loaded = counts["bernoulli.loads"] > loads
        built = counts["bernoulli.builds"] > builds
        if loaded or built:
            self.cache_ops += 1
            self.cache_served += loaded and not built
        return result

    def verify(self, op: dict) -> None:
        # The suite is one call; each of its checks is an op, timed between
        # the echo callbacks the suite makes after every check.
        marks: list[float] = []
        start = time.perf_counter()
        report = self.traced(
            lambda: te.run_verification_suite(op["mode"], echo=lambda line: marks.append(time.perf_counter()))
        )
        previous = start
        for index, (check, mark) in enumerate(zip(report.checks, marks)):
            payload = {"id": check.id, "status": check.status, "witness": check.witness}
            self.record(index, mark - previous, check.status == "pass", payload)
            previous = mark

    def bound_sweep(self, ops: list[dict]) -> None:
        for index, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                result = self.traced(lambda: run_bound_op(op))
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                seconds = time.perf_counter() - t0
                self.record(index, seconds, False, {"error": f"{type(exc).__name__}: {exc}"})
            else:
                seconds = time.perf_counter() - t0
                self.record(index, seconds, True, {"out": bound_output(op, result)})
            self.probe.sample()

    def cli_requests(self, ops: list[dict], paths: dict, work: Path) -> None:
        for index, op in enumerate(ops):
            argv = [
                paths["cache"] if a == oplib.SETUP_CACHE
                else str(work / "fresh" / f"{index}.cache") if a == oplib.FRESH_CACHE
                else a
                for a in op["argv"]
            ]
            reset_process_state()
            stdout, stderr = io.StringIO(), io.StringIO()
            error = None
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    rc = self.traced(lambda: te.cli.main(argv))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # noqa: BLE001 - a raising request is a failed op
                    rc, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            payload = {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
            self.output_bytes += len(payload["stdout"].encode())
            if error is not None:
                payload["error"] = error
            self.record(index, seconds, error is None and rc != 2, payload)
            self.probe.sample()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=oplib.WORKLOADS)
    parser.add_argument("--ops", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    work = Path(args.dir)
    work.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(te)

    t0 = time.perf_counter()
    with tracer.span("setup") if tracer else contextlib.nullcontext():
        paths = setup(args.workload, work)
    setup_s = IMPORT_S + time.perf_counter() - t0
    record = {"import_s": IMPORT_S, "setup_s": setup_s, "setup_probe_ms": speed.setup_speed_ms()}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    ops = json.loads(Path(args.ops).read_text())
    with open(work / "outputs.jsonl", "w", encoding="utf-8") as out:
        run = Run(out, tracer)
        if args.workload == "verify-standard":
            run.verify(ops[0])
        elif args.workload == "bound-sweep":
            run.bound_sweep(ops)
        else:
            run.cli_requests(ops, paths, work)
    record.update(
        # Time spent inside ops: the harness's bookkeeping between ops
        # (serialising, hashing, writing outputs) is left out.
        wall_s=sum(run.op_s),
        op_s=run.op_s,
        failed=run.failed,
        hashes=run.hashes,
        peak_rss_mb=peak_rss_mb(),
        probe_s=run.probe.samples,
    )
    if tracer is not None:
        layers = tracer.summary()
        layers["bernoulli.cache_served_frac"] = (
            run.cache_served / run.cache_ops if run.cache_ops else 0.0
        )
        layers["cli.import_ms"] = IMPORT_S * 1000
        layers["render.output_bytes"] = run.output_bytes
        record["layers"] = layers
        tracer.write_spans(work / "spans.csv.gz")
    (work / "record.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
