"""Spans at the module boundaries of torelli_euler, recorded from outside.

`install` wraps every public function of the eight layer modules, in every
module namespace that imported it by name, plus the few methods the layer
metrics name (interval multiply, outward rounding and power; table
validation).  No source file is changed.  Each call records a span (name,
parent, start, end, busy time) in flat arrays that stay in memory until
`write_spans` saves them; a layer's self time is its busy time minus the
busy time of its child spans.  Generator functions (`scan`) get one span
whose busy time is the sum of their resumptions, so work the consumer does
between points is not charged to the scan.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import os
import statistics
import time
from array import array
from collections import defaultdict
from fractions import Fraction

LAYERS = (
    "bernoulli",
    "zeta_special",
    "exact_core",
    "euler_char",
    "certify",
    "render",
    "cli",
    "verify",
)
CLI_COMMANDS = ("bernoulli", "zeta", "chi", "emn", "certify", "threshold", "scan", "verify-paper")

# Span names that differ from `<module>.<function>`.
_RENAMES = {
    # The Seidel build is the tangent-number recurrence plus one conversion.
    "bernoulli.tangent_numbers": "bernoulli.seidel",
    "euler_char.euler_moduli": "euler_char.chi",
    "euler_char.chi_torelli": "euler_char.chi",
    "euler_char.euler_siegel_quotient": "euler_char.chi",
}
# Methods wrapped on their class: (module, class, attribute) -> span name.
_METHODS = {
    ("exact_core", "RationalInterval", "__mul__"): "exact_core.interval_mul",
    ("exact_core", "RationalInterval", "outward"): "exact_core.interval_outward",
    ("exact_core", "RationalInterval", "__pow__"): "exact_core.interval_pow",
    ("bernoulli", "BernoulliTable", "__post_init__"): "bernoulli.validate",
}


def _arg(args: tuple, kwargs: dict, position: int, keyword: str, default):
    if len(args) > position:
        return args[position]
    return kwargs.get(keyword, default)


class Tracer:
    """In-memory span store plus the counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.busy = array("q")
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.maxima: defaultdict[str, int] = defaultdict(int)
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.cli_ms: defaultdict[str, list[float]] = defaultdict(list)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.busy.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int, resumed_at: int) -> None:
        now = time.perf_counter_ns()
        self.end[idx] = now
        self.busy[idx] += now - resumed_at
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx, self.start[idx])

    # -- wrapping -------------------------------------------------------------

    def _plain(self, fn, name: str):
        """Fast wrapper for a function with a fixed span name and no counters."""
        nid = self.name_id(name)
        names, parents, starts, ends, busy, stack = (
            self.name, self.parent, self.start, self.end, self.busy, self.stack,
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            busy.append(0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                busy[idx] = t1 - t0
                stack.pop()

        return wrapper

    def _hooked(self, fn, namer, before=None, after=None):
        """Wrapper whose span name depends on the arguments, with counter hooks.

        `after(args, kwargs, result, span_index)` runs only when `fn` returns.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self.begin(self.name_id(namer(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx, self.start[idx])
            if after is not None:
                after(args, kwargs, result, idx)
            return result

        return wrapper

    def _generator(self, fn, namer, on_item):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._trace_iteration(fn(*args, **kwargs), namer(args, kwargs), on_item, args, kwargs)

        return wrapper

    def _trace_iteration(self, gen, name, on_item, args, kwargs):
        idx = None
        while True:
            if idx is None:
                idx = self.begin(self.name_id(name))
                resumed_at = self.start[idx]
            else:
                self.stack.append(idx)
                resumed_at = time.perf_counter_ns()
            try:
                item = next(gen)
            except StopIteration:
                self.close(idx, resumed_at)
                return
            except BaseException:
                self.close(idx, resumed_at)
                raise
            self.close(idx, resumed_at)
            on_item(args, kwargs, item)
            yield item

    # -- counters recorded by the hooks ----------------------------------------

    def _count_outcome(self, cert, strategy: str) -> None:
        kind = type(cert).__name__
        label = {
            "IntegerValue": "integer",
            "PrimeWitness": "prime_witness",
            "MagnitudeWitness": "magnitude",
            "Inconclusive": "inconclusive",
        }[kind]
        self.counts[f"certify.outcome.{label}"] += 1
        if label == "prime_witness":
            witness = str(cert.p) if cert.p in (691, 3617) else "other"
            self.counts[f"certify.witness.{witness}"] += 1
        if strategy == "auto":
            self.counts["certify.auto.total"] += 1
            if label in ("integer", "prime_witness"):
                self.counts["certify.auto.exact"] += 1

    def _wrapper_for(self, module: str, attr: str, fn):
        name = _RENAMES.get(f"{module}.{attr}", f"{module}.{attr}")
        fixed = lambda args, kwargs: name  # noqa: E731
        if (module, attr) == ("bernoulli", "bernoulli_table"):
            def build_name(args, kwargs):
                self.counts["bernoulli.builds"] += 1
                algorithm = _arg(args, kwargs, 1, "algorithm", "seidel")
                return "bernoulli." + str(algorithm).replace("-", "_")

            return self._hooked(fn, build_name)
        if (module, attr) == ("bernoulli", "load_table"):
            def before(args, kwargs):
                self.counts["bernoulli.loads"] += 1
                path = _arg(args, kwargs, 0, "location", None)
                if path is not None and os.path.exists(path):
                    self.counts["bernoulli.load_table.bytes"] += os.path.getsize(path)

            return self._hooked(fn, fixed, before=before)
        if (module, attr) == ("bernoulli", "persist_table"):
            def after(args, kwargs, result, idx):
                path = _arg(args, kwargs, 1, "location", None)
                self.counts["bernoulli.persist_table.bytes"] += os.path.getsize(path)

            return self._hooked(fn, fixed, after=after)
        if (module, attr) == ("exact_core", "p_adic_valuation"):
            def before(args, kwargs):
                q = Fraction(_arg(args, kwargs, 0, "q", 0))
                bits = max(q.numerator.bit_length(), q.denominator.bit_length())
                key = "exact_core.p_adic_valuation.max_operand_bits"
                if bits > self.maxima[key]:
                    self.maxima[key] = bits

            return self._hooked(fn, fixed, before=before)
        if (module, attr) == ("exact_core", "pi_interval"):
            def before(args, kwargs):
                self.distinct["exact_core.pi_interval"].add(_arg(args, kwargs, 0, "precision", None))

            return self._hooked(fn, fixed, before=before)
        if (module, attr) == ("certify", "single_term_interval"):
            def before(args, kwargs):
                key = (_arg(args, kwargs, 0, "k", None), _arg(args, kwargs, 1, "precision", 64))
                self.distinct["certify.single_term_interval"].add(key)

            return self._hooked(fn, fixed, before=before)
        if (module, attr) == ("certify", "certify_non_integrality"):
            def after(args, kwargs, result, idx):
                self._count_outcome(result, _arg(args, kwargs, 2, "strategy", "auto"))

            return self._hooked(fn, fixed, after=after)
        if (module, attr) == ("certify", "scan"):
            def scan_name(args, kwargs):
                return "certify.scan." + _arg(args, kwargs, 2, "strategy", "exact")

            def on_point(args, kwargs, point):
                strategy = _arg(args, kwargs, 2, "strategy", "exact")
                self.counts[f"certify.scan.{strategy}.points"] += 1
                self._count_outcome(point.certificate, strategy)

            return self._generator(fn, scan_name, on_point)
        if (module, attr) == ("cli", "main"):
            def after(args, kwargs, result, idx):
                argv = _arg(args, kwargs, 0, "argv", None) or ["?"]
                self.cli_ms[argv[0]].append(self.busy[idx] / 1e6)

            return self._hooked(fn, fixed, after=after)
        if inspect.isgeneratorfunction(fn):
            return self._generator(fn, fixed, lambda *unused: None)
        return self._plain(fn, name)

    def install(self, package) -> None:
        """Wrap the public functions and named methods of every layer module."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        replacements: dict[int, tuple] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                replacements[id(obj)] = (obj, self._wrapper_for(layer, attr, obj))
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                entry = replacements.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(namespace, attr, entry[1])
        for (layer, cls_name, attr), name in _METHODS.items():
            cls = getattr(modules[layer], cls_name)
            setattr(cls, attr, self._plain(getattr(cls, attr), name))

    # -- results ----------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per span name."""
        n = len(self.name)
        child_busy = [0] * n
        parent, busy = self.parent, self.busy
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_busy[p] += busy[i]
        self_ns: defaultdict[str, int] = defaultdict(int)
        calls: defaultdict[str, int] = defaultdict(int)
        names, name = self.names, self.name
        for i in range(n):
            label = names[name[i]]
            self_ns[label] += busy[i] - child_busy[i]
            calls[label] += 1
        return {k: v / 1e9 for k, v in self_ns.items()}, dict(calls)

    def summary(self) -> dict[str, float]:
        """Counters and derived values that are not plain `.s`/`.calls` of a span."""
        self_s, calls = self.self_times()
        out: dict[str, float] = {}
        for name, seconds in self_s.items():
            out[f"{name}.s"] = seconds
        for name, count in calls.items():
            out[f"{name}.calls"] = count
        out.update(self.counts)
        out.update(self.maxima)
        for name, values in self.distinct.items():
            out[f"{name}.distinct"] = len(values)
        out["exact_core.pi_interval.distinct_precisions"] = out.pop("exact_core.pi_interval.distinct", 0)
        auto_total = self.counts.get("certify.auto.total", 0)
        out["certify.auto_exact_fallback_frac"] = (
            self.counts.get("certify.auto.exact", 0) / auto_total if auto_total else 0.0
        )
        for command in CLI_COMMANDS:
            samples = self.cli_ms.get(command, [])
            out[f"cli.{command}.calls"] = len(samples)
            out[f"cli.{command}.p50_ms"] = statistics.median(samples) if samples else 0.0
        for layer in LAYERS:
            out[f"layer.{layer}.s"] = sum(
                seconds for name, seconds in self_s.items() if name.split(".")[0] == layer
            )
        out["trace.spans"] = len(self.name)
        return out

    def write_spans(self, path) -> None:
        """Save every span as CSV (gzip): index, parent, name, start, end, busy (ns)."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("index,parent,name,start_ns,end_ns,busy_ns\n")
            names = self.names
            for i in range(len(self.name)):
                handle.write(
                    f"{i},{self.parent[i]},{names[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]},{self.busy[i]}\n"
                )
