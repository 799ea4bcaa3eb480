"""In-process tracing of negmul's layers, from outside the package.

Tracer.install() rebinds each layer's public functions where their callers
look them up, and restores them on uninstall(). Coarse boundaries (cli.main,
run_bench, verify_universal_agreement, BenchReport.to_json, the recodings,
the drivers) become Span records. The hot per-operation boundaries (CostLedger
methods, group operations), which run about a million times per second of
work, are folded into per-parent count and self-time totals instead.

A span's self time is its duration minus the time its child spans and hot
calls cover, so the self times of one call add up to its root span. The
wrappers' own cost lands in the self time of the span that called them.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

import negmul.algorithms
import negmul.backends
import negmul.bench
import negmul.cli
import negmul.costs
import negmul.verify

RECODINGS = ("binary_expansion", "naf", "width_w_naf")

# driver function -> algorithm id (mixed_scalar_mul's id depends on its mode)
DRIVER_IDS = {
    "double_and_add": "baseline",
    "neg_scalar_mul": "neg",
    "neg_scalar_mul_online": "online",
    "mixed_scalar_mul": None,
    "windowed_neg_scalar_mul": "window",
}
MIXED_IDS = {"neg_doubling_only": "neg-dbl-only", "neg_addition_only": "neg-add-only"}

GROUP_OPS = ("add", "dbl", "neg", "neg_add", "neg_dbl")
# CostLedger method -> hot call key
LEDGER_METHODS = {
    "__init__": "costs.ledger",
    "charge": "costs.charge",
    "merge": "costs.merge",
    **dict.fromkeys(("copy", "count", "counts", "vector", "total"), "costs.other"),
}

# hot call key -> layer metric its self time adds to
HOT_LAYERS = {
    "costs.charge": "costs",
    "costs.merge": "costs",
    "costs.ledger": "costs",
    "costs.other": "costs",
    "backends.forward.op": "backends.forward",
    "backends.forward.other": "backends.forward",
    "backends.modular.op": "backends.modular",
    "backends.modular.other": "backends.modular",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "call_id", "child", "hot")

    def __init__(self, name: str, parent: Span | None, call_id: int) -> None:
        self.name = name
        self.parent = parent
        self.call_id = call_id
        self.start = self.end = 0.0
        self.child = 0.0  # time covered by child spans
        self.hot: dict[str, list] = {}  # hot key -> [count, self seconds]

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child - sum(a[1] for a in self.hot.values())


class Tracer:
    """Collects spans for one call at a time and folds them into totals."""

    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.hot_stack: list[float] = []  # time covered by nested hot calls
        self.spans: list[Span] = []
        self.call_id = 0
        self.self_s: Counter[str] = Counter()  # span name or hot key -> self seconds
        self.counts: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self._caches: list = []  # verify's recoding caches made during the current call
        self._ledger_counts = negmul.costs.CostLedger.counts

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            s = Span(name if isinstance(name, str) else name(args, kwargs), parent, self.call_id)
            stack.append(s)
            s.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += s.end - s.start
                spans.append(s)
            if after is not None:
                after(s, args, result)
            return result

        return wrapper

    def _hot(self, key, fn):
        stack, hot_stack = self.stack, self.hot_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hot_stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = hot_stack.pop()
                if hot_stack:
                    hot_stack[-1] += dt
                if stack:
                    agg = stack[-1].hot.get(key)
                    if agg is None:
                        stack[-1].hot[key] = [1, dt - inner]
                    else:
                        agg[0] += 1
                        agg[1] += dt - inner

        return wrapper

    # -- result hooks (run outside the span they inspect) ---------------

    def _after_recoding(self, span, args, expansion):
        self.counts["recoding.calls"] += 1
        self.counts["recoding.digits"] += len(expansion.digits)

    def _after_driver(self, span, args, result):
        counts = self._ledger_counts(result.ledger)
        self.counts["algorithms.runs"] += 1
        self.counts["algorithms.group_ops"] += sum(counts.values())
        table_negs = 0
        if result.table_ledger is not None:
            table = self._ledger_counts(result.table_ledger)
            self.counts["algorithms.table_ops"] += sum(table.values())
            table_negs = table["neg"]
        driver = span.name.removeprefix("algorithms.")
        if driver == "online":
            self.counts["algorithms.final_neg_runs"] += 1
            self.counts["algorithms.final_negs"] += counts["neg"] - 1
        elif driver == "window":
            self.counts["algorithms.final_neg_runs"] += 1
            self.counts["algorithms.final_negs"] += counts["neg"] - table_negs

    def _after_verify(self, span, args, result):
        self.counts["verify.products"] += result[0]

    def _counting_lru_cache(self, maxsize=128):
        """lru_cache whose cache statistics are folded in after each call."""

        def decorate(fn):
            cached = functools.lru_cache(maxsize=maxsize)(fn)
            self._caches.append(cached)
            return cached

        return decorate

    # -- install / fold -------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        """Rebind owner.attr; an inherited attribute is shadowed, and deleted again on uninstall."""
        self._saved.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        cli, bench, verify = negmul.cli, negmul.bench, negmul.verify
        self._patch(cli, "main", self._span("cli.main", cli.main))
        self._patch(cli, "run_bench", self._span("bench.run_bench", cli.run_bench))
        self._patch(
            cli,
            "verify_universal_agreement",
            self._span("verify.verify_universal_agreement", cli.verify_universal_agreement, self._after_verify),
        )
        report = negmul.bench.BenchReport
        self._patch(report, "to_json", self._span("bench.report", report.to_json))
        self._patch(verify, "lru_cache", self._counting_lru_cache)
        # A module that stops importing one of these names (say, after the
        # drivers move behind a registry) is skipped rather than failed.
        for module in (bench, verify, negmul.algorithms):
            for fname in RECODINGS:
                if hasattr(module, fname):
                    fn = getattr(module, fname)
                    self._patch(module, fname, self._span("recoding." + fname, fn, self._after_recoding))
            for fname, algo_id in DRIVER_IDS.items():
                if hasattr(module, fname):
                    name = _mixed_span_name if algo_id is None else "algorithms." + algo_id
                    self._patch(module, fname, self._span(name, getattr(module, fname), self._after_driver))
        ledger = negmul.costs.CostLedger
        for meth, key in LEDGER_METHODS.items():
            self._patch(ledger, meth, self._hot(key, getattr(ledger, meth)))
        for cls, layer in (
            (negmul.backends.CostChargingGroup, "backends.forward"),
            (negmul.backends.ModularGroup, "backends.modular"),
        ):
            for meth in GROUP_OPS:
                self._patch(cls, meth, self._hot(layer + ".op", getattr(cls, meth)))
            self._patch(cls, "cost_of", self._hot(layer + ".other", cls.cost_of))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def end_call(self) -> float:
        """Fold the finished call's spans into the totals; return the root's duration."""
        if self.stack or self.hot_stack:
            raise RuntimeError("a traced call ended with spans still open")
        root = 0.0
        for s in self.spans:
            self.self_s[s.name] += s.self_time
            for key, (count, seconds) in s.hot.items():
                self.self_s[key] += seconds
                self.counts[key] += count
            if s.parent is None:
                root += s.end - s.start
        for cached in self._caches:
            info = cached.cache_info()
            self.counts["verify.recode_lookups"] += info.hits + info.misses
            self.counts["verify.recode_hits"] += info.hits
        self._caches.clear()
        self.spans.clear()
        self.call_id += 1
        return root

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer metric: recoding, algorithms.<id>, costs, ..."""
        out: Counter[str] = Counter()
        for name, seconds in self.self_s.items():
            if name in HOT_LAYERS:
                out[HOT_LAYERS[name]] += seconds
            elif name.startswith("algorithms."):
                out[name] += seconds
            else:
                out[name.split(".")[0]] += seconds
        return out


def _mixed_span_name(args, kwargs) -> str:
    mode = kwargs["mode"] if "mode" in kwargs else args[3]
    return "algorithms." + MIXED_IDS[mode]
