"""Per-layer tracing from outside the program: spans around calls into hyclif.

The tracer wraps the public functions of each layer module of ``hyclif`` and
rebinds every reference to them it can find: module globals (``suites``,
``fock`` and ``ideals`` import ``gp`` and friends by name, and the package
re-exports them) and the dispatch tables that hold function objects directly
(``exprparse._BINARY_FNS``, ``exprparse._UNARY_FNS``, ``tables.PRODUCTS``).
Nothing under ``src/`` is edited.

Each span records name, start, end, parent span and op id in flat arrays kept
in memory and written out once, when the run ends.  A call made directly inside
a span of the same function (``exprparse.evaluate`` recursing) opens no new span.
Scalar arithmetic is too fine-grained for spans (hundreds of thousands of
multiplications per suites op), so the tracer only counts it.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import sys
import time
import weakref
from array import array

LAYERS = (
    "scalar", "multivector", "linalg", "hyperspace", "endo", "fock", "ideals",
    "exprparse", "cli", "suites", "tables",
)

# per-element helpers called once per coefficient or blade: their time stays in
# the caller's span instead of paying a span each
UNTRACED = {
    "multivector": {"grade_of"},
    "suites": {"random_rational", "random_scalar", "identity"},
}
SPAN_NAMES = {"multivector.format_multivector": "multivector.format"}
PRODUCTS = ("gp", "lcontract", "rcontract", "wedge")

# which layers each workload must reach, and which it must not
PREDICTED_USED = {
    "suites": ("scalar", "multivector", "linalg", "hyperspace", "endo", "fock", "ideals", "suites"),
    "bigprod": ("scalar", "multivector"),
    "repl": ("scalar", "multivector", "hyperspace", "exprparse", "cli"),
}
PREDICTED_UNUSED = {
    "suites": (),
    "bigprod": ("linalg", "fock", "ideals"),
    "repl": ("linalg", "fock", "ideals"),
}

# metric name -> unit; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER_METRICS = {
    "scalar.mul_calls": "count",
    "scalar.addsub_calls": "count",
    "scalar.div_calls": "count",
    **{f"multivector.{p}.busy_s": "s" for p in PRODUCTS + ("bilinear",)},
    "multivector.gp.calls": "count",
    "multivector.self_s": "s",
    "multivector.terms_out": "count",
    "multivector.format.busy_s": "s",
    "multivector.memo_entries": "count",
    "multivector.live_contexts": "count",
    **{f"linalg.{f}.calls": "count" for f in ("row_echelon", "solve", "mat_mul", "inverse")},
    **{f"linalg.{f}.busy_s": "s" for f in ("row_echelon", "solve", "mat_mul", "inverse")},
    "linalg.self_s": "s",
    "fock.rep.calls": "count",
    "fock.rep.busy_s": "s",
    "fock.verify_end_iso.busy_s": "s",
    "fock.tensor_split_check.busy_s": "s",
    "fock.self_s": "s",
    "ideals.ideal_span.calls": "count",
    "ideals.ideal_span.busy_s": "s",
    "ideals.minimality_check.busy_s": "s",
    "ideals.module_action.calls": "count",
    "ideals.module_action.busy_s": "s",
    "ideals.conjugated_module_action.busy_s": "s",
    "ideals.self_s": "s",
    "hyperspace.busy_s": "s",
    "hyperspace.sigma_basis.calls": "count",
    "endo.busy_s": "s",
    "exprparse.parse.busy_s": "s",
    "exprparse.evaluate.self_s": "s",
    "cli.repl.lines": "count",
    "cli.repl.self_s": "s",
    "suites.trials": "count",
    "suites.self_s": "s",
    "gc.collections": "count",
    "gc.pause_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.contexts: list[weakref.ref] = []
        self.memo_entries = 0
        self.live_contexts = 0
        self.gc_collections = 0
        self.gc_pause_ns = 0
        self._gc_start = 0
        self.originals: dict[int, object] = {}  # id(original) -> original
        self.problems: list[str] = []

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"hyclif.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            if layer == "scalar":
                continue
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in UNTRACED.get(layer, ())):
                    continue
                span = SPAN_NAMES.get(f"{layer}.{name}", f"{layer}.{name}")
                wrappers[id(fn)] = self._wrap(fn, span)
                self.originals[id(fn)] = fn
        self._rebind(wrappers)
        self._count_scalar(modules["scalar"].Scalar)
        self._watch_contexts(modules["multivector"].AlgebraContext)
        gc.callbacks.append(self._on_gc)
        self.problems += [f"not rebound: {where}" for where in self.leftovers()]

    @staticmethod
    def _hyclif_modules() -> list:
        return [m for k, m in list(sys.modules.items()) if k == "hyclif" or k.startswith("hyclif.")]

    def _rebind(self, wrappers: dict[int, object]) -> None:
        for mod in self._hyclif_modules():
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, key, wrappers[id(value)])
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        if id(dval) in wrappers:
                            value[dkey] = wrappers[id(dval)]
                        elif isinstance(dval, tuple) and any(id(x) in wrappers for x in dval):
                            value[dkey] = tuple(wrappers.get(id(x), x) for x in dval)

    def leftovers(self) -> list[str]:
        """Places in hyclif namespaces that still hold an unwrapped function."""
        found = []
        for mod in self._hyclif_modules():
            for key, value in vars(mod).items():
                if id(value) in self.originals and value is self.originals[id(value)]:
                    found.append(f"{mod.__name__}.{key}")
                elif isinstance(value, dict):
                    for dkey, dval in value.items():
                        items = dval if isinstance(dval, tuple) else (dval,)
                        if any(id(x) in self.originals and x is self.originals[id(x)] for x in items):
                            found.append(f"{mod.__name__}.{key}[{dkey!r}]")
        return found

    def _wrap(self, fn, span: str):
        tracer = self
        name_id = len(self.names)
        self.names.append(span)
        span_names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns
        counts_terms = span in {f"multivector.{p}" for p in PRODUCTS}

        def wrapper(*args, **kwargs):
            if not tracer.active or (stack and span_names[stack[-1]] == name_id):
                return fn(*args, **kwargs)
            idx = len(starts)
            span_names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counts_terms:
                tracer.counters["multivector.terms_out"] += len(result.terms)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _count_scalar(self, cls) -> None:
        groups = {
            "scalar.mul_calls": ("__mul__", "__rmul__"),
            "scalar.addsub_calls": ("__add__", "__radd__", "__sub__", "__rsub__"),
            "scalar.div_calls": ("inverse",),  # every division and inversion goes through it
        }
        self.counters["multivector.terms_out"] = 0
        for counter, methods in groups.items():
            self.counters[counter] = 0
            done: dict[int, object] = {}
            for meth in methods:
                fn = cls.__dict__[meth]
                if id(fn) not in done:
                    done[id(fn)] = self._counting(fn, counter)
                setattr(cls, meth, done[id(fn)])

    def _counting(self, fn, counter: str):
        tracer, counters = self, self.counters

        def wrapper(*args):
            if tracer.active:
                counters[counter] += 1
            return fn(*args)

        wrapper.__name__ = fn.__name__
        return wrapper

    def _watch_contexts(self, cls) -> None:
        init = cls.__init__
        contexts = self.contexts

        def __init__(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            contexts.append(weakref.ref(ctx))

        cls.__init__ = __init__

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_collections += 1
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start

    # -- per-op hooks ----------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.active = True

    def end_op(self) -> None:
        """Stop recording; read the memo sizes of the contexts alive at op end."""
        self.active = False
        for ref in self.contexts:
            ctx = ref()
            if ctx is not None:
                size = sum(len(v) for k, v in vars(ctx).items() if k.endswith("_memo"))
                self.memo_entries = max(self.memo_entries, size)

    def after_collect(self) -> None:
        """Count contexts still reachable once the op's values are gone."""
        self.contexts[:] = [ref for ref in self.contexts if ref() is not None]
        self.live_contexts = max(self.live_contexts, len(self.contexts))

    # -- results ---------------------------------------------------------------------

    def span_totals(self) -> tuple[dict, dict, dict, dict, dict]:
        """Calls, busy ns and self ns per span name; busy ns and self ns per layer."""
        n = len(self.span_start)
        names = [self.names[i] for i in self.span_name]
        layer = [s.split(".", 1)[0] for s in names]
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        parent = self.span_parent
        calls: dict[str, int] = {}
        busy: dict[str, int] = {}
        layer_busy: dict[str, int] = {}
        layer_self: dict[str, int] = {}
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
            calls[names[i]] = calls.get(names[i], 0) + 1
            busy[names[i]] = busy.get(names[i], 0) + dur[i]
            if p < 0 or layer[p] != layer[i]:
                layer_busy[layer[i]] = layer_busy.get(layer[i], 0) + dur[i]
        name_self: dict[str, int] = {}
        for i in range(n):
            own = dur[i] - child[i]
            layer_self[layer[i]] = layer_self.get(layer[i], 0) + own
            name_self[names[i]] = name_self.get(names[i], 0) + own
        return calls, busy, name_self, layer_busy, layer_self

    def metrics(self, workload: str, extra_counts: dict[str, int]) -> dict[str, float]:
        calls, busy, name_self, layer_busy, layer_self = self.span_totals()
        out: dict[str, float] = {}
        for name in PER_LAYER_METRICS:
            head, _, stat = name.rpartition(".")
            if name in self.counters:
                out[name] = self.counters[name]
            elif name in extra_counts:
                out[name] = extra_counts[name]
            elif stat == "calls":
                out[name] = calls.get(head, 0)
            elif stat == "busy_s":
                out[name] = (busy.get(head, 0) if "." in head else layer_busy.get(head, 0)) / 1e9
            elif stat == "self_s":
                out[name] = (name_self.get(head, 0) if "." in head else layer_self.get(head, 0)) / 1e9
        out["multivector.memo_entries"] = self.memo_entries
        out["multivector.live_contexts"] = self.live_contexts
        out["gc.collections"] = self.gc_collections
        out["gc.pause_s"] = self.gc_pause_ns / 1e9
        self.problems += self.self_check(workload, calls)
        return out

    def layer_calls(self, calls: dict[str, int]) -> dict[str, int]:
        per = {layer: 0 for layer in LAYERS}
        for name, c in calls.items():
            per[name.split(".", 1)[0]] += c
        per["scalar"] = sum(v for k, v in self.counters.items() if k.startswith("scalar."))
        return per

    def self_check(self, workload: str, calls: dict[str, int]) -> list[str]:
        per = self.layer_calls(calls)
        problems = [f"{workload}: predicted to use {layer}, but it made 0 calls"
                    for layer in PREDICTED_USED[workload] if not per[layer]]
        problems += [f"{workload}: predicted to bypass {layer}, but it made {per[layer]} calls"
                     for layer in PREDICTED_UNUSED[workload] if per[layer]]
        traced = set(self.names)
        for name in PER_LAYER_METRICS:
            head = name.rpartition(".")[0]
            if "." in head and head not in traced:
                problems.append(f"metric {name}: no traced function {head}")
        return problems

    def write_spans(self, path: str) -> None:
        payload = {
            "names": self.names,
            "columns": ["name", "parent", "op", "start_ns", "end_ns"],
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
