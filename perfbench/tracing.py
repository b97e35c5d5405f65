"""Per-layer tracing of injlog from outside the package.

``Tracer.install`` swaps wrappers in for injlog's public functions and
methods; ``uninstall`` puts the originals back.  A function imported with
``from .x import f`` is wrapped at every module attribute that holds it,
since that is where callers look it up.  Nothing under ``src/`` changes.

Each wrapped call is a span with a name, start, end and parent.  Spans of
the engines, the CLI and the DSL are kept one by one.  The category
operations and kernel calls run hundreds of thousands of times, so their
spans are aggregated per (enclosing kept span, caller, name) to keep memory
bounded.  A span's self time is its duration minus its children's.
``GraphHom`` constructions are counted by the span of ``__post_init__``,
which every construction runs.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

# name, unit: every per-layer metric the traced run reports, in order.
PER_LAYER = [
    *[(f"kernels.{op}.{k}", u) for op in ("first", "count", "list") for k, u in (("calls", "count"), ("busy_s", "s"))],
    ("kernels.mean_us", "us"),
    ("kernels.first.hit_ratio", "ratio"),
    ("kernels.count.capped_ratio", "ratio"),
    ("kernels.list.homs", "count"),
    ("graphs.universe.graphs", "count"),
    ("graphs.registry_size", "count"),
    *[
        (f"graphs.{op}.{k}", u)
        for op in ("is_injective", "find_factorization", "pushout", "compose", "enumerate_homs", "count_homs")
        for k, u in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
    ],
    ("graphs.find_factorization.found_ratio", "ratio"),
    ("graphs.hom_built", "count"),
    ("graphs.hom_validate_s", "s"),
    *[(f"lattice.{op}.calls", "count") for op in ("compose", "pushout", "enumerate_homs", "is_injective")],
    ("lattice.ops.busy_s", "s"),
    ("core.semantic_consequence.calls", "count"),
    ("core.semantic_consequence.busy_s", "s"),
    ("core.semantic_consequence.self_s", "s"),
    ("core.semantic_consequence.objects", "count"),
    ("core.wide_pushout.calls", "count"),
    ("core.wide_pushout.busy_s", "s"),
    ("proofs.saturate.calls", "count"),
    ("proofs.saturate.busy_s", "s"),
    ("proofs.saturate.self_s", "s"),
    ("proofs.saturate.rounds", "count"),
    ("proofs.saturate.derived", "count"),
    ("proofs.saturate.attempts", "count"),
    ("proofs.saturate.yield_ratio", "ratio"),
    ("proofs.prove.calls", "count"),
    ("proofs.prove.busy_s", "s"),
    ("proofs.prove.self_s", "s"),
    ("proofs.prove.rounds", "count"),
    ("proofs.prove.found", "count"),
    ("proofs.prove.refuted", "count"),
    ("proofs.prove.inconclusive", "count"),
    ("proofs.prove.yield_ratio", "ratio"),
    ("proofs.check_proof.busy_s", "s"),
    ("proofs.elaborate_macro.busy_s", "s"),
    ("reflection.reflect.calls", "count"),
    ("reflection.reflect.busy_s", "s"),
    ("reflection.reflect.self_s", "s"),
    ("reflection.reflect.rounds", "count"),
    ("reflection.reflect.squares", "count"),
    ("reflection.verify.busy_s", "s"),
    ("reflection.via.busy_s", "s"),
    ("dsl.parse.calls", "count"),
    ("dsl.parse.busy_s", "s"),
    ("dsl.parse.bytes_per_s", "B/s"),
    ("dsl.proof_to_text.busy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
]

_ENGINES = ("proofs.saturate", "proofs.prove")


class _Stat:
    """Totals of one span name."""

    __slots__ = ("calls", "busy", "own", "open")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0  # outermost spans of the name only
        self.own = 0.0  # self time
        self.open = 0


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open frames: [name, child seconds, enclosing kept span id]
        self.stats: defaultdict = defaultdict(_Stat)
        self.counts: Counter = Counter()
        self.registry_size = 0
        self.prove_outputs: set = set()
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.aggregated: defaultdict = defaultdict(lambda: [0, 0.0])
        self.active = True
        self._next_id = 1
        self._undo: list = []

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside go untraced, such as the benchmark's own checks."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- spans ---------------------------------------------------------------

    def _wrapper(self, name, fn, kept=False, before=None, after=None):
        """A span per call.  The hot path keeps to locals: category
        operations and kernel calls run hundreds of thousands of times."""
        tracer, stack, stat, clock = self, self.stack, self.stats[name], time.perf_counter
        spans, aggregated = self.spans, self.aggregated

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1] if stack else None
            if kept:
                kept_id = tracer._next_id
                tracer._next_id += 1
            else:
                kept_id = parent[2] if parent else 0
            frame = [name, 0.0, kept_id]
            stack.append(frame)
            stat.open += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat.open -= 1
                stat.calls += 1
                stat.own += duration - frame[1]
                if not stat.open:
                    stat.busy += duration
                if parent is not None:
                    parent[1] += duration
                if kept:
                    spans.append((kept_id, name, start, start + duration, parent[2] if parent else 0))
                else:
                    agg = aggregated[(kept_id, parent[0] if parent else "", name)]
                    agg[0] += 1
                    agg[1] += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def _patch_function(self, module: str, attr: str, wrap) -> None:
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            return
        replacement = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "injlog" or mod_name.startswith("injlog.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, original))

    def _patch_method(self, cls, attr: str, wrap) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            return
        setattr(cls, attr, wrap(original))
        self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def install(self) -> None:
        import injlog.cli  # noqa: F401 - loads every module whose attributes get patched
        from injlog.graphs import GraphCategory, GraphHom
        from injlog.lattice import LatticeCategory

        counts = self.counts

        def fn(name, kept=False, before=None, after=None):
            return lambda f: self._wrapper(name, f, kept, before, after)

        def kernel_after(op):
            def after(args, kwargs, result):
                if op == "first":
                    counts["kernels.first.hits"] += result is not None
                elif op == "count":
                    cap = kwargs.get("cap", args[3] if len(args) > 3 else None)
                    counts["kernels.count.capped"] += cap is not None and result >= cap
                else:
                    counts["kernels.list.homs"] += len(result)

            return after

        for op in ("first", "count", "list"):
            self._patch_function("injlog.kernels", f"hom_{op}", fn(f"kernels.{op}", after=kernel_after(op)))

        def combination(produced):
            def after(args, kwargs, result):
                for engine in _ENGINES:
                    if self.stats[engine].open:
                        counts[f"{engine}.attempts"] += 1
                if self.stats["proofs.prove"].open:
                    self.prove_outputs.add(produced(result))

            return after

        for cls, layer in ((GraphCategory, "graphs"), (LatticeCategory, "lattice")):
            self._patch_method(cls, "compose", fn(f"{layer}.compose", after=combination(lambda m: m)))
            # a pushout derives its first leg, the one opposite the derived morphism
            self._patch_method(cls, "pushout", fn(f"{layer}.pushout", after=combination(lambda legs: legs[0])))
            self._patch_method(cls, "enumerate_homs", fn(f"{layer}.enumerate_homs"))
            self._patch_method(cls, "is_injective", fn(f"{layer}.is_injective"))
        self._patch_method(GraphCategory, "count_homs", fn("graphs.count_homs"))

        def found(args, kwargs, result):
            counts["graphs.find_factorization.found"] += result is not None

        self._patch_method(GraphCategory, "find_factorization", fn("graphs.find_factorization", after=found))

        def universe(original):
            @functools.wraps(original)
            def counted(*args, **kwargs):
                for obj in original(*args, **kwargs):
                    counts["graphs.universe.graphs"] += self.active
                    yield obj

            return counted

        self._patch_method(GraphCategory, "universe", universe)

        def registered(original):
            @functools.wraps(original)
            def obj(*args, **kwargs):
                ref = original(*args, **kwargs)
                if self.active and ref.index >= self.registry_size:
                    self.registry_size = ref.index + 1
                return ref

            return obj

        self._patch_method(GraphCategory, "obj", registered)

        self._patch_method(GraphHom, "__post_init__", fn("graphs.hom_validate"))

        def consumed(args, kwargs):
            def counted(objects):
                for obj in objects:
                    counts["core.semantic_consequence.objects"] += self.active
                    yield obj

            if "universe" in kwargs:
                kwargs = {**kwargs, "universe": counted(kwargs["universe"])}
            else:
                args = (*args[:3], counted(args[3]), *args[4:])
            return args, kwargs

        self._patch_function("injlog.core", "semantic_consequence", fn("core.semantic_consequence", True, consumed))
        self._patch_function("injlog.core", "wide_pushout", fn("core.wide_pushout", True))

        def saturated(args, kwargs, result):
            counts["proofs.saturate.rounds"] += result.rounds
            counts["proofs.saturate.derived"] += len(result.derived)

        def prove_start(args, kwargs):
            self.prove_outputs.clear()
            return args, kwargs

        def proved(args, kwargs, result):
            counts["proofs.prove.rounds"] += result.rounds_used
            counts[f"proofs.prove.{result.status}"] += 1
            counts["proofs.prove.distinct"] += len(self.prove_outputs)

        self._patch_function("injlog.proofs", "saturate", fn("proofs.saturate", True, after=saturated))
        self._patch_function("injlog.proofs", "prove", fn("proofs.prove", True, prove_start, proved))
        self._patch_function("injlog.proofs", "check_proof", fn("proofs.check_proof", True))
        self._patch_function("injlog.proofs", "elaborate_macro", fn("proofs.elaborate_macro"))

        def reflected(args, kwargs, result):
            counts["reflection.reflect.rounds"] += len(result.rounds)
            counts["reflection.reflect.squares"] += sum(len(r.squares) for r in result.rounds)

        self._patch_function("injlog.reflection", "reflect", fn("reflection.reflect", True, after=reflected))
        self._patch_function("injlog.reflection", "verify_weak_reflection", fn("reflection.verify", True))
        self._patch_function("injlog.reflection", "consequence_via_reflection", fn("reflection.via", True))

        def parsed(args, kwargs, result):
            counts["dsl.parse.bytes"] += len(kwargs.get("source", args[0] if args else ""))

        self._patch_function("injlog.dsl", "parse", fn("dsl.parse", True, after=parsed))
        self._patch_function("injlog.dsl", "proof_to_text", fn("dsl.proof_to_text", True))
        self._patch_function("injlog.cli", "main", fn("cli.main", True))

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, dict]:
        counts = self.counts
        calls = Counter({name: st.calls for name, st in self.stats.items()})
        busy = Counter({name: st.busy for name, st in self.stats.items()})
        own = Counter({name: st.own for name, st in self.stats.items()})

        def ratio(num, den):
            return num / den if den else 0.0

        values = {"trace.overhead_s": overhead_s, "graphs.registry_size": self.registry_size}
        for op in ("first", "count", "list"):
            values[f"kernels.{op}.calls"] = calls[f"kernels.{op}"]
            values[f"kernels.{op}.busy_s"] = busy[f"kernels.{op}"]
        kernel_calls = sum(calls[f"kernels.{op}"] for op in ("first", "count", "list"))
        kernel_busy = sum(busy[f"kernels.{op}"] for op in ("first", "count", "list"))
        values["kernels.mean_us"] = ratio(kernel_busy, kernel_calls) * 1e6
        values["kernels.first.hit_ratio"] = ratio(counts["kernels.first.hits"], calls["kernels.first"])
        values["kernels.count.capped_ratio"] = ratio(counts["kernels.count.capped"], calls["kernels.count"])
        values["graphs.find_factorization.found_ratio"] = ratio(
            counts["graphs.find_factorization.found"], calls["graphs.find_factorization"]
        )
        values["graphs.hom_built"] = calls["graphs.hom_validate"]
        values["graphs.hom_validate_s"] = busy["graphs.hom_validate"]
        values["lattice.ops.busy_s"] = sum(
            busy[f"lattice.{op}"] for op in ("compose", "pushout", "enumerate_homs", "is_injective")
        )
        values["proofs.saturate.yield_ratio"] = ratio(
            counts["proofs.saturate.derived"], counts["proofs.saturate.attempts"]
        )
        values["proofs.prove.yield_ratio"] = ratio(counts["proofs.prove.distinct"], counts["proofs.prove.attempts"])
        values["dsl.parse.bytes_per_s"] = ratio(counts["dsl.parse.bytes"], busy["dsl.parse"])

        out = {}
        for name, unit in PER_LAYER:
            if name not in values:
                span, _, kind = name.rpartition(".")
                source = {"calls": calls, "busy_s": busy, "self_s": own}.get(kind)
                values[name] = source[span] if source is not None else counts[name]
            value = values[name]
            out[name] = {"value": value if unit == "count" else float(value), "unit": unit}
        return out

    def dump(self) -> dict:
        """Kept spans and the aggregated fine-grained ones, for writing out."""
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p} for i, n, s, e, p in self.spans
            ],
            "aggregated": [
                {"span": k, "caller": c, "name": n, "calls": v[0], "seconds": v[1]}
                for (k, c, n), v in self.aggregated.items()
            ],
        }
