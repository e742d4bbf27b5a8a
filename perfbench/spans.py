"""Layer spans for the traced run.

:class:`Instrumentation` wraps the public entry points of each layer,
found by introspection, so that every call records a span (name, start,
end, parent) in a :class:`SpanRecorder`.  The spans stay in memory and
are written out when the run ends.  Nothing in ``repro`` is edited;
every patched attribute is restored on exit.

Wrapped entry points, by layer:

- ``fields``: public methods of ``VectorBackend`` and its subclasses;
- ``sharing``: the functions and the public and operator methods of the
  classes that ``repro.sharing`` exports;
- ``vss``: public methods of ``VSSSession`` and its subclasses (generator
  methods are timed per resume, not per call); on request, constructions
  of the ``ShareView`` subclasses are counted;
- ``core``: public methods of ``AnonChan`` (the party program, per
  resume);
- ``network``: ``run_anonchan`` (the epoch's engine, whose self time is
  everything not attributed to another layer), ``Adversary.act`` and its
  overrides, and ``payload_size``;
- ``obs``: public methods of ``Tracer`` (and the enter/exit of the span
  contexts it returns), plus the benchmark's trace analysis.

Because classes are enumerated rather than named, a renamed session
method or a new transport is still measured.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Any, Callable

LAYERS = ("fields", "sharing", "vss", "core", "network", "obs")

#: Operator methods that belong to a class's public interface.
_OPERATORS = frozenset(
    {"__call__", "__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__neg__"}
)

#: VSS methods whose self time is VSS-Share / VSS-Rec; the rest of the
#: session's self time is view algebra and payload reveal.
VSS_SHARE = frozenset({"share_program"})
VSS_REC = frozenset(
    {"open_program", "reconstruct_private_batch", "verify_and_combine"}
)


class SpanRecorder:
    """Spans held in memory: name id, start, end (ns) and parent index."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._open: list[int] = []
        #: Work counts recorded at the same boundaries as the spans.
        self.counts: Counter = Counter()

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> None:
        index = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0)
        self._open.append(index)
        # The clock is read last on entry and first on exit, so the
        # recorder's own bookkeeping falls outside the span.
        self.start.append(time.perf_counter_ns())

    def exit(self) -> None:
        now = time.perf_counter_ns()
        self.end[self._open.pop()] = now

    def self_times(self, lo: int, hi: int) -> dict[str, int]:
        """Self time (ns) per span name over the spans ``[lo, hi)``.

        A span's self time is its duration minus the durations of its
        direct children; the spans in the range must form whole trees.
        """
        start, end, parent = self.start, self.end, self.parent
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                child[p - lo] += end[i] - start[i]
        out: dict[str, int] = defaultdict(int)
        for i in range(lo, hi):
            out[self.names[self.name_of[i]]] += end[i] - start[i] - child[i - lo]
        return out

    def call_counts(self, lo: int, hi: int) -> Counter:
        """Number of spans per name over ``[lo, hi)``."""
        counts = Counter(self.name_of[lo:hi])
        return Counter({self.names[nid]: c for nid, c in counts.items()})

    def write_jsonl(self, path, header: dict[str, Any]) -> None:
        """Write the header, then one ``[name, start, end, parent]`` per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "names": self.names}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"[{self.name_of[i]},{self.start[i]},{self.end[i]},{self.parent[i]}]\n"
                )


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


def method_of(name: str) -> str:
    return name.rsplit(".", 1)[-1]


# -- wrappers -----------------------------------------------------------------


def _timed_generator(gen, rec: SpanRecorder, nid: int, on_result):
    """Drive ``gen``, timing each resume as one span."""
    value = None
    while True:
        rec.enter(nid)
        try:
            item = gen.send(value)
        except StopIteration as stop:
            rec.exit()
            if on_result is not None:
                on_result(stop.value)
            return stop.value
        except BaseException:
            rec.exit()
            raise
        rec.exit()
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise


class _TimedContext:
    """Times the enter and exit of a context manager, not its body."""

    __slots__ = ("_inner", "_rec", "_nid")

    def __init__(self, inner, rec: SpanRecorder, nid: int):
        self._inner, self._rec, self._nid = inner, rec, nid

    def __enter__(self):
        self._rec.enter(self._nid)
        try:
            return self._inner.__enter__()
        finally:
            self._rec.exit()

    def __exit__(self, *exc):
        self._rec.enter(self._nid)
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._rec.exit()


def _subclasses(cls: type) -> list[type]:
    seen: list[type] = []
    stack = [cls]
    while stack:
        c = stack.pop()
        if c not in seen:
            seen.append(c)
            stack.extend(c.__subclasses__())
    return seen


def _is_public(attr: str) -> bool:
    return not attr.startswith("_") or attr in _OPERATORS


def _function_of(raw) -> tuple[Callable | None, type | None]:
    """The plain function behind a class attribute, and its descriptor."""
    if isinstance(raw, (staticmethod, classmethod)):
        return raw.__func__, type(raw)
    if inspect.isfunction(raw):
        return raw, None
    return None, None


class Instrumentation:
    """Installs the layer wrappers on entry and restores them on exit."""

    def __init__(self, rec: SpanRecorder, analyse_owner=None,
                 count_views: bool = False):
        self.rec = rec
        self._analyse_owner = analyse_owner
        # Counting share-view constructions wraps a constructor called
        # hundreds of thousands of times per epoch, which would inflate
        # the self times of the layers that build views; the traced run
        # therefore counts them in a separate, untimed epoch.
        self._count_views = count_views
        self._patches: list[tuple[Any, str, bool, Any]] = []

    # -- patching ---------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        own = vars(owner)
        had = attr in own
        self._patches.append((owner, attr, had, own.get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, had, old = self._patches.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Instrumentation":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrapper factories ------------------------------------------------
    def _wrap(self, fn, name: str, on_call=None, on_result=None,
              outermost: bool = False):
        rec = self.rec
        nid = rec.name_id(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return _timed_generator(fn(*args, **kwargs), rec, nid, on_result)

            return gen_wrapper

        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and depth[0]:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            depth[0] += 1
            rec.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit()
                depth[0] -= 1
            if on_result is not None:
                result = on_result(result)
            return result

        return wrapper

    def _wrap_class(self, cls: type, layer: str, on_call=None,
                    result_hook: Callable[[str], Callable | None] = lambda attr: None,
                    ) -> None:
        """Wrap the public methods defined on ``cls`` itself."""
        for attr, raw in list(vars(cls).items()):
            if not _is_public(attr):
                continue
            fn, descriptor = _function_of(raw)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            wrapped = self._wrap(
                fn, f"{layer}:{cls.__name__}.{attr}", on_call, result_hook(attr)
            )
            self._patch(cls, attr, descriptor(wrapped) if descriptor else wrapped)

    def _wrap_function(self, fn, name: str, **options) -> None:
        """Wrap ``fn`` wherever a loaded ``repro`` module binds it."""
        wrapped = self._wrap(fn, name, **options)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapped)

    def _count_constructions(self, cls: type, key: str) -> None:
        init = vars(cls).get("__init__")
        if init is None:
            return
        counts = self.rec.counts

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            counts[key] += 1
            init(obj, *args, **kwargs)

        self._patch(cls, "__init__", counting_init)

    # -- the layers -------------------------------------------------------
    def _install(self) -> None:
        import numpy as np

        import repro.sharing
        from repro.core import anonchan
        from repro.fields.vectorized import VectorBackend
        from repro.network import Adversary, messages
        from repro.obs import Tracer
        from repro.vss import DEALER_DISQUALIFIED, ShareView, VSSSession

        counts = self.rec.counts

        def kernel_args(args, kwargs):
            for value in (*args, *kwargs.values()):
                if isinstance(value, np.ndarray):
                    counts["fields.elements"] += value.size
                    counts["fields.bytes"] += value.nbytes

        for cls in _subclasses(VectorBackend):
            self._wrap_class(cls, "fields", on_call=kernel_args)

        for export in repro.sharing.__all__:
            obj = getattr(repro.sharing, export)
            if inspect.isclass(obj) and not issubclass(obj, BaseException):
                self._wrap_class(obj, "sharing")
            elif inspect.isfunction(obj):
                self._wrap_function(obj, f"sharing:{export}")

        def dealt(batch):
            if batch is DEALER_DISQUALIFIED:
                counts["vss.dealers_disqualified"] += 1
            return batch

        def opened(values):
            if isinstance(values, (list, tuple)):
                counts["vss.opened_values"] += len(values)
            return values

        # verify_and_combine opens one value inside the batch calls.
        vss_hooks = {"share_program": dealt, "open_program": opened,
                     "reconstruct_private_batch": opened}
        for cls in _subclasses(VSSSession):
            self._wrap_class(cls, "vss", result_hook=vss_hooks.get)
        if self._count_views:
            for cls in _subclasses(ShareView):
                self._count_constructions(cls, "vss.share_views")

        self._wrap_class(anonchan.AnonChan, "core")

        self._wrap_function(anonchan.run_anonchan, "network:run_anonchan")
        for cls in _subclasses(Adversary):
            raw = vars(cls).get("act")
            if raw is not None:
                self._patch(cls, "act", self._wrap(raw, f"network:{cls.__name__}.act"))
        self._wrap_function(
            messages.payload_size, "network:payload_size", outermost=True
        )

        context_nid = self.rec.name_id("obs:Tracer.span-context")

        def timed_context(result):
            if hasattr(type(result), "__exit__"):
                return _TimedContext(result, self.rec, context_nid)
            return result

        for cls in _subclasses(Tracer):
            self._wrap_class(cls, "obs", result_hook=lambda attr: timed_context)
        if self._analyse_owner is not None:
            analyse = self._analyse_owner.analyse
            self._patch(
                self._analyse_owner, "analyse", self._wrap(analyse, "obs:analyse")
            )


# -- per-layer metrics ----------------------------------------------------------


def per_layer(rec: SpanRecorder, records: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)``, per traced epoch.

    Each record names its epoch's span range ``[lo, hi)``, its traced
    and untraced times at reference speed (``ref_ms``, ``plain_ref_ms``),
    the factor that scaled its wall time to them (``scale``) and the
    counts taken around it.  Span times are scaled by the same factor.
    """
    epochs = len(records)
    if not epochs:
        return {}
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    for r in records:
        for name, raw_ns in rec.self_times(r["lo"], r["hi"]).items():
            ns = raw_ns * r["scale"]
            layer, method = layer_of(name), method_of(name)
            self_ns[layer] += ns
            if layer == "vss" and method in VSS_SHARE:
                self_ns["vss.share"] += ns
            elif layer == "vss" and method in VSS_REC:
                self_ns["vss.rec"] += ns
            elif name == "network:payload_size":
                self_ns["network.accounting"] += ns
            elif layer == "network" and method == "act":
                self_ns["network.adversary"] += ns
            elif name == "obs:analyse":
                self_ns["obs.analyze"] += ns
        for name, c in rec.call_counts(r["lo"], r["hi"]).items():
            calls[layer_of(name)] += c
        counts.update(r["counts"])
        for key in ("ref_ms", "plain_ref_ms", "table_hits", "table_misses", "rounds",
                    "private_messages", "broadcast_rounds", "events",
                    "disqualified", "failed_coordinates"):
            counts[key] += r[key]

    wall = counts["ref_ms"] * 1e6
    lookups = counts["table_hits"] + counts["table_misses"]
    views, opened = counts["vss.share_views"], counts["vss.opened_values"]

    def ms(key: str) -> float:
        return self_ns[key] / 1e6 / epochs

    def per_epoch(key: str, table: Counter = counts) -> float:
        return table[key] / epochs

    attributed = sum(self_ns[layer] for layer in LAYERS)
    metrics = {
        "fields.kernel_ms": (ms("fields"), "ms"),
        "fields.kernel_calls": (per_epoch("fields", calls), "count"),
        "fields.kernel_elements": (per_epoch("fields.elements"), "count"),
        "fields.kernel_bytes": (per_epoch("fields.bytes"), "B"),
        "fields.kernel_share": (self_ns["fields"] / wall, "fraction"),
        "fields.table_hit_ratio": (
            counts["table_hits"] / lookups if lookups else 0.0, "fraction"),
        "fields.table_lookups": (lookups / epochs, "count"),
        "sharing.self_ms": (ms("sharing"), "ms"),
        "sharing.calls": (per_epoch("sharing", calls), "count"),
        "vss.self_ms": (ms("vss"), "ms"),
        "vss.share_ms": (ms("vss.share"), "ms"),
        "vss.rec_ms": (ms("vss.rec"), "ms"),
        "vss.algebra_ms": (
            (self_ns["vss"] - self_ns["vss.share"] - self_ns["vss.rec"]) / 1e6 / epochs,
            "ms"),
        "vss.share_views": (views / epochs, "count"),
        "vss.opened_values": (opened / epochs, "count"),
        "vss.views_per_opened": (views / opened if opened else 0.0, "ratio"),
        "vss.dealers_disqualified": (per_epoch("vss.dealers_disqualified"), "count"),
        "core.self_ms": (ms("core"), "ms"),
        "core.disqualified": (per_epoch("disqualified"), "count"),
        "core.failed_coordinates": (per_epoch("failed_coordinates"), "count"),
        "network.self_ms": (ms("network"), "ms"),
        "network.accounting_ms": (ms("network.accounting"), "ms"),
        "network.adversary_ms": (ms("network.adversary"), "ms"),
        "network.round_ms": (
            self_ns["network"] / 1e6 / max(counts["rounds"], 1), "ms"),
        "network.messages_per_epoch": (per_epoch("private_messages"), "count"),
        "network.broadcast_rounds_per_epoch": (per_epoch("broadcast_rounds"), "count"),
        "obs.emit_ms": ((self_ns["obs"] - self_ns["obs.analyze"]) / 1e6 / epochs, "ms"),
        "obs.analyze_ms": (ms("obs.analyze"), "ms"),
        "obs.events_per_epoch": (per_epoch("events"), "count"),
        "bench.span_overhead": (counts["ref_ms"] / counts["plain_ref_ms"] - 1, "fraction"),
        "bench.unattributed_share": ((wall - attributed) / wall, "fraction"),
    }
    return metrics
