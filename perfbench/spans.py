"""Outside-in layer timing: spans recorded around the program's entry points.

The benchmark never edits the program.  In a traced run it replaces a few
public entry points (class methods and module-level functions of the
``repro`` layers) with wrappers that record one span per call, and puts the
originals back afterwards.  A span holds its name, start, end, parent span,
request id and a few attributes; spans stay in memory until the run ends.

A layer's *self time* is a span's duration minus the part of that interval
its child spans cover, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("span_id", "parent_id", "request_id", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent_id, request_id, name, start, end, attrs=None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.span_id, self.parent_id, self.request_id, self.name, self.start, self.end, self.attrs]

    @classmethod
    def from_list(cls, item: Sequence) -> "Span":
        return cls(*item)


class SpanRecorder:
    """Collects spans from every thread of one process.

    Each thread keeps its own stack of open spans, which gives a span its
    parent.  A thread that opens a span without an enclosing request gets a
    fresh request id: the HTTP server handles each connection on its own
    thread, and the client closes the connection after every request.
    """

    def __init__(self, id_prefix: str = ""):
        # span and request ids carry the prefix, so spans of several
        # processes (HTTP client and server) can be analysed together
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._prefix = id_prefix
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- context ----------------------------------------------------------------

    def _context(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
        return local

    def current(self) -> Tuple[Optional[str], Optional[str]]:
        """The (open span id, request id) of the calling thread."""
        local = self._context()
        return (local.stack[-1] if local.stack else None), local.request

    def adopt(self, parent_id: Optional[str], request_id: Optional[str]) -> None:
        """Continue a span context on another thread (see ``install``)."""
        local = self._context()
        local.stack = [parent_id] if parent_id is not None else []
        local.request = request_id

    def new_request_id(self) -> str:
        return "%s%d" % (self._prefix, next(self._ids))

    # -- recording --------------------------------------------------------------

    def span(self, name: str, request_id: Optional[str] = None, **attrs) -> "_OpenSpan":
        """A context manager recording one span (the harness uses it per op)."""
        return _OpenSpan(self, name, request_id, attrs)

    def _open(self, request_id: Optional[str] = None):
        local = self._context()
        if request_id is not None:
            local.request = request_id
        elif local.request is None:
            local.request = self.new_request_id()
        parent = local.stack[-1] if local.stack else None
        span_id = "%s%d" % (self._prefix, next(self._ids))
        local.stack.append(span_id)
        return local, span_id, parent

    def _close(self, local, span_id, parent, name, start, end, attrs) -> None:
        local.stack.pop()
        record = Span(span_id, parent, local.request, name, start, end, attrs)
        with self._lock:
            self.spans.append(record)

    def wrap(self, name: str, function: Callable, annotate: Optional[Callable] = None) -> Callable:
        """``function`` recording a span per call; ``annotate(result, args)``
        may return attributes to store on the span."""
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            local, span_id, parent = recorder._open()
            start = time.perf_counter()
            attrs = None
            try:
                result = function(*args, **kwargs)
                if annotate is not None:
                    attrs = annotate(result, args)
                return result
            finally:
                recorder._close(local, span_id, parent, name, start, time.perf_counter(), attrs)

        return traced

    def wrap_pages(self, name: str, function: Callable) -> Callable:
        """A ``pages()`` method whose iterator records one span per page."""
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            iterator = iter(function(*args, **kwargs))
            while True:
                local, span_id, parent = recorder._open()
                start = time.perf_counter()
                try:
                    page = next(iterator)
                except StopIteration:
                    recorder._close(local, span_id, parent, name, start, time.perf_counter(), None)
                    return
                recorder._close(local, span_id, parent, name, start, time.perf_counter(), None)
                yield page

        return traced


class _OpenSpan:
    def __init__(self, recorder: SpanRecorder, name: str, request_id, attrs):
        self.recorder = recorder
        self.name = name
        self.request_id = request_id
        self.attrs = attrs

    def __enter__(self):
        self._local, self._span_id, self._parent = self.recorder._open(self.request_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.recorder._close(
            self._local, self._span_id, self._parent, self.name, self._start,
            time.perf_counter(), self.attrs,
        )
        if self._parent is None:
            self._local.request = None
        return False


# -- the wrapped entry points ------------------------------------------------------


def _plan_cache_attrs(result, args):
    return {"hit": bool(result[1])}


def _update_attrs(result, args):
    return {
        "compacted": bool(result.compacted),
        "compaction_s": float(result.compaction_seconds or 0.0),
        "delta_triples": int(result.delta_triples),
        "triples": int(result.inserted + result.deleted),
    }


def _execute_attrs(result, args):
    return {"cout": float(result.actual_cout), "rows": int(result.profile.result_rows)}


def _session_attrs(result, args):
    return {"text": args[1] if len(args) > 1 else ""}


def _wrap_collect(recorder: SpanRecorder, original: Callable) -> Callable:
    """``StoreStatistics.collect`` annotated with whether it rescanned."""

    @functools.wraps(original)
    def traced(statistics, *args, **kwargs):
        before = statistics.collections
        local, span_id, parent = recorder._open()
        start = time.perf_counter()
        try:
            return original(statistics, *args, **kwargs)
        finally:
            recorder._close(
                local, span_id, parent, "store.stats_collect", start, time.perf_counter(),
                {"rescan": statistics.collections > before},
            )

    return traced


class Installation:
    """The wrappers of one traced run; :meth:`remove` restores the originals."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def install(recorder: SpanRecorder) -> Installation:
    """Wrap the entry points of every layer the benchmark reports on."""
    from repro.api import client as client_module
    from repro.api import dataset as dataset_module
    from repro.api.client import RemoteEndpoint
    from repro.api.cursor import Cursor
    from repro.api.results import JSONSerializer
    from repro.core.analyzer import PlanCostAnalyzer
    from repro.core.clustering import ParameterPartitioner
    from repro.engine import query_engine as engine_module
    from repro.engine.query_engine import QueryEngine
    from repro.experiments import common as experiments_common
    from repro.optimizer.optimizer import Optimizer
    from repro.service.plan_cache import PlanCache
    from repro.store.statistics import StoreStatistics

    done = Installation()
    wrap = recorder.wrap
    done.replace(engine_module, "parse_query", wrap("sparql.parse", engine_module.parse_query))
    done.replace(Optimizer, "optimize", wrap("optimizer.optimize", Optimizer.optimize))
    done.replace(
        PlanCache, "get_or_create",
        wrap("plan_cache.lookup", PlanCache.get_or_create, _plan_cache_attrs),
    )
    done.replace(
        QueryEngine, "execute_plan_iter",
        wrap("engine.execute", QueryEngine.execute_plan_iter, _execute_attrs),
    )
    done.replace(QueryEngine, "update", wrap("store.update", QueryEngine.update, _update_attrs))
    done.replace(StoreStatistics, "collect", _wrap_collect(recorder, StoreStatistics.collect))
    done.replace(
        dataset_module.Session, "execute",
        wrap("api.session_execute", dataset_module.Session.execute, _session_attrs),
    )
    done.replace(Cursor, "pages", recorder.wrap_pages("engine.decode", Cursor.pages))
    for method in ("begin", "rows", "end"):
        done.replace(
            JSONSerializer, method, wrap("api.serialize", getattr(JSONSerializer, method))
        )
    done.replace(RemoteEndpoint, "query", wrap("client.query", RemoteEndpoint.query))
    done.replace(client_module, "parse_json", wrap("client.parse_json", client_module.parse_json))
    done.replace(
        PlanCostAnalyzer, "analyze_binding",
        wrap("core.analyze", PlanCostAnalyzer.analyze_binding),
    )
    done.replace(ParameterPartitioner, "partition", wrap("core.partition", ParameterPartitioner.partition))
    for name in ("generate_ldbc", "generate_bsbm"):
        done.replace(
            experiments_common, name, wrap("datagen.generate", getattr(experiments_common, name))
        )

    # A session with a timeout budget plans and executes on a per-query
    # thread.  This is the one wrapper on a non-entry-point: it only hands
    # the caller's span context to that thread, so its spans nest under
    # ``api.session_execute`` instead of starting a request of their own.
    original_run = dataset_module.Session._run_with_timeout

    def run_with_context(session, run, budget):
        parent, request = recorder.current()

        def adopted():
            recorder.adopt(parent, request)
            return run()

        return original_run(session, adopted, budget)

    done.replace(dataset_module.Session, "_run_with_timeout", run_with_context)
    return done


# -- analysis ------------------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low = max(low, reach)
        high = min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    return {
        span.span_id: span.duration - covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


#: span name -> the layer it belongs to (the ``repro`` module that owns it)
LAYERS = {
    "sparql.parse": "sparql",
    "optimizer.optimize": "optimizer",
    "plan_cache.lookup": "plan_cache",
    "engine.execute": "engine",
    "engine.decode": "engine",
    "store.update": "store",
    "store.stats_collect": "store",
    "api.session_execute": "api",
    "api.serialize": "api",
    "client.parse_json": "api.client",
    "core.analyze": "core",
    "core.partition": "core",
    "datagen.generate": "datagen",
}


def layer_self_seconds(spans: Sequence[Span], request_ids=None) -> Dict[str, float]:
    """Total self time per layer, optionally over some requests only."""
    selves = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        layer = LAYERS.get(span.name)
        if layer is None or (request_ids is not None and span.request_id not in request_ids):
            continue
        totals[layer] = totals.get(layer, 0.0) + selves[span.span_id]
    return totals
