"""Structured tracing: spans, events, and cross-process ingestion.

A :class:`Tracer` records a tree of **spans** (named intervals with a
parent, a start/end timestamp and free-form attributes) interleaved with
point-in-time **events**, as a flat list of dict records ordered by a
single monotone ``seq`` counter.  The record stream is the on-disk JSONL
format (:mod:`repro.obs.export`) verbatim — no intermediate object model
to serialize.

Record shapes::

    {"type": "start", "seq": 0, "id": "s0", "parent": null,
     "name": "job", "ts": 0.0123, "attrs": {...}}
    {"type": "event", "seq": 1, "span": "s0", "name": "cache:get",
     "ts": 0.0130, "attrs": {"outcome": "miss"}}
    {"type": "end",   "seq": 2, "id": "s0", "ts": 0.0200,
     "attrs": {"terminal": "done"}}

Design contract (mirrors the ``on_iteration`` precedent of PR 5):
tracing is **strictly observational**.  The tracer is threaded through
the pipeline as an ``Optional[Tracer]`` that defaults to ``None``; every
instrumentation point is guarded by ``if tracer is not None``, so the
disabled path allocates no spans, takes no locks, and reads no clocks —
traced and untraced runs produce byte-identical artifacts.  All clock
reads live inside this module (``time.perf_counter``); instrumented code
that already measures phases for its own report (the runner's
search/apply/rebuild timings) hands the *existing* readings to
:meth:`Tracer.record_span` instead of sampling new ones.

Cross-process collection: a worker process builds its own local
``Tracer``, and ships :meth:`rebased_records` (timestamps re-zeroed to
the worker's first record) over the procpool pipe.  The parent calls
:meth:`ingest` with the owning attempt span — ids are remapped into the
parent's namespace, fresh ``seq`` values are assigned, root spans are
re-parented under the attempt span, and timestamps are offset to the
attempt span's start, so a process-executor trace reads identically to
a thread-executor one.  A worker that dies before shipping leaves
:meth:`buffer_lost` in its place: a ``worker:spans-lost`` event on the
attempt span, counted in :meth:`counts`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Union

from repro.obs.sites import SITE_WORKER_SPANS_LOST

#: Timestamp-carrying fields, per record type, for rebasing/offsetting.
_TS_FIELDS = ("ts",)


class Span:
    """A handle to an in-flight span.  Create via :meth:`Tracer.span`."""

    __slots__ = ("tracer", "span_id", "name", "parent_id", "start", "_ended")

    def __init__(self, tracer: "Tracer", span_id: str, name: str,
                 parent_id: Optional[str], start: float):
        self.tracer = tracer
        self.span_id = span_id
        self.name = name
        self.parent_id = parent_id
        self.start = start
        self._ended = False

    def event(self, name: str, /, **attrs: Any) -> None:
        """Record a point-in-time event parented to this span."""

        self.tracer.event(name, span=self, **attrs)

    def end(self, **attrs: Any) -> None:
        """End the span (idempotent: only the first call emits a record)."""

        self.tracer._end_span(self, attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and not self._ended:
            self.end(error=exc_type.__name__)
        else:
            self.end()


def _span_id_of(span: Union["Span", str, None]) -> Optional[str]:
    if span is None or isinstance(span, str):
        return span
    return span.span_id


class Tracer:
    """Thread-safe span/event recorder with a global monotone ``seq``."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._records: List[Dict[str, Any]] = []
        self._next_span = 0
        self._next_seq = 0
        self._open: set = set()
        self._tl = threading.local()
        self.spans_started = 0
        self.spans_ended = 0
        self.events_recorded = 0
        self.buffers_lost = 0

    # -- recording ---------------------------------------------------------

    def span(self, name: str, /, parent: Union[Span, str, None] = None,
             **attrs: Any) -> Span:
        """Start a span.  ``parent`` defaults to the thread's bound span."""

        parent_id = _span_id_of(parent)
        if parent_id is None:
            parent_id = self.current_id()
        now = self._clock()
        with self._lock:
            span_id = f"s{self._next_span}"
            self._next_span += 1
            self._records.append({
                "type": "start", "seq": self._next_seq, "id": span_id,
                "parent": parent_id, "name": name, "ts": now, "attrs": attrs,
            })
            self._next_seq += 1
            self._open.add(span_id)
            self.spans_started += 1
        return Span(self, span_id, name, parent_id, now)

    def _end_span(self, span: Span, attrs: Dict[str, Any]) -> None:
        if span._ended:
            return
        span._ended = True
        now = self._clock()
        with self._lock:
            self._records.append({
                "type": "end", "seq": self._next_seq, "id": span.span_id,
                "ts": now, "attrs": attrs,
            })
            self._next_seq += 1
            self._open.discard(span.span_id)
            self.spans_ended += 1

    def record_span(self, name: str, /, start: float, end: float,
                    parent: Union[Span, str, None] = None,
                    **attrs: Any) -> str:
        """Record an already-measured interval (no clock reads).

        Used by instrumented code that times phases for its own report —
        the tracer reuses those readings rather than sampling again, so
        enabling tracing adds no clock reads that could perturb
        outcome-relevant control flow.
        """

        parent_id = _span_id_of(parent)
        if parent_id is None:
            parent_id = self.current_id()
        with self._lock:
            span_id = f"s{self._next_span}"
            self._next_span += 1
            self._records.append({
                "type": "start", "seq": self._next_seq, "id": span_id,
                "parent": parent_id, "name": name, "ts": start, "attrs": attrs,
            })
            self._next_seq += 1
            self._records.append({
                "type": "end", "seq": self._next_seq, "id": span_id,
                "ts": end, "attrs": {},
            })
            self._next_seq += 1
            self.spans_started += 1
            self.spans_ended += 1
        return span_id

    def event(self, name: str, /, span: Union[Span, str, None] = None,
              **attrs: Any) -> None:
        """Record a point-in-time event (parent defaults to the bound span)."""

        span_id = _span_id_of(span)
        if span_id is None:
            span_id = self.current_id()
        now = self._clock()
        with self._lock:
            self._records.append({
                "type": "event", "seq": self._next_seq, "span": span_id,
                "name": name, "ts": now, "attrs": attrs,
            })
            self._next_seq += 1
            self.events_recorded += 1

    def hook(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        """``(name, attrs)``-shaped adapter for cache-style trace hooks."""

        self.event(name, **(attrs or {}))

    # -- thread-local parent binding --------------------------------------

    @contextmanager
    def bind(self, span: Union[Span, str]):
        """Bind *span* as the default parent for this thread.

        Instrumentation points that cannot thread an explicit parent
        (shared-cache probes, fault-injection observers) parent their
        events to the bound span, so concurrent jobs' events land under
        the right job/attempt span.
        """

        stack = getattr(self._tl, "stack", None)
        if stack is None:
            stack = self._tl.stack = []
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()

    def current(self) -> Union[Span, str, None]:
        stack = getattr(self._tl, "stack", None)
        return stack[-1] if stack else None

    def current_id(self) -> Optional[str]:
        return _span_id_of(self.current())

    # -- introspection / export -------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Snapshot of all records, in ``seq`` order."""

        with self._lock:
            return list(self._records)

    def rebased_records(self) -> List[Dict[str, Any]]:
        """Records with timestamps re-zeroed to the first record.

        ``perf_counter`` origins differ across processes; a worker ships
        rebased records and the parent supplies the absolute offset at
        :meth:`ingest` time.
        """

        with self._lock:
            records = [dict(record) for record in self._records]
        if not records:
            return records
        base = min(record["ts"] for record in records)
        for record in records:
            record["ts"] = record["ts"] - base
        return records

    def counts(self) -> Dict[str, int]:
        """Tracer self-metrics (a ``MetricsRegistry`` source)."""

        with self._lock:
            return {
                "buffers_lost": self.buffers_lost,
                "events": self.events_recorded,
                "open_spans": len(self._open),
                "spans_ended": self.spans_ended,
                "spans_started": self.spans_started,
            }

    # -- cross-process ingestion ------------------------------------------

    def ingest(self, records: List[Dict[str, Any]],
               parent: Union[Span, str, None] = None,
               offset: float = 0.0) -> int:
        """Merge a worker's record stream into this tracer.

        Span ids are remapped into this tracer's namespace, fresh ``seq``
        values preserve the worker-side order, root spans (``parent:
        None``) are re-parented under *parent*, and every timestamp is
        shifted by *offset* (typically the owning attempt span's start,
        matching rebased worker records).  Returns the number of records
        ingested.
        """

        parent_id = _span_id_of(parent)
        if parent_id is None:
            parent_id = self.current_id()
        mapping: Dict[str, str] = {}
        with self._lock:
            for record in records:
                merged = dict(record)
                merged["ts"] = merged.get("ts", 0.0) + offset
                kind = merged.get("type")
                if kind == "start":
                    old = merged["id"]
                    mapping[old] = new = f"s{self._next_span}"
                    self._next_span += 1
                    merged["id"] = new
                    old_parent = merged.get("parent")
                    merged["parent"] = (
                        mapping.get(old_parent, parent_id)
                        if old_parent is not None else parent_id
                    )
                    self._open.add(new)
                    self.spans_started += 1
                elif kind == "end":
                    merged["id"] = mapping.get(merged["id"], merged["id"])
                    self._open.discard(merged["id"])
                    self.spans_ended += 1
                elif kind == "event":
                    old_span = merged.get("span")
                    merged["span"] = (
                        mapping.get(old_span, parent_id)
                        if old_span is not None else parent_id
                    )
                    self.events_recorded += 1
                merged["seq"] = self._next_seq
                self._next_seq += 1
                self._records.append(merged)
        return len(records)

    def buffer_lost(self, parent: Union[Span, str], /, **attrs: Any) -> None:
        """Record a worker record buffer that will never be ingested.

        The counterpart of :meth:`ingest` for a worker that died before
        shipping its records: one ``worker:spans-lost`` event on *parent*
        (the span the buffer would have landed under), counted in
        ``buffers_lost``, so lost data reads differently from time no
        span covers.
        """

        self.event(SITE_WORKER_SPANS_LOST, span=parent, **attrs)
        with self._lock:
            self.buffers_lost += 1
