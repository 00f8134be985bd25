"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around calls into public
functions of the program; the program's tracer (``repro.obs``) and its
reported phase times are never consulted for a timing.  Spans stay in
memory and are written as JSONL when the run ends.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from itertools import count
from time import perf_counter
from typing import Dict, List, Optional

__all__ = ["ROUND", "REQUEST", "Recorder", "Span"]

#: Names of the benchmark's own spans: one per timed round and, on the
#: compile workloads, one per request.  Their self time (duration minus
#: direct children) is the time no layer span accounts for.
ROUND = "bench.round"
REQUEST = "bench.request"


class Span:
    """One timed interval; a context manager that records itself on exit."""

    __slots__ = ("_recorder", "id", "name", "request", "parent", "start", "end")

    def __init__(self, recorder: "Recorder", name: str, request: Optional[str]):
        self._recorder = recorder
        self.id = next(recorder._ids)
        self.name = name
        #: Identifier shared by every span of one request (None for spans
        #: that serve a whole round, such as ``service.start``).
        self.request = request
        self.parent: Optional[int] = None
        self.start = self.end = 0.0

    def __enter__(self) -> "Span":
        stack = self._recorder._stack()
        if stack:
            self.parent = stack[-1].id
        stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = perf_counter()
        self._recorder._stack().pop()
        self._recorder.spans.append(self)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any thread; parents are per-thread nesting."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = count()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def span(self, name: str, request: Optional[str] = None) -> Span:
        return Span(self, name, request)

    def seconds_by_round(self) -> List[Dict[str, float]]:
        """Per :data:`ROUND` span: seconds per span name inside it.

        A span belongs to the round whose interval contains it, whichever
        thread recorded it (rounds never overlap).  ``bench.unattributed``
        is the self time of the round and request spans.
        """

        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        rounds = sorted(
            (s for s in self.spans if s.name == ROUND), key=lambda s: s.start
        )
        table: List[Dict[str, float]] = []
        for round_span in rounds:
            sums: Dict[str, float] = defaultdict(float)
            for span in self.spans:
                if not (round_span.start <= span.start and span.end <= round_span.end):
                    continue
                if span.name in (ROUND, REQUEST):
                    sums["bench.unattributed"] += span.duration - covered[span.id]
                else:
                    sums[span.name] += span.duration
            sums[ROUND] = round_span.duration
            table.append(dict(sums))
        return table

    def seconds_outside_rounds(self) -> Dict[str, float]:
        """Seconds per span name for spans no round contains (set-up, tear-down)."""

        rounds = [s for s in self.spans if s.name == ROUND]
        sums: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.name != ROUND and not any(
                r.start <= span.start and span.end <= r.end for r in rounds
            ):
                sums[span.name] += span.duration
        return dict(sums)

    def seconds_by_request(self) -> Dict[str, Dict[str, List[float]]]:
        """request id -> span name -> durations, for the per-kernel rows."""

        table: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
        for span in self.spans:
            if span.request is not None and span.name != REQUEST:
                table[span.request][span.name].append(span.duration)
        return table

    def write_jsonl(self, path: str) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.id):
                out.write(json.dumps({
                    "id": span.id,
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": span.parent,
                    "request": span.request,
                }) + "\n")
