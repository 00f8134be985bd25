"""The four workloads: set-up, one timed round, tear-down.

Every workload is a closed loop driven by one generator thread in this
process.  A round does a fixed amount of work (one pass over the corpus,
one wave, or 2500 hot draws), so two commits that run the same number of
rounds do identical work.  ``gc.collect()`` runs before each round, outside
the timed window.

Why each exists:

* ``compile_accsat`` — the paper's headline variant through the library
  entry point; saturation and extraction do most of the work.
* ``compile_cse`` — the paper's baseline: the saturation loop never runs
  and bulk-load codegen is off, so it is the bypass workload for any
  matching/apply/rebuild/extraction change and the exercising one for the
  frontend, the e-graph build and codegen.
* ``serve_process_cold`` — every request misses the cache, crosses the
  pipe to a worker process, is pickled back and stored: the dispatch, IPC
  and supervisor path, and the cache write path.
* ``serve_thread_hot`` — every request is a cache hit or a coalesced
  follower of one: the pipeline is bypassed and submit, coalescing, the
  cache read path and the follower deep copy do all the work.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, List, Optional

from repro.saturator import OptimizationResult, Variant, optimize_source
from repro.service import OptimizationService
from repro.session import MemoryCache, OptimizationSession

from e2e_bench.corpus import Request, config_for, draws, permutation
from e2e_bench.replay import replay_optimize_source
from e2e_bench.spans import REQUEST, ROUND, Recorder

__all__ = ["WORKLOADS", "RecordingCache", "RoundOutcome", "Workload"]

#: Service worker count (= ``nproc`` of the box the bounds were set on).
WORKERS = 2
#: Requests per ``serve_thread_hot`` round.
HOT_DRAWS = 2500
#: Seconds a single ``result()`` may block before it counts as failed.
RESULT_TIMEOUT = 120.0
#: Service counters whose per-round change must equal a known constant.
EXACT_COUNTERS = (
    "pipeline_runs", "cache_hits", "coalesced", "retried", "failed", "worker_deaths",
)


@dataclass
class RoundOutcome:
    """What one round did, measured and returned."""

    #: Seconds per request slot (see :attr:`Workload.slots`); None if it failed.
    latencies: List[Optional[float]]
    wall: float = 0.0
    cpu: float = 0.0
    #: One result per distinct kernel (every duplicate was compared to it).
    results: Dict[str, OptimizationResult] = field(default_factory=dict)
    #: One line per request that raised, timed out or disagreed.
    failures: List[str] = field(default_factory=list)
    #: Per-round change of every service and cache counter (serve workloads).
    counters: Dict[str, int] = field(default_factory=dict)
    #: E-nodes after the build stage, summed (traced compile rounds only).
    build_nodes: int = 0


class RecordingCache(MemoryCache):
    """``MemoryCache`` whose ``get``/``put`` record spans while a recorder is set."""

    def __init__(self) -> None:
        super().__init__()
        self.recorder: Optional[Recorder] = None
        #: cache key -> request id, filled by the workload outside the timed window.
        self.request_of: Dict[object, str] = {}

    def get(self, key):
        if self.recorder is None:
            return super().get(key)
        with self.recorder.span("session.cache_get", self.request_of.get(key)):
            return super().get(key)

    def put(self, key, value) -> None:
        if self.recorder is None:
            return super().put(key, value)
        with self.recorder.span("session.cache_put", self.request_of.get(key)):
            super().put(key, value)


class Workload:
    """Common shape; ``recorder`` is set for a traced run, None otherwise."""

    name = ""
    variant = Variant.ACCSAT
    #: Timed rounds per second of ``--seconds``, set so that the timed window
    #: lasts about ``--seconds`` on the 2-core box the bounds were set on.
    rounds_per_second = 1.0

    def __init__(self, corpus: List[Request], seed: int, recorder: Optional[Recorder]):
        self.corpus = corpus
        #: The requests of one round, in an order that is the same every
        #: round, so that slot *i* of two rounds is the same request.
        self.slots = corpus
        self.seed = seed
        self.recorder = recorder
        self.config = config_for(self.variant)

    @property
    def requests_per_round(self) -> int:
        return len(self.slots)

    def _new_outcome(self) -> RoundOutcome:
        return RoundOutcome([None] * len(self.slots))

    def expected_counters(self) -> Dict[str, int]:
        return {}

    def setup(self) -> None:
        """Everything up to ready, including one untimed warm-up round."""

        self.round("warm-up", traced=False)

    def round(self, index: object, traced: bool) -> RoundOutcome:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def _span(self, traced: bool, name: str, request: Optional[str] = None):
        return self.recorder.span(name, request) if traced else nullcontext()


class CompileWorkload(Workload):
    """One caller, ``optimize_source`` per kernel, a fresh seeded order per pass."""

    def round(self, index: object, traced: bool) -> RoundOutcome:
        recorder, config = self.recorder, self.config
        order = permutation(self.seed, index, len(self.corpus))
        outcome = self._new_outcome()
        gc.collect()
        cpu0, t0 = process_time(), perf_counter()
        with self._span(traced, ROUND):
            for position in order:
                request = self.corpus[position]
                start = perf_counter()
                try:
                    if traced:
                        with recorder.span(REQUEST, request.name):
                            result, nodes = replay_optimize_source(
                                request.source, config, request.name,
                                recorder, request.name,
                            )
                        outcome.build_nodes += nodes
                    else:
                        result = optimize_source(request.source, config, request.name)
                except Exception as error:  # a raising pipeline is a failed request
                    outcome.failures.append(f"{request.name}: raised {error!r}")
                    continue
                outcome.latencies[position] = perf_counter() - start
                outcome.results[request.name] = result
        outcome.wall = perf_counter() - t0
        outcome.cpu = process_time() - cpu0
        return outcome


class CompileAccsat(CompileWorkload):
    name = "compile_accsat"
    variant = Variant.ACCSAT
    rounds_per_second = 0.75


class CompileCse(CompileWorkload):
    name = "compile_cse"
    variant = Variant.CSE
    rounds_per_second = 1.5


class ServeWorkload(Workload):
    """Submit a batch from one thread, then resolve the handles in submit order."""

    def __init__(self, corpus, seed, recorder):
        super().__init__(corpus, seed, recorder)
        self.cache = MemoryCache() if recorder is None else RecordingCache()

    def _trace_cache(self, traced: bool) -> None:
        if self.recorder is not None:
            self.cache.recorder = self.recorder if traced else None

    def _submit_all(self, service, batch, traced):
        """``batch`` is [(request, name_prefix)]; returns handles and submit times."""

        recorder = self.recorder
        handles, submitted = [], []
        for request, prefix in batch:
            submitted.append(perf_counter())
            if traced:
                with recorder.span("service.submit", request.name):
                    handle = service.submit(request.source, name_prefix=prefix)
            else:
                handle = service.submit(request.source, name_prefix=prefix)
            handles.append(handle)
        return handles, submitted

    def _resolve_all(self, batch, handles, submitted, traced, outcome):
        """Block on each handle in order; returns [(kernel name, result)]."""

        recorder = self.recorder
        resolved = []
        for slot, ((request, _), handle, start) in enumerate(zip(batch, handles, submitted)):
            try:
                if traced:
                    with recorder.span("service.drain", request.name):
                        result = handle.result(RESULT_TIMEOUT)
                else:
                    result = handle.result(RESULT_TIMEOUT)
            except Exception as error:  # failed, cancelled or timed out
                outcome.failures.append(f"{request.name}: {error!r}")
                continue
            outcome.latencies[slot] = perf_counter() - start
            resolved.append((request.name, result))
        return resolved

    def _counters(self, service) -> Dict[str, int]:
        """Service counters plus the shared cache's, read outside the timed window."""

        stats = self.cache.stats
        return service.stats.snapshot() | {
            "cache.gets": stats.lookups, "cache.hits": stats.hits,
            "cache.puts": stats.stores,
        }

    def _account(self, outcome, resolved, before, after) -> None:
        """Untimed: dedupe results per kernel and diff the counters."""

        for name, result in resolved:
            first = outcome.results.setdefault(name, result)
            if result.code != first.code:
                outcome.failures.append(f"{name}: two results of one round differ")
        outcome.counters = {name: after[name] - before[name] for name in after}
        exact = {name: outcome.counters[name] for name in EXACT_COUNTERS}
        if exact != self.expected_counters():
            outcome.failures.append(
                f"service counters {exact} != expected {self.expected_counters()}"
            )


class ServeProcessCold(ServeWorkload):
    """One long-lived process-executor service; every wave misses the cache."""

    name = "serve_process_cold"
    rounds_per_second = 1.0

    def __init__(self, corpus, seed, recorder):
        super().__init__(corpus, seed, recorder)
        self.service = OptimizationService(
            config=self.config, cache=self.cache, workers=WORKERS, executor="process"
        )
        self.session = self.service.session

    def expected_counters(self) -> Dict[str, int]:
        return dict.fromkeys(EXACT_COUNTERS, 0) | {"pipeline_runs": len(self.corpus)}

    def setup(self) -> None:
        with self._span(self.recorder is not None, "service.start"):
            self.service.start()
        super().setup()

    def round(self, index: object, traced: bool) -> RoundOutcome:
        service = self.service
        # Suite order, whatever the seed: with two workers the order decides
        # when the long kernels start (olbm_collide alone is half of a
        # wave's work), so a seeded permutation would make the wave time a
        # function of the seed.  The seed and the wave only name the
        # requests, so that no earlier wave's artifact is ever a hit.
        batch = [
            (request, f"{request.name}-s{self.seed}-w{index}")
            for request in self.corpus
        ]
        self._trace_cache(traced)
        if traced:
            for request, prefix in batch:
                key = self.session.key_for(request.source, None, prefix)
                self.cache.request_of[key] = request.name
        outcome = self._new_outcome()
        before = self._counters(service)
        gc.collect()
        cpu0, t0 = process_time(), perf_counter()
        with self._span(traced, ROUND):
            handles, submitted = self._submit_all(service, batch, traced)
            resolved = self._resolve_all(batch, handles, submitted, traced, outcome)
        outcome.wall = perf_counter() - t0
        outcome.cpu = process_time() - cpu0
        self._account(outcome, resolved, before, self._counters(service))
        return outcome

    def teardown(self) -> None:
        with self._span(self.recorder is not None, "service.stop"):
            self.service.stop()


class ServeThreadHot(ServeWorkload):
    """A fresh thread-executor service per round over one pre-filled session.

    All draws are submitted before ``start()``, so each round is exactly one
    cache hit per distinct kernel plus coalesced followers and no pipeline
    run.  The service is rebuilt every round because a long-lived one keeps
    every ``Job`` it ever ran (50 k hot requests grow RSS by hundreds of MB
    and throughput drifts), which a benchmark must not average over.
    """

    name = "serve_thread_hot"
    rounds_per_second = 1.7

    def expected_counters(self) -> Dict[str, int]:
        distinct = len({request.name for request, _ in self.batch})
        return dict.fromkeys(EXACT_COUNTERS, 0) | {
            "cache_hits": distinct, "coalesced": len(self.batch) - distinct,
        }

    def __init__(self, corpus, seed, recorder):
        super().__init__(corpus, seed, recorder)
        self.session = OptimizationSession(self.config, self.cache)
        picks = draws(seed, len(corpus), HOT_DRAWS)
        self.batch = [(corpus[i], corpus[i].name) for i in picks]
        self.slots = [request for request, _ in self.batch]

    def setup(self) -> None:
        for request in self.corpus:
            self.session.run(request.source, self.config, request.name)
            if self.recorder is not None:
                key = self.session.key_for(request.source, None, request.name)
                self.cache.request_of[key] = request.name
        super().setup()

    def round(self, index: object, traced: bool) -> RoundOutcome:
        batch = self.batch
        self._trace_cache(traced)
        outcome = self._new_outcome()
        gc.collect()
        cpu0, t0 = process_time(), perf_counter()
        with self._span(traced, ROUND):
            service = OptimizationService(
                session=self.session, workers=WORKERS, executor="thread"
            )
            before = self._counters(service)
            try:
                handles, submitted = self._submit_all(service, batch, traced)
                with self._span(traced, "service.start"):
                    service.start()
                resolved = self._resolve_all(batch, handles, submitted, traced, outcome)
            finally:
                with self._span(traced, "service.stop"):
                    service.stop()
        outcome.wall = perf_counter() - t0
        outcome.cpu = process_time() - cpu0
        self._account(outcome, resolved, before, self._counters(service))
        return outcome


WORKLOADS = {
    cls.name: cls
    for cls in (CompileAccsat, CompileCse, ServeProcessCold, ServeThreadHot)
}
