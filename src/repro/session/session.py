"""Staged optimization sessions: cached, batched whole-source optimization.

An :class:`OptimizationSession` wraps the staged pipeline
(:mod:`repro.session.stages`) with

* a **content-addressed artifact cache** (:mod:`repro.session.cache`):
  results are keyed on (source fingerprint, config fingerprint, stage,
  name prefix), so re-optimizing the same kernel under the same
  configuration — which the figure/table experiments do for every variant
  and compiler cell — is a cache hit instead of a pipeline run, and
* a **pluggable batch executor** (:mod:`repro.session.executor`): a batch
  of independent sources runs serially, on threads, or on processes.

Cache hits return artifacts equal to a cold run in everything but wall
clock; the per-kernel reports of a hit carry ``from_cache=True`` so
downstream consumers can tell the two apart.  The equivalence tests under
``tests/session`` enforce the "identical to a cold run" contract for every
variant and extractor.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple, Union

from repro.saturator.config import SaturatorConfig
from repro.saturator.report import OptimizationResult
from repro.session.cache import MISS, ArtifactCache, CacheStats
from repro.session.executor import (
    BatchExecutor,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.session.fingerprint import CacheKey, stage_key
from repro.session.stages import Stage

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.egraph.runner import CancellationToken, IterationCallback
    from repro.session.stages import FaultHook

__all__ = ["OptimizationSession"]

#: Cache-stage name of the whole-source pipeline artifact.
_RESULT_STAGE = "optimize-source"

#: A batch item: a source string, or (source, name_prefix).
SourceItem = Union[str, Tuple[str, str]]


def _split_item(item: SourceItem) -> Tuple[str, str]:
    if isinstance(item, str):
        return item, "kernel"
    source, name_prefix = item
    return source, name_prefix


def _optimize_task(args: Tuple[str, SaturatorConfig, str]) -> OptimizationResult:
    """Module-level cold-run worker so process pools can pickle it."""

    from repro.saturator.driver import optimize_source

    source, config, name_prefix = args
    return optimize_source(source, config, name_prefix)


def _cache_dir_of(cache: Optional[ArtifactCache]) -> Optional[str]:
    """Directory of the cache's disk tier, if it has one.

    Handed to process executors so their workers inherit the on-disk
    artifacts (``DiskCache.root`` directly, or ``TieredCache.disk``).
    """

    disk = getattr(cache, "disk", None) or cache
    root = getattr(disk, "root", None)
    return None if root is None else os.fspath(root)


class OptimizationSession:
    """A reusable, cache-aware context for running the staged pipeline.

    ``config`` is the default :class:`SaturatorConfig` of the session; each
    call may override it, and the cache key always reflects the config
    actually used.  ``cache`` is any :class:`ArtifactCache` (or ``None``
    for an uncached session); ``executor`` is anything accepted by
    :func:`~repro.session.executor.make_executor`.
    """

    def __init__(
        self,
        config: Optional[SaturatorConfig] = None,
        cache: Optional[ArtifactCache] = None,
        executor: Union[None, int, str, BatchExecutor] = None,
        stages: Optional[Sequence[Stage]] = None,
    ) -> None:
        self.config = config or SaturatorConfig()
        self.cache = cache
        # a process executor built from a spec inherits the session's disk
        # cache directory, so its workers share the warm artifact tier
        self.executor = make_executor(executor, cache_dir=_cache_dir_of(cache))
        self.stages = stages

    # ------------------------------------------------------------------
    # single-source entry point
    # ------------------------------------------------------------------

    def key_for(
        self, source: str, config: Optional[SaturatorConfig] = None,
        name_prefix: str = "kernel",
    ) -> CacheKey:
        """The cache key this session uses for one source+config pair."""

        return stage_key(source, config or self.config, _RESULT_STAGE, name_prefix)

    def run(
        self,
        source: str,
        config: Optional[SaturatorConfig] = None,
        name_prefix: str = "kernel",
        on_iteration: Optional["IterationCallback"] = None,
        cancellation: Optional["CancellationToken"] = None,
        fault_hook: Optional["FaultHook"] = None,
        tracer=None,
        trace_parent=None,
    ) -> OptimizationResult:
        """Optimize *source*, reusing a cached artifact when one exists.

        ``on_iteration`` streams per-iteration saturation progress from a
        cold run (see :class:`~repro.egraph.runner.Runner`); a cache hit
        returns immediately and never fires it.  ``cancellation`` threads
        a deadline/cancel token into the saturation loop (see
        :meth:`run_detailed` for the degradation contract).
        """

        return self.run_detailed(
            source, config, name_prefix, on_iteration,
            cancellation=cancellation, fault_hook=fault_hook,
            tracer=tracer, trace_parent=trace_parent,
        )[0]

    def run_detailed(
        self,
        source: str,
        config: Optional[SaturatorConfig] = None,
        name_prefix: str = "kernel",
        on_iteration: Optional["IterationCallback"] = None,
        cancellation: Optional["CancellationToken"] = None,
        fault_hook: Optional["FaultHook"] = None,
        tracer=None,
        trace_parent=None,
    ) -> Tuple[OptimizationResult, bool]:
        """Like :meth:`run`, but also reports whether the cache served it.

        The boolean is authoritative even for artifacts without kernels
        (whose reports carry no ``from_cache`` flags) — the optimization
        service's hit/run accounting depends on that.

        A run whose deadline — ``cancellation``'s or the config's
        ``time_limit`` budget — tripped mid-saturation returns a
        **degraded** result (``result.degraded``); degraded artifacts are
        *never* stored in the cache (see :meth:`_store`), so they can't
        shadow the full artifact a later unconstrained run produces.

        ``tracer``/``trace_parent`` thread a :class:`repro.obs.Tracer`
        into a cold run.  Like ``on_iteration``, the tracer is strictly
        observational: it is not part of the cache key, and traced and
        untraced runs produce byte-identical artifacts.
        """

        config = config or self.config
        if self.cache is None:
            return (
                self._cold(
                    source, config, name_prefix, on_iteration,
                    cancellation, fault_hook, tracer, trace_parent,
                ),
                False,
            )
        key = self.key_for(source, config, name_prefix)
        hit = self.cache.get(key)
        if hit is not MISS:
            return self._mark_cached(hit), True
        result = self._cold(
            source, config, name_prefix, on_iteration, cancellation,
            fault_hook, tracer, trace_parent,
        )
        self._store(key, result)
        return result, False

    # ------------------------------------------------------------------
    # batch entry point
    # ------------------------------------------------------------------

    def run_many(
        self,
        items: Iterable[SourceItem],
        config: Optional[SaturatorConfig] = None,
    ) -> List[OptimizationResult]:
        """Optimize a batch of sources through the session executor.

        Cached artifacts are returned directly; only cold items are
        submitted to the executor.  Results come back in input order, and
        cold results are stored (unless degraded — see :meth:`_store`) so
        later batches (and :meth:`run`) hit.
        """

        config = config or self.config
        items = [_split_item(item) for item in items]
        results: List[Optional[OptimizationResult]] = [None] * len(items)

        cold: List[Tuple[int, str, str]] = []
        for index, (source, name_prefix) in enumerate(items):
            if self.cache is not None:
                hit = self.cache.get(self.key_for(source, config, name_prefix))
                if hit is not MISS:
                    results[index] = self._mark_cached(hit)
                    continue
            cold.append((index, source, name_prefix))

        if cold:
            if self.stages is None:
                computed = self.executor.map(
                    _optimize_task,
                    [(source, config, name_prefix) for _, source, name_prefix in cold],
                )
            else:
                # custom stage lists are closures over live objects; keep
                # them in-process (serial/threads both work, processes
                # would need to pickle the stage instances)
                if isinstance(self.executor, ProcessExecutor):
                    raise ValueError(
                        "run_many with a custom stage list cannot use a "
                        "process executor (stage instances live in this "
                        "process); use a serial or thread executor"
                    )
                computed = self.executor.map(
                    lambda args: self._cold(*args),
                    [(source, config, name_prefix) for _, source, name_prefix in cold],
                )
            for (index, source, name_prefix), result in zip(cold, computed):
                self._store(self.key_for(source, config, name_prefix), result)
                results[index] = result
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def cache_stats(self) -> Optional[CacheStats]:
        """Hit/miss counters of the session cache (None when uncached)."""

        return None if self.cache is None else self.cache.stats

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _cold(
        self,
        source: str,
        config: SaturatorConfig,
        name_prefix: str,
        on_iteration: Optional["IterationCallback"] = None,
        cancellation: Optional["CancellationToken"] = None,
        fault_hook: Optional["FaultHook"] = None,
        tracer=None,
        trace_parent=None,
    ) -> OptimizationResult:
        from repro.saturator.driver import optimize_source

        return optimize_source(
            source, config, name_prefix, stages=self.stages,
            on_iteration=on_iteration,
            cancellation=cancellation,
            fault_hook=fault_hook,
            tracer=tracer,
            trace_parent=trace_parent,
        )

    def _store(self, key: CacheKey, result: OptimizationResult) -> None:
        """The one store rule for cold results: a degraded artifact — a
        deadline or ``time_limit`` stop — is never cached, so the cache
        only ever holds pure functions of (source, config)."""

        if self.cache is not None and not result.degraded:
            self.cache.put(key, result)

    @staticmethod
    def _mark_cached(result: OptimizationResult) -> OptimizationResult:
        for kernel in result.kernels:
            kernel.from_cache = True
        return result
