"""Staged optimization sessions: cached whole-source optimization.

An :class:`OptimizationSession` wraps the staged pipeline
(:mod:`repro.session.stages`) with a **content-addressed artifact cache**
(:mod:`repro.session.cache`): results are keyed on (source fingerprint,
config fingerprint, stage, name prefix), so re-optimizing the same kernel
under the same configuration — a repeated service request, or an
``accsat --cache-dir`` re-run — is a cache hit instead of a pipeline
run.  Running many sessions concurrently is the optimization service's
job (:class:`repro.service.OptimizationService`).

Cache hits return artifacts equal to a cold run in everything but wall
clock; the per-kernel reports of a hit carry ``from_cache=True`` so
downstream consumers can tell the two apart.  The equivalence tests under
``tests/session`` enforce the "identical to a cold run" contract for every
variant and extractor.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Optional, Tuple

from repro.saturator.config import SaturatorConfig
from repro.saturator.report import OptimizationResult
from repro.session.cache import MISS, CacheStats, MemoryCache
from repro.session.fingerprint import CacheKey, stage_key

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.egraph.runner import CancellationToken, IterationCallback
    from repro.session.stages import FaultHook

__all__ = ["OptimizationSession"]

#: Cache-stage name of the whole-source pipeline artifact.
_RESULT_STAGE = "optimize-source"


class OptimizationSession:
    """A reusable, cache-aware context for running the staged pipeline.

    ``config`` is the default :class:`SaturatorConfig` of the session; each
    call may override it, and the cache key always reflects the config
    actually used.  ``cache`` is a :class:`MemoryCache` (or ``None``
    for an uncached session).  A run always uses the default stage tuple,
    so its artifact is a pure function of what the key covers: source,
    config and name prefix.

    :meth:`run_detailed` probes the cache, runs cold and stores.  The
    optimization service takes the same three steps itself, on the
    session's key, cache and :meth:`_store` rule, so that its thread and
    process executors share one attempt path.
    """

    def __init__(
        self,
        config: Optional[SaturatorConfig] = None,
        cache: Optional[MemoryCache] = None,
    ) -> None:
        self.config = config or SaturatorConfig()
        self.cache = cache

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

        from repro.saturator.driver import optimize_source

        config = config or self.config
        key = None
        if self.cache is not None:
            key = self.key_for(source, config, name_prefix)
            hit = self.cache.get(key)
            if hit is not MISS:
                return self._mark_cached(hit), True
        result = optimize_source(
            source, config, name_prefix,
            on_iteration=on_iteration,
            cancellation=cancellation,
            fault_hook=fault_hook,
            tracer=tracer,
            trace_parent=trace_parent,
        )
        self._store(key, result)
        return result, False

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

    def _store(self, key: Optional[CacheKey], result: OptimizationResult) -> None:
        """The one store rule for cold results (:meth:`run_detailed` and
        the optimization service's attempt path): a degraded artifact — a
        deadline or ``time_limit`` stop — is never cached, so the cache
        only ever holds pure functions of (source, config)."""

        if self.cache is not None and not result.degraded:
            self.cache.put(key, result)

    @staticmethod
    def _mark_cached(result: OptimizationResult) -> OptimizationResult:
        return replace(
            result,
            kernels=tuple(
                replace(kernel, from_cache=True) for kernel in result.kernels
            ),
        )
