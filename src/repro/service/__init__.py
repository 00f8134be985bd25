"""Concurrent optimization service: queue, coalescing, fault tolerance.

This package is the serving layer of the reproduction — the first
subsystem whose unit of work is *traffic*, not a single pipeline run:

* :mod:`repro.service.job` — :class:`OptimizationRequest` /
  :class:`JobHandle` / :class:`ProgressEvent`: future-like handles over
  submitted work, with cancellation (queued *and* running jobs),
  per-job deadlines, and per-iteration progress streaming,
* :mod:`repro.service.queue` — a blocking priority :class:`JobQueue`
  (deterministic ``(priority, submission)`` order) with an optional
  ``max_depth`` bound for backpressure,
* :mod:`repro.service.stats` — the thread-safe :class:`ServiceStats`
  counter registry (queued/running gauges, coalesce/cache-hit counters,
  and the fault-tolerance counters: rejected/shed/expired/degraded/
  retried/recovered),
* :mod:`repro.service.errors` — the typed serving errors and the
  transient-vs-permanent failure classification,
* :mod:`repro.service.faults` — the seeded, deterministic
  :class:`FaultPlan` fault-injection harness,
* :mod:`repro.service.procpool` — :class:`ProcessWorkerPool`: the
  supervised process-worker backend (PR 8) — spawned worker processes
  with heartbeat/exit-code supervision, orphaned-job recovery through
  the retry path, and file-backed cross-process deadline/cancellation,
* :mod:`repro.service.service` — :class:`OptimizationService`: a worker
  pool over an :class:`~repro.session.OptimizationSession` with
  **in-flight request coalescing** keyed on the fields of the session
  cache key (source text, config fingerprint, name prefix), plus
  deadlines with graceful degradation, overload policies, and retry with
  exponential backoff; ``executor="thread" | "process"`` picks the
  backend.

The ``accsat serve`` CLI mode, ``examples/service_quickstart.py`` and the
load-test harness (``benchmarks/run_service_bench.py``) all sit on this
package.
"""

from repro.service.errors import (
    InjectedFault,
    JobDeadlineError,
    ServiceError,
    ServiceOverloadedError,
    TransientError,
    WorkerDiedError,
    is_transient,
)
from repro.service.faults import FaultPlan, FaultRule
from repro.service.job import (
    CancelledError,
    Job,
    JobHandle,
    JobState,
    OptimizationRequest,
    ProgressEvent,
)
from repro.service.procpool import ProcessWorkerPool, WorkerTask
from repro.service.queue import JobQueue
from repro.service.service import OptimizationService
from repro.service.stats import ServiceStats

__all__ = [
    "CancelledError",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "Job",
    "JobDeadlineError",
    "JobHandle",
    "JobQueue",
    "JobState",
    "OptimizationRequest",
    "OptimizationService",
    "ProcessWorkerPool",
    "ProgressEvent",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceStats",
    "TransientError",
    "WorkerDiedError",
    "WorkerTask",
    "is_transient",
]
