"""Thread-safe counter registry of the optimization service.

One :class:`ServiceStats` instance is shared by the submit path, every
worker thread, and any number of observers: monotone event counters
(submissions, coalesced attaches, cache hits, terminal outcomes) plus the
two live gauges (queued / running jobs).  All mutation goes through the
methods, which serialize on one lock; :meth:`snapshot` returns a plain
dict that is internally consistent (taken under the same lock), which is
what the service CLI prints and the load-test harness records.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["ServiceStats"]


class ServiceStats:
    """Counters and gauges of one :class:`~repro.service.OptimizationService`.

    Counters are monotone over the service's lifetime:

    * ``submitted`` — handles created by ``submit`` (including coalesced
      ones), counted before the job can reach a worker (a ``block``-policy
      submit that times out takes its count back into ``rejected``),
    * ``coalesced`` — submissions attached to an identical in-flight job
      instead of enqueueing a new one,
    * ``cache_hits`` — jobs served straight from the artifact cache,
    * ``pipeline_runs`` — jobs that ran the cold pipeline,
    * ``completed`` / ``failed`` / ``cancelled`` — terminal handle outcomes,
    * ``progress_events`` — per-iteration snapshots published to jobs.

    The fault-tolerance layer (PR 6) adds:

    * ``rejected`` — submissions refused by the overload policy (the
      caller got :class:`~repro.service.errors.ServiceOverloadedError`
      instead of a handle; **not** counted in ``submitted``),
    * ``shed`` — queued jobs evicted as load-shedding victims (their
      handles count under ``failed``),
    * ``expired`` — queued jobs whose deadline passed before pickup, failed
      with :class:`~repro.service.errors.JobDeadlineError`,
    * ``degraded`` — jobs resolved from a deadline-degraded artifact (a
      running job's deadline or its config's ``time_limit`` stopped
      saturation),
    * ``retried`` — transient-failure requeues (one per retry attempt),
    * ``recovered`` — jobs that completed after at least one retry.

    Worker death:

    * ``worker_deaths`` — attempts whose worker died: a worker process
      observed dead (or hung past the heartbeat timeout and killed), or an
      injected ``worker:crash`` on either executor; each such attempt is
      also counted in ``retried`` when the job requeues,
    * ``worker_respawns`` — replacement worker processes spawned by the
      supervisor after a death (process executor only).

    ``queued`` and ``running`` are gauges maintained by the queue/worker
    transitions.  Every ``submitted`` handle ends in exactly one of the
    three terminal counters, so ``submitted == completed + failed +
    cancelled`` once the service has drained.
    """

    _COUNTERS = (
        "submitted",
        "coalesced",
        "cache_hits",
        "pipeline_runs",
        "completed",
        "failed",
        "cancelled",
        "progress_events",
        "rejected",
        "shed",
        "expired",
        "degraded",
        "retried",
        "recovered",
        "worker_deaths",
        "worker_respawns",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self._COUNTERS:
            setattr(self, name, 0)
        self.queued = 0
        self.running = 0

    # ------------------------------------------------------------------
    # mutation (all under the lock)
    # ------------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Increment the monotone counter *name* by *n*."""

        if name not in self._COUNTERS:
            raise ValueError(f"unknown service counter {name!r}")
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def follower_attached(self) -> None:
        """A submission attached to an in-flight job: ``submitted`` and
        ``coalesced`` move together, in one locked update."""

        with self._lock:
            self.submitted += 1
            self.coalesced += 1

    def job_queued(self) -> None:
        with self._lock:
            self.queued += 1

    def job_started(self) -> None:
        with self._lock:
            self.queued -= 1
            self.running += 1

    def job_finished(self) -> None:
        with self._lock:
            self.running -= 1

    def job_dequeued(self) -> None:
        """A queued job left the queue without running (cancelled/shed/
        expired)."""

        with self._lock:
            self.queued -= 1

    def job_requeued(self) -> None:
        """A running job went back to the queue (transient-failure retry).

        Only ``queued`` moves here: the worker's attempt ledger already
        balances ``running`` via ``job_started``/``job_finished``.
        """

        with self._lock:
            self.queued += 1

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    @property
    def terminal(self) -> int:
        """Handles that reached a terminal state (done/failed/cancelled)."""

        return self.completed + self.failed + self.cancelled

    def snapshot(self) -> Dict[str, int]:
        """An internally consistent copy of every counter and gauge."""

        with self._lock:
            snap = {name: getattr(self, name) for name in self._COUNTERS}
            snap["queued"] = self.queued
            snap["running"] = self.running
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ServiceStats({self.snapshot()})"
