"""The long-lived concurrent optimization service.

:class:`OptimizationService` puts a job queue, a worker pool, and
in-flight request coalescing in front of an
:class:`~repro.session.OptimizationSession`'s cache and config:

* **submit/poll/stream** — :meth:`OptimizationService.submit` returns a
  :class:`~repro.service.job.JobHandle` at once; callers poll it, block
  on ``result()``, or iterate ``stream()`` for per-iteration progress.
* **coalescing** — submissions are keyed by the fields of the session
  cache key: (source text, config fingerprint, name prefix); one
  matching a queued or running job *attaches* to it, so N identical
  concurrent requests cost one pipeline run, and later ones are cache
  hits.  Only a submission that creates a job takes the source's
  SHA-256 content address (the cache, fault and trace key).
* **accounting** — :class:`~repro.service.stats.ServiceStats` counts
  submissions, hits, runs and terminal outcomes.  A submission is
  counted before its job can reach a worker, so ``stats.snapshot()`` is
  consistent at any instant.
* **deadlines** — a job's :class:`~repro.egraph.runner.CancellationToken`
  trips ``OptimizationRequest.deadline`` seconds after submission: a
  queued job fails with :class:`~repro.service.errors.JobDeadlineError`
  at pickup; a running one stops at the next iteration boundary and
  resolves with a ``degraded=True`` artifact (byte-identical to an
  iteration-limit stop there, never cached).  The config's
  ``time_limit`` budget degrades the same way.
* **backpressure** — a bounded queue with a ``block`` / ``reject`` /
  ``shed`` overload policy (see :class:`OptimizationService`).
* **retry** — transient failures (``OSError``,
  :class:`~repro.service.errors.TransientError`, a dead worker) requeue
  with capped, deterministic exponential backoff; others fail the job.
* **fault injection** — a :class:`~repro.service.faults.FaultPlan` arms
  the no-op hooks along the serving path for deterministic chaos tests.

One attempt of a job is one path on both executors: bind the job to the
fault plan, fire ``worker:pickup``, check ``worker:crash``, probe the
cache, run cold, check ``ipc:result-drop``, store through
:meth:`OptimizationSession._store`.  The executors differ only in the
callable that does the cold run — ``optimize_source`` on the worker
thread, or a leased :class:`~repro.service.procpool.ProcessWorkerPool`
worker — so one seeded fault plan gives one outcome on either.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
import traceback
import weakref
from contextlib import nullcontext
from itertools import count
from typing import Dict, List, Optional, Tuple, Union

from repro.egraph.runner import CancellationToken, FileTripSignal
from repro.obs.metrics import MetricsRegistry
from repro.saturator.config import SaturatorConfig
from repro.saturator.driver import optimize_source
from repro.saturator.report import OptimizationResult
from repro.service.errors import (
    JobDeadlineError,
    ServiceOverloadedError,
    TransientError,
    WorkerDiedError,
    is_transient,
)
from repro.service.faults import FaultPlan
from repro.service.job import Job, JobHandle, JobState, OptimizationRequest, ProgressEvent
from repro.service.procpool import ProcessWorkerPool, WorkerTask
from repro.service.queue import JobQueue
from repro.service.stats import ServiceStats
from repro.session.cache import MISS, MemoryCache
from repro.session.session import OptimizationSession
from repro.session.stages import SaturationCancelled

__all__ = ["OptimizationService"]

#: Accepted ``overload_policy`` spellings (the long form is the ISSUE's).
_POLICIES = {
    "block": "block",
    "reject": "reject",
    "shed": "shed",
    "shed-oldest-lowest-priority": "shed",
}

#: Accepted ``executor`` spellings.
_EXECUTORS = ("thread", "process")


def _default_workers() -> int:
    return max(2, min(8, os.cpu_count() or 2))


def _release_frames(error: BaseException) -> None:
    """Drop the locals of the finished frames *error*'s tracebacks hold.

    A failed job keeps its error, whose traceback keeps the attempt's
    frames — and, through ``f_back``, their callers' frames — whose
    locals keep the job: a cycle that frees the job only at a collector
    pass.  Once the attempt has returned, those frames are done; clearing
    them keeps each traceback printable (code objects and line numbers
    stay) and lets the job go with its last handle.  Clearing stops at
    the first frame still executing: its callers are executing too.
    """

    seen = set()
    pending = [error]
    while pending:
        exc = pending.pop()
        if exc is None or id(exc) in seen:
            continue
        seen.add(id(exc))
        tb = exc.__traceback__
        traceback.clear_frames(tb)
        frame = None if tb is None else tb.tb_frame.f_back
        while frame is not None:
            try:
                frame.clear()
            except RuntimeError:
                break
            frame = frame.f_back
        pending += (exc.__cause__, exc.__context__)


class OptimizationService:
    """A concurrent, coalescing, fault-tolerant front-end over a session.

    ``session`` supplies the cache and configuration defaults; when
    omitted, one is built from ``config``/``cache`` (an in-memory cache by
    default, so identical *sequential* submissions hit even without
    coalescing).  ``workers`` sizes the thread pool; ``coalesce=False``
    disables in-flight deduplication (every submission enqueues its own
    job — the load-test harness uses this as the baseline).

    Fault-tolerance knobs:

    * ``max_queue`` bounds the number of queued (not-yet-running) jobs;
      ``overload_policy`` decides what a full queue does to ``submit``
      (``"block"``/``"reject"``/``"shed"``, see the module docstring) and
      ``submit_timeout`` bounds the ``block`` wait (``None`` = forever —
      note a blocked submit on a never-started service waits until a
      worker frees space, so start the service first).
    * ``max_retries`` retries transient failures with exponential backoff
      ``retry_backoff * 2**(attempt-1)`` seconds, capped at
      ``retry_backoff_cap``.
    * ``faults`` arms a :class:`~repro.service.faults.FaultPlan` on the
      serving path (cache, stages, worker pickup, progress publish).

    ``executor`` picks who runs a cold pipeline: the worker thread
    (``"thread"``, default) or a supervised worker process it leases
    (``"process"``; see the module docstring).  ``heartbeat_timeout``
    (process executor only) kills and replaces a busy worker silent for
    that many seconds — hangs become transient worker deaths.

    The service can be used as a context manager::

        with OptimizationService(workers=4) as service:
            handle = service.submit(source)
            result = handle.result()

    Jobs may be submitted before :meth:`start`; they queue up and run once
    the workers exist (tests use this to make coalescing deterministic).
    """

    def __init__(
        self,
        session: Optional[OptimizationSession] = None,
        config: Optional[SaturatorConfig] = None,
        cache: Optional[MemoryCache] = None,
        workers: Optional[int] = None,
        coalesce: bool = True,
        max_queue: Optional[int] = None,
        overload_policy: str = "block",
        submit_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        retry_backoff_cap: float = 1.0,
        faults: Optional[FaultPlan] = None,
        executor: str = "thread",
        heartbeat_timeout: Optional[float] = None,
        tracer=None,
    ) -> None:
        if session is not None and (config is not None or cache is not None):
            raise ValueError("pass either a session or config/cache, not both")
        if session is None:
            session = OptimizationSession(
                config=config, cache=MemoryCache() if cache is None else cache
            )
        self.session = session
        self.workers = workers if workers is not None else _default_workers()
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if overload_policy not in _POLICIES:
            raise ValueError(
                f"unknown overload_policy {overload_policy!r}; "
                f"expected one of {sorted(_POLICIES)}"
            )
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if executor not in _EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {_EXECUTORS}"
            )
        self.executor = executor
        self.heartbeat_timeout = heartbeat_timeout
        self._pool: Optional[ProcessWorkerPool] = None
        self._trip_dir: Optional[str] = None
        self.coalesce = coalesce
        self.overload_policy = _POLICIES[overload_policy]
        self.submit_timeout = submit_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_cap = retry_backoff_cap
        self.faults = faults
        self.stats = ServiceStats()
        self._queue = JobQueue(max_depth=max_queue)
        self._lock = threading.Lock()
        #: The in-flight registry has its own lock: workers must be able to
        #: drop a finished job (and thereby pop the next one, freeing a
        #: queue slot) while a ``block``-policy submit holds ``_lock``
        #: waiting for exactly that slot.  Order: ``_lock`` may wrap
        #: ``_inflight_lock``; never the reverse, and workers take only
        #: the latter.
        self._inflight_lock = threading.Lock()
        #: Keyed on ``(source, config fingerprint, name prefix)``, which is
        #: equal exactly when the jobs' cache keys are, so a follower
        #: attaches without hashing its source.
        self._inflight: Dict[Tuple[str, str, str], Job] = {}
        #: Every job somebody can still observe, by ``seq`` (= submission
        #: order).  Held weakly: the queue, the in-flight registry and the
        #: worker running it keep a job alive until it is terminal, its
        #: handles for as long as a caller holds one — a long-lived
        #: service retains nothing for work nobody can ask about.
        self._jobs: "weakref.WeakValueDictionary[int, Job]" = (
            weakref.WeakValueDictionary()
        )
        self._seq = count()
        self._threads: List[threading.Thread] = []
        self._started = False
        self._stopped = False
        if faults is not None and session.cache is not None:
            # arm the cache sites; stage/publish/pickup sites are armed
            # per-job in the worker loop
            session.cache.fault_hook = faults.fire
        #: Strictly observational telemetry (PR 10).  ``tracer`` is an
        #: optional :class:`repro.obs.Tracer`; ``metrics`` always exists —
        #: it adapts every counter surface (ServiceStats, CacheStats, the
        #: fault plan's injection counts, the tracer's own counters, plus
        #: phase-time histograms and per-rule counters observed from
        #: completed runs) behind one deterministic ``snapshot()``, the
        #: payload ``accsat serve --report`` emits.
        self.tracer = tracer
        self.metrics = MetricsRegistry()
        self.metrics.add_source("service", self.stats.snapshot)
        if session.cache is not None:
            self.metrics.add_source("cache", session.cache.stats.as_dict)
        if faults is not None:
            self.metrics.add_source("faults", faults.injected)
        if tracer is not None:
            self.metrics.add_source("telemetry", tracer.counts)
            if session.cache is not None:
                # cache probes become trace events parented (via the per-
                # attempt bind) to the job that issued them
                session.cache.trace_hook = tracer.hook
            if faults is not None:
                # every fault verdict — raising or structural — surfaces
                # as a trace event automatically (the observer runs under
                # the per-attempt bind, so it lands on the right span)
                def _fault_event(site, rule, key, hit):
                    tracer.event(
                        "fault:injected", site=site, kind=rule.kind, hit=hit
                    )

                faults.on_inject = _fault_event

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "OptimizationService":
        """Spawn the worker threads (idempotent).

        With ``executor="process"`` this also spawns the supervised worker
        processes (one per worker thread, so a dispatcher never waits for
        a lease) and the per-job trip-file directory.
        """

        with self._lock:
            if self._stopped:
                raise RuntimeError("service was stopped; build a new one")
            if self._started:
                return self
            self._started = True
            if self.executor == "process":
                self._trip_dir = tempfile.mkdtemp(prefix="repro-service-trips-")
                self._pool = ProcessWorkerPool(
                    workers=self.workers,
                    heartbeat_timeout=self.heartbeat_timeout,
                    stats=self.stats,
                ).start()
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker, name=f"repro-service-{index}", daemon=True
                )
                self._threads.append(thread)
                thread.start()
        return self

    def stop(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Shut down: close the queue, optionally cancel what never ran.

        The queue closes **first** (under the registry lock — ``submit``
        holds the same lock from its closed-check through the push, so a
        racing submission either lands fully before the close or is
        rejected up front, never stranded half-registered); only then does
        ``cancel_pending`` sweep the still-queued jobs, so the sweep
        cannot miss a submission that slipped past the stop.  Without
        ``cancel_pending`` the workers drain the queue before exiting.
        ``wait`` blocks until the worker threads have terminated.
        """

        with self._lock:
            self._queue.close()
            self._stopped = True
            threads = list(self._threads)
        if cancel_pending:
            for job in self.jobs():
                if job.state is JobState.QUEUED:
                    for handle in list(job.handles):
                        handle.cancel()
        if wait:
            for thread in threads:
                thread.join()
            # the dispatchers are gone, so no lease is outstanding: the
            # worker processes and the trip files can go too
            if self._pool is not None:
                self._pool.stop()
            if self._trip_dir is not None:
                shutil.rmtree(self._trip_dir, ignore_errors=True)
                self._trip_dir = None

    def __enter__(self) -> "OptimizationService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop(wait=True)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(
        self,
        request: Union[str, OptimizationRequest],
        config: Optional[SaturatorConfig] = None,
        priority: int = 0,
        name_prefix: str = "kernel",
        deadline: Optional[float] = None,
    ) -> JobHandle:
        """Enqueue one optimization request; returns its handle.

        *request* is an :class:`OptimizationRequest` or a bare source
        string (then ``config``/``priority``/``name_prefix``/``deadline``
        apply).  An in-flight request with the same source text, config
        fingerprint and name prefix — the fields of the session cache key
        — is joined rather than re-enqueued when coalescing is on (the
        follower shares the primary's deadline).  A joining submission
        builds no request object and takes no content address: the
        SHA-256 of the source is computed only for a job that is created.

        Raises :class:`~repro.service.errors.ServiceOverloadedError` when
        the queue is full and the overload policy refuses the submission;
        a refused submission is counted in ``rejected`` (not
        ``submitted``) and owns no job.
        """

        if isinstance(request, str):
            source = request
        elif config is not None:
            raise ValueError("config is part of the OptimizationRequest")
        else:
            source, config = request.source, request.config
            name_prefix = request.name_prefix
        fingerprint = (config or self.session.config).fingerprint
        inflight_key = (source, fingerprint, name_prefix)
        with self._lock:
            if self._queue.closed:
                raise RuntimeError("service is stopped")
            if self.coalesce:
                # get+attach under the registry lock: a worker's
                # drop-then-resolve either happens after the attach (the
                # handle is counted in the job's outcome) or before the
                # get (the registry misses and a fresh job hits the cache)
                with self._inflight_lock:
                    job = self._inflight.get(inflight_key)
                    handle = job.attach() if job is not None else None
                    if handle is not None:
                        # counted before the lock lets the worker drop the
                        # job, so before its terminal count
                        self.stats.follower_attached()
                if handle is not None:
                    if self.tracer is not None:
                        self.tracer.event(
                            "job:coalesce", span=job.span,
                            followers=len(job.handles),
                        )
                    return handle
            if isinstance(request, str):
                request = OptimizationRequest(
                    source, config, priority, name_prefix, deadline
                )
            key = self.session.key_for(source, config, name_prefix)
            seq = next(self._seq)
            if self._queue.full and self.overload_policy != "block":
                # may shed a victim to make room, or raise — before the
                # new job is registered anywhere, so rejection needs no
                # rollback
                self._admit_under_load(request, seq)
            job = Job(request, key, seq=seq, stats=self.stats)
            if self.tracer is not None:
                job.span = self.tracer.span(
                    "job", seq=seq, key=key.digest[:12],
                    priority=request.priority,
                    name_prefix=request.name_prefix,
                )
            # every job gets a token (deadline or not) so running jobs
            # are always cooperatively cancellable
            job.cancellation = CancellationToken(timeout=request.deadline)
            job.on_cancelled = self._job_cancelled
            with self._inflight_lock:
                self._inflight[inflight_key] = job
            self._jobs[seq] = job
            handle = job.attach()
            assert handle is not None  # fresh job, cannot be cancelled yet
            # counted before the push: once queued, a worker may run the
            # job to its terminal count before this thread runs again
            self.stats.count("submitted")
            self.stats.job_queued()
            timeout = self.submit_timeout if self.overload_policy == "block" else None
            if not self._queue.push(job, timeout=timeout):
                # block policy timed out waiting for space: unwind as if
                # the submission never happened
                self._drop_inflight(job)
                del self._jobs[seq]
                self.stats.count("submitted", -1)
                self.stats.job_dequeued()
                self.stats.count("rejected")
                if job.span is not None:
                    job.span.end(terminal="cancelled", reason="submit-timeout")
                raise ServiceOverloadedError(
                    f"no queue space within {self.submit_timeout!r}s "
                    f"(max_depth={self._queue.max_depth})"
                )
        return handle

    def submit_many(
        self,
        requests: List[Union[str, OptimizationRequest]],
    ) -> List[JobHandle]:
        """Submit a batch; handles come back in input order."""

        return [self.submit(request) for request in requests]

    def _admit_under_load(self, request: OptimizationRequest, seq: int) -> None:
        """Make room for (or refuse) a submission at a full queue.

        Called under the registry lock.  ``reject`` raises outright;
        ``shed`` evicts the worst queued job — **lowest priority, then
        newest submission** — unless the incoming request is itself the
        worst, in which case it is rejected (shedding older, better work
        for it would invert the policy).
        """

        if self.overload_policy == "reject":
            self.stats.count("rejected")
            raise ServiceOverloadedError(
                f"queue is full (max_depth={self._queue.max_depth})"
            )
        while self._queue.full:
            victim = self._queue.worst_queued()
            if victim is None:
                return  # a worker drained the queue between the checks
            if (victim.request.priority, victim.seq) < (request.priority, seq):
                self.stats.count("rejected")
                raise ServiceOverloadedError(
                    "submission shed on arrival: lowest priority at a full queue"
                )
            if not self._queue.steal(victim):
                continue  # a worker popped it first; re-check the depth
            if self.tracer is not None:
                self.tracer.event("job:shed", span=victim.span)
            self._fail_job(
                victim,
                ServiceOverloadedError(
                    "job shed under load: queue full and a newer submission "
                    "outranked it"
                ),
                reason="shed",
            )
            self.stats.count("shed")
            self.stats.job_dequeued()

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def jobs(self) -> List[Job]:
        """The jobs that are queued, running or still referenced by a
        handle, in submission order (coalesced submissions share their
        primary's job).

        Jobs are held weakly: a terminal job disappears from this list
        once the last of its handles is dropped.
        """

        # ``valuerefs()`` copies the table in one step; iterating the live
        # mapping could meet a removal by a job dying on another thread
        with self._lock:
            refs = self._jobs.valuerefs()
        return [job for job in (ref() for ref in refs) if job is not None]

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted job is terminal; False on timeout.

        The service must be started (or be about to start) for this to
        return — queued jobs only make progress on worker threads.
        """

        deadline = None if timeout is None else time.monotonic() + timeout
        for job in self.jobs():
            with job.cond:
                remaining: Optional[float] = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                if not job.cond.wait_for(lambda: job.state.terminal, remaining):
                    return False
        return True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _job_cancelled(self, job: Job) -> None:
        """A queued job lost its last live handle: free its queue slot and
        drop it from the in-flight registry."""

        self._queue.discard(job)
        self._drop_inflight(job)
        self._end_job_span(job, "cancelled")

    def _end_job_span(self, job: Job, terminal: str, **attrs) -> None:
        """End the job's span with its terminal state (idempotent: only
        the first terminal transition emits the end record)."""

        span = job.span
        if span is not None:
            # close the running attempt (if any) first: terminal
            # transitions happen mid-attempt, and the job span must
            # outlive its children for the trace to nest.  Span.end is
            # idempotent, so the attempt wrapper's own end is a no-op.
            attempt = job.attempt_span
            if attempt is not None:
                attempt.end()
            span.end(terminal=terminal, retries=job.retries, **attrs)

    def _drop_inflight(self, job: Job) -> None:
        # registry lock only: this runs on worker threads, which must
        # never need ``_lock`` (a blocked ``block``-policy submit holds it
        # while waiting for the very slot this drop leads to freeing)
        request = job.request  # its registry key, as ``submit`` built it
        key = (request.source, job.key.config_fp, request.name_prefix)
        with self._inflight_lock:
            if self._inflight.get(key) is job:
                del self._inflight[key]

    def _fail_job(self, job: Job, error: BaseException, **span_attrs) -> None:
        """Fail *job* (failure isolation: its own handles, nothing else).

        The one failure path: it leaves the in-flight registry, fails the
        live handles, ends the job span and counts them ``failed``.
        """

        self._drop_inflight(job)
        outcomes = job.live_handles
        job.fail(error)
        self._end_job_span(
            job, "failed", error=type(error).__name__, **span_attrs
        )
        self.stats.count("failed", outcomes)

    def _backoff(self, attempt: int) -> float:
        """Deterministic capped exponential backoff for retry *attempt*."""

        return min(self.retry_backoff_cap, self.retry_backoff * 2 ** (attempt - 1))

    def _worker(self) -> None:
        while True:
            job = self._queue.pop()
            if job is None:
                return
            if (
                job.cancellation.tripped() is not None
                and job.state is JobState.QUEUED
            ):
                # expired (or token-cancelled) while waiting in the queue:
                # never start a job that cannot finish in time
                self._fail_job(
                    job,
                    JobDeadlineError("deadline expired before the job started"),
                    reason="queued-expiry",
                )
                self.stats.job_dequeued()
                self.stats.count("expired")
                continue
            if not job.start():
                continue  # cancelled between push and pop
            self.stats.job_started()
            try:
                self._run_job(job)
            except Exception as error:  # pragma: no cover - defensive
                # an unexpected error in the serving machinery itself must
                # fail only this job; the worker survives to keep serving
                if job.state.terminal:
                    self._drop_inflight(job)
                else:
                    self._fail_job(job, error)
            finally:
                self.stats.job_finished()
            if job.error is not None:
                _release_frames(job.error)

    def _run_job(self, job: Job) -> None:
        """Run one attempt of *job*, under an ``attempt`` span when traced.

        The attempt span is **bound** to the worker thread for the
        duration of the attempt, so instrumentation that cannot thread an
        explicit parent — shared-cache probes, fault-injection verdicts —
        parents its events to the right attempt automatically.  Each
        retry gets a fresh attempt span under the same job span, which is
        also where a process worker's ingested spans re-parent.
        """

        tracer = self.tracer
        if tracer is None:
            return self._run_attempt(job)
        attempt_span = tracer.span(
            "attempt", parent=job.span,
            attempt=job.retries, executor=self.executor,
        )
        job.attempt_span = attempt_span
        try:
            with tracer.bind(attempt_span):
                return self._run_attempt(job)
        finally:
            # job.attempt_span is left pointing here (ended spans end as a
            # no-op): clearing it would race a retry's next attempt, which
            # another worker may already have installed
            attempt_span.end()

    def _run_attempt(self, job: Job) -> None:
        plan = self.faults

        def publish(row) -> None:  # row: repro.egraph.runner.IterationReport
            if plan is not None:
                plan.fire("progress:publish")
            event = ProgressEvent(
                seq=job.event_seq,
                iteration=row.index,
                applied=row.applied,
                egraph_nodes=row.egraph_nodes,
                egraph_classes=row.egraph_classes,
                extracted_cost=row.extracted_cost,
            )
            # the seq counter lives on the job so events stay uniquely
            # numbered across retry attempts (streams replay, never shrink)
            job.event_seq += 1
            job.publish(event)
            self.stats.count("progress_events")

        try:
            result, from_cache = self._execute(job, publish, plan)
        except SaturationCancelled:
            # every handle detached and the token stopped the loop at an
            # iteration boundary; late coalescers (attached after the trip)
            # are carried to CANCELLED with the job
            self._drop_inflight(job)
            stragglers = job.cancel_run()
            self._end_job_span(job, "cancelled")
            if stragglers:
                self.stats.count("cancelled", stragglers)
            return
        except Exception as error:
            if (
                is_transient(error)
                and job.retries < self.max_retries
                and not self._queue.closed
            ):
                job.retries += 1
                if self.tracer is not None:
                    self.tracer.event(
                        "job:retry", span=job.span,
                        attempt=job.retries,
                        backoff=self._backoff(job.retries),
                        error=type(error).__name__,
                        worker_death=isinstance(error, WorkerDiedError),
                    )
                if job.requeue():
                    self.stats.count("retried")
                    self.stats.job_requeued()
                    time.sleep(self._backoff(job.retries))
                    try:
                        # force: the service accepted this job once; a full
                        # queue must never lose it on the way back in
                        self._queue.push(job, force=True)
                    except RuntimeError:
                        # stopped while backing off — fail with the cause
                        self.stats.job_dequeued()
                        self._fail_job(job, error)
                    return
            self._fail_job(job, error)
            return
        if job.retries:
            self.stats.count("recovered")
        if result.degraded:
            self.stats.count("degraded")
            if self.tracer is not None:
                self.tracer.event("job:degraded", span=job.span)
        self.stats.count("cache_hits" if from_cache else "pipeline_runs")
        self._observe_result(result, from_cache)
        # leave the in-flight registry *before* resolving: a submission
        # racing with completion either attaches (and shares this result)
        # or misses the registry and hits the artifact cache — never both
        self._drop_inflight(job)
        outcomes = job.live_handles
        job.resolve(result, from_cache)
        self._end_job_span(
            job, "done", from_cache=from_cache, degraded=result.degraded,
        )
        self.stats.count("completed", outcomes)

    def _observe_result(self, result: OptimizationResult, from_cache: bool) -> None:
        """Feed a completed cold run's phase times and per-rule counters
        into the metrics registry (cache hits carry stale copies)."""

        if from_cache:
            return
        metrics = self.metrics
        for kernel in result.kernels:
            runner = kernel.runner
            if runner is None:
                continue
            for phase, seconds in runner.phase_times.items():
                metrics.histogram(f"phase:{phase}").observe(seconds)
            for name, rule in runner.rule_stats.items():
                metrics.counter(f"rule:{name}:matches").inc(rule.matches)
                metrics.counter(f"rule:{name}:applied").inc(rule.applied)

    # ------------------------------------------------------------------
    # one attempt
    # ------------------------------------------------------------------

    def _execute(
        self, job: Job, publish, plan: Optional[FaultPlan]
    ) -> Tuple[OptimizationResult, bool]:
        """Run one attempt of *job* on either executor: probe the cache,
        run cold, store (the one path of the module docstring).  A crash
        verdict arms the cold run; a cache hit runs nothing, so it cannot
        crash.
        """

        with nullcontext() if plan is None else plan.scoped(job):
            crash_after = None
            if plan is not None:
                plan.fire("worker:pickup")
                crash_after = min(
                    (rule.after for rule in plan.check("worker:crash")),
                    default=None,
                )
            cache = self.session.cache
            if cache is not None:
                hit = cache.get(job.key)
                if hit is not MISS:
                    return OptimizationSession._mark_cached(hit), True
            run = self._run_in_thread if self._pool is None else self._run_in_worker
            result = run(job, publish, plan, crash_after)
            if plan is not None and plan.check("ipc:result-drop"):
                raise TransientError(
                    f"result of attempt {job.seq}.{job.retries} dropped in "
                    "IPC (injected)"
                )
            self.session._store(job.key, result)
            return result, False

    def _run_in_thread(self, job: Job, publish, plan, crash_after) -> OptimizationResult:
        """The thread executor's cold run: the pipeline on this thread.

        An injected crash has no process to kill, so the attempt raises
        :class:`~repro.service.errors.WorkerDiedError` where the child
        process would exit: at the start of the run for ``after=0``, else
        right after publishing iteration ``after``.
        """

        def crash() -> None:
            self.stats.count("worker_deaths")
            raise WorkerDiedError(
                f"injected worker crash in attempt {job.seq}.{job.retries}"
            )

        on_iteration = publish
        if crash_after == 0:
            crash()
        elif crash_after is not None:
            published = 0

            def on_iteration(row) -> None:
                nonlocal published
                publish(row)
                published += 1
                if published >= crash_after:
                    crash()

        request = job.request
        tracer = self.tracer
        return optimize_source(
            request.source,
            request.config or self.session.config,
            request.name_prefix,
            on_iteration=on_iteration,
            cancellation=job.cancellation,
            fault_hook=None if plan is None else plan.fire,
            tracer=tracer,
            trace_parent=None if tracer is None else tracer.current_id(),
        )

    def _run_in_worker(self, job: Job, publish, plan, crash_after) -> OptimizationResult:
        """The process executor's cold run: ship the attempt to a leased
        worker process and relay its progress and spans.

        The child never sees *plan*: a crash verdict travels as the task's
        ``crash_after``, and ``stage:<name>`` sites do not fire.
        """

        request = job.request
        token = job.cancellation
        if token.signal is None:
            # one trip file per job (not per attempt): a trip is
            # irrevocable, and retries of a tripped job must stay tripped
            token.signal = FileTripSignal(
                os.path.join(self._trip_dir, f"job-{job.seq}.trip")
            )
            reason = token.tripped()
            if reason is not None:
                # cancel()/expire() raced the attach: carry the trip into
                # the file the child is about to watch
                token.signal.trip(reason.value)
        tracer = self.tracer
        task = WorkerTask(
            task_id=f"{job.seq}.{job.retries}",
            source=request.source,
            config=request.config or self.session.config,
            name_prefix=request.name_prefix,
            # monotonic instants don't cross process boundaries: the
            # deadline travels as the seconds remaining at dispatch
            timeout=(
                None if token.deadline is None
                else max(0.0, token.deadline - time.monotonic())
            ),
            trip_path=token.signal.path,
            crash_after=crash_after,
            trace=tracer is not None,
        )
        if tracer is None:
            return self._pool.run_job(task, publish)
        # re-parent the child's record stream under this attempt's span,
        # offset to the attempt's start — the child rebased its timestamps
        # to its own first record, and its whole run falls inside the
        # dispatch→terminal window this span covers, so the ingested spans
        # nest and a process-executor trace reads like a thread-executor one
        attempt = tracer.current()
        attempt_id = getattr(attempt, "span_id", attempt)
        attempt_start = getattr(attempt, "start", 0.0)
        shipped = False

        def on_spans(records):
            nonlocal shipped
            shipped = True
            tracer.ingest(records, parent=attempt_id, offset=attempt_start)

        try:
            return self._pool.run_job(task, publish, on_spans)
        except Exception:
            # every worker-side outcome ships its spans before its terminal
            # message, so an attempt failing without them lost its worker
            if not shipped:
                tracer.buffer_lost(attempt_id, task=task.task_id)
            raise
