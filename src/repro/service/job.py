"""Jobs of the optimization service: requests, handles, progress events.

A :class:`~repro.service.service.OptimizationService` turns every
submission into a :class:`JobHandle` — a ``Future``-like view the caller
polls, waits on, cancels, or streams progress from.  Several handles may
share one underlying :class:`Job`: identical concurrent submissions are
**coalesced** onto the in-flight job (same source text, config
fingerprint and name prefix), so N submitters pay for one pipeline run
and every handle returns the job's one result object — an immutable
value (:mod:`repro.records`), so no caller can change what another sees.

State machine of a job::

    QUEUED ──▶ RUNNING ──▶ DONE
       │        │  │ └───▶ FAILED
       │        │  └─────▶ CANCELLED   (cooperative, via the token)
       │        └────────▶ QUEUED      (transient-failure retry)
       └─────▶ CANCELLED

A handle's :meth:`JobHandle.cancel` detaches that submission, and the job
itself is cancelled once every attached handle detached.  For a *queued*
job that is immediate; for a *running* job the last detach trips the
job's :class:`~repro.egraph.runner.CancellationToken` and the saturation
loop stops cooperatively at the next iteration boundary — best effort: a
pipeline already past saturation completes (and its artifact still lands
in the cache, where it benefits every later submission).
"""

from __future__ import annotations

import enum
import threading
import time
from concurrent.futures import CancelledError, TimeoutError
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, List, NamedTuple, Optional

from repro.saturator.config import SaturatorConfig

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.egraph.runner import CancellationToken
    from repro.saturator.report import OptimizationResult
    from repro.service.stats import ServiceStats
    from repro.session.fingerprint import CacheKey

__all__ = [
    "CancelledError",
    "Job",
    "JobHandle",
    "JobState",
    "OptimizationRequest",
    "ProgressEvent",
]


class JobState(enum.Enum):
    """Lifecycle state of a job (and of each handle on it)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass(frozen=True)
class OptimizationRequest:
    """One unit of service work: a source, its configuration, a priority.

    ``priority`` orders the queue — smaller runs first, ties in submission
    order — so latency-sensitive requests overtake bulk backfill.  Two
    requests coalesce when their source texts, config fingerprints (of
    ``config``, or of the service's default config when it is ``None``)
    and name prefixes are equal, which is exactly when their session
    cache keys are; priority is *not* part of the key (the first
    submission's priority decides where the shared job sits in the
    queue).
    """

    source: str
    config: Optional[SaturatorConfig] = None
    priority: int = 0
    name_prefix: str = "kernel"
    #: Seconds from submission until the job's deadline: past it, a
    #: queued job fails with ``JobDeadlineError`` at pickup, and a running
    #: one stops saturating at the next iteration boundary and resolves
    #: with a ``degraded=True`` artifact built from that boundary.
    #: The deadline is *not* part of the coalescing key: followers share
    #: the primary submission's deadline.  ``None`` means no deadline.
    deadline: Optional[float] = None


class ProgressEvent(NamedTuple):
    """One per-iteration saturation progress record of a running job.

    ``seq`` numbers the events of one job from 0 (a multi-kernel source
    publishes its kernels' iterations back to back); ``extracted_cost`` is
    the best-so-far anytime cost at that boundary, or ``None`` when the
    job's config has anytime extraction disabled.
    """

    seq: int
    iteration: int
    applied: int
    egraph_nodes: int
    egraph_classes: int
    extracted_cost: Optional[float]


@dataclass(eq=False)  # identity semantics: jobs live in the queue's set
class Job:
    """Shared execution state behind one or more coalesced handles.

    All mutation happens under ``cond``; waiters (handle ``result`` /
    ``wait`` / ``stream``) block on the same condition.  The service is
    the only writer of ``state``/``result``/``error``.  A terminal
    transition stores ``result`` / ``error`` before it sets ``state``, and
    a terminal state never changes, so a reader that sees one reads the
    outcome without the lock.
    """

    request: OptimizationRequest
    key: "CacheKey"
    seq: int = 0
    state: JobState = JobState.QUEUED
    result: Optional["OptimizationResult"] = None
    error: Optional[BaseException] = None
    from_cache: bool = False
    events: List[ProgressEvent] = field(default_factory=list)
    handles: List["JobHandle"] = field(default_factory=list)
    cond: threading.Condition = field(default_factory=threading.Condition)
    #: Service counter registry (set by the service at creation).
    stats: Optional["ServiceStats"] = None
    #: Called (outside ``cond``) when the job transitions to CANCELLED,
    #: so the service can drop it from the in-flight registry.
    on_cancelled: Optional[Callable[["Job"], None]] = None
    #: Cooperative deadline/cancel token threaded into the saturation
    #: loop (set by the service at submit; every job gets one so running
    #: jobs are always cancellable, deadline or not).
    cancellation: Optional["CancellationToken"] = None
    #: Transient-failure attempts so far (see the service's retry policy).
    retries: int = 0
    #: Next progress-event ``seq``; lives on the job (not the attempt) so
    #: events stay uniquely and monotonically numbered across retries —
    #: streams must never see the event list shrink or renumber.
    event_seq: int = 0
    #: The job's telemetry span (a :class:`repro.obs.Span`), set by the
    #: service at submit when tracing is on; ``None`` otherwise.  The
    #: service ends it exactly once with the job's terminal state.
    span: Optional[object] = None
    #: The span of the job's latest attempt (set by the worker loop per
    #: attempt, never cleared); ended before the job span so the span
    #: tree nests attempt ⊆ job even on terminal transitions that happen
    #: mid-attempt.
    attempt_span: Optional[object] = None
    #: Monotonic timestamps of the lifecycle transitions (for latency
    #: accounting in the load-test harness; never part of any artifact).
    created_at: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    # -- transitions (service-side) -----------------------------------------

    def attach(self) -> Optional["JobHandle"]:
        """Create a new handle on this job (submit-side).

        Returns ``None`` when the job was cancelled in the meantime — the
        submitter must enqueue a fresh job instead of joining a dead one.
        """

        with self.cond:
            if self.state is JobState.CANCELLED:
                return None
            handle = JobHandle(self, coalesced=bool(self.handles))
            self.handles.append(handle)
            return handle

    def start(self) -> bool:
        """QUEUED → RUNNING; False when the job was cancelled meanwhile."""

        with self.cond:
            if self.state is not JobState.QUEUED:
                return False
            self.state = JobState.RUNNING
            self.started_at = time.monotonic()
            self.cond.notify_all()
            return True

    def publish(self, event: ProgressEvent) -> None:
        with self.cond:
            self.events.append(event)
            self.cond.notify_all()

    def _settle(self, state: JobState) -> None:
        """Terminal transition; the caller holds ``cond`` and has taken
        its outcome count.

        Drops the handle list: ``handles`` and ``JobHandle._job`` form a
        reference cycle that would otherwise pin the job and its artifact
        until a collector pass — a terminal job never reads it again.
        """

        self.state = state
        self.handles = []
        self.cond.notify_all()

    def resolve(self, result: "OptimizationResult", from_cache: bool) -> None:
        """RUNNING → DONE with *result*, which every handle returns."""

        with self.cond:
            self.result = result
            self.from_cache = from_cache
            self.finished_at = time.monotonic()
            self._settle(JobState.DONE)

    def fail(self, error: BaseException) -> None:
        with self.cond:
            self.error = error
            self.finished_at = time.monotonic()
            self._settle(JobState.FAILED)

    def requeue(self) -> bool:
        """RUNNING → QUEUED for a transient-failure retry; False when the
        job is not running (e.g. cancelled mid-attempt)."""

        with self.cond:
            if self.state is not JobState.RUNNING:
                return False
            self.state = JobState.QUEUED
            self.cond.notify_all()
            return True

    def cancel_run(self) -> int:
        """RUNNING → CANCELLED after a cooperative mid-saturation stop.

        Returns the number of handles that had *not* individually
        cancelled (late coalescers caught by the job's cancellation) so
        the service can count their terminal outcome.
        """

        with self.cond:
            if self.state is not JobState.RUNNING:
                return 0
            live = sum(1 for h in self.handles if not h._cancelled)
            self.finished_at = time.monotonic()
            self._settle(JobState.CANCELLED)
            return live

    # -- handle bookkeeping --------------------------------------------------

    def _handle_cancelled(self) -> bool:
        """Called under ``cond`` when a handle detached; True when the job
        itself just became cancelled (no live handles remain)."""

        if self.state is not JobState.QUEUED:
            return False
        if any(not h._cancelled for h in self.handles):
            return False
        self._settle(JobState.CANCELLED)
        return True

    @property
    def live_handles(self) -> int:
        with self.cond:
            return sum(1 for h in self.handles if not h._cancelled)


class JobHandle:
    """Future-like view of one submission.

    Handles on a coalesced job are independent: each can be polled,
    waited, or cancelled on its own.  They share the job's result: every
    handle returns the one immutable object :meth:`Job.resolve` stored,
    so no caller has anything to change that another handle, a later
    cache hit or a later submission could observe.
    """

    def __init__(self, job: Job, coalesced: bool = False) -> None:
        self._job = job
        #: True when this submission attached to an existing in-flight job.
        self.coalesced = coalesced
        #: Monotonic submission timestamp of *this* handle.
        self.created_at = time.monotonic()
        self._cancelled = False

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> JobState:
        if self._cancelled:
            return JobState.CANCELLED
        return self._job.state

    def done(self) -> bool:
        return self.state.terminal

    def cancelled(self) -> bool:
        return self.state is JobState.CANCELLED

    @property
    def error(self) -> Optional[BaseException]:
        return self._job.error if not self._cancelled else None

    @property
    def from_cache(self) -> bool:
        """True when the job was served from the artifact cache."""

        return self._job.from_cache

    @property
    def request(self) -> OptimizationRequest:
        return self._job.request

    @property
    def latency(self) -> Optional[float]:
        """Submit-to-terminal wall-clock seconds (None while in flight)."""

        finished = self._job.finished_at
        return None if finished is None else max(0.0, finished - self.created_at)

    # -- waiting ------------------------------------------------------------

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until this handle is terminal; False on timeout."""

        if self._cancelled or self._job.state.terminal:
            return True  # final, and published after the outcome (see Job)
        with self._job.cond:
            return self._job.cond.wait_for(
                lambda: self._cancelled or self._job.state.terminal, timeout
            )

    def result(self, timeout: Optional[float] = None) -> "OptimizationResult":
        """The job's :class:`OptimizationResult`; blocks until terminal.

        Raises :class:`CancelledError` when this handle was cancelled,
        re-raises the job's exception when it failed, and raises
        :class:`TimeoutError` when *timeout* elapses first.
        """

        if not self.wait(timeout):
            raise TimeoutError(f"job not finished within {timeout!r}s")
        state = self.state
        if state is JobState.CANCELLED:
            raise CancelledError("job was cancelled")
        if state is JobState.FAILED:
            assert self._job.error is not None
            try:
                raise self._job.error
            finally:
                # the raise adds this frame to the error's traceback, which
                # the job holds: drop the frame's handle (and through it
                # the job) so the two do not form a cycle
                self = None
        return self._job.result

    # -- cancellation --------------------------------------------------------

    def cancel(self) -> bool:
        """Detach this submission; True on success.

        A *queued* job detaches immediately (cancelling the last live
        handle cancels the job, and the worker loop skips it).  A
        *running* job is cancelled cooperatively: the last live handle's
        detach trips the job's cancellation token, and the saturation
        loop stops at its next iteration boundary — best effort, a
        pipeline already past saturation completes anyway.  Terminal jobs
        are not cancellable.
        """

        job = self._job
        trip_token = None
        with job.cond:
            if self._cancelled:
                return True
            if job.state is JobState.RUNNING:
                if job.cancellation is None:
                    return False
                self._cancelled = True
                if not any(not h._cancelled for h in job.handles):
                    trip_token = job.cancellation
                job_cancelled = False
                job.cond.notify_all()
            elif job.state is not JobState.QUEUED:
                return False
            else:
                self._cancelled = True
                job_cancelled = job._handle_cancelled()
                job.cond.notify_all()
        if trip_token is not None:
            trip_token.cancel()
        # bookkeeping outside ``cond``: the stats lock and the service's
        # registry lock must never nest inside a job condition (the submit
        # path holds the registry lock while taking ``cond`` in attach)
        if job.stats is not None:
            job.stats.count("cancelled")
        if job_cancelled:
            if job.stats is not None:
                job.stats.job_dequeued()
            if job.on_cancelled is not None:
                job.on_cancelled(job)
        return True

    # -- progress ------------------------------------------------------------

    def progress(self) -> List[ProgressEvent]:
        """Snapshot of the per-iteration events published so far."""

        with self._job.cond:
            return list(self._job.events)

    def stream(self, timeout: Optional[float] = None) -> Iterator[ProgressEvent]:
        """Yield progress events as they arrive until the job is terminal.

        ``timeout`` bounds each wait for the *next* event (a
        :class:`TimeoutError` is raised when it elapses), not the whole
        stream.  Events published before the stream started are replayed
        first, so a late subscriber sees the full trajectory.
        """

        next_index = 0
        job = self._job
        while True:
            with job.cond:
                ok = job.cond.wait_for(
                    lambda: len(job.events) > next_index
                    or job.state.terminal
                    or self._cancelled,
                    timeout,
                )
                if not ok:
                    raise TimeoutError(f"no progress within {timeout!r}s")
                batch = job.events[next_index:]
                terminal = job.state.terminal or self._cancelled
            for event in batch:
                yield event
            next_index += len(batch)
            if terminal and next_index == len(job.events):
                return

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<JobHandle state={self.state.value} coalesced={self.coalesced} "
            f"events={len(self._job.events)}>"
        )
