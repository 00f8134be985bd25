"""Typed errors of the fault-tolerant serving layer.

The service classifies every job failure into exactly one of two buckets:

* **transient** — the attempt may succeed if simply repeated: ``OSError``
  (disk-cache IO, the classic production flake) and anything raised as a
  :class:`TransientError` (which is also what the fault-injection harness
  raises for its ``"transient"`` kind).  Transient failures are retried
  with capped exponential backoff up to the service's ``max_retries``.
* **permanent** — retrying cannot help: parse errors, pipeline bugs,
  :class:`JobDeadlineError`, :class:`InjectedFault`.  These fail fast.

:func:`is_transient` is the single classification point; the worker loop
consults nothing else.
"""

from __future__ import annotations

__all__ = [
    "InjectedFault",
    "JobDeadlineError",
    "ServiceError",
    "ServiceOverloadedError",
    "TransientError",
    "WorkerDiedError",
    "is_transient",
]


class ServiceError(RuntimeError):
    """Base class of every serving-layer error."""


class ServiceOverloadedError(ServiceError):
    """The queue is at ``max_depth`` and the overload policy refused the
    submission (``reject``), shed it as the load-shedding victim, or the
    ``block`` policy timed out waiting for space."""


class JobDeadlineError(ServiceError):
    """A job's deadline expired before the job ever started (a running
    job's deadline degrades its result instead).  Permanent: retrying an
    expired job cannot un-expire it."""


class TransientError(ServiceError):
    """A retryable failure.  Raise (or wrap a cause in) this to tell the
    service the attempt may succeed if repeated; the deterministic fault
    harness raises it for its ``"transient"`` kind."""


class WorkerDiedError(TransientError):
    """A worker process died (or its result was lost in IPC) while running
    a job.  The attempt tells the service nothing about the job itself —
    the same work may well succeed on a respawned worker — so worker death
    is *transient* by construction: the supervisor raises this to route
    the orphaned job through the standard retry/backoff path."""


class InjectedFault(ServiceError):
    """A *permanent* injected fault (fault-harness kind ``"permanent"``).

    Deliberately not transient so chaos tests can drive the fail-fast
    path; it subclasses :class:`ServiceError`, never ``OSError``.
    """


def is_transient(error: BaseException) -> bool:
    """True when the worker loop should retry the failed attempt."""

    return isinstance(error, (TransientError, OSError))
