"""Supervised process workers for the optimization service.

:class:`ProcessWorkerPool` runs cold pipelines in long-lived **spawned**
worker processes, one job at a time per worker, behind the service's
existing dispatcher threads: a dispatcher pops a job off the
:class:`~repro.service.queue.JobQueue`, leases an idle worker, ships the
job down the worker's pipe, and relays the child's per-iteration progress
messages back into the job's event stream.  Workers run the pipeline
uncached: the service probes its cache before shipping a job and stores
the artifact after it returns, so the parent is the one owner of the
artifact cache.  The pool owns exactly the machinery a process boundary
makes necessary:

* **supervision** — the dispatcher monitors its leased worker with
  heartbeat timestamps (every message counts; a busy, healthy child
  publishes one per saturation iteration) and ``Process.is_alive`` /
  exit-code checks.  A dead worker's pipe is drained first — a result the
  child sent before dying is still a valid result — then the pool
  respawns a replacement and raises
  :class:`~repro.service.errors.WorkerDiedError`, a *transient* error by
  construction, so the service's PR 6 retry/backoff path requeues the
  orphaned job and the conservation law
  ``submitted == completed + failed + cancelled`` survives any kill
  pattern.  An optional ``heartbeat_timeout`` additionally kills (then
  replaces) a live-but-silent worker, turning hangs into the same
  transient death.
* **cross-process deadlines/cancellation** — the parent attaches a
  :class:`~repro.egraph.runner.FileTripSignal` to the job's token; the
  child builds its own :class:`~repro.egraph.runner.CancellationToken`
  from the *remaining* deadline seconds (monotonic instants do not cross
  process boundaries) plus the same trip file, and its ``Runner`` polls
  it at iteration boundaries exactly like the thread path — same
  ``StopReason`` semantics, same graceful-degradation contract.  A child
  that dies before polling is covered by the fallbacks: the requeued
  attempt hits the pickup-time deadline check, and an injected
  ``ipc:result-drop`` exercises the post-hoc result-drop path.

The child never sees the :class:`~repro.service.faults.FaultPlan`: crash
verdicts are computed parent-side (deterministically, per job key) and
shipped as a ``crash_after`` iteration count in the task, which the child
honours with a hard ``os._exit`` — indistinguishable from a real SIGKILL
at that boundary.
"""

from __future__ import annotations

import os
import pickle
import queue
import threading
import time
import multiprocessing
import multiprocessing.connection
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.service.errors import TransientError, WorkerDiedError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.egraph.runner import IterationReport
    from repro.saturator.config import SaturatorConfig
    from repro.saturator.report import OptimizationResult
    from repro.service.stats import ServiceStats

__all__ = ["ProcessWorkerPool", "WorkerTask"]

#: Child exit code of an injected ``worker:crash`` (``os._exit``); tests
#: assert on it to tell injected kills from real ones.
CRASH_EXIT_CODE = 87


@dataclass(frozen=True)
class WorkerTask:
    """One attempt of one job, shipped to a worker process.

    ``task_id`` is unique per (job, attempt) so stale pipe messages can
    never be mistaken for the current attempt's.  ``timeout`` is the
    deadline *re-anchored as remaining seconds at dispatch* — monotonic
    instants are meaningless across processes.  ``trip_path`` names the
    job's shared trip file (see
    :class:`~repro.egraph.runner.FileTripSignal`); ``crash_after`` arms an
    injected hard-exit after that many published iterations (0 = die at
    pickup), ``None`` disarms it.
    """

    task_id: str
    source: str
    config: "SaturatorConfig"
    name_prefix: str
    timeout: Optional[float]
    trip_path: Optional[str]
    crash_after: Optional[int]
    #: Telemetry opt-in: the child builds a local tracer, runs the attempt
    #: under a ``worker:run`` root span, and ships its buffered records up
    #: the pipe (``("spans", task_id, records)``) just before the terminal
    #: message; the parent re-parents them under the attempt span.  Purely
    #: observational — the flag never reaches the pipeline's cache key.
    trace: bool = False


class _CrashNow(BaseException):
    """Child-internal: unwind to the crash point of an injected kill."""


def _child_main(conn: "multiprocessing.connection.Connection") -> None:
    """Worker-process main loop: recv a task, run it, send messages back.

    Messages up the pipe (first element is the tag, second the task id):

    * ``("progress", task_id, IterationReport)`` — one per saturation
      iteration; doubles as the heartbeat,
    * ``("done", task_id, OptimizationResult)`` — including a deadline
      stop, which is a ``degraded`` result, not a failure,
    * ``("cancelled", task_id, message)`` — the cooperative cancel, mapped
      back to :class:`~repro.session.stages.SaturationCancelled`
      parent-side,
    * ``("error", task_id, pickled_exc | None, type_name, message,
      transient)`` — any other failure; the original exception rides
      along when it pickles.
    * ``("spans", task_id, records)`` — when ``task.trace``: the child
      tracer's rebased record buffer, sent immediately *before* the
      terminal message so an attempt's spans always precede its outcome
      (a crashed child loses its buffer — the parent records the death
      and a ``worker:spans-lost`` event on the attempt span instead).

    A ``None`` task is the shutdown sentinel.
    """

    from repro.egraph.runner import CancellationToken, FileTripSignal
    from repro.saturator.driver import optimize_source
    from repro.session.stages import SaturationCancelled

    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        if task.crash_after == 0:
            os._exit(CRASH_EXIT_CODE)

        signal = FileTripSignal(task.trip_path) if task.trip_path else None
        token = CancellationToken(timeout=task.timeout, signal=signal)
        published = 0

        def on_iteration(row: "IterationReport") -> None:
            nonlocal published
            conn.send(("progress", task.task_id, row))
            published += 1
            if task.crash_after is not None and published >= task.crash_after:
                raise _CrashNow()

        tracer = None
        root_span = None
        if task.trace:
            from repro.obs.trace import Tracer

            tracer = Tracer()
            root_span = tracer.span(
                "worker:run", task=task.task_id, pid=os.getpid()
            )

        try:
            result = optimize_source(
                task.source,
                task.config,
                task.name_prefix,
                on_iteration=on_iteration,
                cancellation=token,
                tracer=tracer,
                trace_parent=None if root_span is None else root_span.span_id,
            )
        except _CrashNow:
            # the injected kill: a hard exit at the iteration boundary,
            # exactly where a real SIGKILL mid-saturation would land
            os._exit(CRASH_EXIT_CODE)
        except SaturationCancelled as error:
            terminal = ("cancelled", task.task_id, str(error))
        except BaseException as error:  # ship it; the parent re-raises
            try:
                payload: Optional[bytes] = pickle.dumps(error)
            except Exception:
                payload = None
            terminal = (
                "error",
                task.task_id,
                payload,
                type(error).__name__,
                str(error),
                isinstance(error, OSError),
            )
        else:
            terminal = ("done", task.task_id, result)
        if tracer is not None:
            root_span.end(outcome=terminal[0])
            # rebased timestamps: perf_counter origins do not cross the
            # process boundary; the parent offsets them to the attempt span
            conn.send(("spans", task.task_id, tracer.rebased_records()))
        conn.send(terminal)


def _ensure_child_importable() -> None:
    """Make sure spawned children can ``import repro``.

    Spawned processes re-import this module from a fresh interpreter, so
    a parent that got ``repro`` from a ``sys.path`` tweak (conftest, the
    benchmark harness) rather than an installed package or ``PYTHONPATH``
    would hatch children that die on the import.  Prepending the package
    root to ``PYTHONPATH`` before spawning closes the gap.
    """

    import repro

    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    current = os.environ.get("PYTHONPATH", "")
    if root not in current.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            root if not current else root + os.pathsep + current
        )


class _Worker:
    """One worker process plus the parent's end of its pipe."""

    __slots__ = ("proc", "conn", "last_beat")

    def __init__(
        self,
        proc: "multiprocessing.process.BaseProcess",
        conn: "multiprocessing.connection.Connection",
    ) -> None:
        self.proc = proc
        self.conn = conn
        self.last_beat = time.monotonic()

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=2.0)


class ProcessWorkerPool:
    """A supervised, self-healing pool of pipeline worker processes.

    ``workers`` sizes the pool (normally equal to the service's dispatcher
    thread count, so a dispatcher never waits for a lease while a worker
    idles).  ``heartbeat_timeout`` — seconds of silence
    from a *busy* worker before the supervisor kills and replaces it;
    ``None`` disables the hang defense (saturation iterations have no
    bounded duration in general, so this is opt-in).
    """

    #: Seconds between liveness checks while waiting on a busy worker.
    _POLL_INTERVAL = 0.05

    def __init__(
        self,
        workers: int,
        heartbeat_timeout: Optional[float] = None,
        stats: Optional["ServiceStats"] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive (or None)")
        self.workers = workers
        self.heartbeat_timeout = heartbeat_timeout
        self.stats = stats
        self._ctx = multiprocessing.get_context("spawn")
        self._idle: "queue.Queue[_Worker]" = queue.Queue()
        self._all: List[_Worker] = []
        self._lock = threading.Lock()
        self._started = False
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ProcessWorkerPool":
        with self._lock:
            if self._stopped:
                raise RuntimeError("pool was stopped; build a new one")
            if self._started:
                return self
            self._started = True
            _ensure_child_importable()
            for _ in range(self.workers):
                worker = self._spawn()
                self._all.append(worker)
                self._idle.put(worker)
        return self

    def stop(self) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            workers = list(self._all)
        for worker in workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        for worker in workers:
            worker.proc.join(timeout=2.0)
            worker.close()

    def worker_pids(self) -> List[int]:
        """PIDs of the current worker processes (tests kill these)."""

        with self._lock:
            return [w.pid for w in self._all if w.pid is not None]

    # -- supervision ---------------------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_child_main,
            args=(child_conn,),
            name="repro-service-worker",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn)

    def _replace(self, worker: _Worker, respawn: bool = True) -> None:
        """Retire a dead (or poisoned) worker; lease out a fresh one."""

        if self.stats is not None:
            self.stats.count("worker_deaths")
        worker.close()
        with self._lock:
            try:
                self._all.remove(worker)
            except ValueError:
                pass
            if self._stopped or not respawn:
                return
            fresh = self._spawn()
            self._all.append(fresh)
        if self.stats is not None:
            self.stats.count("worker_respawns")
        self._idle.put(fresh)

    # -- running one attempt -------------------------------------------------

    def run_job(
        self,
        task: WorkerTask,
        on_progress: Optional[Callable[["IterationReport"], None]] = None,
        on_spans: Optional[Callable[[list], None]] = None,
    ) -> "OptimizationResult":
        """Run one attempt on a leased worker; supervise until terminal.

        Returns the cold result; raises the child's cooperative
        cancel (:class:`~repro.session.stages.SaturationCancelled`) and
        failures as the exceptions the service's worker loop already
        classifies, and :class:`~repro.service.errors.WorkerDiedError`
        when the worker died or hung — after respawning its replacement.
        """

        if not self._started or self._stopped:
            raise RuntimeError("pool is not running")
        worker = self._idle.get()
        while not worker.proc.is_alive():
            # died while idle (e.g. an external kill between jobs): replace
            # and lease the replacement instead — no job was lost
            self._replace(worker)
            worker = self._idle.get()
        try:
            worker.conn.send(task)
        except (OSError, ValueError):
            self._replace(worker)
            raise WorkerDiedError(
                f"worker pid {worker.pid} died before accepting a job"
            )
        worker.last_beat = time.monotonic()
        try:
            outcome = self._supervise(worker, task, on_progress, on_spans)
        except WorkerDiedError:
            raise
        except BaseException:
            # a parent-side failure (e.g. an injected fault raised by the
            # progress callback) leaves the child mid-job: the lease
            # cannot be returned, so the worker is killed and replaced —
            # the cost of keeping "publish fault fails the attempt"
            # semantics identical to the thread path
            worker.proc.kill()
            self._replace(worker)
            raise
        self._idle.put(worker)
        return self._settle(outcome, task)

    def _supervise(
        self,
        worker: _Worker,
        task: WorkerTask,
        on_progress: Optional[Callable[["IterationReport"], None]],
        on_spans: Optional[Callable[[list], None]] = None,
    ) -> tuple:
        """Pump messages until the attempt's terminal message (returned).

        Raises :class:`WorkerDiedError` — after draining the pipe (a
        terminal message sent before death still counts) and respawning —
        when the worker exits or breaches the heartbeat timeout.
        """

        while True:
            try:
                ready = worker.conn.poll(self._POLL_INTERVAL)
            except OSError:
                ready = False
            if ready:
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    self._died(worker, task, "its pipe closed mid-message")
                worker.last_beat = time.monotonic()
                terminal = self._relay(message, task, on_progress, on_spans)
                if terminal is not None:
                    return terminal
                continue
            if not worker.proc.is_alive():
                terminal = self._drain(worker, task, on_progress, on_spans)
                if terminal is not None:
                    # the child finished the job, then died: the result is
                    # complete and valid — use it, but still replace the
                    # worker before returning
                    self._replace(worker)
                    return terminal
                code = worker.proc.exitcode
                self._died(worker, task, f"exit code {code}")
            elif (
                self.heartbeat_timeout is not None
                and time.monotonic() - worker.last_beat > self.heartbeat_timeout
            ):
                worker.proc.kill()
                worker.proc.join(timeout=2.0)
                self._died(
                    worker,
                    task,
                    f"no heartbeat for {self.heartbeat_timeout}s (killed)",
                )

    def _died(self, worker: _Worker, task: WorkerTask, why: str) -> None:
        pid = worker.pid
        self._replace(worker)
        raise WorkerDiedError(
            f"worker pid {pid} died while running task {task.task_id}: {why}"
        )

    def _drain(
        self,
        worker: _Worker,
        task: WorkerTask,
        on_progress: Optional[Callable[["IterationReport"], None]],
        on_spans: Optional[Callable[[list], None]] = None,
    ) -> Optional[tuple]:
        """Consume whatever a dead worker managed to send; return a
        terminal message if one made it out before the death."""

        while True:
            try:
                if not worker.conn.poll(0):
                    return None
                message = worker.conn.recv()
            except (EOFError, OSError):
                return None
            terminal = self._relay(message, task, on_progress, on_spans)
            if terminal is not None:
                return terminal

    def _relay(
        self,
        message: tuple,
        task: WorkerTask,
        on_progress: Optional[Callable[["IterationReport"], None]],
        on_spans: Optional[Callable[[list], None]] = None,
    ) -> Optional[tuple]:
        """Dispatch one child message; non-None = the terminal message."""

        tag, task_id = message[0], message[1]
        if task_id != task.task_id:
            return None  # stale: a previous attempt's leftover
        if tag == "progress":
            if on_progress is not None:
                on_progress(message[2])
            return None
        if tag == "spans":
            if on_spans is not None:
                on_spans(message[2])
            return None
        return message

    def _settle(self, outcome: tuple, task: WorkerTask) -> "OptimizationResult":
        """Turn the terminal message into a return value or an exception."""

        from repro.session.stages import SaturationCancelled

        tag = outcome[0]
        if tag == "done":
            return outcome[2]
        if tag == "cancelled":
            raise SaturationCancelled(outcome[2])
        assert tag == "error", f"unexpected worker message tag {tag!r}"
        _, _, payload, type_name, text, transient = outcome
        error: Optional[BaseException] = None
        if payload is not None:
            try:
                loaded = pickle.loads(payload)
            except Exception:
                loaded = None
            if isinstance(loaded, BaseException):
                error = loaded
        if error is not None:
            raise error
        detail = f"{type_name} in worker (task {task.task_id}): {text}"
        if transient:
            raise TransientError(detail)
        raise RuntimeError(detail)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<ProcessWorkerPool workers={self.workers} "
            f"started={self._started} stopped={self._stopped}>"
        )
