"""Supervised process workers: death recovery and cross-process trips.

The PR 8 contract under test:

* the ``executor="process"`` backend serves the same artifacts as the
  thread backend — byte-identical, with coalescing, caching, and progress
  streaming intact,
* the parent is the one owner of the artifact cache: workers run
  uncached, so a job's only cache traffic is the parent's probe and store,
* a worker that dies mid-job (injected ``os._exit``, an external SIGKILL,
  or a hang past the heartbeat timeout) is detected by the supervisor;
  the orphaned job requeues through the standard retry path, the pool
  respawns, and the recovered artifact is byte-identical to an
  undisturbed run — with the conservation law ``submitted == completed +
  failed + cancelled`` intact throughout,
* cancellation and deadlines cross the process boundary through the
  file-backed :class:`~repro.egraph.runner.FileTripSignal`: a RUNNING
  child job stops at the next iteration boundary with the PR 6 semantics
  (CANCELLED, or DEADLINE with the graceful-degradation contract — the
  degraded artifact byte-identical to an iter-limit stop at the same
  boundary, and never cached), pinned under BOTH executors.
"""

import dataclasses
import os
import signal
import time

import pytest

from repro.egraph.runner import RunnerLimits
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.service import (
    CancelledError,
    FaultPlan,
    FaultRule,
    JobState,
    OptimizationService,
    WorkerDiedError,
)
from repro.session import MemoryCache
from repro.session import cache as cache_module

#: Fast kernels for the recovery tests (a full run is a few dozen ms).
CONFIG = SaturatorConfig(
    variant=Variant.CSE_SAT, limits=RunnerLimits(400, 3, 60.0)
)

KERNELS = [
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = b[i] * c[i] + b[i] * c[i]; }",
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = (b[i] + c[i]) * d[i] + (c[i] + b[i]); }",
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = b[i] * 2 + c[i] * 2; }",
]

#: A kernel whose e-graph keeps growing for ~0.5 s (the early iterations
#: are cheap, the late ones heavy), leaving a wide window between the
#: first progress event and natural completion for kills and trips.
SLOW_SOURCE = (
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = "
    + " + ".join(
        "b[i+%d] * c[i+%d]" % (j, j) if j else "b[i] * c[i]"
        for j in range(8)
    )
    + "; }"
)

SLOW_CONFIG = SaturatorConfig(
    variant=Variant.CSE_SAT,
    limits=RunnerLimits(20000, 12, 60.0),
    anytime_extraction=True,
    anytime_interval=1,
    plateau_patience=100,
)


def _service(**kwargs) -> OptimizationService:
    kwargs.setdefault("executor", "process")
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("retry_backoff", 0.01)
    kwargs.setdefault("retry_backoff_cap", 0.02)
    return OptimizationService(**kwargs)


def _conserved(stats) -> bool:
    return stats["submitted"] == (
        stats["completed"] + stats["failed"] + stats["cancelled"]
    )


class TestProcessBackendServes:
    def test_byte_identical_to_thread_backend_with_coalescing(self):
        with _service(config=CONFIG, workers=2) as service:
            handles = [service.submit(src, config=CONFIG) for src in KERNELS[:2]]
            dup = service.submit(KERNELS[0], config=CONFIG)
            via_process = [h.result(timeout=60) for h in handles]
            dup_result = dup.result(timeout=60)
            snap = service.stats.snapshot()

        with OptimizationService(
            executor="thread", workers=2, config=CONFIG
        ) as thread_service:
            via_thread = [
                thread_service.submit(src, config=CONFIG).result(timeout=60)
                for src in KERNELS[:2]
            ]

        assert [r.code for r in via_process] == [r.code for r in via_thread]
        assert dup_result.code == via_process[0].code
        assert snap["submitted"] == 3 and snap["completed"] == 3
        assert snap["coalesced"] + snap["cache_hits"] >= 1
        assert _conserved(snap)
        assert snap["worker_deaths"] == 0 and snap["worker_respawns"] == 0

    def test_progress_streams_across_the_pipe(self):
        with _service(config=SLOW_CONFIG) as service:
            handle = service.submit(SLOW_SOURCE, config=SLOW_CONFIG)
            handle.result(timeout=120)
            events = handle.progress()
        assert events, "the child's per-iteration rows must reach the handle"
        seqs = [event.seq for event in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        iterations = [event.iteration for event in events]
        assert iterations == list(range(len(events)))


class TestParentOwnsTheCache:
    def test_workers_never_write_the_disk_tier(self, tmp_path, monkeypatch):
        """The parent probes before shipping a job and stores after it
        returns; the worker runs uncached.  With the parent's file write
        a counting no-op (spawned workers do not inherit the patch), a
        cold wave leaves the directory empty."""

        puts = []
        monkeypatch.setattr(
            cache_module, "_write_atomic", lambda path, blob: puts.append(path)
        )
        cache = MemoryCache(directory=tmp_path)
        with _service(config=CONFIG, cache=cache, workers=2) as service:
            results = [
                service.submit(src, config=CONFIG).result(timeout=120)
                for src in KERNELS
            ]
            snap = service.stats.snapshot()
        assert all(result.kernels for result in results)
        assert snap["pipeline_runs"] == len(KERNELS)
        assert len(puts) == len(KERNELS), "one parent-side store per job"
        assert not list(tmp_path.rglob("*.pkl"))

    def test_batch_executor_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.session.executor  # noqa: F401


class TestWorkerDeathRecovery:
    def test_injected_crash_wave_recovers_every_orphan(self):
        """Every job's first attempt dies mid-saturation; every orphan is
        requeued, re-run on a respawned worker, and completes with the
        undisturbed artifact."""

        baseline = [optimize_source(src, CONFIG).code for src in KERNELS]
        plan = FaultPlan([FaultRule("worker:crash", "crash", nth=1, after=1)])
        with _service(config=CONFIG, workers=2, faults=plan) as service:
            handles = [service.submit(src, config=CONFIG) for src in KERNELS]
            results = [h.result(timeout=120) for h in handles]
            snap = service.stats.snapshot()

        assert [r.code for r in results] == baseline
        assert all(h.state is JobState.DONE for h in handles)
        assert snap["worker_deaths"] == 3 and snap["worker_respawns"] == 3
        assert snap["retried"] == 3 and snap["recovered"] == 3
        assert snap["completed"] == 3 and snap["failed"] == 0
        assert _conserved(snap)
        assert plan.injected()["crash"] == 3

    def test_crash_at_pickup_recovers(self):
        # after=0 (the default): the worker dies before any work
        plan = FaultPlan([FaultRule("worker:crash", "crash", nth=1)])
        with _service(config=CONFIG, faults=plan) as service:
            result = service.submit(KERNELS[0], config=CONFIG).result(timeout=120)
            snap = service.stats.snapshot()
        assert result.code == optimize_source(KERNELS[0], CONFIG).code
        assert snap["worker_deaths"] == 1 and snap["retried"] == 1
        assert snap["recovered"] == 1 and _conserved(snap)

    def test_crash_exhausting_retries_fails_typed(self):
        # three attempts (1 + max_retries=2), all crash: the job must end
        # FAILED with the typed worker-death error, ledger balanced
        plan = FaultPlan([FaultRule("worker:crash", "crash", nth=1, count=3)])
        with _service(config=CONFIG, max_retries=2, faults=plan) as service:
            handle = service.submit(KERNELS[0], config=CONFIG)
            with pytest.raises(WorkerDiedError):
                handle.result(timeout=120)
            snap = service.stats.snapshot()
        assert handle.state is JobState.FAILED
        assert snap["worker_deaths"] == 3 and snap["retried"] == 2
        assert snap["recovered"] == 0 and snap["failed"] == 1
        assert _conserved(snap)

    def test_external_sigkill_mid_run_is_detected_and_retried(self):
        """A real SIGKILL (not an injected exit) on a busy worker: the
        supervisor sees the death, requeues the orphan, respawns, and the
        retry produces the undisturbed artifact.  SIGSTOP first freezes
        the child mid-iteration so the kill deterministically lands while
        the job is running."""

        baseline = optimize_source(SLOW_SOURCE, SLOW_CONFIG).code
        with _service(config=SLOW_CONFIG) as service:
            handle = service.submit(SLOW_SOURCE, config=SLOW_CONFIG)
            next(handle.stream(timeout=60))  # the child is mid-saturation
            (pid,) = service._pool.worker_pids()
            os.kill(pid, signal.SIGSTOP)
            os.kill(pid, signal.SIGKILL)
            result = handle.result(timeout=120)
            snap = service.stats.snapshot()
        assert result.code == baseline
        assert snap["worker_deaths"] == 1 and snap["worker_respawns"] == 1
        assert snap["retried"] == 1 and snap["recovered"] == 1
        assert _conserved(snap)

    def test_hung_worker_is_killed_after_heartbeat_timeout(self):
        """A worker that stops making progress without dying (SIGSTOP) is
        declared dead once its heartbeat goes quiet, killed, and its job
        recovered on a replacement."""

        with _service(config=SLOW_CONFIG, heartbeat_timeout=1.0) as service:
            handle = service.submit(SLOW_SOURCE, config=SLOW_CONFIG)
            next(handle.stream(timeout=60))
            (pid,) = service._pool.worker_pids()
            os.kill(pid, signal.SIGSTOP)
            started = time.monotonic()
            result = handle.result(timeout=120)
            elapsed = time.monotonic() - started
            snap = service.stats.snapshot()
        assert not result.degraded
        assert snap["worker_deaths"] == 1 and snap["recovered"] == 1
        assert elapsed < 60, "the hang must be bounded by the heartbeat"
        assert _conserved(snap)

    def test_ipc_result_drop_is_retried(self):
        # the child finishes but the parent drops the payload: transient,
        # so the job re-runs cold (the drop happens before the parent's
        # cache store) and completes on the second attempt
        plan = FaultPlan([FaultRule("ipc:result-drop", "drop", nth=1)])
        with _service(config=CONFIG, faults=plan) as service:
            result = service.submit(KERNELS[0], config=CONFIG).result(timeout=120)
            snap = service.stats.snapshot()
            stores = service.session.cache.stats.stores
        assert result.code == optimize_source(KERNELS[0], CONFIG).code
        assert snap["retried"] == 1 and snap["recovered"] == 1
        assert snap["worker_deaths"] == 0, "a drop kills no worker"
        assert stores == 1 and _conserved(snap)


class TestCrossProcessCancellation:
    def test_cancel_stops_a_running_child_at_a_boundary(self):
        with _service(config=SLOW_CONFIG) as service:
            handle = service.submit(SLOW_SOURCE, config=SLOW_CONFIG)
            next(handle.stream(timeout=60))
            assert handle.state is JobState.RUNNING
            assert handle.cancel(), "running jobs stay cancellable"
            assert service.join(60)
            snap = service.stats.snapshot()
        assert handle.state is JobState.CANCELLED
        with pytest.raises(CancelledError):
            handle.result(timeout=1)
        assert snap["cancelled"] == 1 and snap["completed"] == 0
        assert snap["pipeline_runs"] == 0, "the child stopped before extraction"
        assert snap["worker_deaths"] == 0, "cancellation is not a death"
        assert _conserved(snap)


class TestCrossProcessDeadline:
    """The PR 6 degradation contract, pinned under BOTH executors."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_mid_run_trip_degrades_byte_identically(self, executor):
        """Expiring a RUNNING job's token stops the child at an iteration
        boundary; the degraded artifact is byte-identical to an
        iteration-limit stop at that same boundary and never enters the
        shared cache (the resubmission goes cold)."""

        with _service(config=SLOW_CONFIG, executor=executor) as service:
            handle = service.submit(SLOW_SOURCE, config=SLOW_CONFIG, deadline=1000.0)
            next(handle.stream(timeout=60))
            service.jobs()[0].cancellation.expire()
            result = handle.result(timeout=120)
            snap = service.stats.snapshot()
            stores = service.session.cache.stats.stores

            assert result.degraded
            boundary = len(result.kernels[0].runner.iterations)
            assert boundary < 12, "the trip must beat the iteration limit"
            limited = optimize_source(
                SLOW_SOURCE,
                dataclasses.replace(
                    SLOW_CONFIG, limits=RunnerLimits(20000, boundary, 60.0)
                ),
            )
            assert result.code == limited.code
            assert (
                result.kernels[0].extracted_cost
                == limited.kernels[0].extracted_cost
            )
            assert snap["degraded"] == 1 and snap["expired"] == 0
            assert stores == 0, "degraded artifacts must never be cached"

            # nothing cached: the same source re-runs the cold pipeline
            fresh = service.submit(SLOW_SOURCE, config=SLOW_CONFIG)
            full = fresh.result(timeout=120)
            final = service.stats.snapshot()
        assert not full.degraded
        assert final["pipeline_runs"] == 2 and final["cache_hits"] == 0
        assert _conserved(final)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_trip_without_snapshot_degrades(self, executor):
        config = dataclasses.replace(SLOW_CONFIG, anytime_extraction=False)
        with _service(config=config, executor=executor) as service:
            handle = service.submit(SLOW_SOURCE, config=config, deadline=1000.0)
            next(handle.stream(timeout=60))
            service.jobs()[0].cancellation.expire()
            result = handle.result(timeout=120)
            snap = service.stats.snapshot()
            stores = service.session.cache.stats.stores
        assert handle.state is JobState.DONE
        assert result.degraded
        assert snap["expired"] == 0 and snap["degraded"] == 1
        assert stores == 0
        assert _conserved(snap)

    def test_wall_clock_deadline_crosses_the_process_boundary(self):
        """A real (not injected) deadline: the remaining budget is
        re-anchored at dispatch, the child's own clock trips it mid-run,
        and the parent receives a degraded artifact."""

        with _service(config=SLOW_CONFIG) as service:
            handle = service.submit(
                SLOW_SOURCE, config=SLOW_CONFIG, deadline=0.25
            )
            result = handle.result(timeout=120)
            snap = service.stats.snapshot()
            stores = service.session.cache.stats.stores
        assert result.degraded
        assert len(result.kernels[0].runner.iterations) < 12
        assert snap["degraded"] == 1 and snap["completed"] == 1
        assert stores == 0 and _conserved(snap)
