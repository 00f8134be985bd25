"""Per-job deadlines: queued expiry, graceful degradation, running cancel.

The service-level deadline contract:

* a job whose deadline passes **while queued** fails with
  :class:`JobDeadlineError` at worker pickup — it never starts,
* a job whose deadline trips **while running** (here: injected
  deterministically, no wall-clock sleeping) degrades gracefully when an
  anytime snapshot exists — the artifact is byte-identical to an
  iteration-limit stop at the same boundary, flagged ``degraded=True``,
  shared verbatim with coalesced followers, and never cached,
* without anytime extraction the mid-run deadline degrades the same way —
  the artifact comes from the boundary's e-graph, not a snapshot,
* a **running** job is cooperatively cancellable: the handle's cancel
  trips the token and the saturation loop stops at the next boundary.
"""

import dataclasses
import pickle
import threading

import pytest

from repro.egraph.runner import RunnerLimits
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.service import (
    CancelledError,
    FaultPlan,
    FaultRule,
    JobDeadlineError,
    JobState,
    OptimizationService,
)
from repro.session import MemoryCache, OptimizationSession

#: Saturates only after ~5 iterations, so an injected deadline at
#: iteration 0 always beats the natural stop.
SOURCE = (
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = (b[i] + c[i]) * (b[i] + c[i])"
    " + (c[i] + b[i]) * d[i] + b[i] * c[i] + d[i] * d[i]; }"
)

ANYTIME_CONFIG = SaturatorConfig(
    variant=Variant.CSE_SAT,
    limits=RunnerLimits(4000, 8, 60.0),
    anytime_extraction=True,
    anytime_interval=1,
    plateau_patience=50,
)


def _deadline_at_first_publish() -> FaultPlan:
    # the publish hook fires *after* the boundary's anytime evaluation, so
    # the token trips with iteration 0's snapshot already taken
    return FaultPlan([FaultRule("progress:publish", "deadline", nth=1)])


class TestQueuedExpiry:
    def test_expired_deadline_fails_at_pickup_without_running(self):
        service = OptimizationService(config=ANYTIME_CONFIG, workers=1)
        handle = service.submit(SOURCE, deadline=-1.0)  # already past due
        with service:
            assert service.join(60)
        assert handle.state is JobState.FAILED
        with pytest.raises(JobDeadlineError):
            handle.result(timeout=1)
        stats = service.stats.snapshot()
        assert stats["expired"] == 1 and stats["failed"] == 1
        assert stats["pipeline_runs"] == 0, "an expired job must never start"
        assert stats["queued"] == 0 and stats["running"] == 0


class TestGracefulDegradation:
    def test_degraded_artifact_matches_iter_limit_stop_and_skips_cache(self):
        plan = _deadline_at_first_publish()
        service = OptimizationService(
            config=ANYTIME_CONFIG, workers=1, faults=plan
        )
        first = service.submit(SOURCE, deadline=1000.0)
        follower = service.submit(SOURCE)
        assert follower.coalesced
        with service:
            assert service.join(60)

        result = first.result()
        assert result.degraded
        assert len(result.kernels[0].runner.iterations) == 1

        # byte-identical to a plateau/iter-limit stop at the same boundary
        limited = optimize_source(
            SOURCE,
            dataclasses.replace(
                ANYTIME_CONFIG, limits=RunnerLimits(4000, 1, 60.0)
            ),
        )
        assert result.code == limited.code
        assert (
            result.kernels[0].extracted_cost
            == limited.kernels[0].extracted_cost
        )

        # the coalesced follower shares the degraded artifact verbatim
        shared = follower.result()
        assert shared.degraded
        assert pickle.dumps(shared.kernels) == pickle.dumps(result.kernels)

        stats = service.stats.snapshot()
        assert stats["degraded"] == 1 and stats["completed"] == 2
        assert stats["expired"] == 0 and stats["failed"] == 0
        assert plan.injected() == {"deadline": 1}
        assert (
            service.session.cache.stats.stores == 0
        ), "degraded artifacts must not poison the shared cache"

    def test_fresh_submission_after_degraded_run_is_a_full_cold_run(self):
        plan = _deadline_at_first_publish()
        with OptimizationService(
            config=ANYTIME_CONFIG, workers=1, faults=plan
        ) as service:
            degraded = service.submit(SOURCE).result(timeout=60)
            assert degraded.degraded
            # nothing was cached, so the rerun goes cold and completes
            full = service.submit(SOURCE).result(timeout=60)
        assert not full.degraded
        assert (
            full.kernels[0].extracted_cost
            <= degraded.kernels[0].extracted_cost
        )
        stats = service.stats.snapshot()
        assert stats["pipeline_runs"] == 2 and stats["cache_hits"] == 0
        assert service.session.cache.stats.stores == 1

    def test_mid_run_deadline_without_snapshot_degrades(self):
        config = dataclasses.replace(ANYTIME_CONFIG, anytime_extraction=False)
        plan = _deadline_at_first_publish()
        service = OptimizationService(config=config, workers=1, faults=plan)
        handle = service.submit(SOURCE, deadline=1000.0)
        with service:
            assert service.join(60)
        assert handle.state is JobState.DONE
        result = handle.result(timeout=1)
        assert result.degraded
        limited = optimize_source(
            SOURCE, dataclasses.replace(config, limits=RunnerLimits(4000, 1, 60.0))
        )
        assert result.code == limited.code
        stats = service.stats.snapshot()
        assert stats["expired"] == 0 and stats["degraded"] == 1
        assert stats["completed"] == 1 and stats["failed"] == 0
        assert stats["submitted"] == (
            stats["completed"] + stats["failed"] + stats["cancelled"]
        )
        assert service.session.cache.stats.stores == 0


class TestRunningCancellation:
    def test_cancel_while_running_stops_cooperatively(self):
        session = OptimizationSession(config=ANYTIME_CONFIG, cache=MemoryCache())
        started = threading.Event()
        release = threading.Event()

        def gate(site):
            if site == "cache:get":
                started.set()
                release.wait(timeout=30)

        session.cache.fault_hook = gate
        with OptimizationService(session=session, workers=1) as service:
            handle = service.submit(SOURCE)
            assert started.wait(timeout=30)
            assert handle.state is JobState.RUNNING
            assert handle.cancel(), "running jobs are cancellable via the token"
            release.set()
            assert service.join(60)
        assert handle.state is JobState.CANCELLED
        with pytest.raises(CancelledError):
            handle.result(timeout=1)
        stats = service.stats.snapshot()
        assert stats["cancelled"] == 1 and stats["completed"] == 0
        assert stats["pipeline_runs"] == 0, "the loop stopped before extraction"
        assert stats["queued"] == 0 and stats["running"] == 0
