"""Retry semantics under deterministic fault injection.

Transient failures (``TransientError`` / ``OSError``) requeue the job with
backoff up to ``max_retries`` and the recovery is invisible to callers
(same result, no duplicate progress notifications); permanent failures
fail fast, fail *every* coalesced handle, and never poison a later
identical submission.
"""

import gc
import pickle
import traceback
import weakref

import pytest

from repro.egraph.runner import RunnerLimits
from repro.saturator import SaturatorConfig, Variant
from repro.service import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    JobState,
    OptimizationService,
    TransientError,
    is_transient,
)

CONFIG = SaturatorConfig(
    variant=Variant.CSE_SAT, limits=RunnerLimits(400, 3, 60.0)
)

SOURCE = (
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = b[i] * c[i] + b[i] * c[i]; }"
)

FAST_BACKOFF = dict(retry_backoff=0.001, retry_backoff_cap=0.002)


def test_transient_classification():
    assert is_transient(TransientError("blip"))
    assert is_transient(OSError("disk hiccup"))
    assert not is_transient(ValueError("permanent"))
    assert not is_transient(InjectedFault("permanent by construction"))


class TestTransientRecovery:
    def test_first_cache_probe_faults_then_the_retry_recovers(self):
        plan = FaultPlan([FaultRule("cache:get", "transient", nth=1)])
        service = OptimizationService(
            config=CONFIG, workers=1, faults=plan, **FAST_BACKOFF
        )
        first = service.submit(SOURCE)
        follower = service.submit(SOURCE)
        assert follower.coalesced
        with service:
            assert service.join(60)

        assert first.state is JobState.DONE
        assert follower.state is JobState.DONE
        assert pickle.dumps(first.result().kernels) == pickle.dumps(
            follower.result().kernels
        )
        stats = service.stats.snapshot()
        assert stats["retried"] == 1 and stats["recovered"] == 1
        assert stats["failed"] == 0 and stats["completed"] == 2
        assert stats["pipeline_runs"] == 1
        assert stats["queued"] == 0 and stats["running"] == 0
        assert plan.injected() == {"transient": 1}

    def test_retry_does_not_duplicate_progress_notifications(self):
        # attempt 1 publishes event 0, then faults at its second publish;
        # attempt 2 republishes the full trajectory under fresh seqs — the
        # stream grows monotonically and never renumbers
        plan = FaultPlan([FaultRule("progress:publish", "transient", nth=2)])
        service = OptimizationService(
            config=CONFIG, workers=1, faults=plan, **FAST_BACKOFF
        )
        handle = service.submit(SOURCE)
        with service:
            assert service.join(60)
        assert handle.state is JobState.DONE
        events = handle.progress()
        seqs = [event.seq for event in events]
        assert seqs == list(range(len(events)))
        assert len(events) >= 3  # 1 from the doomed attempt + a full rerun
        stats = service.stats.snapshot()
        assert stats["retried"] == 1 and stats["recovered"] == 1
        assert stats["progress_events"] == len(events)

    def test_exhausted_retries_fail_with_the_transient_cause(self):
        plan = FaultPlan([FaultRule("cache:get", "transient", nth=1, count=10)])
        service = OptimizationService(
            config=CONFIG, workers=1, faults=plan, max_retries=1, **FAST_BACKOFF
        )
        handle = service.submit(SOURCE)
        with service:
            assert service.join(60)
        assert handle.state is JobState.FAILED
        with pytest.raises(TransientError):
            handle.result(timeout=1)
        stats = service.stats.snapshot()
        assert stats["retried"] == 1  # one requeue, then retries exhausted
        assert stats["recovered"] == 0 and stats["failed"] == 1
        assert plan.injected() == {"transient": 2}


class TestPermanentFaults:
    def test_permanent_fault_fails_every_handle_and_does_not_poison(self):
        plan = FaultPlan([FaultRule("worker:pickup", "permanent", nth=1)])
        service = OptimizationService(
            config=CONFIG, workers=1, faults=plan, **FAST_BACKOFF
        )
        doomed = [service.submit(SOURCE) for _ in range(2)]
        with service:
            assert service.join(60)
            for handle in doomed:
                assert handle.state is JobState.FAILED
                with pytest.raises(InjectedFault):
                    handle.result(timeout=1)

            # same source, same key: its hit counter is past the rule now,
            # so the failure did not poison the path
            retry = service.submit(SOURCE)
            assert retry.result(timeout=60) is not None
        assert retry.state is JobState.DONE
        stats = service.stats.snapshot()
        assert stats["retried"] == 0, "permanent faults must fail fast"
        assert stats["failed"] == 2 and stats["completed"] == 1
        assert plan.injected() == {"permanent": 1}
        assert service.session.cache.stats.stores == 1

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_failed_job_dies_with_its_last_handle(self, executor):
        """Regression: the error's traceback kept the failed attempt's
        frames, whose locals kept the job — a failed job (and everything
        it pinned) lived until a collector pass.  The error itself stays
        whole: same exception, and a traceback that names the raising
        line."""

        plan = FaultPlan([FaultRule("worker:pickup", "permanent", nth=1)])
        service = OptimizationService(
            config=CONFIG, workers=1, faults=plan, executor=executor,
            **FAST_BACKOFF,
        )
        handles = [service.submit(SOURCE) for _ in range(2)]
        job = weakref.ref(handles[0]._job)
        gc.disable()
        try:
            with service:
                assert service.join(60)
            errors = []
            for handle in handles:
                with pytest.raises(InjectedFault) as caught:
                    handle.result(timeout=1)
                errors.append(caught.value)
            assert errors[0] is errors[1]
            printed = "".join(traceback.format_exception(errors[0]))
            assert "raise InjectedFault(detail)" in printed
            del handles, handle, caught, errors
            assert job() is None
        finally:
            gc.enable()
