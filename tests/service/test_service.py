"""Service semantics: coalescing, cancellation, isolation, determinism.

The contracts under test here are the serving layer's whole value
proposition:

* N identical concurrent submissions cost one pipeline run, and every
  coalesced handle's result is **byte-identical** to the job's artifact,
* cancelling a queued job detaches it cleanly (and cancels the job once
  its last handle detached) without touching anything else in the queue,
* one failing source fails exactly its own handles — the workers and the
  other jobs are unaffected,
* results served under heavy concurrency are the same artifacts a serial
  solo run produces (deterministic outcomes under load).
"""

import dataclasses
import pickle
import threading

import pytest

from repro.egraph.runner import RunnerLimits
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.service import (
    CancelledError,
    JobState,
    OptimizationRequest,
    OptimizationService,
)
from repro.session import MemoryCache, OptimizationSession

#: Small, fast configs — the semantics do not depend on saturation depth.
CONFIG = SaturatorConfig(
    variant=Variant.CSE_SAT, limits=RunnerLimits(400, 3, 60.0)
)

KERNELS = [
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = b[i] * c[i] + b[i] * c[i]; }",
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { d[i] = (x[i] + y[i]) * (x[i] + y[i]); }",
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { e[i] = u[i] * v[i] + w[i] / u[i]; }",
]

BAD_SOURCE = "int broken ((("


def test_single_job_round_trip():
    with OptimizationService(config=CONFIG, workers=2) as service:
        handle = service.submit(KERNELS[0])
        result = handle.result(timeout=60)
    assert handle.state is JobState.DONE
    assert handle.done() and not handle.cancelled()
    solo = optimize_source(KERNELS[0], CONFIG)
    assert result.code == solo.code


def test_submit_request_object_and_priority_order():
    service = OptimizationService(config=CONFIG, workers=1)
    # submit before start: a single worker must then pop in priority order
    low = service.submit(OptimizationRequest(KERNELS[0], priority=5))
    high = service.submit(OptimizationRequest(KERNELS[1], priority=-5))
    with service:
        assert service.join(60)
    jobs = service.jobs()
    assert [job.request.priority for job in jobs] == [5, -5]
    assert jobs[1].started_at < jobs[0].started_at  # high priority ran first
    assert low.done() and high.done()


def test_coalescing_runs_pipeline_once_and_results_are_byte_identical():
    service = OptimizationService(config=CONFIG, workers=4)
    # all five submissions land before any worker exists, so they are all
    # in flight together: exactly one pipeline run can serve them
    handles = [service.submit(KERNELS[0]) for _ in range(5)]
    with service:
        assert service.join(60)

    assert [h.coalesced for h in handles] == [False, True, True, True, True]
    stats = service.stats.snapshot()
    assert stats["submitted"] == 5
    assert stats["coalesced"] == 4
    assert stats["pipeline_runs"] == 1
    assert stats["completed"] == 5
    assert service.session.cache.stats.stores == 1

    blobs = {pickle.dumps(h.result().kernels) for h in handles}
    assert len(blobs) == 1, "coalesced results must be byte-identical"
    # ... and one shared immutable object: no caller can change it
    assert all(h.result() is handles[0].result() for h in handles)
    with pytest.raises(dataclasses.FrozenInstanceError):
        handles[1].result().kernels[0].name = "mutated"


#: Second submissions next to ``submit(KERNELS[0])`` on a service whose
#: config is CONFIG, and whether they are the same request: coalescing is
#: keyed on (source text, config fingerprint, name prefix), the fields of
#: the session cache key, compared by value.
SECOND_SUBMISSIONS = {
    "equal but distinct str": (
        lambda service: service.submit("".join(list(KERNELS[0]))), True,
    ),
    "request object": (
        lambda service: service.submit(OptimizationRequest(KERNELS[0])), True,
    ),
    "request object with other priority and deadline": (
        lambda service: service.submit(
            OptimizationRequest(KERNELS[0], priority=3, deadline=600.0)
        ),
        True,
    ),
    "value-equal config instance": (
        lambda service: service.submit(
            KERNELS[0], config=dataclasses.replace(CONFIG)
        ),
        True,
    ),
    "other name prefix": (
        lambda service: service.submit(KERNELS[0], name_prefix="other"), False,
    ),
    "config differing in one field": (
        lambda service: service.submit(
            KERNELS[0],
            config=dataclasses.replace(CONFIG, limits=RunnerLimits(400, 2, 60.0)),
        ),
        False,
    ),
}


@pytest.mark.parametrize("case", sorted(SECOND_SUBMISSIONS))
def test_coalescing_compares_the_request_by_value(case):
    submit_second, same = SECOND_SUBMISSIONS[case]
    service = OptimizationService(config=CONFIG, workers=2)
    first = service.submit(KERNELS[0])
    second = submit_second(service)
    assert second.coalesced is same
    assert (second._job is first._job) is same
    with service:
        assert service.join(60)
    stats = service.stats.snapshot()
    assert stats["coalesced"] == int(same)
    assert stats["pipeline_runs"] == (1 if same else 2)
    assert stats["submitted"] == stats["completed"] == 2
    assert (second.result() is first.result()) is same
    if same:
        assert second.request is first.request  # the primary's request
    else:
        assert second._job.key != first._job.key


def test_no_coalescing_baseline_runs_every_submission():
    service = OptimizationService(config=CONFIG, workers=1, coalesce=False)
    handles = [service.submit(KERNELS[0]) for _ in range(3)]
    with service:
        assert service.join(60)
    stats = service.stats.snapshot()
    assert stats["coalesced"] == 0
    # a single worker serializes the duplicates, so after the first cold
    # run the rest are artifact-cache hits — still one run, proving the
    # cache (not coalescing) carries the sequential case
    assert stats["pipeline_runs"] == 1
    assert stats["cache_hits"] == 2
    assert all(h.done() for h in handles)


def test_later_identical_submission_is_a_cache_hit():
    with OptimizationService(config=CONFIG, workers=2) as service:
        first = service.submit(KERNELS[0])
        first.result(timeout=60)
        second = service.submit(KERNELS[0])
        second.result(timeout=60)
    assert not second.coalesced
    assert second.from_cache
    assert service.stats.snapshot()["cache_hits"] == 1
    assert second.result().kernels[0].from_cache


def test_kernel_less_source_cache_hit_is_counted_as_a_hit():
    # a valid translation unit with no parallel kernels produces an empty
    # report list — the hit/run split must come from the session, not from
    # per-kernel from_cache flags (there are none to inspect)
    source = "int scalar_only(int x) { return x + 1; }"
    with OptimizationService(config=CONFIG, workers=1) as service:
        first = service.submit(source)
        first.result(timeout=60)
        second = service.submit(source)
        second.result(timeout=60)
    assert first.result().kernels == ()
    assert not first.from_cache
    assert second.from_cache
    stats = service.stats.snapshot()
    assert stats["pipeline_runs"] == 1
    assert stats["cache_hits"] == 1


def test_cancellation_of_queued_jobs():
    service = OptimizationService(config=CONFIG, workers=1)
    keep = service.submit(KERNELS[0])
    drop = service.submit(KERNELS[1])
    assert drop.cancel()
    assert drop.cancelled()
    with pytest.raises(CancelledError):
        drop.result(timeout=1)
    with service:
        assert service.join(60)
    assert keep.state is JobState.DONE
    stats = service.stats.snapshot()
    assert stats["cancelled"] == 1
    assert stats["completed"] == 1
    assert stats["pipeline_runs"] == 1  # the cancelled job never ran
    assert stats["queued"] == 0 and stats["running"] == 0


def test_cancel_one_coalesced_handle_keeps_the_job_alive():
    service = OptimizationService(config=CONFIG, workers=1)
    first = service.submit(KERNELS[0])
    second = service.submit(KERNELS[0])
    assert second.coalesced
    assert second.cancel()
    with service:
        assert service.join(60)
    # the job survived for the first submitter; the cancelled handle
    # stays cancelled even though the shared job completed
    assert first.state is JobState.DONE
    assert second.state is JobState.CANCELLED
    stats = service.stats.snapshot()
    assert stats["completed"] == 1 and stats["cancelled"] == 1


def test_cancelling_every_handle_cancels_the_job_and_frees_the_key():
    service = OptimizationService(config=CONFIG, workers=1)
    a = service.submit(KERNELS[0])
    b = service.submit(KERNELS[0])
    assert a.cancel() and b.cancel()
    # the in-flight slot is free again: a new submission must not attach
    # to the cancelled job
    c = service.submit(KERNELS[0])
    assert not c.coalesced
    with service:
        assert service.join(60)
    assert c.state is JobState.DONE
    assert a.cancelled() and b.cancelled()


def test_cancel_fails_once_running_or_done():
    with OptimizationService(config=CONFIG, workers=2) as service:
        handle = service.submit(KERNELS[0])
        handle.result(timeout=60)
        assert not handle.cancel()
    assert handle.state is JobState.DONE


def test_failure_isolation():
    service = OptimizationService(config=CONFIG, workers=2)
    bad = service.submit(BAD_SOURCE)
    good = [service.submit(source) for source in KERNELS]
    with service:
        assert service.join(60)
    assert bad.state is JobState.FAILED
    assert bad.error is not None
    with pytest.raises(type(bad.error)):
        bad.result(timeout=1)
    for handle in good:
        assert handle.state is JobState.DONE, "bad source must not poison the queue"
    stats = service.stats.snapshot()
    assert stats["failed"] == 1
    assert stats["completed"] == len(good)


def test_coalesced_failure_fails_every_attached_handle():
    service = OptimizationService(config=CONFIG, workers=1)
    handles = [service.submit(BAD_SOURCE) for _ in range(3)]
    with service:
        assert service.join(60)
    assert all(h.state is JobState.FAILED for h in handles)
    assert service.stats.snapshot()["failed"] == 3
    assert service.stats.snapshot()["pipeline_runs"] == 0


def test_deterministic_outcomes_under_concurrency():
    """Heavy concurrent duplicate traffic serves the same artifacts as a
    serial solo run of each kernel."""

    solo = {
        source: optimize_source(source, CONFIG) for source in KERNELS
    }
    service = OptimizationService(config=CONFIG, workers=4)
    handles = [
        service.submit(KERNELS[index % len(KERNELS)]) for index in range(24)
    ]
    with service:
        assert service.join(120)
    for index, handle in enumerate(handles):
        expected = solo[KERNELS[index % len(KERNELS)]]
        result = handle.result()
        assert result.code == expected.code
        got = [(k.egraph_nodes, k.egraph_classes, k.extracted_cost)
               for k in result.kernels]
        want = [(k.egraph_nodes, k.egraph_classes, k.extracted_cost)
                for k in expected.kernels]
        assert got == want
    stats = service.stats.snapshot()
    assert stats["submitted"] == 24
    assert stats["submitted"] == stats["completed"]
    # every distinct kernel ran at most... exactly once cold; the rest
    # were coalesced or served by the cache
    assert stats["pipeline_runs"] == len(KERNELS)


def test_concurrent_submitters_coalesce_thread_safely():
    service = OptimizationService(config=CONFIG, workers=2)
    handles = []
    lock = threading.Lock()

    def submitter():
        handle = service.submit(KERNELS[0])
        with lock:
            handles.append(handle)

    threads = [threading.Thread(target=submitter) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    with service:
        assert service.join(60)
    assert len(handles) == 8
    assert all(h.done() for h in handles)
    stats = service.stats.snapshot()
    assert stats["submitted"] == 8
    # with submissions racing the workers the split between coalesced and
    # cache-hit jobs is timing-dependent, but the conservation law is not
    assert stats["completed"] == 8
    assert stats["pipeline_runs"] == 1


def test_shared_session_and_explicit_session_validation():
    session = OptimizationSession(config=CONFIG, cache=MemoryCache())
    with pytest.raises(ValueError):
        OptimizationService(session=session, cache=MemoryCache())
    with pytest.raises(ValueError):
        OptimizationService(workers=0)
    with OptimizationService(session=session, workers=1) as service:
        service.submit(KERNELS[0]).result(timeout=60)
    # second service over the same session: artifact already cached
    with OptimizationService(session=session, workers=1) as service2:
        handle = service2.submit(KERNELS[0])
        handle.result(timeout=60)
    assert handle.from_cache


def test_stop_cancel_pending_and_rejects_late_submissions():
    service = OptimizationService(config=CONFIG, workers=1)
    pending = [service.submit(source) for source in KERNELS]
    service.stop(wait=True, cancel_pending=True)
    assert all(h.cancelled() for h in pending)
    with pytest.raises(RuntimeError):
        service.submit(KERNELS[0])
