"""Unit tests of the job queue and the service stats registry."""

import threading

import pytest

from repro.egraph.runner import RunnerLimits
from repro.saturator import SaturatorConfig, Variant
from repro.service import (
    Job,
    JobQueue,
    JobState,
    OptimizationRequest,
    OptimizationService,
    ServiceStats,
)


def _job(priority: int, seq: int) -> Job:
    return Job(OptimizationRequest("src", priority=priority), key=None, seq=seq)


class TestJobQueue:
    def test_priority_then_fifo_order(self):
        queue = JobQueue()
        jobs = [_job(1, 0), _job(0, 1), _job(1, 2), _job(-1, 3)]
        for job in jobs:
            queue.push(job)
        popped = [queue.pop(timeout=1).seq for _ in range(4)]
        assert popped == [3, 1, 0, 2]

    def test_pop_skips_cancelled_jobs(self):
        queue = JobQueue()
        first, second = _job(0, 0), _job(0, 1)
        queue.push(first)
        queue.push(second)
        first.state = JobState.CANCELLED
        assert queue.pop(timeout=1) is second
        queue.close()
        assert queue.pop() is None

    def test_pop_blocks_until_push(self):
        queue = JobQueue()
        got = []

        def popper():
            got.append(queue.pop())

        thread = threading.Thread(target=popper)
        thread.start()
        job = _job(0, 0)
        queue.push(job)
        thread.join(timeout=5)
        assert got == [job]

    def test_close_wakes_blocked_pop_and_rejects_push(self):
        queue = JobQueue()
        got = []

        def popper():
            got.append(queue.pop())

        thread = threading.Thread(target=popper)
        thread.start()
        queue.close()
        thread.join(timeout=5)
        assert got == [None]
        with pytest.raises(RuntimeError):
            queue.push(_job(0, 0))

    def test_pop_timeout(self):
        queue = JobQueue()
        assert queue.pop(timeout=0.01) is None
        assert len(queue) == 0


class TestHeapCompaction:
    """Tombstones (stolen/discarded entries awaiting their lazy pop-time
    skip) must never dominate the heap: the queue compacts when they
    exceed half of it, bounding ``len(queue) <= 2 * live + 1``."""

    def _bound_holds(self, queue):
        return len(queue) <= 2 * queue.live_depth + 1

    def test_steal_storm_keeps_heap_bounded(self):
        queue = JobQueue()
        jobs = [_job(0, seq) for seq in range(100)]
        for job in jobs:
            queue.push(job)
        # steal every other job: without compaction the heap would keep
        # all 100 entries while only 50 stay poppable
        for job in jobs[::2]:
            assert queue.steal(job)
            assert self._bound_holds(queue), (len(queue), queue.live_depth)
        assert queue.live_depth == 50
        assert len(queue) <= 2 * 50 + 1

    def test_discard_storm_keeps_heap_bounded(self):
        queue = JobQueue()
        jobs = [_job(0, seq) for seq in range(64)]
        for job in jobs:
            queue.push(job)
        for job in jobs[:63]:
            job.state = JobState.CANCELLED
            queue.discard(job)
            assert self._bound_holds(queue), (len(queue), queue.live_depth)
        # one live job among at most three heap entries
        assert queue.live_depth == 1
        assert len(queue) <= 3
        assert queue.pop(timeout=1) is jobs[63]

    def test_compaction_preserves_pop_order(self):
        queue = JobQueue()
        jobs = [_job(priority % 3, seq) for seq, priority in enumerate(range(30))]
        for job in jobs:
            queue.push(job)
        stolen = jobs[::2]
        for job in stolen:
            queue.steal(job)
        survivors = [job for job in jobs if job not in stolen]
        expected = sorted(survivors, key=lambda j: (j.request.priority, j.seq))
        popped = [queue.pop(timeout=1) for _ in survivors]
        assert popped == expected


class TestServiceStats:
    def test_counters_and_gauges(self):
        stats = ServiceStats()
        stats.count("submitted", 3)
        stats.count("coalesced")
        stats.job_queued()
        stats.job_queued()
        stats.job_started()
        stats.job_finished()
        stats.job_dequeued()
        snap = stats.snapshot()
        assert snap["submitted"] == 3
        assert snap["coalesced"] == 1
        assert snap["queued"] == 0
        assert snap["running"] == 0

    def test_unknown_counter_rejected(self):
        with pytest.raises(ValueError):
            ServiceStats().count("nope")

    def test_concurrent_increments_do_not_drop(self):
        stats = ServiceStats()

        def hammer():
            for _ in range(2000):
                stats.count("submitted")
                stats.job_queued()
                stats.job_started()
                stats.job_finished()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = stats.snapshot()
        assert snap["submitted"] == 16000
        assert snap["queued"] == 0
        assert snap["running"] == 0
        assert stats.terminal == 0


CSE_CONFIG = SaturatorConfig(variant=Variant.CSE, limits=RunnerLimits(400, 3, 60.0))
CSE_KERNEL = (
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = b[i] * c[i] + b[i] * c[i]; }"
)


def _consistent(snap) -> bool:
    terminal = snap["completed"] + snap["failed"] + snap["cancelled"]
    return snap["queued"] >= 0 and snap["running"] >= 0 and (
        snap["submitted"] >= terminal
    )


def _wait_terminal(job: Job, timeout: float) -> None:
    with job.cond:
        job.cond.wait_for(lambda: job.state.terminal, timeout)


class _ProbeLock:
    """The service's in-flight lock, with a probe after one release."""

    def __init__(self, lock):
        self._lock = lock
        self.probe = None

    def __enter__(self):
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        self._lock.__exit__(*exc_info)
        if threading.current_thread() is threading.main_thread():
            probe, self.probe = self.probe, None
            if probe is not None:
                probe()


class TestSnapshotConsistency:
    """``stats.snapshot()`` obeys the conservation law at every instant,
    including the one between a submission's push (or attach) and the
    submit call's return, where a worker may already have finished it."""

    def test_snapshot_while_a_fresh_submit_is_returning(self):
        service = OptimizationService(config=CSE_CONFIG, workers=1).start()
        snaps = []
        push = service._queue.push

        def push_then_probe(job, timeout=None, force=False):
            pushed = push(job, timeout=timeout, force=force)
            if not force:
                _wait_terminal(job, 60)
                snaps.append(service.stats.snapshot())
            return pushed

        service._queue.push = push_then_probe
        try:
            handle = service.submit(CSE_KERNEL)
            assert handle.result(timeout=60).kernels
        finally:
            service.stop()
        (snap,) = snaps
        assert snap["completed"] == 1
        assert _consistent(snap), snap
        assert _consistent(service.stats.snapshot())

    def test_snapshot_while_a_coalesced_submit_is_returning(self):
        service = OptimizationService(config=CSE_CONFIG, workers=1)
        go = threading.Event()
        execute = service._execute

        def held_execute(*args):
            # the primary stays in flight until the follower attached
            go.wait(60)
            return execute(*args)

        service._execute = held_execute
        service._inflight_lock = _ProbeLock(service._inflight_lock)
        snaps = []
        service.start()
        try:
            first = service.submit(CSE_KERNEL)
            (job,) = service.jobs()

            def probe():
                # the follower is attached and the lock released: let the
                # worker drop and resolve the job before submit returns
                go.set()
                _wait_terminal(job, 60)
                snaps.append(service.stats.snapshot())

            service._inflight_lock.probe = probe
            follower = service.submit(CSE_KERNEL)
            assert follower.result(timeout=60).code == first.result(timeout=60).code
        finally:
            go.set()
            service.stop()
        (snap,) = snaps
        assert snap["completed"] == 2
        assert _consistent(snap), snap
        assert _consistent(service.stats.snapshot())
