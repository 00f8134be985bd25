"""The hot serving path: byte snapshots, isolation, work counters, retention.

A cache hit and a coalesced follower are the two cheap ways the service
answers a request, and both hand out an unpickled object of immutable
bytes taken exactly once — ``MemoryCache.put`` for the cache,
``Job.resolve`` for a job with followers.  Pinned here:

* **isolation** — whoever mutates whichever result, whenever, nobody else
  (another follower, a later hit, a later submission) can see it;
* **work counters** — a hot wave of N submissions over K keys pays no
  ``copy.deepcopy``, at most K ``pickle.dumps``, exactly N ``pickle.loads``
  and one JSON config-fingerprint walk: exact counts, gateable where wall
  clock is not;
* **retention** — a long-lived service keeps nothing for jobs nobody can
  observe any more.
"""

import copy
import dataclasses
import gc
import json
import pickle
import sys
import threading
import tracemalloc

import pytest

from repro.egraph.runner import RunnerLimits
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.service import OptimizationRequest, OptimizationService
from repro.service.job import Job
from repro.session import MemoryCache, OptimizationSession

CONFIG = SaturatorConfig(
    variant=Variant.CSE_SAT, limits=RunnerLimits(400, 3, 60.0)
)


def _kernel(index: int) -> str:
    return (
        "#pragma acc parallel loop\n"
        f"for (i = 0; i < n; i++) {{ a[i] = b[i] * c{index}[i] + b[i] * c{index}[i]; }}"
    )


SOURCE = _kernel(0)


def _pristine(result):
    """An independent copy with the provenance flag cleared (a hit differs
    from the run that produced it in nothing else)."""

    clone = pickle.loads(pickle.dumps(result))
    for kernel in clone.kernels:
        kernel.from_cache = False
    return clone


def _vandalize(result) -> None:
    result.code = "garbage"
    result.kernels[0].name = "X"
    result.kernels[0].optimized.loads = -1
    result.kernels.append(result.kernels[0])


def _coalesced_wave(service, source=SOURCE, followers=3):
    """Primary + followers on one job, resolved; handles in submit order."""

    handles = [service.submit(source) for _ in range(1 + followers)]
    assert [h.coalesced for h in handles] == [False] + [True] * followers
    service.start()
    assert service.join(60)
    return handles


# ----------------------------------------------------------------------
# (a) isolation matrix — includes the primary-mutation regression
# ----------------------------------------------------------------------


@pytest.mark.parametrize("warm", [False, True], ids=["pipeline-run", "cache-hit"])
@pytest.mark.parametrize("mutated", ["primary", "follower", "hit", "put"])
def test_no_mutation_reaches_another_consumer(mutated, warm):
    """Mutate one consumer's result; every other consumer still gets the
    artifact a solo ``optimize_source`` computes.

    ``primary`` is the regression for the lazy-copy leak: followers used
    to deep-copy ``job.result`` — the object the first handle owns — at
    their own first ``result()`` call, i.e. *after* the primary's caller
    may already have changed it.
    """

    solo = optimize_source(SOURCE, CONFIG)
    session = OptimizationSession(CONFIG, MemoryCache())
    if warm:
        stored = session.run(SOURCE)  # the object handed to ``put``
        if mutated == "put":
            _vandalize(stored)

    service = OptimizationService(session=session, workers=2)
    try:
        primary, follower, late_follower = _coalesced_wave(service, followers=2)
        assert primary.from_cache is warm
        reference = _pristine(primary.result())
        assert reference.code == solo.code
        if mutated == "primary" or (mutated == "put" and not warm):
            # a pipeline run's primary owns the very object ``put`` was given
            _vandalize(primary.result())
        elif mutated == "follower":
            _vandalize(follower.result())
        elif mutated == "hit":
            _vandalize(session.run(SOURCE))

        observers = {
            # materializes only now, after the mutation
            "another follower": late_follower.result(),
            "a later hit": session.run(SOURCE),
            "a later submission": service.submit(SOURCE).result(timeout=60),
        }
    finally:
        service.stop()
    for who, seen in observers.items():
        assert seen.code == solo.code, who
        assert _pristine(seen) == reference, who


# ----------------------------------------------------------------------
# (b) equal, never identical, sharing preserved
# ----------------------------------------------------------------------


def test_consumers_are_pairwise_equal_and_pairwise_distinct():
    session = OptimizationSession(CONFIG, MemoryCache())
    service = OptimizationService(session=session, workers=2)
    try:
        handles = _coalesced_wave(service, followers=3)
        results = [h.result() for h in handles]
        results += [session.run(SOURCE), session.run(SOURCE)]
    finally:
        service.stop()
    for i, left in enumerate(results):
        for right in results[i + 1:]:
            assert _pristine(left) == _pristine(right)
            assert left is not right
            assert left.kernels is not right.kernels
            assert left.kernels[0] is not right.kernels[0]
    # a handle's result is materialized once
    assert all(h.result() is r for h, r in zip(handles, results))


def test_sharing_inside_one_result_survives_the_snapshot():
    """Pickle's memo gives what deepcopy's memo gave: one object referenced
    twice inside an artifact is still one object in every consumer's copy
    (and a different one per consumer)."""

    result = optimize_source(SOURCE, CONFIG)
    result.kernels[0].original = result.kernels[0].optimized  # shared on purpose

    cache = MemoryCache()
    key = OptimizationSession(CONFIG).key_for(SOURCE)
    cache.put(key, result)
    hits = [cache.get(key), cache.get(key)]

    job = Job(OptimizationRequest(SOURCE), key)
    handles = [job.attach() for _ in range(3)]
    assert job.start()
    job.resolve(result, from_cache=False)
    followers = [h.result() for h in handles[1:]]
    assert handles[0].result() is result

    stats = set()
    for copy_ in hits + followers:
        assert copy_ == result and copy_ is not result
        assert copy_.kernels[0].original is copy_.kernels[0].optimized
        stats.add(id(copy_.kernels[0].optimized))
    assert len(stats) == 4


# ----------------------------------------------------------------------
# (c) concurrent materialization
# ----------------------------------------------------------------------


def test_followers_materialize_concurrently_and_outside_the_job_lock(monkeypatch):
    """8 threads resolve the 400 followers of 4 jobs at once: every
    ``result()`` succeeds, ``pickle.loads`` never runs under a job's
    condition, and a handle raced by all 8 threads still yields exactly
    one object."""

    sources = [_kernel(i) for i in range(4)]
    service = OptimizationService(config=CONFIG, workers=2)
    handles = [service.submit(src) for src in sources for _ in range(101)]
    jobs = service.jobs()
    assert len(jobs) == 4
    followers = [h for h in handles if h.coalesced]
    assert len(followers) == 400
    with service:
        assert service.join(60)
    expected = {src: optimize_source(src, CONFIG).code for src in sources}

    real_loads = pickle.loads
    under_lock = []

    def loads(blob):
        under_lock.append(any(job.cond._is_owned() for job in jobs))
        return real_loads(blob)

    monkeypatch.setattr(pickle, "loads", loads)
    threads_n = 8
    seen = [[None] * len(followers) for _ in range(threads_n)]
    errors = []

    def resolve(worker: int) -> None:
        try:
            for step in range(len(followers)):
                index = (step + worker * 50) % len(followers)
                seen[worker][index] = followers[index].result(timeout=30)
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=resolve, args=(w,)) for w in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(under_lock) >= len(followers) and not any(under_lock)
    for index, handle in enumerate(followers):
        result = handle.result()
        assert all(seen[w][index] is result for w in range(threads_n))
        assert result.code == expected[handle.request.source]
    assert len({id(h.result()) for h in followers}) == len(followers)


# ----------------------------------------------------------------------
# (d) the deterministic work-counter gate
# ----------------------------------------------------------------------


def test_hot_wave_work_counters(monkeypatch):
    """N hot submissions on K keys with one config: no deep copy, at most
    one ``dumps`` per key, exactly one ``loads`` per submission, and the
    JSON fingerprint walk once for the whole life of the config instance."""

    keys, submissions = 5, 200
    sources = [_kernel(i) for i in range(keys)]
    config = dataclasses.replace(CONFIG)  # not fingerprinted yet
    calls = {"deepcopy": 0, "dumps": 0, "loads": 0, "json": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(copy, "deepcopy", counting("deepcopy", copy.deepcopy))
    monkeypatch.setattr(pickle, "dumps", counting("dumps", pickle.dumps))
    monkeypatch.setattr(pickle, "loads", counting("loads", pickle.loads))
    monkeypatch.setattr(json, "dumps", counting("json", json.dumps))

    session = OptimizationSession(config, MemoryCache())
    for source in sources:
        session.run(source)
    # the prefill: K misses, K stores — and the config's one JSON walk
    assert (calls["dumps"], calls["loads"], calls["json"]) == (keys, 0, 1)
    calls["deepcopy"] = calls["dumps"] = 0

    service = OptimizationService(session=session, workers=2)
    handles = [service.submit(sources[i % keys]) for i in range(submissions)]
    with service:
        results = [handle.result(timeout=60) for handle in handles]
    stats = service.stats.snapshot()
    assert (stats["cache_hits"], stats["coalesced"], stats["pipeline_runs"]) == (
        keys, submissions - keys, 0,
    )
    assert len({id(result) for result in results}) == submissions
    assert calls["deepcopy"] == 0
    assert 0 < calls["dumps"] <= keys  # one snapshot per job with followers
    assert calls["loads"] == submissions  # K cache reads + N-K followers
    assert calls["json"] == 1


def test_solo_jobs_pay_no_snapshot():
    """A job nobody coalesced onto hands its artifact to its one handle."""

    service = OptimizationService(config=CONFIG, workers=1)
    handle = service.submit(SOURCE)
    [job] = service.jobs()
    with service:
        result = handle.result(timeout=60)
    assert job.snapshot is None
    assert result is job.result


# ----------------------------------------------------------------------
# (f) retention of a long-lived service
# ----------------------------------------------------------------------


def test_long_lived_service_retains_no_finished_work():
    """5 000 hot submissions through one started service, the handles of
    each batch dropped before the next: the job table holds only what a
    worker may still be touching, and traced memory does not grow.

    Regression: ``_jobs`` used to be an append-only list, and the
    ``Job.handles`` <-> ``JobHandle._job`` cycle pinned every follower's
    materialized copy until a collector pass.
    """

    workers, keys, batches, batch = 2, 5, 20, 250
    sources = [_kernel(i) for i in range(keys)]
    session = OptimizationSession(CONFIG, MemoryCache())
    for source in sources:
        session.run(source)

    def wave(service) -> None:
        handles = [service.submit(sources[i % keys]) for i in range(batch)]
        for handle in handles:
            assert handle.result(timeout=60).code

    with OptimizationService(session=session, workers=workers) as service:
        wave(service)  # warm-up: thread stacks, memo, lazily built state
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(batches):
                wave(service)
                # no collector pass: the handles going out of scope is
                # enough to free each finished job
                assert len(service.jobs()) <= workers
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stats = service.stats.snapshot()
    assert stats["submitted"] == stats["completed"] == (batches + 1) * batch
    assert stats["pipeline_runs"] == 0
    # one retained follower copy is ~20 kB; 5 000 of them would be ~100 MB
    assert after - before < 256 * 1024


def test_jobs_lists_every_job_someone_can_still_observe():
    """Weak retention drops only what is unobservable: a queued job with
    no handle left, a running one, and a finished one whose handle is
    alive are all listed, in submission order."""

    service = OptimizationService(config=CONFIG, workers=1)
    kept = service.submit(_kernel(1))
    service.submit(_kernel(2))  # handle dropped at once; the queue owns the job
    assert [job.seq for job in service.jobs()] == [0, 1]
    with service:
        assert service.join(60)
        assert kept.result(timeout=60).code
    stats = service.stats.snapshot()
    assert stats["completed"] == 2
    assert service.jobs() == [kept._job]
    assert kept._job.handles == []
