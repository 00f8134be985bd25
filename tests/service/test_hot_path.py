"""The hot serving path: one immutable artifact per job, work counters, retention.

A cache hit and a coalesced follower are the two cheap ways the service
answers a request.  The artifact is an immutable value (frozen records,
tuples, a read-only rule-stats mapping), so a job hands its one result
object to every handle, and a cache hit unpickles the bytes
``MemoryCache.put`` took once.  Pinned here:

* **isolation** — every attempt to change a result raises, whoever holds
  it (the primary, a follower, a hit, the value given to ``put``), and
  every other consumer still sees the solo run's artifact;
* **sharing** — every handle on a job returns the job's object, and a
  cache hit is an equal, distinct copy;
* **work counters** — a hot wave of N submissions over K keys pays no
  ``copy.deepcopy``, no ``pickle.dumps``, exactly K ``pickle.loads``, one
  JSON config-fingerprint walk and K source SHA-256s, and returns K
  distinct objects: exact counts, gateable where wall clock is not;
* **retention** — a long-lived service keeps nothing for jobs nobody can
  observe any more.
"""

import copy
import dataclasses
import gc
import json
import operator
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
from repro.session import fingerprint as fingerprint_module

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
    """*result* with the provenance flag cleared (a hit differs from the
    run that produced it in nothing else)."""

    return dataclasses.replace(
        result,
        kernels=tuple(
            dataclasses.replace(kernel, from_cache=False)
            for kernel in result.kernels
        ),
    )


#: Every way a caller might try to change a result in place.
VANDALISM = {
    "code": lambda r: setattr(r, "code", "garbage"),
    "delete code": lambda r: delattr(r, "code"),
    "kernel name": lambda r: setattr(r.kernels[0], "name", "X"),
    "code stats": lambda r: setattr(r.kernels[0].optimized, "loads", -1),
    "append kernel": lambda r: r.kernels.append(r.kernels[0]),
    "replace kernel": lambda r: operator.setitem(r.kernels, 0, r.kernels[0]),
    "runner field": lambda r: setattr(r.kernels[0].runner, "total_time", 0.0),
    "append iteration": lambda r: r.kernels[0].runner.iterations.append(None),
    "iteration row": lambda r: setattr(
        r.kernels[0].runner.iterations[0], "applied", -1
    ),
    "rule row": lambda r: setattr(
        next(iter(r.kernels[0].runner.rule_stats.values())), "matches", -1
    ),
    "add rule": lambda r: operator.setitem(r.kernels[0].runner.rule_stats, "x", None),
    "drop rule": lambda r: operator.delitem(
        r.kernels[0].runner.rule_stats, next(iter(r.kernels[0].runner.rule_stats))
    ),
}


def _vandalize(result) -> None:
    """Try every step of :data:`VANDALISM`; each must raise."""

    for step, vandal in VANDALISM.items():
        with pytest.raises(
            (dataclasses.FrozenInstanceError, AttributeError, TypeError)
        ):
            vandal(result)
            pytest.fail(f"{step}: the result accepted the change")


def _coalesced_wave(service, source=SOURCE, followers=3):
    """Primary + followers on one job, resolved; handles in submit order."""

    handles = [service.submit(source) for _ in range(1 + followers)]
    assert [h.coalesced for h in handles] == [False] + [True] * followers
    service.start()
    assert service.join(60)
    return handles


# ----------------------------------------------------------------------
# (a) isolation matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("warm", [False, True], ids=["pipeline-run", "cache-hit"])
@pytest.mark.parametrize("mutated", ["primary", "follower", "hit", "put"])
def test_no_mutation_reaches_another_consumer(mutated, warm):
    """Every attempt to change one consumer's result raises, and every
    other consumer still gets the artifact a solo ``optimize_source``
    computes."""

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
            # a pipeline run's primary holds the very object ``put`` was given
            _vandalize(primary.result())
        elif mutated == "follower":
            _vandalize(follower.result())
        elif mutated == "hit":
            _vandalize(session.run(SOURCE))

        observers = {
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
# (b) one object per job, a copy per cache hit
# ----------------------------------------------------------------------


def test_followers_share_the_primary_object_and_hits_are_distinct_copies():
    session = OptimizationSession(CONFIG, MemoryCache())
    service = OptimizationService(session=session, workers=2)
    try:
        handles = _coalesced_wave(service, followers=3)
        [job] = {handle._job for handle in handles}
        primary = handles[0].result()
        hits = [session.run(SOURCE), session.run(SOURCE)]
    finally:
        service.stop()
    assert primary is job.result
    assert all(handle.result() is primary for handle in handles)
    assert hits[0] is not hits[1]
    for hit in hits:
        assert _pristine(hit) == _pristine(primary)
        assert hit is not primary
        assert hit.kernels[0] is not primary.kernels[0]
        assert all(kernel.from_cache for kernel in hit.kernels)
    assert not any(kernel.from_cache for kernel in primary.kernels)


def test_sharing_inside_one_result_survives_the_cache():
    """Pickle's memo keeps one object referenced twice inside an artifact
    one object in every cache hit (and a different one per hit); the
    handles of a job all return the object it was resolved with."""

    result = optimize_source(SOURCE, CONFIG)
    kernel = result.kernels[0]
    shared = dataclasses.replace(kernel, original=kernel.optimized)
    result = dataclasses.replace(result, kernels=(shared,))

    cache = MemoryCache()
    key = OptimizationSession(CONFIG).key_for(SOURCE)
    cache.put(key, result)
    hits = [cache.get(key), cache.get(key)]

    job = Job(OptimizationRequest(SOURCE), key)
    handles = [job.attach() for _ in range(3)]
    assert job.start()
    job.resolve(result, from_cache=False)
    assert all(handle.result() is result for handle in handles)

    stats = set()
    for hit in hits:
        assert hit == result and hit is not result
        assert hit.kernels[0].original is hit.kernels[0].optimized
        stats.add(id(hit.kernels[0].optimized))
    assert len(stats) == 2


# ----------------------------------------------------------------------
# (c) concurrent resolution
# ----------------------------------------------------------------------


@pytest.mark.parametrize("outcome", ["done", "failed"])
def test_a_terminal_handle_resolves_without_the_jobs_condition(outcome):
    """Once its job is terminal, a handle's ``result()`` returns the job's
    object (or raises its error) without taking ``job.cond``: another
    thread holding the condition does not hold it up."""

    job = Job(OptimizationRequest(SOURCE), OptimizationSession(CONFIG).key_for(SOURCE))
    handle = job.attach()
    assert job.start()
    value, error = object(), ValueError("pipeline failed")
    if outcome == "done":
        job.resolve(value, from_cache=False)
    else:
        job.fail(error)

    holding, release = threading.Event(), threading.Event()

    def hold() -> None:
        with job.cond:
            holding.set()
            release.wait(60)

    seen = []

    def resolve() -> None:
        try:
            seen.append(handle.result(timeout=1))
        except BaseException as raised:
            seen.append(raised)

    holder = threading.Thread(target=hold)
    holder.start()
    reader = threading.Thread(target=resolve)
    try:
        assert holding.wait(60)
        reader.start()
        reader.join(5)
        assert not reader.is_alive(), "result() waited for the job's condition"
    finally:
        release.set()
        holder.join()
        if reader.ident is not None:
            reader.join()
    expected = value if outcome == "done" else error
    assert len(seen) == 1 and seen[0] is expected


def test_waiters_racing_the_terminal_transition_see_the_outcome():
    """8 threads block on the followers of 4 in-flight jobs while the jobs
    resolve: whether a ``result()`` waited on the condition or read a
    terminal state without it, it returns the job's object, never the
    ``None`` a reader could see if ``state`` were published first."""

    sources = [_kernel(i) for i in range(4)]
    service = OptimizationService(config=CONFIG, workers=2)
    handles = [service.submit(src) for src in sources for _ in range(50)]
    seen, errors = {}, []

    def resolve(worker: int) -> None:
        try:
            for step in range(len(handles)):
                index = (step * 7 + worker * 25) % len(handles)
                seen[worker, index] = handles[index].result(timeout=60)
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=resolve, args=(w,)) for w in range(8)]
    try:
        for thread in threads:
            thread.start()
        with service:
            for thread in threads:
                thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(seen) == 8 * len(handles)
    for (_, index), result in seen.items():
        assert result is not None and result is handles[index]._job.result


def test_followers_resolve_concurrently_to_their_jobs_object(monkeypatch):
    """8 threads resolve the 400 followers of 4 jobs at once: every
    ``result()`` succeeds and returns its job's one object, and nothing
    is unpickled."""

    sources = [_kernel(i) for i in range(4)]
    service = OptimizationService(config=CONFIG, workers=2)
    handles = [service.submit(src) for src in sources for _ in range(101)]
    jobs = {job.request.source: job for job in service.jobs()}
    assert len(jobs) == 4
    followers = [h for h in handles if h.coalesced]
    assert len(followers) == 400
    with service:
        assert service.join(60)
    expected = {src: optimize_source(src, CONFIG).code for src in sources}

    loads = []
    real_loads = pickle.loads
    monkeypatch.setattr(pickle, "loads", lambda blob: loads.append(1) or real_loads(blob))
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
    assert not loads
    for index, handle in enumerate(followers):
        source = handle.request.source
        assert all(seen[w][index] is jobs[source].result for w in range(threads_n))
        assert handle.result().code == expected[source]
    assert len({id(h.result()) for h in followers}) == len(jobs)


# ----------------------------------------------------------------------
# (d) the deterministic work-counter gate
# ----------------------------------------------------------------------


def test_hot_wave_work_counters(monkeypatch):
    """N hot submissions on K keys with one config: no deep copy, no
    ``dumps``, exactly one ``loads`` per key (its cache read), the JSON
    fingerprint walk once for the whole life of the config instance, one
    source SHA-256 per key (followers attach on the request itself and
    never take a content address), and K distinct result objects."""

    keys, submissions = 5, 200
    sources = [_kernel(i) for i in range(keys)]
    config = dataclasses.replace(CONFIG)  # not fingerprinted yet
    calls = {"deepcopy": 0, "dumps": 0, "loads": 0, "json": 0, "sha256": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(copy, "deepcopy", counting("deepcopy", copy.deepcopy))
    monkeypatch.setattr(pickle, "dumps", counting("dumps", pickle.dumps))
    monkeypatch.setattr(pickle, "loads", counting("loads", pickle.loads))
    monkeypatch.setattr(json, "dumps", counting("json", json.dumps))
    monkeypatch.setattr(
        fingerprint_module, "fingerprint_text",
        counting("sha256", fingerprint_module.fingerprint_text),
    )

    session = OptimizationSession(config, MemoryCache())
    for source in sources:
        session.run(source)
    # the prefill: K misses, K stores — and the config's one JSON walk
    assert (calls["dumps"], calls["loads"], calls["json"]) == (keys, 0, 1)
    calls["deepcopy"] = calls["dumps"] = calls["sha256"] = 0

    service = OptimizationService(session=session, workers=2)
    handles = [service.submit(sources[i % keys]) for i in range(submissions)]
    with service:
        results = [handle.result(timeout=60) for handle in handles]
    stats = service.stats.snapshot()
    assert (stats["cache_hits"], stats["coalesced"], stats["pipeline_runs"]) == (
        keys, submissions - keys, 0,
    )
    assert len({id(result) for result in results}) == keys
    assert calls == {
        "deepcopy": 0, "dumps": 0, "loads": keys, "json": 1, "sha256": keys,
    }


# ----------------------------------------------------------------------
# (f) retention of a long-lived service
# ----------------------------------------------------------------------


def test_long_lived_service_retains_no_finished_work():
    """5 000 hot submissions through one started service, the handles of
    each batch dropped before the next: the job table holds only what a
    worker may still be touching, and traced memory does not grow.

    Regression: ``_jobs`` used to be an append-only list, and the
    ``Job.handles`` <-> ``JobHandle._job`` cycle pinned every finished
    job and its artifact until a collector pass.
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
    # 5 000 retained jobs, each pinning its handles and its artifact,
    # would be megabytes
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
