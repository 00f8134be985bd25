"""One seeded fault plan gives one outcome on both executors.

The service runs one attempt the same way whether a thread or a worker
process does the cold run: pickup, crash check, cache probe, cold run,
result-drop check, store.  So over the fault sites both executors share
— ``worker:pickup``, ``worker:crash``, ``cache:get``, ``cache:store`` and
``ipc:result-drop`` — a fixed plan must give equal handle states,
injection counts, cache counters and service counters on threads and on
processes.  Only ``worker_respawns`` differs: a thread has no process to
replace.
"""

from repro.egraph.runner import RunnerLimits
from repro.saturator import SaturatorConfig, Variant
from repro.service import FaultPlan, FaultRule, OptimizationService

CONFIG = SaturatorConfig(variant=Variant.ACCSAT, limits=RunnerLimits(600, 3, 60.0))

KERNELS = [
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = b[i] * c[i] + b[i] * c[i]; }",
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = (b[i] + c[i]) * d[i] + (c[i] + b[i]); }",
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = b[i] * 2 + c[i] * 2; }",
]

PREFIXES = ("p0", "p1", "p2", "p3")


def _chaos_plan() -> FaultPlan:
    return FaultPlan(
        [
            FaultRule("worker:pickup", "transient", probability=0.1),
            FaultRule("worker:crash", "crash", probability=0.3, after=1),
            FaultRule("cache:get", "transient", nth=1),
            FaultRule("cache:store", "transient", probability=0.2),
            FaultRule("ipc:result-drop", "drop", probability=0.2),
        ],
        seed=7,
    )


def _minimal_plan() -> FaultPlan:
    return FaultPlan(
        [
            FaultRule("worker:crash", "crash", nth=1, after=0),
            FaultRule("cache:get", "transient", nth=1),
        ]
    )


def _wave(executor: str, plan: FaultPlan, requests) -> dict:
    service = OptimizationService(
        config=CONFIG, workers=2, executor=executor, coalesce=False,
        max_retries=3, retry_backoff=0.001, retry_backoff_cap=0.002,
        faults=plan,
    )
    with service:
        handles = [
            service.submit(source, name_prefix=prefix)
            for source, prefix in requests
        ]
        assert service.join(timeout=300)
        stats = service.stats.snapshot()
    stats.pop("worker_respawns")
    return {
        "states": [handle.state.value for handle in handles],
        "codes": [
            handle.result().code if handle.error is None else None
            for handle in handles
        ],
        "injected": plan.injected(),
        "cache": service.session.cache.stats.as_dict(),
        "stats": stats,
    }


def test_chaos_wave_gives_one_outcome():
    requests = [(source, prefix) for source in KERNELS for prefix in PREFIXES]
    thread = _wave("thread", _chaos_plan(), requests)
    assert thread == _wave("process", _chaos_plan(), requests)
    stats = thread["stats"]
    assert stats["submitted"] == len(requests) == (
        stats["completed"] + stats["failed"] + stats["cancelled"]
    )
    # the plan is not vacuous: every structural kind fired, and the wave
    # has both recovered and failed jobs
    assert set(thread["injected"]) == {"transient", "crash", "drop"}
    assert stats["worker_deaths"] and stats["recovered"] and stats["failed"]


def test_crash_verdict_waits_for_the_cold_run():
    # attempt 1 draws a crash verdict, then its cache probe fails: the
    # cold run never starts, so no worker dies; attempt 2 runs clean
    requests = [(KERNELS[0], "kernel")]
    thread = _wave("thread", _minimal_plan(), requests)
    assert thread == _wave("process", _minimal_plan(), requests)
    assert thread["states"] == ["done"]
    stats = thread["stats"]
    assert (stats["retried"], stats["worker_deaths"]) == (1, 0)
    assert thread["injected"] == {"crash": 1, "transient": 1}
