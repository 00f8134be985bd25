#!/usr/bin/env python
"""Synthetic load generator for the optimization service: BENCH_service.json.

Drives an :class:`~repro.service.OptimizationService` with a
duplicate-heavy request mix — by default 200 requests spread over ~20
distinct benchmark kernels, submitted in bursts so identical requests are
in flight together (the trending-kernel traffic shape coalescing exists
for) — and records:

* **throughput** (requests/s) and **p50/p95 latency** (submit → terminal),
* the **coalesce rate** (submissions attached to an in-flight job) and the
  **cache-hit rate** of a follow-up wave re-requesting every kernel,
* the same run with coalescing disabled (the baseline: every submission
  enqueues its own job, duplicates popped concurrently each run the cold
  pipeline), and the resulting **coalescing speedup**,
* a **correctness audit**: every coalesced result must be byte-identical
  (pickle) to the artifact of the job it attached to, and every job's
  generated code must equal a solo ``optimize_source`` run of the same
  (source, config).

``--faults`` appends a deterministic **chaos wave**: the same request mix
with coalescing off, unique per-request names, a bounded queue under the
shed policy, and a seeded :class:`~repro.service.FaultPlan` injecting
transient faults (exercising retry + recovery), mid-run deadlines
(exercising graceful degradation), and permanent faults (failure
isolation).  The wave's outcome and stats records are pure functions of
the seed — the ``faults`` section of ``BENCH_service.json`` — and
``--check`` replays the wave to assert exactly that, plus nonzero
retried/degraded counts and universal termination.

``--faults`` also appends a **worker-death wave** (PR 8): the mix served
by the ``process`` executor while a seeded plan hard-kills workers
mid-job (``worker:crash``) and drops finished results in IPC
(``ipc:result-drop``).  Both kinds are consumed at dispatch/result
receipt — points synchronous with the job's own attempt sequence — so
the kill pattern, recovery counts, and final stats are pure functions of
the seed, *independent of the worker count*; ``--check`` replays the
wave with a different number of workers and asserts the records match
bit-for-bit (timings excluded), that every orphan recovered, and that
the conservation law ``submitted == completed + failed + cancelled``
held through the carnage.

The payload's ``executors`` section compares the ``thread`` and
``process`` backends at the standard bursty load (throughput, p50/p95).

``--check`` turns the invariants into hard assertions (exit 1 on
violation) — CI runs the generator at small scale in that mode to prove
the service terminates every job and actually coalesces under load.

Usage::

    PYTHONPATH=src python benchmarks/run_service_bench.py [-o OUT]
        [--requests N] [--kernels K] [--workers W] [--check]
        [--faults] [--fault-seed S]
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from hostinfo import machine_record
from repro.egraph.runner import RunnerLimits
from repro.experiments.common import pipeline_workload
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.service import (
    FaultPlan,
    FaultRule,
    JobState,
    OptimizationService,
    ServiceOverloadedError,
)
from repro.session import MemoryCache

# Generous wall-clock limit (the node/iteration limits bind first), so the
# produced artifacts are pure functions of (source, config) — which is what
# makes the byte-identity audit meaningful on a noisy machine.
_TIME_LIMIT = 300.0


def _service_config(node_limit: int, iter_limit: int) -> SaturatorConfig:
    """The per-job pipeline config: saturating, with anytime extraction on
    so jobs stream per-iteration extracted-cost snapshots."""

    return SaturatorConfig(
        variant=Variant.CSE_SAT,
        limits=RunnerLimits(node_limit, iter_limit, _TIME_LIMIT),
        anytime_extraction=True,
        plateau_patience=2,
    )


def _kernel_pool(count: int) -> list:
    """Up to *count* distinct kernel sources from the benchmark suites."""

    sources = []
    seen = set()
    for source, _config, name in pipeline_workload():
        if source in seen:
            continue
        seen.add(source)
        sources.append((name, source))
        if len(sources) >= count:
            break
    return sources


def _request_mix(kernels: list, requests: int) -> list:
    """A bursty, duplicate-heavy request order (deterministic).

    Requests for one kernel arrive back to back — the worst case for a
    cache-only service (duplicates are popped while their twin is still
    running) and exactly the case in-flight coalescing collapses.
    """

    mix = []
    for index in range(requests):
        mix.append(kernels[index * len(kernels) // requests])
    return mix


def _percentiles(values: list) -> tuple:
    """(p50, p95) of *values*, interpolated like standard latency tooling."""

    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=20, method="inclusive")
    return cuts[9], cuts[18]


def _drive(mix, config, workers, coalesce, executor="thread", tracer=None):
    """Submit the whole mix, start the workers, drain; return the record."""

    service = OptimizationService(
        config=config, cache=MemoryCache(), workers=workers, coalesce=coalesce,
        executor=executor, tracer=tracer,
    )
    t0 = time.perf_counter()
    handles = [
        service.submit(source, priority=0, name_prefix=name)
        for name, source in mix
    ]
    service.start()
    service.join()
    elapsed = time.perf_counter() - t0

    latencies = [h.latency for h in handles if h.latency is not None]
    p50, p95 = _percentiles(latencies)
    stats = service.stats.snapshot()
    record = {
        "coalesce": coalesce,
        "executor": executor,
        "requests": len(handles),
        "wall_seconds": elapsed,
        "throughput_rps": len(handles) / elapsed if elapsed > 0 else float("inf"),
        "latency_p50_s": p50,
        "latency_p95_s": p95,
        "pipeline_runs": stats["pipeline_runs"],
        "coalesced": stats["coalesced"],
        "coalesce_rate": stats["coalesced"] / max(1, stats["submitted"]),
        "cache_hits": stats["cache_hits"],
        "stats": stats,
    }
    return service, handles, record


def _fault_plan(seed):
    """The chaos wave's injection plan (see the module docstring).

    Every job's first cache probe faults transiently — each admitted job
    retries exactly once and (absent other faults) recovers; seeded
    per-job coins degrade some jobs via a mid-run deadline and kill a few
    permanently at pickup.
    """

    return FaultPlan(
        [
            FaultRule("cache:get", "transient", nth=1),
            FaultRule("progress:publish", "deadline", probability=0.2),
            FaultRule("worker:pickup", "permanent", probability=0.08),
        ],
        seed=seed,
    )


def _drive_faults(mix, config, workers, seed):
    """One deterministic chaos wave; returns its (reproducible) record.

    Coalescing is off and every request carries a unique name prefix, so
    each submission is its own job with its own cache key — which is what
    keys the plan's per-job fault streams and makes the wave's outcome
    independent of worker interleaving.  Submission happens before the
    workers start (single-threaded), so the bounded queue's shed/reject
    decisions are deterministic too.
    """

    plan = _fault_plan(seed)
    service = OptimizationService(
        config=config,
        cache=MemoryCache(),
        workers=workers,
        coalesce=False,
        faults=plan,
        max_queue=max(2, len(mix) // 2),
        overload_policy="shed-oldest-lowest-priority",
        retry_backoff=0.001,
        retry_backoff_cap=0.002,
    )
    handles = []
    rejected_at_submit = 0
    for index, (name, source) in enumerate(mix):
        try:
            handles.append(
                service.submit(
                    source,
                    priority=index % 3,
                    name_prefix=f"{name}-{index:04d}",
                )
            )
        except ServiceOverloadedError:
            rejected_at_submit += 1
    t0 = time.perf_counter()
    service.start()
    service.join()
    elapsed = time.perf_counter() - t0
    service.stop()

    outcomes = [handle.state.value for handle in handles]
    stats = service.stats.snapshot()
    record = {
        "seed": seed,
        "requests": len(mix),
        "admitted": len(handles),
        "rejected_at_submit": rejected_at_submit,
        "outcomes": {state: outcomes.count(state) for state in sorted(set(outcomes))},
        "degraded": stats["degraded"],
        "retried": stats["retried"],
        "recovered": stats["recovered"],
        "shed": stats["shed"],
        "expired": stats["expired"],
        "injected": plan.injected(),
        "all_terminal": all(handle.done() for handle in handles),
        "stats": stats,
    }
    return record, elapsed


def _worker_death_plan(seed):
    """The worker-death wave's plan: only **dispatch/result-synchronous**
    kinds, so the kill pattern is a function of each job's own attempt
    sequence and replays identically under any worker count.

    A seeded per-job coin hard-kills ~1 in 5 attempts after one published
    iteration (``worker:crash``); another drops ~1 in 10 finished results
    on the way back (``ipc:result-drop``).  Both route the orphan through
    the standard retry path.
    """

    return FaultPlan(
        [
            FaultRule("worker:crash", "crash", probability=0.2, after=1),
            FaultRule("ipc:result-drop", "drop", probability=0.1),
        ],
        seed=seed,
    )


def _drive_worker_deaths(mix, config, workers, seed):
    """One deterministic worker-death wave on the ``process`` executor.

    Coalescing off + unique per-request names (as in ``_drive_faults``)
    key the per-job fault streams; the queue is unbounded so every
    request is admitted and the outcome set is exactly the per-job fault
    verdicts.  Returns the (replayable) record and the wall time.
    """

    plan = _worker_death_plan(seed)
    service = OptimizationService(
        config=config,
        cache=MemoryCache(),
        workers=workers,
        coalesce=False,
        faults=plan,
        executor="process",
        retry_backoff=0.001,
        retry_backoff_cap=0.002,
    )
    handles = [
        service.submit(source, priority=index % 3, name_prefix=f"{name}-{index:04d}")
        for index, (name, source) in enumerate(mix)
    ]
    t0 = time.perf_counter()
    service.start()
    service.join()
    elapsed = time.perf_counter() - t0
    service.stop()

    outcomes = [handle.state.value for handle in handles]
    stats = service.stats.snapshot()
    record = {
        "seed": seed,
        "requests": len(mix),
        "outcomes": {state: outcomes.count(state) for state in sorted(set(outcomes))},
        "worker_deaths": stats["worker_deaths"],
        "worker_respawns": stats["worker_respawns"],
        "retried": stats["retried"],
        "recovered": stats["recovered"],
        "injected": plan.injected(),
        "all_terminal": all(handle.done() for handle in handles),
        "conserved": stats["submitted"]
        == stats["completed"] + stats["failed"] + stats["cancelled"],
        "stats": stats,
    }
    return record, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-o", "--output",
        default=os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "BENCH_service.json"),
        help="output JSON path (default: repo-root BENCH_service.json)",
    )
    parser.add_argument("--requests", type=int, default=200,
                        help="requests in the main wave (default 200)")
    parser.add_argument("--kernels", type=int, default=20,
                        help="distinct kernels in the mix (default 20)")
    parser.add_argument("--workers", type=int, default=8,
                        help="service worker threads (default 8)")
    parser.add_argument("--node-limit", type=int, default=1000,
                        help="per-job saturation node limit (default 1000)")
    parser.add_argument("--iter-limit", type=int, default=3,
                        help="per-job saturation iteration limit (default 3)")
    parser.add_argument("--check", action="store_true",
                        help="assert the service invariants (CI smoke mode)")
    parser.add_argument("--faults", action="store_true",
                        help="append the deterministic fault-injection wave "
                             "(the 'faults' section of the output)")
    parser.add_argument("--fault-seed", type=int, default=1234,
                        help="seed of the fault wave's FaultPlan (default 1234)")
    parser.add_argument("--trace",
                        help="trace the main coalescing wave: write the JSONL "
                             "span/event log to FILE plus a Chrome trace-event "
                             "file next to it (observational only)")
    args = parser.parse_args(argv)
    if args.requests < args.kernels or args.kernels < 1:
        parser.error("--requests must be >= --kernels >= 1")

    config = _service_config(args.node_limit, args.iter_limit)
    kernels = _kernel_pool(args.kernels)
    mix = _request_mix(kernels, args.requests)

    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()

    # -- main wave, coalescing on -----------------------------------------
    service, handles, coalesced_record = _drive(
        mix, config, args.workers, coalesce=True, tracer=tracer
    )

    # -- follow-up wave: every kernel again -> plain cache hits ------------
    followup = [service.submit(source, priority=0, name_prefix=name)
                for name, source in kernels]
    service.start()
    service.join()
    followup_hits = sum(1 for h in followup if h.from_cache)
    coalesced_record["followup_cache_hits"] = followup_hits
    coalesced_record["stats"] = service.stats.snapshot()
    service.stop()
    if tracer is not None:
        from repro.obs import write_trace_files

        jsonl_path, chrome_path = write_trace_files(
            tracer.records(), args.trace,
            meta={"mode": "service-bench", "requests": args.requests,
                  "workers": args.workers},
        )
        print(f"trace -> {jsonl_path} (+ {chrome_path})")

    # -- correctness audit -------------------------------------------------
    # (a) each coalesced handle's result is byte-identical to the artifact
    #     of the job it attached to
    identical = True
    by_job = {}
    for handle in handles:
        by_job.setdefault(id(handle._job), []).append(handle)
    for group in by_job.values():
        blobs = {pickle.dumps(h.result().kernels) for h in group}
        if len(blobs) != 1:
            identical = False
    # (b) each job's generated code equals a solo run of (source, config)
    solo_matches = True
    solo_costs = {}
    for name, source in kernels:
        solo = optimize_source(source, config, name)
        solo_costs[name] = [k.extracted_cost for k in solo.kernels]
        served = next(h for h in handles if h.request.name_prefix == name)
        if served.result().code != solo.code:
            solo_matches = False

    # -- baseline: coalescing off ------------------------------------------
    baseline_service, baseline_handles, baseline_record = _drive(
        mix, config, args.workers, coalesce=False
    )
    baseline_service.stop()

    speedup = (
        baseline_record["wall_seconds"] / coalesced_record["wall_seconds"]
        if coalesced_record["wall_seconds"] > 0 else float("inf")
    )

    # -- executor comparison: thread vs supervised processes ---------------
    process_service, process_handles, process_record = _drive(
        mix, config, args.workers, coalesce=True, executor="process"
    )
    process_service.stop()

    def _executor_summary(record):
        return {
            key: record[key]
            for key in ("wall_seconds", "throughput_rps", "latency_p50_s",
                        "latency_p95_s", "pipeline_runs", "coalesced")
        }

    executors = {
        "thread": _executor_summary(coalesced_record),
        "process": _executor_summary(process_record),
    }

    # -- chaos wave: deterministic fault injection -------------------------
    faults_record = None
    faults_replay = None
    deaths_record = None
    deaths_replay = None
    if args.faults:
        faults_record, faults_elapsed = _drive_faults(
            mix, config, args.workers, args.fault_seed
        )
        faults_record["wall_seconds"] = faults_elapsed
        deaths_record, deaths_elapsed = _drive_worker_deaths(
            mix, config, args.workers, args.fault_seed
        )
        deaths_record["workers"] = args.workers
        deaths_record["wall_seconds"] = deaths_elapsed
        if args.check:
            # replay the identical wave: everything but the wall clock must
            # reproduce bit-for-bit (the determinism contract of FaultPlan)
            faults_replay, _ = _drive_faults(
                mix, config, args.workers, args.fault_seed
            )
            # the worker-death wave must replay identically under a
            # *different* worker count: the kill pattern is per-job, not
            # per-worker
            alt_workers = max(1, args.workers // 2)
            if alt_workers == args.workers:
                alt_workers = args.workers + 1
            deaths_replay, _ = _drive_worker_deaths(
                mix, config, alt_workers, args.fault_seed
            )

    payload = {
        "schema": "repro-service-bench/1",
        "python": platform.python_version(),
        **machine_record(),
        "params": {
            "requests": args.requests,
            "kernels": len(kernels),
            "workers": args.workers,
            "node_limit": args.node_limit,
            "iter_limit": args.iter_limit,
        },
        "coalescing": coalesced_record,
        "no_coalescing_baseline": baseline_record,
        "speedup_coalescing": speedup,
        "executors": executors,
        "checks": {
            "all_terminal": all(h.done() for h in handles + followup),
            "coalesced_results_identical": identical,
            "matches_solo_run": solo_matches,
            "process_all_terminal": all(h.done() for h in process_handles),
            "process_matches_thread": [
                h.result().code for h in process_handles
            ] == [h.result().code for h in handles],
        },
    }
    if faults_record is not None:
        payload["faults"] = faults_record
    if deaths_record is not None:
        payload["worker_faults"] = deaths_record

    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    print(
        f"  coalescing : {coalesced_record['throughput_rps']:8.1f} req/s "
        f"(p50 {1e3 * coalesced_record['latency_p50_s']:.0f} ms, "
        f"p95 {1e3 * coalesced_record['latency_p95_s']:.0f} ms, "
        f"{coalesced_record['pipeline_runs']} pipeline runs)"
    )
    print(
        f"  baseline   : {baseline_record['throughput_rps']:8.1f} req/s "
        f"({baseline_record['pipeline_runs']} pipeline runs)"
    )
    print(f"  speedup    : {speedup:8.2f}x   "
          f"coalesce rate {100 * coalesced_record['coalesce_rate']:.0f}%   "
          f"follow-up cache hits {followup_hits}/{len(kernels)}")
    print(
        f"  processes  : {process_record['throughput_rps']:8.1f} req/s "
        f"(p50 {1e3 * process_record['latency_p50_s']:.0f} ms, "
        f"p95 {1e3 * process_record['latency_p95_s']:.0f} ms, "
        f"{process_record['pipeline_runs']} pipeline runs)"
    )
    if faults_record is not None:
        print(
            f"  faults     : {faults_record['admitted']}/{faults_record['requests']} admitted, "
            f"outcomes {faults_record['outcomes']}, "
            f"retried {faults_record['retried']} recovered {faults_record['recovered']} "
            f"degraded {faults_record['degraded']} shed {faults_record['shed']}"
        )
    if deaths_record is not None:
        print(
            f"  deaths     : outcomes {deaths_record['outcomes']}, "
            f"worker deaths {deaths_record['worker_deaths']} "
            f"respawns {deaths_record['worker_respawns']}, "
            f"retried {deaths_record['retried']} recovered {deaths_record['recovered']}"
        )

    if args.check:
        failures = []
        if not payload["checks"]["all_terminal"]:
            failures.append("not every job reached a terminal state")
        if coalesced_record["coalesced"] == 0:
            failures.append("no submissions were coalesced")
        if followup_hits == 0:
            failures.append("follow-up wave produced no cache hits")
        if not identical:
            failures.append("coalesced results were not byte-identical")
        if not solo_matches:
            failures.append("served code deviates from a solo run")
        if coalesced_record["pipeline_runs"] > len(kernels):
            failures.append(
                f"coalescing ran {coalesced_record['pipeline_runs']} pipelines "
                f"for {len(kernels)} distinct kernels"
            )
        if not payload["checks"]["process_all_terminal"]:
            failures.append("process-executor wave left a job non-terminal")
        if not payload["checks"]["process_matches_thread"]:
            failures.append(
                "process-executor artifacts deviate from the thread wave"
            )
        if faults_record is not None:
            if not faults_record["all_terminal"]:
                failures.append("fault wave left a job non-terminal")
            if faults_record["retried"] == 0:
                failures.append("fault wave injected no transient retries")
            if faults_record["recovered"] == 0:
                failures.append("fault wave produced no retry recoveries")
            if faults_record["degraded"] == 0:
                failures.append("fault wave produced no degraded results")
            replay = dict(faults_replay)
            wave = {k: v for k, v in faults_record.items() if k != "wall_seconds"}
            if replay != wave:
                failures.append(
                    "fault wave is not deterministic: replay deviates "
                    f"(fresh={wave!r} replay={replay!r})"
                )
        if deaths_record is not None:
            if not deaths_record["all_terminal"]:
                failures.append("worker-death wave left a job non-terminal")
            if not deaths_record["conserved"]:
                failures.append(
                    "worker-death wave broke the conservation law "
                    f"(stats={deaths_record['stats']!r})"
                )
            if deaths_record["worker_deaths"] == 0:
                failures.append("worker-death wave killed no workers")
            if deaths_record["recovered"] == 0:
                failures.append("worker-death wave produced no recoveries")
            replay = {
                k: v for k, v in (deaths_replay or {}).items()
                if k not in ("wall_seconds", "workers")
            }
            wave = {
                k: v for k, v in deaths_record.items()
                if k not in ("wall_seconds", "workers")
            }
            if replay != wave:
                failures.append(
                    "worker-death wave is worker-count dependent: replay "
                    f"under a different pool size deviates "
                    f"(fresh={wave!r} replay={replay!r})"
                )
        if failures:
            print("service bench check FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print("service bench checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
