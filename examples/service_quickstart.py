#!/usr/bin/env python3
"""Quickstart for the concurrent optimization service (PR 5).

Shows the three ways to consume a submitted job:

1. **submit + block** — ``handle.result()`` like a ``Future``,
2. **poll** — inspect ``handle.state`` / ``handle.progress()`` while the
   job runs,
3. **stream** — iterate ``handle.stream()`` for per-iteration saturation
   snapshots (``extracted_cost`` populated because the service config
   enables anytime extraction).

It also demonstrates the two mechanisms that make the service cheap under
duplicate-heavy traffic: in-flight **coalescing** (identical concurrent
submissions share one pipeline run) and the **artifact cache** (identical
later submissions skip the pipeline entirely), plus the fault-tolerance
layer (PR 6): per-job **deadlines** with graceful degradation — a job
whose deadline trips mid-saturation finishes extraction and codegen at
that iteration boundary and resolves with a ``degraded=True`` artifact
instead of failing.

Section 5 switches to the **supervised process workers** (PR 8,
``executor="process"``): each job runs in a worker process, and a worker
that dies mid-job is detected, its orphaned job retried on a respawned
worker — here demonstrated with a deterministically injected
``worker:crash`` fault.  The same backend is available on the CLI as
``accsat serve --executor process``.

Usage::

    PYTHONPATH=src python examples/service_quickstart.py
"""

from repro.egraph.runner import RunnerLimits
from repro.saturator import SaturatorConfig, Variant
from repro.service import (
    FaultPlan,
    FaultRule,
    JobDeadlineError,
    OptimizationRequest,
    OptimizationService,
)

KERNEL = """
#pragma acc parallel loop gang
for (int i = 0; i < n; i++) {
#pragma acc loop vector
  for (int j = 0; j < m; j++) {
    out[i][j] = w0 * in[i][j] + w1 * (in[i][j-1] + in[i][j+1])
              + w0 * in[i][j] * w1;
  }
}
"""

OTHER = """
#pragma acc parallel loop
for (int i = 0; i < n; i++) {
  y[i] = (a[i] + b[i]) * (a[i] + b[i]) + c[i] / a[i];
}
"""

#: Anytime extraction on -> jobs publish an extracted cost per iteration.
CONFIG = SaturatorConfig(
    variant=Variant.ACCSAT,
    limits=RunnerLimits(node_limit=2000, iter_limit=6, time_limit=60.0),
    anytime_extraction=True,
    plateau_patience=2,
)


def main() -> None:
    with OptimizationService(config=CONFIG, workers=4) as service:
        # -- 1. submit + block --------------------------------------------
        handle = service.submit(KERNEL)
        result = handle.result(timeout=120)
        print(f"blocking submit: {len(result.kernels)} kernel(s), "
              f"extracted cost {result.kernels[0].extracted_cost:.1f}")

        # -- 2. burst of duplicates: coalescing + cache -------------------
        burst = [
            service.submit(OptimizationRequest(OTHER, priority=index % 2))
            for index in range(5)
        ]
        for index, h in enumerate(burst):
            h.result(timeout=120)
            print(f"burst[{index}]: coalesced={h.coalesced} "
                  f"from_cache={h.from_cache}")
        repeat = service.submit(OTHER)  # everything in flight finished
        repeat.result(timeout=120)
        print(f"repeat submission: from_cache={repeat.from_cache}")

        # -- 3. stream progress of a fresh job ----------------------------
        fresh = KERNEL.replace("w0", "k0").replace("w1", "k1")
        streaming = service.submit(fresh)
        print("streaming saturation progress:")
        for event in streaming.stream(timeout=120):
            cost = "-" if event.extracted_cost is None else f"{event.extracted_cost:.1f}"
            print(f"  iter {event.iteration}: {event.egraph_nodes} e-nodes, "
                  f"best extracted cost {cost}")
        print(f"streamed job state: {streaming.state.value}")

        # -- service accounting -------------------------------------------
        print("service stats:", service.stats.snapshot())

    # -- 4. deadlines: queued expiry and graceful degradation -------------
    # a deadline already in the past fails the job *typed* at pickup ...
    with OptimizationService(config=CONFIG, workers=2) as service:
        late = service.submit(KERNEL, deadline=-1.0)
        try:
            late.result(timeout=120)
        except JobDeadlineError as error:
            print(f"expired in queue: {error}")

    # ... while a deadline tripping mid-saturation degrades gracefully.
    # (Injected deterministically here — FaultRule("progress:publish",
    # "deadline") expires the job's token at the first iteration boundary
    # — so the example never depends on wall-clock timing; a real
    # deployment passes deadline=<seconds> and lets the clock do this.)
    plan = FaultPlan([FaultRule("progress:publish", "deadline", nth=1)])
    with OptimizationService(config=CONFIG, workers=2, faults=plan) as service:
        tight = service.submit(KERNEL, deadline=600.0)
        result = tight.result(timeout=120)
        print(f"deadline mid-run: degraded={result.degraded}, "
              f"stopped after {len(result.kernels[0].runner.iterations)} "
              f"iteration(s) with extracted cost "
              f"{result.kernels[0].extracted_cost:.1f}")
        print("degraded results are never cached: "
              f"stores={service.session.cache.stats.stores}")

    # -- 5. process workers: surviving worker death ------------------------
    # executor="process" runs each attempt in a supervised worker process.
    # The injected crash hard-exits the worker after it published one
    # iteration; the supervisor detects the death, requeues the orphaned
    # job through the retry path, respawns the pool, and the retry serves
    # the same artifact an undisturbed run would have.
    plan = FaultPlan([FaultRule("worker:crash", "crash", nth=1, after=1)])
    with OptimizationService(
        config=CONFIG, workers=2, executor="process", faults=plan
    ) as service:
        survivor = service.submit(KERNEL)
        result = survivor.result(timeout=120)
        stats = service.stats.snapshot()
        print(f"worker crashed mid-job: deaths={stats['worker_deaths']} "
              f"respawns={stats['worker_respawns']} "
              f"retried={stats['retried']} recovered={stats['recovered']}")
        print(f"recovered result: {len(result.kernels)} kernel(s), "
              f"extracted cost {result.kernels[0].extracted_cost:.1f}, "
              f"degraded={result.degraded}")

    # -- 6. telemetry: trace a wave and summarize it -----------------------
    # Pass a Tracer to the service and every job becomes a span tree:
    # job -> attempt(s) -> kernel -> stage:* -> iteration, with cache
    # probes, retries and injected faults as events.  Tracing is strictly
    # observational — the artifacts are byte-identical to an untraced run
    # — and service.metrics.snapshot() is the one deterministic document
    # unifying service stats, cache counters, fault-injection counts,
    # phase-time histograms and per-rule counters (what
    # `accsat serve --report` emits).
    from repro.obs import Tracer, render_summary

    tracer = Tracer()
    plan = FaultPlan([FaultRule("cache:get", "transient", nth=1)])
    with OptimizationService(
        config=CONFIG, workers=2, faults=plan, tracer=tracer,
        retry_backoff=0.01, retry_backoff_cap=0.02,
    ) as service:
        service.submit(KERNEL).result(timeout=120)
        snapshot = service.metrics.snapshot()
    print("trace summary:")
    print(render_summary(tracer.records()))
    print(f"metrics sections: {sorted(snapshot)}")
    print(f"phase histograms: {sorted(snapshot['histograms'])}")
    # (`accsat --trace FILE` / `accsat serve --trace FILE` write this
    # record stream as JSONL plus a chrome://tracing-loadable file.)


if __name__ == "__main__":
    main()
