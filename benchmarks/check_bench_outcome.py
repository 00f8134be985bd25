#!/usr/bin/env python
"""Guard saturation outcomes against silent drift.

Compares the outcome records of a freshly produced ``BENCH_engine.json``
against the committed one.  Timings are machine-dependent and never
compared; the outcome records (stop reason, e-node and e-class counts,
and — for the PR-4 scheduling cases — iteration counts, extracted costs
and the per-iteration trajectories) are pure functions of (source,
config) — the determinism contract of ``tests/egraph/test_determinism.py``
— so any deviation means a change to the engine altered saturation
results, which must be an explicit, committed decision rather than a
side effect.  The two files must also carry the same set of top-level
keys, and every section both carry as an object the same set of keys one
level down, so a section or an entry ``run_engine_bench.py`` stopped (or
started) emitting cannot sit in the committed file unnoticed.

``pipeline_outcome`` and ``saturation_large_outcome`` are produced under
the **default** configuration (``SimpleScheduler``, anytime extraction
off): their match is the CI assertion that the default scheduler still
reproduces the committed outcomes exactly.  ``saturation_backoff_outcome``
and ``pipeline_anytime_outcome`` guard the backoff and anytime paths the
same way.

``--service`` switches to guarding ``BENCH_service.json`` instead: the
fresh run's correctness checks must all pass, the committed file's must
too (a regeneration that failed its own checks cannot slip in), the
no-fault outcome invariants must hold (one pipeline run per distinct
kernel, a follow-up cache hit per kernel), and — when the fresh and
committed runs share the same parameters — the default (no-fault)
outcome figures and the deterministic ``faults``- and
``worker_faults``-wave records must match the committed ones exactly
(timings and the worker count excluded: the worker-death wave's record
is worker-count independent by construction).

Usage::

    python benchmarks/check_bench_outcome.py FRESH.json [COMMITTED.json]
    python benchmarks/check_bench_outcome.py --service FRESH.json [COMMITTED.json]

Exits non-zero (listing every mismatch) when the outcomes deviate.
"""

from __future__ import annotations

import json
import os
import sys

_OUTCOME_KEYS = (
    # default configuration — SimpleScheduler, anytime off
    "pipeline_outcome",
    "saturation_large_outcome",
    # adaptive scheduling (PR 4)
    "saturation_backoff_outcome",
    "pipeline_anytime_outcome",
    # steady-state confirmation sweep (PR 9): a re-sweep of the saturated
    # micro e-graph (2 713 e-nodes / 139 classes); its outcome is a pure
    # function of (source, config) like every record above
    "saturation_steady_outcome",
)


#: Timing-free keys of the service bench's ``faults`` record — a pure
#: function of (request mix, seed), so fresh must equal committed when the
#: parameters match.
_FAULT_WAVE_KEYS = (
    "seed",
    "requests",
    "admitted",
    "rejected_at_submit",
    "outcomes",
    "degraded",
    "retried",
    "recovered",
    "shed",
    "expired",
    "injected",
    "all_terminal",
    "stats",
)

#: Timing- and worker-count-free keys of the ``worker_faults`` (worker
#: death) record — deterministic per seed under any pool size.
_DEATH_WAVE_KEYS = (
    "seed",
    "requests",
    "outcomes",
    "worker_deaths",
    "worker_respawns",
    "retried",
    "recovered",
    "injected",
    "all_terminal",
    "conserved",
    "stats",
)


def _check_service(fresh, committed, committed_path) -> list:
    """Failures of the service-bench outcome guard (see the docstring)."""

    failures = []
    for label, payload in (("fresh", fresh), ("committed", committed)):
        checks = payload.get("checks", {})
        for name in ("all_terminal", "coalesced_results_identical",
                     "matches_solo_run"):
            if checks.get(name) is not True:
                failures.append(f"{label} checks.{name} is not true")
    coalescing = fresh.get("coalescing", {})
    kernels = fresh.get("params", {}).get("kernels")
    if coalescing.get("pipeline_runs") != kernels:
        failures.append(
            f"coalescing.pipeline_runs={coalescing.get('pipeline_runs')!r} "
            f"!= params.kernels={kernels!r} (one cold run per distinct kernel)"
        )
    if coalescing.get("followup_cache_hits") != kernels:
        failures.append(
            f"coalescing.followup_cache_hits={coalescing.get('followup_cache_hits')!r} "
            f"!= params.kernels={kernels!r}"
        )

    if fresh.get("params") == committed.get("params"):
        # identical workload: the deterministic figures must reproduce
        for key in ("pipeline_runs", "coalesced", "followup_cache_hits"):
            expected = committed.get("coalescing", {}).get(key)
            actual = coalescing.get(key)
            if actual != expected:
                failures.append(
                    f"coalescing.{key}: fresh={actual!r} != committed={expected!r}"
                )
        if "faults" in fresh and "faults" in committed:
            for key in _FAULT_WAVE_KEYS:
                expected = committed["faults"].get(key)
                actual = fresh["faults"].get(key)
                if actual != expected:
                    failures.append(
                        f"faults.{key}: fresh={actual!r} != committed={expected!r}"
                    )
        if "worker_faults" in fresh and "worker_faults" in committed:
            for key in _DEATH_WAVE_KEYS:
                expected = committed["worker_faults"].get(key)
                actual = fresh["worker_faults"].get(key)
                if actual != expected:
                    failures.append(
                        f"worker_faults.{key}: fresh={actual!r} "
                        f"!= committed={expected!r}"
                    )
    elif "faults" in committed:
        # different scale: still guard that the committed wave terminated
        # and actually exercised the retry/degradation paths
        wave = committed["faults"]
        if wave.get("all_terminal") is not True:
            failures.append(f"committed faults wave in {committed_path} is not all-terminal")
        if not wave.get("retried") or not wave.get("degraded"):
            failures.append(
                f"committed faults wave in {committed_path} has zero "
                "retried/degraded counts"
            )
        deaths = committed.get("worker_faults")
        if deaths is not None:
            if deaths.get("all_terminal") is not True or deaths.get("conserved") is not True:
                failures.append(
                    f"committed worker-death wave in {committed_path} is not "
                    "all-terminal/conserved"
                )
            if not deaths.get("worker_deaths") or not deaths.get("recovered"):
                failures.append(
                    f"committed worker-death wave in {committed_path} has zero "
                    "worker_deaths/recovered counts"
                )
    return failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    service_mode = "--service" in argv
    argv = [item for item in argv if item != "--service"]
    if not argv or len(argv) > 2:
        print(__doc__)
        return 2
    fresh_path = argv[0]
    committed_path = (
        argv[1]
        if len(argv) == 2
        else os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_service.json" if service_mode else "BENCH_engine.json",
        )
    )
    with open(fresh_path) as fh:
        fresh = json.load(fh)
    with open(committed_path) as fh:
        committed = json.load(fh)

    if service_mode:
        failures = _check_service(fresh, committed, committed_path)
        if failures:
            print("service outcome drift detected:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"service outcomes consistent with the committed {committed_path}")
        return 0

    failures = []
    for key in _OUTCOME_KEYS:
        expected = committed.get(key)
        actual = fresh.get(key)
        if expected is None:
            failures.append(f"{key}: missing from committed {committed_path}")
        elif actual != expected:
            failures.append(f"{key}: fresh={actual!r} != committed={expected!r}")

    # a static section or entry must not outlive its generator, nor a new
    # one go uncommitted: both files carry the same top-level keys, and
    # the same keys inside every section that is an object in both
    for key in sorted(set(committed) ^ set(fresh)):
        failures.append(
            f"{key}: top-level key only in the "
            + (f"committed {committed_path}" if key in committed
               else f"fresh {fresh_path}")
        )
    for section in sorted(set(committed) & set(fresh)):
        old, new = committed[section], fresh[section]
        if not (isinstance(old, dict) and isinstance(new, dict)):
            continue
        for key in sorted(set(old) ^ set(new)):
            failures.append(
                f"{section}.{key}: key only in the "
                + (f"committed {committed_path}" if key in old
                   else f"fresh {fresh_path}")
            )

    # the observational-telemetry contract (PR 10): the *traced* runs'
    # outcome records must equal the committed *untraced* ones — a tracer
    # may cost wall clock but can never change what the engine computes
    overhead = fresh.get("telemetry_overhead")
    if overhead is not None:
        for traced_key, untraced_key in (
            ("traced_outcome", "saturation_outcome"),
            ("traced_pipeline_outcome", "pipeline_outcome"),
        ):
            expected = committed.get(untraced_key)
            actual = overhead.get(traced_key)
            if expected is None:
                failures.append(
                    f"{untraced_key}: missing from committed {committed_path}"
                )
            elif actual != expected:
                failures.append(
                    f"telemetry_overhead.{traced_key}: traced={actual!r} "
                    f"!= committed untraced {untraced_key}={expected!r}"
                )

    if failures:
        print("saturation outcome drift detected:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    outcomes = {key: fresh[key] for key in _OUTCOME_KEYS}
    print(f"outcomes match the committed BENCH_engine.json: {outcomes}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
