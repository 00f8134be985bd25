#!/usr/bin/env python
"""Engine performance trajectory: write BENCH_engine.json.

Measures the median wall-clock time of the four pipeline stages the
throughput benchmarks track (parse+SSA, saturation, extraction, and the
full ACC-Saturator pipeline on the LU jacld kernel), the full pipeline on
the largest NPB kernel (BT's jacobian assembly — ``saturation_large``),
plus the rule-search micro-benchmark, and writes them to
``BENCH_engine.json`` at the repo root.  Future PRs re-run this script and
compare against the committed figures, so perf regressions in the
reproduction's own hot paths are attributable — the per-rule breakdown
from the saturation profiler and the search/apply/rebuild/extract
``phase_times`` split are included for exactly that purpose.  CI reruns
the script in quick mode and fails if ``pipeline_outcome`` /
``saturation_large_outcome`` deviate from the committed values, so
representation changes cannot silently alter saturation results.

One repeated-workload row exercises the session architecture the
service and the CLI run on: ``pipeline_variants_cached`` sweeps all four
generated-code variants through a session with an artifact cache (vs
``pipeline_variants_cold`` without one).  The cache hit/miss counters
behind that row are recorded under ``"cache"``.

The ``matching`` section times the relational (hash-join) e-matcher:
every rule of the default ruleset plus a few deeper synthetic patterns is
searched over the saturated micro e-graph, full and incremental
(``since`` quantiles), recording per-pattern and per-atom-count medians
next to the deterministic match-row counts.

Two scheduling rows (PR 4) exercise the adaptive saturation loop:
``saturation_backoff`` re-runs the saturation micro-workload under the
egg-style exponential-backoff rule scheduler, and ``pipeline_anytime``
runs the BT-jacobian pipeline with in-loop anytime extraction and
plateau-based early stopping.  Both record deterministic outcome records
(guarded by CI next to the default-scheduler outcomes, which must stay
byte-identical to the committed figures) plus per-iteration
node/class/cost trajectories under ``"scheduling"``.

Usage::

    PYTHONPATH=src python benchmarks/run_engine_bench.py [-o OUT] [-n REPEATS]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from hostinfo import machine_record
from repro.benchsuite.npb.bt import BT_JACOBIAN_SOURCE
from repro.benchsuite.npb.lu import LU_JACLD_SOURCE
from repro.cost import DEFAULT_COST_MODEL
from repro.egraph import (
    AnytimeExtraction,
    EGraph,
    Runner,
    RunnerLimits,
    extract_best,
)
from repro.egraph import columns
from repro.egraph.language import op, sym
from repro.frontend import parse_statement
from repro.frontend.normalize import normalize_blocks
from repro.rules import constant_folding_analysis, default_ruleset
from repro.saturator import SaturatorConfig, Variant, find_parallel_kernels, optimize_source
from repro.session import MemoryCache, OptimizationSession
from repro.ssa import build_ssa


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _bench_term():
    term = sym("x0")
    for i in range(1, 7):
        term = op("+", term, op("*", sym(f"a{i}"), sym(f"b{i}")))
    return term


# Generous time limits everywhere: the node/iteration limits stop these
# runs in well under a second, so the wall-clock budget is never the
# binding constraint — which keeps the recorded outcomes (stop reason,
# node/class counts) pure functions of (source, config) even on a stalled
# shared CI runner.  CI's outcome guard relies on that.
_TIME_LIMIT = 300.0


def _saturated_egraph():
    eg = EGraph(constant_folding_analysis())
    root = eg.add_term(_bench_term())
    report = Runner(eg, default_ruleset(), RunnerLimits(2000, 5, _TIME_LIMIT)).run()
    return eg, root, report


#: Backoff parameters of the ``saturation_backoff`` row: small enough that
#: bans actually trigger on the micro workload, so the row exercises the
#: skip/drop machinery rather than degenerating into the simple policy.
_BACKOFF_SPEC = "backoff:200:2"


def _backoff_egraph(anytime=False):
    eg = EGraph(constant_folding_analysis())
    root = eg.add_term(_bench_term())
    hook = None
    if anytime:
        # patience is effectively infinite: the hook only records the cost
        # trajectory, it never changes where this run stops
        hook = AnytimeExtraction(
            roots=[root], cost_model=DEFAULT_COST_MODEL, interval=1, patience=10**6
        )
    report = Runner(
        eg, default_ruleset(), RunnerLimits(2000, 5, _TIME_LIMIT),
        scheduler=_BACKOFF_SPEC, anytime=hook,
    ).run()
    return eg, root, report


def _trajectory(report):
    """Deterministic per-iteration rows (no wall-clock fields)."""

    return [
        {
            "iteration": it.index,
            "applied": it.applied,
            "egraph_nodes": it.egraph_nodes,
            "egraph_classes": it.egraph_classes,
            "extracted_cost": it.extracted_cost,
        }
        for it in report.iterations
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-o", "--output",
        default=os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "BENCH_engine.json"),
        help="output JSON path (default: repo-root BENCH_engine.json)",
    )
    parser.add_argument("-n", "--repeats", type=int, default=7,
                        help="timed repetitions per stage (median is kept)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    # warm every cache (pattern compilation, pyc, allocator) before timing
    config = SaturatorConfig(
        variant=Variant.ACCSAT, limits=RunnerLimits(2000, 4, _TIME_LIMIT)
    )
    optimize_source(LU_JACLD_SOURCE, config)

    def parse_and_ssa():
        root = parse_statement(LU_JACLD_SOURCE)
        normalize_blocks(root)
        kernel = find_parallel_kernels(root)[0]
        return build_ssa(kernel.body)

    def saturation():
        return _saturated_egraph()

    eg, root, sat_report = _saturated_egraph()

    def extraction():
        return extract_best(eg, [root], DEFAULT_COST_MODEL, "dag-greedy")

    rules = default_ruleset()

    def rule_search():
        return sum(len(rule.search_rows(eg)) for rule in rules)

    def full_pipeline():
        return optimize_source(LU_JACLD_SOURCE, config)

    # the largest NPB kernel (BT's z-direction jacobian assembly, 13
    # statements over 5x5 block matrices): a realistic saturation-dominated
    # workload for the arena representation, not just the micro kernel.
    # NOTE: like full_pipeline, this row times the WHOLE pipeline
    # (parse+SSA+saturate+extract+codegen) on that kernel — see
    # phase_times_large for the per-phase split of its saturation/extract
    # shares; don't compare it against the Runner-only `saturation` row.
    large_config = SaturatorConfig(
        variant=Variant.CSE_SAT, limits=RunnerLimits(2000, 4, _TIME_LIMIT)
    )
    optimize_source(BT_JACOBIAN_SOURCE, large_config)  # warm

    def saturation_large():
        return optimize_source(BT_JACOBIAN_SOURCE, large_config)

    # -- steady-state saturation (PR 9) ------------------------------------
    # a re-sweep row: run the micro e-graph two more iterations (outside
    # timing) to within six unions of its fixpoint, then time confirmation
    # sweeps on copies.  A sweep is two iterations over ~34 000 match rows
    # of which 6 union anything: a full search and apply, then a delta
    # search and apply that change nothing, and the run stops saturated at
    # 2 713 e-nodes / 139 classes — far below the 30 000 node limit, which
    # never binds.  The copy is inside the timed region; the row is only
    # compared against itself across commits.
    steady_eg = _saturated_egraph()[0]
    steady_limits = RunnerLimits(30000, 2, _TIME_LIMIT)
    Runner(steady_eg, default_ruleset(), steady_limits).run()

    def saturation_steady():
        return Runner(steady_eg.copy(), default_ruleset(), steady_limits).run()

    steady_report = saturation_steady()

    # -- adaptive scheduling rows (PR 4) -----------------------------------

    def saturation_backoff():
        return _backoff_egraph()

    # anytime extraction with plateau patience 1 on the BT-jacobian
    # pipeline: stop saturating as soon as one in-loop extraction fails to
    # improve on the best cost so far
    anytime_config = SaturatorConfig(
        variant=Variant.CSE_SAT, limits=RunnerLimits(2000, 4, _TIME_LIMIT),
        anytime_extraction=True, plateau_patience=1,
    )
    optimize_source(BT_JACOBIAN_SOURCE, anytime_config)  # warm

    def pipeline_anytime():
        return optimize_source(BT_JACOBIAN_SOURCE, anytime_config)

    # -- repeated-workload row (the session architecture's home turf) ------

    # the four configs are built (and fingerprinted, on first use) once,
    # so the cached row times the cache hits, not config construction
    variant_configs = [
        config.with_variant(v)
        for v in (Variant.CSE, Variant.CSE_SAT, Variant.CSE_BULK, Variant.ACCSAT)
    ]

    def pipeline_variants_cold():
        return [optimize_source(LU_JACLD_SOURCE, c) for c in variant_configs]

    cached_session = OptimizationSession(cache=MemoryCache())
    for c in variant_configs:  # warm the artifact cache
        cached_session.run(LU_JACLD_SOURCE, c)

    def pipeline_variants_cached():
        return [cached_session.run(LU_JACLD_SOURCE, c) for c in variant_configs]

    # -- relational e-matching micro-benchmark ------------------------------
    # per rule, on the saturated micro e-graph, grouped by atom count so
    # the join's fixed costs (relation slicing, key encoding) are visible
    # separately from its multi-atom work
    from repro.egraph.pattern import compile_pattern, parse_pattern

    def _matching_row(cp, since=None):
        return {
            "atoms": len(cp._atoms),
            "rows": len(cp.search_rows(eg, since=since)),
            "join_seconds": _median_time(
                lambda: cp.search_rows(eg, since=since), args.repeats
            ),
        }

    matching_rules = [
        {"rule": rule.name, "vars": len(rule._compiled.vars),
         **_matching_row(rule._compiled)}
        for rule in rules
    ]
    # the default ruleset tops out at two atoms per pattern, so a few
    # synthetic deeper patterns fill in the higher-arity rows (join plans
    # with 3-4 relations, where inter-relation selectivity compounds)
    synthetic = [
        (text, compile_pattern(parse_pattern(text)))
        for text in (
            "(+ ?a (* ?b ?c))",
            "(+ (* ?a ?b) (* ?b ?c))",
            "(* (+ ?a (* ?b ?c)) ?d)",
            "(+ (* ?a (+ ?b ?c)) (* ?d ?e))",
        )
    ]
    matching_synthetic = [
        {"pattern": text, "vars": len(cp.vars), **_matching_row(cp)}
        for text, cp in synthetic
    ]
    # -- semi-naive delta joins ---------------------------------------------
    # the same engine on *incremental* searches: `since` quantiles of the
    # live rows' change stamps sweep the delta fraction from "everything
    # changed" down to "a thin recent slice", which is where the
    # semi-naive joins pay
    matching_delta = []
    eg._sync_row_touch()
    alive = columns.as_uint8(eg.store.alive) != 0
    touched_live = sorted(columns.as_int64(eg.store.touch)[alive].tolist())
    delta_cases = [
        ("rule:" + rule.name, rule._compiled) for rule in rules[:4]
    ] + synthetic
    n_live = len(touched_live)
    for quantile in (0.0, 0.5, 0.9):
        idx = min(n_live - 1, int(quantile * n_live))
        since = -1 if quantile == 0.0 else touched_live[idx]
        stale = sum(1 for t in touched_live if t > since)
        for label, cp in delta_cases:
            matching_delta.append({
                "pattern": label,
                "since_quantile": quantile,
                "delta_fraction_rows": stale / n_live if n_live else 0.0,
                **_matching_row(cp, since),
            })
    matching_by_atoms = {}
    for row in matching_rules + matching_synthetic:
        matching_by_atoms.setdefault(row["atoms"], []).append(row)
    matching = {
        "rules": matching_rules,
        "synthetic": matching_synthetic,
        "delta": matching_delta,
        "by_atom_count": {
            str(atoms): {
                "rules": len(rows),
                "join_seconds": statistics.median(r["join_seconds"] for r in rows),
            }
            for atoms, rows in sorted(matching_by_atoms.items())
        },
    }

    # -- telemetry overhead A/B (PR 10) ------------------------------------
    # traced vs untraced, interleaved rep-by-rep in one process so drift
    # (thermal, allocator state) hits both arms equally.  The traced arm
    # attaches a live Tracer to the identical workload; the outcome
    # records of the traced runs are kept so CI can assert tracing never
    # changes results — the observational contract, measured.
    from repro.obs import Tracer

    def saturation_traced():
        eg_t = EGraph(constant_folding_analysis())
        root_t = eg_t.add_term(_bench_term())
        tracer = Tracer()
        span = tracer.span("bench:saturation")
        report = Runner(
            eg_t, default_ruleset(), RunnerLimits(2000, 5, _TIME_LIMIT),
            tracer=tracer, trace_parent=span.span_id,
        ).run()
        span.end()
        return report

    def pipeline_traced():
        tracer = Tracer()
        span = tracer.span("bench:pipeline")
        result = optimize_source(
            LU_JACLD_SOURCE, config,
            tracer=tracer, trace_parent=span.span_id,
        )
        span.end()
        return result

    def _interleaved_ab(untraced, traced, repeats):
        untraced_times, traced_times = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            untraced()
            untraced_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            traced()
            traced_times.append(time.perf_counter() - t0)
        return statistics.median(untraced_times), statistics.median(traced_times)

    saturation_traced()  # warm the obs module alongside everything else
    sat_ab = _interleaved_ab(saturation, saturation_traced, args.repeats)
    pipe_ab = _interleaved_ab(full_pipeline, pipeline_traced, args.repeats)
    traced_sat_report = saturation_traced()
    traced_pipe_kernel = pipeline_traced().kernels[0]

    results = {
        "parse_ssa": _median_time(parse_and_ssa, args.repeats),
        "saturation": _median_time(saturation, args.repeats),
        "saturation_steady": _median_time(saturation_steady, args.repeats),
        "saturation_backoff": _median_time(saturation_backoff, args.repeats),
        "saturation_large": _median_time(saturation_large, args.repeats),
        "rule_search": _median_time(rule_search, args.repeats),
        "extraction": _median_time(extraction, args.repeats),
        "full_pipeline": _median_time(full_pipeline, args.repeats),
        "pipeline_anytime": _median_time(pipeline_anytime, args.repeats),
        "pipeline_variants_cold": _median_time(pipeline_variants_cold, args.repeats),
        "pipeline_variants_cached": _median_time(pipeline_variants_cached, args.repeats),
    }

    pipeline_result = optimize_source(LU_JACLD_SOURCE, config)
    kernel_report = pipeline_result.kernels[0]
    large_result = optimize_source(BT_JACOBIAN_SOURCE, large_config)
    large_report = large_result.kernels[0]

    # scheduling outcome records + trajectories: one instrumented backoff
    # run (the cost-recording hook never changes where the run stops) and
    # one anytime pipeline run
    _, _, backoff_report = _backoff_egraph(anytime=True)
    anytime_result = optimize_source(BT_JACOBIAN_SOURCE, anytime_config)
    anytime_report = anytime_result.kernels[0]

    payload = {
        "schema": "repro-engine-bench/1",
        "repeats": args.repeats,
        "python": platform.python_version(),
        **machine_record(),
        "median_seconds": results,
        "saturation_outcome": {
            "stop_reason": sat_report.stop_reason.value,
            "egraph_nodes": sat_report.egraph_nodes,
            "egraph_classes": sat_report.egraph_classes,
        },
        "pipeline_outcome": {
            "stop_reason": kernel_report.runner.stop_reason.value,
            "egraph_nodes": kernel_report.egraph_nodes,
            "egraph_classes": kernel_report.egraph_classes,
        },
        "saturation_large_outcome": {
            "stop_reason": large_report.runner.stop_reason.value,
            "egraph_nodes": large_report.egraph_nodes,
            "egraph_classes": large_report.egraph_classes,
        },
        "saturation_steady_outcome": {
            "stop_reason": steady_report.stop_reason.value,
            "egraph_nodes": steady_report.egraph_nodes,
            "egraph_classes": steady_report.egraph_classes,
            "iterations": steady_report.num_iterations,
        },
        # adaptive-scheduling outcomes: pure functions of (source, config)
        # like the records above (the trajectories carry no wall-clock
        # fields), so CI guards them against silent drift too
        "saturation_backoff_outcome": {
            "scheduler": _BACKOFF_SPEC,
            "stop_reason": backoff_report.stop_reason.value,
            "egraph_nodes": backoff_report.egraph_nodes,
            "egraph_classes": backoff_report.egraph_classes,
            "iterations": backoff_report.num_iterations,
            "extracted_cost": backoff_report.extracted_cost,
            "trajectory": _trajectory(backoff_report),
        },
        "pipeline_anytime_outcome": {
            "stop_reason": anytime_report.runner.stop_reason.value,
            "egraph_nodes": anytime_report.egraph_nodes,
            "egraph_classes": anytime_report.egraph_classes,
            "iterations": anytime_report.runner.num_iterations,
            "extracted_cost": anytime_report.extracted_cost,
            "trajectory": _trajectory(anytime_report.runner),
        },
        # where the benchmark kernel's saturation wall-clock goes —
        # search / apply / rebuild / extract — so future perf PRs can see
        # the phase split without re-profiling
        # relational e-matcher timings (nothing here feeds the outcome guard)
        "matching": matching,
        # the observational contract, measured: interleaved traced vs
        # untraced medians of the saturation and pipeline workloads, and
        # the traced runs' outcome records — CI asserts the latter equal
        # the committed *untraced* outcomes, so a tracer can never change
        # what the engine computes
        "telemetry_overhead": {
            "method": "interleaved A/B in-process medians",
            "repeats": args.repeats,
            "saturation_untraced_seconds": sat_ab[0],
            "saturation_traced_seconds": sat_ab[1],
            "overhead_saturation": (
                sat_ab[1] / sat_ab[0] if sat_ab[0] > 0 else float("inf")
            ),
            "pipeline_untraced_seconds": pipe_ab[0],
            "pipeline_traced_seconds": pipe_ab[1],
            "overhead_pipeline": (
                pipe_ab[1] / pipe_ab[0] if pipe_ab[0] > 0 else float("inf")
            ),
            "traced_outcome": {
                "stop_reason": traced_sat_report.stop_reason.value,
                "egraph_nodes": traced_sat_report.egraph_nodes,
                "egraph_classes": traced_sat_report.egraph_classes,
            },
            "traced_pipeline_outcome": {
                "stop_reason": traced_pipe_kernel.runner.stop_reason.value,
                "egraph_nodes": traced_pipe_kernel.egraph_nodes,
                "egraph_classes": traced_pipe_kernel.egraph_classes,
            },
        },
        "phase_times": kernel_report.runner.phase_times,
        "phase_times_large": large_report.runner.phase_times,
        # per-rule saturation profile of the benchmark kernel, so future
        # regressions can be pinned on a specific rule
        "rule_stats": {
            name: stats.as_dict()
            for name, stats in kernel_report.runner.rule_stats.items()
        },
        # what adaptive scheduling buys on the large workload: anytime
        # early stopping vs the fixed-budget default (same source, same
        # limits), as a cost ratio and a wall-clock speedup
        "scheduling": {
            "anytime_vs_default_cost_ratio": (
                anytime_report.extracted_cost / large_report.extracted_cost
                if large_report.extracted_cost else float("inf")
            ),
            "anytime_vs_default_iterations": [
                anytime_report.runner.num_iterations,
                large_report.runner.num_iterations,
            ],
            "speedup_pipeline_anytime": (
                results["saturation_large"] / results["pipeline_anytime"]
                if results["pipeline_anytime"] > 0 else float("inf")
            ),
        },
        # hit/miss counters behind the repeated-workload row, and the
        # speedup the session architecture buys on it
        "cache": {
            "session": cached_session.cache.stats.as_dict(),
            "speedup_pipeline_variants": (
                results["pipeline_variants_cold"] / results["pipeline_variants_cached"]
                if results["pipeline_variants_cached"] > 0 else float("inf")
            ),
        },
    }

    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"wrote {args.output}")
    for stage, seconds in results.items():
        print(f"  {stage:24s} {1e3 * seconds:8.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
