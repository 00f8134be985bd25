"""Per-layer metrics and per-kernel rows of a traced run.

Layer = module name.  ``*_s`` metrics are seconds per round: the summed span
durations of the fastest traced round (the floor, as for the end-to-end
timings), so they add up to that round's wall time.  Counts are per round and
come from the public objects the program leaves behind (``KernelReport``,
``RunnerReport.rule_stats``, ``ServiceStats``, ``CacheStats``); a layer that
is not on a workload's path reports 0.

The pipeline layers (``frontend`` … ``codegen``) are measured by the staged
replay: in every traced round of a compile workload, in one solo in-process
pass on ``serve_process_cold`` (its pipeline runs in worker processes no
span can reach; the pass stands for one wave's work), and not at all on
``serve_thread_hot``, whose rounds run no pipeline.
"""

from __future__ import annotations

import copy
import pickle
from typing import TYPE_CHECKING, Dict, List

from e2e_bench.spans import ROUND
from e2e_bench.workloads import EXACT_COUNTERS, WORKERS, ServeProcessCold, ServeWorkload

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from e2e_bench.measure import Run

__all__ = ["kernel_rows", "layer_metrics"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(run: "Run") -> Dict[str, float]:
    workload, recorder, corpus = run.workload, run.workload.recorder, run.workload.corpus
    results = run.results
    served = {}
    if isinstance(workload, ServeWorkload):
        # what every cache hit, follower and IPC reply pays per artifact
        for request in corpus:
            if request.name in results:
                served[request.name] = results[request.name]
                with recorder.span("session.key_for", request.name):
                    workload.session.key_for(request.source, None, request.name)
                with recorder.span("session.result_deepcopy", request.name):
                    copy.deepcopy(results[request.name])
    # the fastest traced round, and what was recorded outside any round
    best = min(recorder.seconds_by_round(), key=lambda table: table[ROUND])
    outside = recorder.seconds_outside_rounds()
    if isinstance(workload, ServeProcessCold):
        stage_table, staged, build_nodes = (
            run.solo.seconds_by_round()[0], results, run.solo_build_nodes
        )
    elif isinstance(workload, ServeWorkload):
        stage_table, staged, build_nodes = {}, {}, 0
    else:
        stage_table, staged, build_nodes = best, results, run.traced[0].build_nodes

    def seconds(span_name: str) -> float:
        """Seconds in the round; a span recorded outside the rounds counts once."""

        return best.get(span_name, outside.get(span_name, 0.0))

    def stage(span_name: str) -> float:
        return stage_table.get(span_name, 0.0)

    reports = [k for result in staged.values() for k in result.kernels]
    runners = [k.runner for k in reports if k.runner is not None]
    rules = [rule for runner in runners for rule in runner.rule_stats.values()]
    stops = [runner.stop_reason.value for runner in runners]
    source_bytes = sum(len(r.source.encode()) for r in corpus if r.name in staged)
    nodes_final = sum(k.egraph_nodes for k in reports)
    classes_final = sum(k.egraph_classes for k in reports)
    matches = sum(rule.matches for rule in rules)
    applied = sum(rule.applied for rule in rules)
    counters = run.plain[0].counters
    plain_round = min(outcome.wall for outcome in run.plain)
    traced_round = min(outcome.wall for outcome in run.traced)
    unattributed = seconds("bench.unattributed")
    return {
        "frontend.parse_s": stage("frontend.parse"),
        "frontend.normalize_s": stage("frontend.normalize"),
        "frontend.print_s": stage("frontend.print"),
        "frontend.source_bytes": source_bytes,
        "frontend.parse_mb_per_s": _ratio(source_bytes / 1e6, stage("frontend.parse")),
        "saturator.find_kernels_s": stage("saturator.find_kernels"),
        "saturator.kernels": len(reports),
        "ssa.build_s": stage("ssa.build"),
        "ssa.assignments": sum(k.assignments for k in reports),
        "ssa.groups": sum(k.groups for k in reports),
        "egraph.build_s": stage("egraph.build"),
        "egraph.build_nodes": build_nodes,
        "egraph.saturate_s": stage("egraph.saturate"),
        "egraph.iterations": sum(runner.num_iterations for runner in runners),
        "egraph.nodes_final": nodes_final,
        "egraph.classes_final": classes_final,
        "egraph.matches": matches,
        "egraph.applied": applied,
        "egraph.applied_per_match": _ratio(applied, matches),
        # e-nodes saturation added, per second of the saturate stage
        "egraph.nodes_per_s": _ratio(nodes_final - build_nodes, stage("egraph.saturate")),
        "egraph.stop_saturated": stops.count("saturated"),
        "egraph.stop_node_limit": stops.count("node_limit"),
        "egraph.stop_iter_limit": stops.count("iter_limit"),
        "extract.select_s": stage("extract.select"),
        "extract.us_per_class": 1e6 * _ratio(stage("extract.select"), classes_final),
        "codegen.generate_s": stage("codegen.generate"),
        "codegen.temporaries": sum(k.optimized.temporaries for k in reports),
        "codegen.code_bytes": sum(len(r.code.encode()) for r in staged.values()),
        "session.key_for_us": 1e6 * _ratio(outside.get("session.key_for", 0.0), len(served)),
        "session.cache_gets": counters.get("cache.gets", 0),
        "session.cache_puts": counters.get("cache.puts", 0),
        "session.cache_get_s": seconds("session.cache_get"),
        "session.cache_put_s": seconds("session.cache_put"),
        "session.cache_hit_ratio": _ratio(
            counters.get("cache.hits", 0), counters.get("cache.gets", 0)
        ),
        "session.result_pickle_bytes": sum(len(pickle.dumps(r)) for r in served.values()),
        "session.result_deepcopy_us":
            1e6 * _ratio(outside.get("session.result_deepcopy", 0.0), len(served)),
        "service.submit_s": seconds("service.submit"),
        "service.submit_us_per_call":
            1e6 * seconds("service.submit") / workload.requests_per_round,
        "service.start_s": seconds("service.start"),
        "service.drain_s": seconds("service.drain"),
        "service.stop_s": seconds("service.stop"),
        **{f"service.{name}": counters.get(name, 0) for name in EXACT_COUNTERS},
        # solo in-process seconds of the requests a round ran through the
        # pipeline, over what the workers could have done in that round
        "service.parallel_efficiency": _ratio(
            stage(ROUND) if served else 0.0, WORKERS * plain_round
        ),
        "interp.verify_s": run.verify_s,
        "interp.kernels_verified": run.verified,
        "interp.oracle_skipped": len(run.skipped),
        "gpusim.evaluate_s": run.evaluate_s,
        "bench.unattributed_s": unattributed,
        "bench.coverage_ratio": 1.0 - _ratio(unattributed, traced_round),
        "bench.trace_overhead_pct": 100.0 * (traced_round - plain_round) / plain_round,
        "bench.cpu_s_per_round": min(outcome.cpu for outcome in run.plain),
    }


def kernel_rows(run: "Run") -> List[Dict[str, object]]:
    """One row per kernel: the smallest latency of any of its requests in the
    untraced rounds, what the pipeline did to it, and its traced seconds per
    layer and round."""

    latencies: Dict[str, List[float]] = {}
    for outcome in run.plain:
        for request, latency in zip(run.workload.slots, outcome.latencies):
            if latency is not None:
                latencies.setdefault(request.name, []).append(latency)
    by_request = run.workload.recorder.seconds_by_request()
    rows = []
    for request in run.workload.corpus:
        result = run.results.get(request.name)
        if result is None or request.name not in latencies:
            continue
        rows.append({
            "kernel": request.name,
            "latency_ms": 1e3 * min(latencies[request.name]),
            "e_nodes": sum(k.egraph_nodes for k in result.kernels),
            "stop": ",".join(
                "-" if k.runner is None else k.runner.stop_reason.value
                for k in result.kernels
            ),
            "extracted_cost": sum(k.extracted_cost for k in result.kernels),
            "layer_ms": {
                span_name: 1e3 * sum(durations) / len(run.traced)
                for span_name, durations in sorted(by_request[request.name].items())
            },
        })
    return rows
