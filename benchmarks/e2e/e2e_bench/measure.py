"""One run of one workload in this process: rounds, check, metric tables.

Run protocol: set-up (with one untimed warm-up round), then a fixed number
of timed rounds — the count is a function of ``--seconds`` alone, so two
commits given the same flag do identical work — then tear-down, the peak
RSS reading, and the untimed check phase.  A traced run interleaves three
untraced and three traced rounds; the difference of their fastest round
times is the tracing overhead.

Timings are reported as *floors* (the minimum over the rounds), not medians.
The host this benchmark was built on slows a process down for seconds to
minutes at a time and never speeds it up, so the minimum estimates the cost
of the code and the median mostly the neighbours; README.md has the
measured spreads of both.  Median and quartiles of the round time are still
printed next to every run.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter
from typing import Dict, List, Optional

from repro.saturator import optimize_source

from e2e_bench.check import (
    code_quality,
    modeled_speedups,
    round_signature,
    verify_outputs,
)
from e2e_bench.corpus import build_corpus
from e2e_bench.layers import kernel_rows, layer_metrics
from e2e_bench.replay import replay_optimize_source
from e2e_bench.spans import ROUND, Recorder
from e2e_bench.workloads import (
    RoundOutcome,
    ServeProcessCold,
    ServeWorkload,
    Workload,
    WORKLOADS,
)

__all__ = ["Run", "planned_rounds", "quartiles", "run_setup_only", "run_workload"]

MIN_ROUNDS = 3
TRACE_ROUNDS = 3
#: Safety valve for a much slower box: stop adding rounds once the timed
#: window has lasted this many times ``--seconds`` (never below MIN_ROUNDS).
OVERRUN = 1.5


def planned_rounds(workload: Workload, seconds: float) -> int:
    """The timed rounds of a run: a function of ``--seconds`` alone."""

    return max(MIN_ROUNDS, math.ceil(seconds * workload.rounds_per_second))


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count, as printed next to every timing."""

    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _percentile(ordered: List[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""

    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _peak_rss_mb(children: bool) -> float:
    """High-water RSS of this process plus, if asked, of its largest child (Linux: KiB)."""

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def run_setup_only(name: str, seed: int, kernels: Optional[int], started: float) -> float:
    """Set the workload up, tear it down, return seconds from *started* to ready."""

    workload = WORKLOADS[name](build_corpus(kernels), seed, None)
    try:
        workload.setup()
        return perf_counter() - started
    finally:
        workload.teardown()


@dataclass
class Run:
    """Everything one run measured, before it is reduced to metrics."""

    workload: Workload
    setup_s: float
    #: Untraced timed rounds, and the traced ones of a traced run.
    plain: List[RoundOutcome]
    traced: List[RoundOutcome]
    peak_rss_mb: float
    failures: List[str] = field(default_factory=list)
    #: Spans of the solo in-process pass that stands for the pipeline work
    #: of one ``serve_process_cold`` wave, and its e-nodes after the build stage.
    solo: Recorder = field(default_factory=Recorder)
    solo_build_nodes: int = 0
    verified: int = 0
    skipped: List[str] = field(default_factory=list)
    verify_s: float = 0.0
    evaluate_s: float = 0.0
    speedups: Dict[str, float] = field(default_factory=dict)

    @property
    def results(self):
        """One result per kernel (all rounds were checked equal to these)."""

        return (self.plain + self.traced)[-1].results

    @property
    def round_s(self) -> Dict[str, float]:
        return quartiles([outcome.wall for outcome in self.plain])

    @cached_property
    def latency_floors(self) -> List[float]:
        """Per request slot, the smallest latency any untraced round saw."""

        floors = []
        for slot in range(len(self.workload.slots)):
            seen = [o.latencies[slot] for o in self.plain if o.latencies[slot] is not None]
            if seen:
                floors.append(min(seen))
        return floors

    @property
    def round_floor_s(self) -> float:
        """The round time with the host's interference removed.

        A compile round is one caller running its requests back to back, so
        its floor is the sum of the per-request floors; a serve round
        overlaps its requests, so its floor is the fastest whole round.
        """

        if isinstance(self.workload, ServeWorkload):
            return min(outcome.wall for outcome in self.plain)
        return sum(self.latency_floors)


def _execute(workload: Workload, seconds: float, rounds: Optional[int],
             started: float) -> Run:
    """Set-up, the timed rounds, tear-down, and the peak RSS reading."""

    plain: List[RoundOutcome] = []
    traced: List[RoundOutcome] = []
    try:
        workload.setup()
        setup_s = perf_counter() - started
        if workload.recorder is not None:
            for index in range(rounds or TRACE_ROUNDS):
                plain.append(workload.round(f"u{index}", traced=False))
                traced.append(workload.round(f"t{index}", traced=True))
        else:
            planned = rounds or planned_rounds(workload, seconds)
            stop_after = math.inf if rounds else perf_counter() + OVERRUN * seconds
            for index in range(planned):
                plain.append(workload.round(index, traced=False))
                if perf_counter() > stop_after and len(plain) >= MIN_ROUNDS:
                    break
    finally:
        workload.teardown()
    # read before the check phase, whose interpreter and GPU model would raise it
    peak = _peak_rss_mb(children=isinstance(workload, ServeProcessCold))
    return Run(workload, setup_s, plain, traced, peak)


def _check(run: Run) -> None:
    """The untimed check phase; every deviation becomes a failure line."""

    workload = run.workload
    every = run.plain + run.traced
    failures = run.failures
    failures += [line for outcome in every for line in outcome.failures]
    # determinism: every round, traced (staged replay) or not, returned the
    # same bytes and the same counts
    reference = round_signature(every[0].results)
    for index, outcome in enumerate(every[1:], start=1):
        if round_signature(outcome.results) != reference:
            failures.append(f"round {index}: results differ from round 0")
        if outcome.counters != every[0].counters:
            failures.append(f"round {index}: counters differ from round 0")
    if len({outcome.build_nodes for outcome in run.traced}) > 1:
        failures.append("egraph.build_nodes differs between traced rounds")

    if isinstance(workload, ServeWorkload):
        # the service must return the artifacts a solo in-process run computes
        replayed = run.traced and isinstance(workload, ServeProcessCold)
        with run.solo.span(ROUND):
            for request in workload.corpus:
                if replayed:
                    solo, nodes = replay_optimize_source(
                        request.source, workload.config, request.name,
                        run.solo, request.name,
                    )
                    run.solo_build_nodes += nodes
                else:
                    solo = optimize_source(request.source, workload.config, request.name)
                served = run.results.get(request.name)
                if served is not None and served.code != solo.code:
                    failures.append(f"{request.name}: service code != solo optimize_source")

    oracle_failures, run.verified, run.skipped, run.verify_s = verify_outputs(
        workload.corpus, run.results, workload.seed
    )
    failures += oracle_failures
    run.speedups, run.evaluate_s = modeled_speedups(workload.corpus, workload.variant)


def _end_to_end(run: Run) -> Dict[str, float]:
    floors = sorted(run.latency_floors)
    return {
        "setup_s": run.setup_s,
        "throughput_rps": run.workload.requests_per_round / run.round_floor_s,
        "latency_p50_ms": 1e3 * _percentile(floors, 0.50),
        "latency_p95_ms": 1e3 * _percentile(floors, 0.95),
        "peak_rss_mb": run.peak_rss_mb,
        **code_quality(run.results),
        **run.speedups,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    rounds: Optional[int] = None,
    trace: bool = False,
    kernels: Optional[int] = None,
    started: Optional[float] = None,
    trace_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Run one workload and return its report (JSON-serialisable).

    ``metrics`` holds the end-to-end metrics of an untraced run or the
    per-layer metrics of a traced one.  ``failed`` counts failure lines: one
    per request that raised or resolved wrong, plus one per kernel or
    invariant the check phase rejected.
    """

    started = perf_counter() if started is None else started
    recorder = Recorder() if trace else None
    workload = WORKLOADS[name](build_corpus(kernels), seed, recorder)
    run = _execute(workload, seconds, rounds, started)
    _check(run)
    attempted = workload.requests_per_round * len(run.plain + run.traced)
    report: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "requests_per_round": workload.requests_per_round,
        "round_s": run.round_s,
        "attempted": attempted,
        "failed": min(len(run.failures), attempted),
        "correct": not run.failures,
        "failures": run.failures,
    }
    if not trace:
        report["round_floor_s"] = run.round_floor_s
        report["metrics"] = _end_to_end(run)
        return report
    report["metrics"] = layer_metrics(run)
    report["traced_round_s"] = quartiles([outcome.wall for outcome in run.traced])
    report["rows"] = kernel_rows(run)
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        report["trace_file"] = os.path.join(trace_dir, f"trace-{name}-seed{seed}.jsonl")
        recorder.write_jsonl(report["trace_file"])
    return report
