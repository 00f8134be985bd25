"""Span-tree well-formedness: the trace survives chaos.

``repro.obs.check.validate_trace_records`` is the single contract —
strictly monotone seqs, every started span ends exactly once, children
nest inside their parents, every job span reaches exactly one terminal
state.  Here it is driven two ways: a Hypothesis property over randomly
generated span-tree programs (the checker and the tracer agree on any
schedule), and end-to-end service waves under crash/retry/deadline fault
plans — including real worker deaths on the process executor, where a
crashed attempt's worker spans are lost by design (and recorded as lost,
one ``worker:spans-lost`` event per dead attempt) but the *retry*
attempt's worker spans must re-parent under the same job span.
"""

import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.egraph.runner import RunnerLimits
from repro.obs import (
    Tracer,
    is_known_site,
    validate_trace_records,
    write_trace_files,
)
from repro.saturator import SaturatorConfig, Variant
from repro.service import FaultPlan, FaultRule, OptimizationService

CONFIG = SaturatorConfig(
    variant=Variant.CSE_SAT, limits=RunnerLimits(500, 3, 60.0)
)

CHECK_TRACE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir, os.pardir, "benchmarks", "check_trace.py",
)

KERNELS = [
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = b[i] * c[i] + b[i] * c[i]; }",
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { d[i] = (x[i] + y[i]) * (x[i] + y[i]); }",
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { e[i] = u[i] * v[i] + w[i] / u[i]; }",
]


# ---------------------------------------------------------------------------
# property: any program of nested spans/events the Tracer can express
# validates — and mutations of the stream are caught
# ---------------------------------------------------------------------------

@st.composite
def _tree_programs(draw):
    """A random tree as a nesting program: each node is (n_events, children)."""

    node = st.deferred(
        lambda: st.tuples(st.integers(0, 2), st.lists(node, max_size=3))
    )
    return draw(st.tuples(st.integers(0, 2), st.lists(node, max_size=4)))


def _run_program(tracer, program, parent=None, depth=0):
    n_events, children = program
    span = tracer.span(f"node-d{depth}", parent=parent)
    for index in range(n_events):
        tracer.event(f"tick-{index}", span=span)
    for child in children:
        _run_program(tracer, child, parent=span, depth=depth + 1)
    span.end()


@given(_tree_programs())
@settings(max_examples=60, deadline=None)
def test_any_nesting_program_validates(program):
    tracer = Tracer()
    _run_program(tracer, program)
    assert validate_trace_records(tracer.records()) == []


@given(_tree_programs())
@settings(max_examples=30, deadline=None)
def test_checker_catches_a_dropped_end(program):
    tracer = Tracer()
    _run_program(tracer, program)
    records = tracer.records()
    mutated = [r for r in records if r["type"] != "end"] \
        + [r for r in records if r["type"] == "end"][1:]
    mutated = sorted(mutated, key=lambda r: r["seq"])
    assert validate_trace_records(mutated) != []


def test_checker_catches_unended_and_orphan_spans():
    tracer = Tracer()
    tracer.span("never-ended")
    assert any("never end" in e or "never-ended" in e
               for e in validate_trace_records(tracer.records()))
    orphan = [{"type": "event", "seq": 0, "span": "s99", "name": "lost",
               "ts": 0.0, "attrs": {}}]
    assert validate_trace_records(orphan) != []


def test_checker_requires_job_terminal_state():
    tracer = Tracer()
    tracer.span("job", seq=0).end()  # no terminal attr
    assert any("terminal" in error
               for error in validate_trace_records(tracer.records()))


# ---------------------------------------------------------------------------
# end-to-end: chaos waves keep the tree well-formed
# ---------------------------------------------------------------------------

def _job_spans(records):
    return [r for r in records if r["type"] == "start" and r["name"] == "job"]


def _children_of(records, span_id, name=None):
    return [
        r for r in records
        if r["type"] == "start" and r["parent"] == span_id
        and (name is None or r["name"] == name)
    ]


def _end_of(records, span_id):
    return next(r for r in records if r["type"] == "end" and r["id"] == span_id)


class TestThreadChaosWave:
    def test_retry_and_failure_spans_stay_well_formed(self):
        plan = FaultPlan([
            FaultRule("cache:get", "transient", nth=1),
            FaultRule("worker:pickup", "permanent", probability=0.3),
        ], seed=99)
        tracer = Tracer()
        service = OptimizationService(
            config=CONFIG, workers=2, coalesce=False, faults=plan,
            retry_backoff=0.001, retry_backoff_cap=0.002, tracer=tracer,
        )
        with service:
            handles = [
                service.submit(KERNELS[i % len(KERNELS)], name_prefix=f"w{i}")
                for i in range(6)
            ]
            assert service.join(120)
            snapshot = service.metrics.snapshot()

        # the metrics snapshot obeys the conservation law even mid-chaos
        stats = snapshot["service"]
        assert stats["submitted"] == (
            stats["completed"] + stats["failed"] + stats["cancelled"]
        )
        # and its fault section mirrors the plan's injection counters
        assert snapshot["faults"] == plan.injected()

        records = tracer.records()
        assert validate_trace_records(records) == []

        jobs = _job_spans(records)
        assert len(jobs) == 6
        states = [h.state.value for h in handles]
        for job, state in zip(jobs, states):
            end = _end_of(records, job["id"])
            # the span's terminal attribute is the handle's terminal state
            assert end["attrs"]["terminal"] == state
            # retried jobs carry one attempt span per attempt
            attempts = _children_of(records, job["id"], "attempt")
            assert len(attempts) == 1 + end["attrs"]["retries"]
        assert "failed" in states and "done" in states  # chaos actually hit
        # every injected fault surfaced as a trace event
        injected = sum(plan.injected().values())
        fault_events = [r for r in records
                        if r["type"] == "event" and r["name"] == "fault:injected"]
        assert len(fault_events) == injected


class TestProcessCrashWave:
    def test_worker_spans_reparent_after_crash_and_retry(self, tmp_path):
        # every job's first attempt dies mid-run (real SIGKILL-style
        # os._exit in the worker); the retry must complete and its worker
        # spans must land under the *same* job span
        plan = FaultPlan([FaultRule("worker:crash", "crash", nth=1, after=1)])
        tracer = Tracer()
        service = OptimizationService(
            config=CONFIG, workers=2, executor="process", coalesce=False,
            faults=plan, retry_backoff=0.01, retry_backoff_cap=0.02,
            tracer=tracer,
        )
        with service:
            handles = [
                service.submit(source, name_prefix=f"c{index}")
                for index, source in enumerate(KERNELS)
            ]
            results = [handle.result(timeout=180) for handle in handles]
            snap = service.stats.snapshot()
            metrics = service.metrics.snapshot()

        assert snap["worker_deaths"] == 3 and snap["recovered"] == 3
        assert all(result.kernels for result in results)

        records = tracer.records()
        assert validate_trace_records(records) == []
        jobs = _job_spans(records)
        assert len(jobs) == 3
        for job in jobs:
            end = _end_of(records, job["id"])
            assert end["attrs"]["terminal"] == "done"
            attempts = _children_of(records, job["id"], "attempt")
            assert len(attempts) == 1 + end["attrs"]["retries"]
            assert len(attempts) >= 2  # the injected crash forced a retry
            # crashed attempts' worker buffers died with their workers —
            # lost by design — so exactly the one surviving attempt
            # shipped worker spans, re-parented under its attempt span
            per_attempt = [
                _children_of(records, attempt["id"], "worker:run")
                for attempt in attempts
            ]
            shipped = [len(workers) for workers in per_attempt]
            assert sum(shipped) == 1 and shipped[-1] == 1
            (worker_run,) = per_attempt[-1]
            # and the worker's own children (kernel pipeline) came along
            assert _children_of(records, worker_run["id"])
            # a retry event per retry, naming the worker death
            retry_events = [
                r for r in records if r["type"] == "event"
                and r["name"] == "job:retry" and r["span"] == job["id"]
            ]
            assert len(retry_events) == end["attrs"]["retries"]
            assert retry_events[0]["attrs"]["worker_death"] is True
            # the lost buffers are recorded, not silent: one spans-lost
            # event on each attempt that shipped nothing, none on the
            # clean retry
            lost = [
                sum(1 for r in records if r["type"] == "event"
                    and r["name"] == "worker:spans-lost"
                    and r["span"] == attempt["id"])
                for attempt in attempts
            ]
            assert lost == [1 - n for n in shipped]
        dead_attempts = snap["worker_deaths"]
        assert tracer.counts()["buffers_lost"] == dead_attempts
        assert metrics["telemetry"]["buffers_lost"] == dead_attempts
        assert is_known_site("worker:spans-lost")
        # the exported files pass the standalone trace checker
        trace_path = str(tmp_path / "crash_trace.json")
        write_trace_files(records, trace_path)
        checked = subprocess.run(
            [sys.executable, CHECK_TRACE, trace_path, "--min-spans", "10"],
            capture_output=True, text=True, timeout=60,
        )
        assert checked.returncode == 0, checked.stdout + checked.stderr
