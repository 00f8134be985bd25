"""The saturation time limit is a boundary deadline, never a cached stop.

``RunnerLimits.time_limit`` builds one deadline token per run, polled with
the caller's token at iteration boundaries only.  A budget that binds stops
saturation with ``StopReason.DEADLINE``; the artifact is flagged
``degraded``, is byte-identical to an iteration-limit stop at the same
boundary, and no entry point — ``run_detailed``, a many-sources service
wave, the thread or the process service — stores it, so a rerun goes
cold.

Two ways to make the budget bind: a limit that has passed before the first
iteration starts (``1e-9``), and a rule whose search alone outlasts the
budget (installed through the pipeline's rule-set lookup, so it reaches
in-process runs only).
"""

import dataclasses
import time

import pytest

from repro.egraph import runner as runner_module
from repro.egraph.pattern import parse_pattern
from repro.egraph.rewrite import Rewrite
from repro.egraph.runner import RunnerLimits, StopReason
from repro.frontend import parse_statement
from repro.interp import verify_equivalence
from repro.rules import ruleset_by_name
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.service import JobState, OptimizationService
from repro.session import MemoryCache, OptimizationSession
from repro.session import stages as stages_module

#: Saturates only after ~5 iterations, so a budget stop at boundaries 0-2
#: always beats the natural stop.
SOURCE = (
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = (b[i] + c[i]) * (b[i] + c[i])"
    " + (c[i] + b[i]) * d[i] + b[i] * c[i] + d[i] * d[i]; }"
)

CONFIG = SaturatorConfig(variant=Variant.CSE_SAT, limits=RunnerLimits(4000, 8, 60.0))

#: Over budget before the first iteration starts.
BLOWN = dataclasses.replace(CONFIG, limits=RunnerLimits(4000, 8, 1e-9))

#: Outlasted by one search of :class:`SlowSearch`.
SLOW = dataclasses.replace(CONFIG, limits=RunnerLimits(4000, 8, 0.02))


class SlowSearch(Rewrite):
    """A rule whose every search sleeps past the ``SLOW`` budget."""

    def search_rows(self, egraph, since=None):
        time.sleep(0.05)
        return super().search_rows(egraph, since)


@pytest.fixture(params=["blown", "slow-search"])
def binding(request, monkeypatch):
    """A config whose time limit binds in this process."""

    if request.param == "blown":
        return BLOWN

    def with_slow_rule(name):
        return ruleset_by_name(name) + [
            SlowSearch("slow-comm", parse_pattern("(+ ?a ?b)"),
                       parse_pattern("(+ ?b ?a)"))
        ]

    monkeypatch.setattr(stages_module, "ruleset_by_name", with_slow_rule)
    return SLOW


def _assert_budget_stop(result):
    assert result.degraded
    for kernel in result.kernels:
        assert kernel.degraded
        assert kernel.runner.stop_reason is StopReason.DEADLINE


class TestNeverCached:
    def test_run_detailed(self, binding):
        session = OptimizationSession(config=binding, cache=MemoryCache())
        first, from_cache = session.run_detailed(SOURCE)
        _assert_budget_stop(first)
        assert not from_cache
        assert session.cache.stats.stores == 0

        again, from_cache = session.run_detailed(SOURCE)
        _assert_budget_stop(again)
        assert not from_cache, "the rerun must go cold"
        assert session.cache.stats.stores == 0
        assert session.cache.stats.hits == 0

    def test_run_many(self, binding):
        # many sources in one wave, every job queued before the workers
        # start — what ``accsat -j 2 first.c second.c`` submits
        session = OptimizationSession(binding, MemoryCache())
        for _ in range(2):
            service = OptimizationService(session=session, workers=2)
            handles = [
                service.submit(SOURCE, name_prefix=prefix)
                for prefix in ("first", "second")
            ]
            with service:
                for handle in handles:
                    _assert_budget_stop(handle.result(timeout=120))
                    assert not handle.from_cache, "the rerun must go cold"
            assert service.stats.snapshot()["pipeline_runs"] == 2
        assert session.cache.stats.stores == 0
        assert session.cache.stats.hits == 0

    def test_thread_service(self, binding):
        _check_service(binding, "thread")

    def test_process_service(self):
        # the slow rule is patched into this process only; a spawned worker
        # sees the stock rule set, so only the blown budget binds there
        _check_service(BLOWN, "process")


def _check_service(config, executor):
    with OptimizationService(config=config, workers=1, executor=executor) as service:
        first = service.submit(SOURCE)
        _assert_budget_stop(first.result(timeout=120))
        again = service.submit(SOURCE)
        _assert_budget_stop(again.result(timeout=120))
        stats = service.stats.snapshot()
        stores = service.session.cache.stats.stores
    assert first.state is JobState.DONE and again.state is JobState.DONE
    assert not again.from_cache
    assert stats["degraded"] == 2 and stats["expired"] == 0
    assert stats["pipeline_runs"] == 2 and stats["cache_hits"] == 0
    assert stats["submitted"] == (
        stats["completed"] + stats["failed"] + stats["cancelled"]
    )
    assert stores == 0, "a time-limit stop must never be cached"


def test_blown_budget_degrades_to_a_correct_kernel():
    result = optimize_source(SOURCE, BLOWN)
    _assert_budget_stop(result)
    assert result.kernels[0].runner.iterations == []
    check = verify_equivalence(
        parse_statement(SOURCE), parse_statement(result.code), trials=2
    )
    assert check.passed, check.message


class _Clock:
    """``monotonic`` reads a hand-advanced instant; ``perf_counter`` is real."""

    perf_counter = staticmethod(time.perf_counter)

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


@pytest.mark.parametrize("anytime", [True, False], ids=["anytime", "no-anytime"])
@pytest.mark.parametrize("boundary", [0, 1, 2])
def test_budget_stop_equals_iter_limit_stop(boundary, anytime, monkeypatch):
    """The budget runs out during iteration *boundary*: the stop lands at
    its end and the artifact is the ``iter_limit = boundary + 1`` one."""

    config = dataclasses.replace(
        CONFIG, anytime_extraction=anytime, anytime_interval=1,
        plateau_patience=50,
    )
    clock = _Clock()
    monkeypatch.setattr(runner_module, "time", clock)

    def spend_the_budget(row):
        if row.index == boundary:
            clock.now += 2 * config.limits.time_limit

    stopped = optimize_source(SOURCE, config, on_iteration=spend_the_budget)
    _assert_budget_stop(stopped)
    report = stopped.kernels[0]
    assert len(report.runner.iterations) == boundary + 1

    limited = optimize_source(
        SOURCE,
        dataclasses.replace(config, limits=RunnerLimits(4000, boundary + 1, 60.0)),
    )
    assert not limited.degraded
    assert limited.kernels[0].runner.stop_reason is StopReason.ITER_LIMIT
    assert limited.code == stopped.code
    assert limited.kernels[0].extracted_cost == report.extracted_cost
    assert limited.kernels[0].optimized.as_dict() == report.optimized.as_dict()
