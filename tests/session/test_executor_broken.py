"""A worker process dying mid-wave is a typed error; a failing job is not.

The service's process backend reports a killed worker as the typed
:class:`~repro.service.WorkerDiedError` (transient: retried while retries
remain).  The jobs that finished before the death keep their results and
the rest of the wave runs on the respawned worker, so a caller only redoes
the job that died.  A job that fails on its own — a malformed source —
surfaces its own exception type under both executors, is never retried,
and leaves its neighbours in the wave untouched.
"""

import os
import signal

import pytest

from repro.egraph.runner import RunnerLimits
from repro.frontend.lexer import LexerError
from repro.frontend.parser import ParseError
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.service import JobState, OptimizationService, WorkerDiedError

CONFIG = SaturatorConfig(variant=Variant.CSE_SAT, limits=RunnerLimits(400, 3, 60.0))

FAST = [
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = b[i] * c[i] + b[i] * c[i]; }",
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = b[i] * 2 + c[i] * 2; }",
]

#: Grows its e-graph for ~0.5 s: a wide window to kill its worker in.
SLOW_SOURCE = (
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = "
    + " + ".join(
        "b[i+%d] * c[i+%d]" % (j, j) if j else "b[i] * c[i]" for j in range(8)
    )
    + "; }"
)

SLOW_CONFIG = SaturatorConfig(
    variant=Variant.CSE_SAT,
    limits=RunnerLimits(20000, 12, 60.0),
    anytime_extraction=True,
    anytime_interval=1,
    plateau_patience=100,
)

PARSE_FAILURE = "#pragma acc parallel loop\nfor (i = 0; i < n; i++) { a[i] = ; }"
LEX_FAILURE = "#pragma acc parallel loop\nfor (i = 0; i < n; i++) { a[i] = b[i] $ 1; }"


class TestExecutorBroken:
    def test_sigkilled_worker_raises_typed_error_with_completed_prefix(self):
        service = OptimizationService(
            config=CONFIG, workers=1, executor="process", max_retries=0
        )
        first = service.submit(FAST[0])
        doomed = service.submit(SLOW_SOURCE, config=SLOW_CONFIG)
        last = service.submit(FAST[1])
        with service:
            prefix = first.result(timeout=120)
            next(doomed.stream(timeout=60))  # the child is mid-saturation
            (pid,) = service._pool.worker_pids()
            os.kill(pid, signal.SIGSTOP)
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(WorkerDiedError) as excinfo:
                doomed.result(timeout=120)
            rest = last.result(timeout=120)
            snap = service.stats.snapshot()
        assert isinstance(excinfo.value, RuntimeError)
        assert [first.state, doomed.state, last.state] == [
            JobState.DONE, JobState.FAILED, JobState.DONE,
        ]
        assert [prefix.code, rest.code] == [
            optimize_source(source, CONFIG).code for source in FAST
        ]
        assert snap["worker_deaths"] == 1 and snap["worker_respawns"] == 1
        assert snap["retried"] == 0 and snap["failed"] == 1

    def test_healthy_batches_are_unaffected(self):
        # failing jobs in the middle of a wave, on one worker of each
        # backend: every healthy job still lands its serial artifact
        expected = [optimize_source(source, CONFIG).code for source in FAST]
        for executor in ("thread", "process"):
            service = OptimizationService(config=CONFIG, workers=1, executor=executor)
            handles = [
                service.submit(source)
                for source in (FAST[0], PARSE_FAILURE, LEX_FAILURE, FAST[1])
            ]
            with service:
                assert all(handle.wait(timeout=120) for handle in handles)
                snap = service.stats.snapshot()
            healthy = [handles[0], handles[3]]
            assert [handle.result().code for handle in healthy] == expected, executor
            assert snap["completed"] == 2 and snap["failed"] == 2, executor
            assert snap["worker_deaths"] == 0, executor

    def test_ordinary_exceptions_propagate_untyped(self):
        # only a dead worker becomes a service error; a job raising on its
        # own surfaces its own exception type — across the process
        # boundary too — and is not retried
        for executor in ("thread", "process"):
            service = OptimizationService(config=CONFIG, workers=1, executor=executor)
            parse = service.submit(PARSE_FAILURE)
            lex = service.submit(LEX_FAILURE)
            with service:
                with pytest.raises(ParseError, match="expected expression") as parsed:
                    parse.result(timeout=120)
                with pytest.raises(LexerError) as lexed:
                    lex.result(timeout=120)
                snap = service.stats.snapshot()
            assert parsed.value.token.text == ";", executor
            assert (lexed.value.line, lexed.value.column) == (2, 39), executor
            assert snap["retried"] == 0 and snap["failed"] == 2, executor
