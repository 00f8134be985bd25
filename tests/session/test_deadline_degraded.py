"""Deadline degradation at the pipeline/session layer.

The degradation contract: a deadline that trips at iteration boundary k
produces an artifact **byte-identical** to an iteration-limit stop at the
same boundary, with or without anytime extraction, flagged
``degraded=True`` — and a degraded artifact is never stored in the
session's shared cache.  An explicit cancel raises
:class:`SaturationCancelled`.
"""

import dataclasses
import pickle

import pytest

from repro.egraph.runner import CancellationToken, RunnerLimits, StopReason
from repro.frontend import parse_statement
from repro.interp import verify_equivalence
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.session import MemoryCache, OptimizationSession
from repro.session.stages import SaturationCancelled

#: Deep enough to saturate only after ~5 iterations, so boundaries 0-2
#: all trip the deadline before any natural stop can outrank it.
SOURCE = (
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = (b[i] + c[i]) * (b[i] + c[i])"
    " + (c[i] + b[i]) * d[i] + b[i] * c[i] + d[i] * d[i]; }"
)

#: Anytime extraction every boundary, patience too high to plateau first.
CONFIG = SaturatorConfig(
    variant=Variant.CSE_SAT,
    limits=RunnerLimits(4000, 8, 60.0),
    anytime_extraction=True,
    anytime_interval=1,
    plateau_patience=50,
)


def _expiring_token(at_iteration: int) -> "tuple[CancellationToken, callable]":
    token = CancellationToken()

    def hook(row):
        if row.index == at_iteration:
            token.expire()

    return token, hook


class TestDegradedDeterminism:
    @pytest.mark.parametrize("boundary, anytime", [
        *(pytest.param(k, True, id=str(k)) for k in range(3)),
        *(pytest.param(k, False, id=f"no-anytime-{k}") for k in range(3)),
    ])
    def test_deadline_artifact_equals_iter_limit_artifact(self, boundary, anytime):
        config = dataclasses.replace(CONFIG, anytime_extraction=anytime)
        token, hook = _expiring_token(boundary)
        degraded = optimize_source(
            SOURCE, config, cancellation=token, on_iteration=hook
        )
        assert degraded.degraded
        report = degraded.kernels[0]
        assert report.degraded
        assert report.runner.stop_reason is StopReason.DEADLINE
        assert len(report.runner.iterations) == boundary + 1

        limited = optimize_source(
            SOURCE,
            dataclasses.replace(
                config, limits=RunnerLimits(4000, boundary + 1, 60.0)
            ),
        )
        assert not limited.degraded
        assert limited.code == degraded.code
        assert limited.kernels[0].extracted_cost == report.extracted_cost
        assert (
            limited.kernels[0].optimized.as_dict() == report.optimized.as_dict()
        )

    def test_degraded_flag_survives_report_serialization(self):
        token, hook = _expiring_token(0)
        result = optimize_source(
            SOURCE, CONFIG, cancellation=token, on_iteration=hook
        )
        blob = pickle.loads(pickle.dumps(result))
        assert blob.degraded and blob.kernels[0].degraded
        assert result.kernels[0].as_dict()["degraded"] is True


class TestDeadlineWithoutSnapshot:
    def test_pre_expired_token_degrades_to_the_built_egraph(self):
        # the token trips at the top of iteration 0, before any anytime
        # evaluation: extraction runs on the freshly built e-graph
        token = CancellationToken()
        token.expire()
        result = optimize_source(SOURCE, CONFIG, cancellation=token)
        assert result.degraded
        runner = result.kernels[0].runner
        assert runner.stop_reason is StopReason.DEADLINE
        assert runner.iterations == ()
        check = verify_equivalence(
            parse_statement(SOURCE), parse_statement(result.code), trials=2
        )
        assert check.passed, check.message

    def test_deadline_without_anytime_extraction_still_degrades(self):
        config = dataclasses.replace(CONFIG, anytime_extraction=False)
        token, hook = _expiring_token(0)
        result = optimize_source(config=config, source=SOURCE,
                                 cancellation=token, on_iteration=hook)
        assert result.degraded
        assert result.kernels[0].runner.stop_reason is StopReason.DEADLINE

    def test_explicit_cancel_raises_saturation_cancelled(self):
        token = CancellationToken()
        token.cancel()
        with pytest.raises(SaturationCancelled):
            optimize_source(SOURCE, CONFIG, cancellation=token)


class TestDegradedNeverCached:
    def test_session_skips_the_store_and_a_full_run_refills(self):
        session = OptimizationSession(config=CONFIG, cache=MemoryCache())
        token, hook = _expiring_token(0)
        degraded, from_cache = session.run_detailed(
            SOURCE, cancellation=token, on_iteration=hook
        )
        assert degraded.degraded and not from_cache
        assert session.cache.stats.stores == 0, "degraded artifacts must not be cached"

        # the unconstrained rerun is a cold run (no stale degraded hit),
        # lands in the cache, and beats-or-matches the degraded cost
        full, from_cache = session.run_detailed(SOURCE)
        assert not from_cache and not full.degraded
        assert session.cache.stats.stores == 1
        assert full.kernels[0].extracted_cost <= degraded.kernels[0].extracted_cost

        again, from_cache = session.run_detailed(SOURCE)
        assert from_cache
        assert again.code == full.code
