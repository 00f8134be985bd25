"""Cooperative cancellation: the token and its runner integration.

The contract under test: a :class:`CancellationToken` never interrupts
anything — the runner polls it at iteration boundaries only, so a tripped
token stops the loop with the e-graph canonical and (when anytime
extraction ran) the snapshot coherent, which is what makes deadline
degradation byte-deterministic.
"""

import time

import pytest

from repro.egraph.egraph import EGraph
from repro.egraph.language import op, sym
from repro.egraph.rewrite import rewrite
from repro.egraph.runner import (
    CancellationToken,
    FileTripSignal,
    Runner,
    RunnerLimits,
    StopReason,
)


def _chain_egraph(depth: int = 6) -> EGraph:
    eg = EGraph()
    term = sym("x0")
    for i in range(1, depth):
        term = op("+", term, sym(f"x{i}"))
    eg.add_term(term)
    eg.rebuild()
    return eg


#: A rule pair that keeps the loop busy for many iterations.
RULES = [
    rewrite("comm", "(+ ?a ?b)", "(+ ?b ?a)"),
    rewrite("assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
]


class TestCancellationToken:
    def test_fresh_token_is_untripped(self):
        token = CancellationToken()
        assert not token.cancelled and not token.expired
        assert token.tripped() is None

    def test_cancel_is_idempotent_and_irrevocable(self):
        token = CancellationToken()
        token.cancel()
        token.cancel()
        assert token.cancelled
        assert token.tripped() is StopReason.CANCELLED

    def test_expire_forces_deadline_without_a_clock(self):
        token = CancellationToken()
        token.expire()
        assert token.expired
        assert token.tripped() is StopReason.DEADLINE

    def test_timeout_becomes_an_absolute_monotonic_deadline(self):
        token = CancellationToken(timeout=1000.0)
        assert token.deadline is not None
        assert token.deadline > time.monotonic()
        assert token.tripped() is None

    def test_negative_timeout_is_already_expired(self):
        token = CancellationToken(timeout=-1.0)
        assert token.expired
        assert token.tripped() is StopReason.DEADLINE

    def test_explicit_deadline_and_timeout_take_the_earlier(self):
        at = time.monotonic() + 5.0
        token = CancellationToken(deadline=at, timeout=1000.0)
        assert token.deadline == at

    def test_cancel_wins_over_expired_deadline(self):
        token = CancellationToken(timeout=-1.0)
        token.cancel()
        assert token.tripped() is StopReason.CANCELLED


class TestFileTripSignal:
    """The file-backed trip transport behind cross-process cancellation."""

    def test_untripped_signal_polls_none(self, tmp_path):
        signal = FileTripSignal(tmp_path / "job.trip")
        assert signal.poll() is None

    def test_trip_round_trips_through_a_second_signal(self, tmp_path):
        path = tmp_path / "job.trip"
        FileTripSignal(path).trip("deadline")
        assert FileTripSignal(path).poll() == "deadline"

    def test_cancelled_supersedes_deadline_never_the_reverse(self, tmp_path):
        path = tmp_path / "job.trip"
        signal = FileTripSignal(path)
        signal.trip("deadline")
        signal.trip("cancelled")
        assert signal.poll() == "cancelled"
        # a later deadline trip (e.g. the clock firing after an explicit
        # cancel) must not demote the cancellation
        signal.trip("deadline")
        assert signal.poll() == "cancelled"
        assert FileTripSignal(path).poll() == "cancelled"

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            FileTripSignal(tmp_path / "job.trip").trip("paused")

    def test_garbage_file_polls_none(self, tmp_path):
        path = tmp_path / "job.trip"
        path.write_text("not-a-kind")
        assert FileTripSignal(path).poll() is None

    def test_two_tokens_sharing_a_signal_share_their_trips(self, tmp_path):
        """The cross-process contract, minus the processes: the 'parent'
        token cancels, the 'child' token (a distinct object on the same
        path) observes it — and vice versa for deadlines."""

        path = tmp_path / "job.trip"
        parent = CancellationToken(signal=FileTripSignal(path))
        child = CancellationToken(signal=FileTripSignal(path))

        assert not child.cancelled and not child.expired
        parent.cancel()
        assert child.cancelled
        assert child.tripped() is StopReason.CANCELLED

        other = tmp_path / "other.trip"
        parent2 = CancellationToken(signal=FileTripSignal(other))
        child2 = CancellationToken(signal=FileTripSignal(other))
        child2.expire()
        assert parent2.expired and not parent2.cancelled
        assert parent2.tripped() is StopReason.DEADLINE

    def test_tripped_polls_the_signal_once(self, tmp_path):
        # a runner polls an untripped token every iteration boundary: each
        # poll is one open of the trip file, not one per flag it reads
        class CountingSignal(FileTripSignal):
            __slots__ = ("polls",)

            def poll(self):
                self.polls += 1
                return super().poll()

        signal = CountingSignal(tmp_path / "job.trip")
        signal.polls = 0
        token = CancellationToken(timeout=60.0, signal=signal)
        assert token.tripped() is None
        assert signal.polls == 1
        CancellationToken(signal=signal).expire()
        assert token.tripped() is StopReason.DEADLINE
        assert signal.polls == 3  # expire() polls once before writing

    def test_signalled_runner_stops_like_a_local_trip(self, tmp_path):
        """A runner polling a token whose only trip arrives via the file
        stops at the observing boundary, byte-identical to an iter-limit
        stop there — the degradation contract's foundation."""

        path = tmp_path / "job.trip"
        remote = FileTripSignal(path)
        token = CancellationToken(signal=FileTripSignal(path))

        def hook(row):
            if row.index == 1:
                remote.trip("deadline")

        report = Runner(
            _chain_egraph(), RULES, RunnerLimits(5000, 8, 60.0),
            cancellation=token, on_iteration=hook,
        ).run()
        assert report.stop_reason is StopReason.DEADLINE
        assert len(report.iterations) == 2

        limited = Runner(_chain_egraph(), RULES, RunnerLimits(5000, 2, 60.0)).run()
        assert [r.egraph_nodes for r in limited.iterations] == [
            r.egraph_nodes for r in report.iterations
        ]


class TestRunnerCancellation:
    def test_untripped_token_changes_nothing(self):
        plain = Runner(_chain_egraph(), RULES, RunnerLimits(5000, 8, 60.0)).run()
        with_token = Runner(
            _chain_egraph(), RULES, RunnerLimits(5000, 8, 60.0),
            cancellation=CancellationToken(timeout=1000.0),
        ).run()
        assert with_token.stop_reason == plain.stop_reason
        assert len(with_token.iterations) == len(plain.iterations)
        assert [r.egraph_nodes for r in with_token.iterations] == [
            r.egraph_nodes for r in plain.iterations
        ]

    def test_pre_tripped_deadline_stops_before_any_iteration(self):
        token = CancellationToken()
        token.expire()
        report = Runner(
            _chain_egraph(), RULES, RunnerLimits(5000, 8, 60.0),
            cancellation=token,
        ).run()
        assert report.stop_reason is StopReason.DEADLINE
        assert report.iterations == ()

    def test_pre_cancelled_token_stops_before_any_iteration(self):
        token = CancellationToken()
        token.cancel()
        report = Runner(
            _chain_egraph(), RULES, RunnerLimits(5000, 8, 60.0),
            cancellation=token,
        ).run()
        assert report.stop_reason is StopReason.CANCELLED
        assert report.iterations == ()

    @pytest.mark.parametrize("trip_at", [0, 1, 2])
    def test_trip_from_the_progress_hook_stops_at_that_boundary(self, trip_at):
        """Expiring during iteration k stops with exactly k+1 iterations —
        the boundary the hook observed, matching what an iter-limit stop
        at the same boundary sees."""

        token = CancellationToken()

        def hook(row):
            if row.index == trip_at:
                token.expire()

        report = Runner(
            _chain_egraph(), RULES, RunnerLimits(5000, 8, 60.0),
            cancellation=token, on_iteration=hook,
        ).run()
        assert report.stop_reason is StopReason.DEADLINE
        assert len(report.iterations) == trip_at + 1

        limited = Runner(
            _chain_egraph(), RULES, RunnerLimits(5000, trip_at + 1, 60.0)
        ).run()
        assert [r.egraph_nodes for r in limited.iterations] == [
            r.egraph_nodes for r in report.iterations
        ]

    def test_natural_stops_outrank_the_token(self):
        # a token tripped at the same boundary where saturation completes
        # must not mask the SATURATED verdict
        eg = EGraph()
        eg.add_term(op("+", sym("a"), sym("b")))
        eg.rebuild()
        rules = [rewrite("fma1", "(+ ?a (* ?b ?c))", "(fma ?a ?b ?c)")]
        token = CancellationToken()

        def hook(row):
            token.expire()

        report = Runner(
            eg, rules, RunnerLimits(5000, 8, 60.0),
            cancellation=token, on_iteration=hook,
        ).run()
        assert report.stop_reason is StopReason.SATURATED
