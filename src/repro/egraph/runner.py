"""The equality-saturation loop, with per-rule saturation profiling.

The :class:`Runner` repeatedly searches the rewrites, applies matches,
and rebuilds the e-graph, until one of the stopping conditions is reached:

* **saturation** — an iteration produces no new union (the e-graph is a
  fixed point of the rule set) while the scheduler curtailed nothing,
* **node limit** — a match row of the apply phase left the e-graph with
  more than ``node_limit`` e-nodes.  The apply loop stops right after
  that row, applies no later rule, and the iteration finishes normally
  (rebuild, anytime evaluation, ``on_iteration``); the run then stops at
  that boundary.  Rebuild's congruence merges may shrink the e-graph
  first, so a node-limit stop can report fewer than ``node_limit``
  e-nodes,
* **iteration limit** — ``iter_limit`` iterations executed,
* **cost plateau** — with anytime extraction enabled (see below), the
  extracted cost stopped improving,
* **deadline** — ``time_limit`` seconds passed, or the caller's
  :class:`CancellationToken` expired (**cancelled** when it was
  cancelled).  ``time_limit`` is one more token, polled with the caller's
  at iteration boundaries only, so a phase is never cut short: a budget
  stop leaves the e-graph an iteration-limit stop at that boundary would,
  and the pipeline ships it ``degraded``, never cached.

The defaults mirror the paper's §VII settings: 10,000 e-nodes, 10
iterations and 10 seconds of saturation time.

**Scheduling.**  Which rules search each iteration, and how many of their
matches reach the apply phase, is delegated to a
:class:`~repro.egraph.schedule.RuleScheduler`.  The default
:class:`~repro.egraph.schedule.SimpleScheduler` reproduces the classic
every-rule-every-match loop bit for bit; the backoff and match-budget
schedulers ration the iteration budget (see :mod:`repro.egraph.schedule`).
The runner only advances a rule's incremental-scan stamp when the
scheduler admitted the *complete* match batch, so curtailed matches are
re-found by a later scan instead of being lost.

**Anytime extraction.**  With an :class:`AnytimeExtraction` hook, the
runner extracts every ``interval`` iterations — always at an iteration
boundary, after ``rebuild``, so the extraction sees a canonical e-graph —
and records the current best extracted DAG cost in
:attr:`IterationReport.extracted_cost`.  When the cost has not improved
for ``patience`` consecutive evaluations the run stops with
:attr:`StopReason.COST_PLATEAU`: node-limit budgets no longer spend their
tail growing an e-graph whose extraction stopped getting better.

**Incremental search.** The runner remembers, per rule, the e-graph
version at which the rule last scanned.  The next scan is semi-naive: it
returns only matches that use at least one e-graph row created or moved
to another class root after that stamp (every :meth:`EGraph.rebuild`
stamps them), because a match built only from older rows carries the
bindings it had then, and the previous scan found and applied it.

**Profiling.** Per-rule search/apply time, match and union counts are
tallied during the run, frozen into :class:`RuleStats` rows when it
stops and exposed on :attr:`RunnerReport.rule_stats`;
:meth:`RunnerReport.as_dict` renders the whole report (including
per-iteration rows) as plain JSON data so BENCH trajectories can
attribute a regression to a specific rule.
"""

from __future__ import annotations

import enum
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.egraph.egraph import EGraph
from repro.egraph.rewrite import Rewrite
from repro.records import FrozenDict, record

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.egraph.extract import CostFunction, ExtractionResult
    from repro.egraph.schedule import RuleScheduler

__all__ = [
    "AnytimeExtraction",
    "CancellationToken",
    "FileTripSignal",
    "IterationCallback",
    "StopReason",
    "RunnerLimits",
    "IterationReport",
    "RuleStats",
    "RunnerReport",
    "Runner",
]

#: Progress hook invoked after every completed saturation iteration with
#: the iteration's finished :class:`IterationReport` (see :class:`Runner`).
IterationCallback = Callable[["IterationReport"], None]


class StopReason(enum.Enum):
    """Why the saturation loop stopped."""

    SATURATED = "saturated"
    NODE_LIMIT = "node_limit"
    ITER_LIMIT = "iter_limit"
    #: Anytime extraction saw no cost improvement for ``patience``
    #: consecutive evaluations (see :class:`AnytimeExtraction`).
    COST_PLATEAU = "cost_plateau"
    #: A :class:`CancellationToken` deadline — the caller's, or the
    #: ``time_limit`` budget — expired (the run stopped cooperatively at
    #: the next iteration boundary).
    DEADLINE = "deadline"
    #: A :class:`CancellationToken` was explicitly cancelled.
    CANCELLED = "cancelled"


class FileTripSignal:
    """A cancellation/deadline trip shared across a process boundary.

    A :class:`CancellationToken` is an in-memory object: its flags cannot
    reach a saturation loop running in *another* process.  A trip signal
    records the trip in a small file both sides can see: ``trip(kind)``
    writes it, ``poll()`` reads it back.  Two tokens sharing one signal
    therefore share their trips: the parent trips its token, the child's
    token polls the same file at the next iteration boundary and stops
    with the usual :attr:`StopReason.CANCELLED` / :attr:`StopReason.DEADLINE`
    semantics.

    Kinds are the strings ``"cancelled"`` and ``"deadline"``.  A signal is
    irrevocable like the token flags: once ``poll()`` returned a kind it
    never goes back to ``None``; ``"cancelled"`` may overwrite
    ``"deadline"`` (explicit cancellation wins, mirroring the token),
    never the reverse.  ``trip`` writes atomically (temp file +
    ``os.replace``) so a concurrent ``poll`` sees either nothing or a
    complete kind; ``poll`` is one ``open`` + ``read``.  Unreadable or
    absent files poll as ``None``: losing a trip file degrades to the
    fallback defenses (pickup-time deadline checks, post-hoc result
    drops), it never crashes the loop.
    """

    #: The legal trip kinds, in priority order (first wins).
    KINDS = ("cancelled", "deadline")

    __slots__ = ("path", "_seen")

    def __init__(self, path: Union[str, "os.PathLike"]) -> None:
        self.path = os.fspath(path)
        #: Cache of a positive poll: trips are irrevocable, so once a kind
        #: was read the file never needs stat-ing again.
        self._seen: Optional[str] = None

    def trip(self, kind: str) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown trip kind {kind!r}; expected {self.KINDS}")
        current = self.poll()
        if current == "cancelled" or current == kind:
            return
        tmp = f"{self.path}.tmp-{os.getpid()}"
        try:
            with open(tmp, "w", encoding="ascii") as fh:
                fh.write(kind)
            os.replace(tmp, self.path)
        except OSError:
            # best effort: an unwritable trip file falls back to the
            # pickup-time/post-hoc defenses on the other side
            try:
                os.unlink(tmp)
            except OSError:
                pass
        self._seen = kind if current is None else "cancelled"

    def poll(self) -> Optional[str]:
        if self._seen == "cancelled":
            return self._seen
        try:
            with open(self.path, "r", encoding="ascii") as fh:
                kind = fh.read().strip()
        except OSError:
            return self._seen
        if kind in self.KINDS:
            self._seen = kind
        return self._seen

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<FileTripSignal path={self.path!r} seen={self._seen!r}>"


class CancellationToken:
    """Cooperative cancellation: an explicit ``cancel()`` and/or a deadline.

    The token itself never interrupts anything — the :class:`Runner` polls
    it at iteration boundaries (the only points where the e-graph is
    canonical and an anytime snapshot, if any, is coherent) and stops the
    saturation loop with :attr:`StopReason.CANCELLED` /
    :attr:`StopReason.DEADLINE`.  ``deadline`` is an absolute
    :func:`time.monotonic` instant; ``timeout`` is the same thing spelled
    as seconds from now.  Explicit cancellation wins over an expired
    deadline when both hold.

    Tokens are safe to share across threads: the flags are only ever set
    (never cleared), so a reader can at worst see a trip one poll late —
    exactly the cooperative contract.

    ``signal`` extends the sharing across *processes*: ``cancel()`` and
    ``expire()`` also trip the attached :class:`FileTripSignal`, and every
    read consults it, so a child-process token built on the same signal
    observes the parent's trips (and vice versa).  Monotonic deadlines do
    **not** cross the boundary — ``time.monotonic()`` instants are not
    comparable between processes, so a cross-process deadline is spelled
    as a ``timeout`` re-anchored at handoff plus the shared signal.
    """

    __slots__ = ("deadline", "signal", "_cancelled", "_expired")

    def __init__(
        self,
        deadline: Optional[float] = None,
        timeout: Optional[float] = None,
        signal: Optional[FileTripSignal] = None,
    ) -> None:
        if timeout is not None:
            at = time.monotonic() + timeout
            deadline = at if deadline is None else min(deadline, at)
        self.deadline = deadline
        self.signal = signal
        self._cancelled = False
        self._expired = False

    def cancel(self) -> None:
        """Request cooperative cancellation (idempotent, irrevocable)."""

        self._cancelled = True
        if self.signal is not None:
            self.signal.trip("cancelled")

    def expire(self) -> None:
        """Force the deadline-expired state regardless of the clock.

        This is how deterministic tests and the fault-injection harness
        trip a deadline without depending on wall-clock timing.
        """

        self._expired = True
        if self.signal is not None:
            self.signal.trip("deadline")

    def _signalled(self) -> Optional[str]:
        return None if self.signal is None else self.signal.poll()

    @property
    def cancelled(self) -> bool:
        return self._cancelled or self._signalled() == "cancelled"

    @property
    def expired(self) -> bool:
        return (
            self._expired
            or (self.deadline is not None and time.monotonic() > self.deadline)
            or self._signalled() == "deadline"
        )

    def tripped(self) -> Optional["StopReason"]:
        """The stop reason this token demands right now, or ``None``.

        Reads the attached signal at most once per call.
        """

        signalled = None if self._cancelled else self._signalled()
        if self._cancelled or signalled == "cancelled":
            return StopReason.CANCELLED
        if (
            self._expired
            or signalled == "deadline"
            or (self.deadline is not None and time.monotonic() > self.deadline)
        ):
            return StopReason.DEADLINE
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<CancellationToken cancelled={self._cancelled} "
            f"expired={self.expired} deadline={self.deadline}>"
        )


@dataclass(frozen=True)
class RunnerLimits:
    """Resource limits for one saturation run (paper §VII defaults).

    ``node_limit`` is checked after every applied match row: the row that
    crosses it ends the apply phase, and the run stops with
    :attr:`StopReason.NODE_LIMIT` at the end of that iteration, whatever
    the post-rebuild count.  Every limit must be positive; building one
    that is not (NaN included) raises :class:`ValueError`.
    """

    node_limit: int = 10_000
    iter_limit: int = 10
    time_limit: float = 10.0

    def __post_init__(self) -> None:
        # ``not (x > 0)`` also rejects NaN, which every comparison fails
        if not (self.node_limit > 0):
            raise ValueError("node_limit must be positive")
        if not (self.iter_limit > 0):
            raise ValueError("iter_limit must be positive")
        if not (self.time_limit > 0):
            raise ValueError("time_limit must be positive")


@dataclass
class AnytimeExtraction:
    """In-loop extraction: extract, record, stop on a cost plateau.

    Attached to a :class:`Runner`, this hook extracts from the live
    e-graph every ``interval`` iterations — after ``rebuild``, never
    mid-phase — through :func:`~repro.egraph.extract.extract_best`.  The
    cost trajectory lands in :attr:`IterationReport.extracted_cost`; once
    the best cost has not improved for ``patience`` consecutive
    evaluations, the run stops with :attr:`StopReason.COST_PLATEAU`.

    The hook keeps its last evaluation as ``(egraph.version, result)`` in
    :attr:`last`.  :meth:`result_at` hands that result back while the
    e-graph's version has not moved: the runner reuses it for an
    evaluation after an iteration that changed nothing, and the pipeline's
    :class:`~repro.session.stages.ExtractionStage` for the final
    extraction when the loop stopped right after an evaluation.
    """

    #: Root e-classes to extract (the pipeline's assignment roots).
    roots: Sequence[int]
    #: Cost assignment for the extraction DP.
    cost_model: "CostFunction"
    #: Extraction method ("dag-greedy", "ilp").
    method: str = "dag-greedy"
    #: Extract every this many iterations (1 = every iteration).
    interval: int = 1
    #: Consecutive non-improving evaluations before COST_PLATEAU.
    patience: int = 3
    #: Extraction time limit (only the ILP method enforces it).
    time_limit: float = 30.0
    #: Best in-loop extraction so far (filled in by the runner; read-only —
    #: the object may also be :attr:`last`'s).  The whole selection is
    #: kept, not just its cost, so downstream stages can ship it after a
    #: plateau stop even when the final greedy extraction regresses.  Its
    #: class ids are frozen at the iteration that produced it; rebase them
    #: against later merges with
    #: :func:`~repro.egraph.extract.resolve_result` before consuming it.
    best_result: Optional["ExtractionResult"] = None
    #: ``(e-graph version, result)`` of the latest evaluation of this run.
    last: Optional[Tuple[int, "ExtractionResult"]] = None

    def result_at(self, egraph: EGraph) -> Optional["ExtractionResult"]:
        """The latest result, if *egraph*'s version has not moved since."""

        last = self.last
        if last is not None and last[0] == egraph.version:
            return last[1]
        return None

    def validate(self) -> None:
        if self.interval < 1:
            raise ValueError("anytime interval must be at least 1")
        if self.patience < 1:
            raise ValueError("plateau patience must be at least 1")


@record
class IterationReport:
    """Statistics for a single saturation iteration."""

    index: int
    applied: int
    egraph_nodes: int
    egraph_classes: int
    search_time: float
    apply_time: float
    rebuild_time: float
    #: Best extracted DAG cost observed at this iteration's boundary, when
    #: anytime extraction evaluated here; None otherwise.
    extracted_cost: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "applied": self.applied,
            "egraph_nodes": self.egraph_nodes,
            "egraph_classes": self.egraph_classes,
            "search_time": self.search_time,
            "apply_time": self.apply_time,
            "rebuild_time": self.rebuild_time,
            "extracted_cost": self.extracted_cost,
        }


@record
class RuleStats:
    """Accumulated per-rule profiling statistics for one saturation run."""

    name: str
    #: Number of search phases this rule participated in.
    searches: int = 0
    #: How many of those scans were incremental (joined only the rows
    #: changed since the rule's previous scan) — the search-side analogue
    #: of a cache hit, reported next to the session-cache counters.
    incremental_searches: int = 0
    #: Total wall-clock seconds spent searching / applying this rule.
    search_time: float = 0.0
    apply_time: float = 0.0
    #: Total matches found and unions actually made.
    matches: int = 0
    applied: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "searches": self.searches,
            "incremental_searches": self.incremental_searches,
            "search_time": self.search_time,
            "apply_time": self.apply_time,
            "matches": self.matches,
            "applied": self.applied,
        }


@record
class RunnerReport:
    """Aggregate statistics for a whole saturation run.

    Like its :class:`IterationReport` and :class:`RuleStats` rows, a
    frozen :func:`~repro.records.record`, built once when the run stops:
    it pickles as its field values in declaration order, so the field
    order is the cached-artifact format — changing it bumps
    :data:`~repro.session.fingerprint.ENGINE_SCHEMA`.
    """

    stop_reason: StopReason
    iterations: Tuple[IterationReport, ...] = ()
    total_time: float = 0.0
    egraph_nodes: int = 0
    egraph_classes: int = 0
    #: Per-rule profiling stats, keyed by rule name (read-only).
    rule_stats: Mapping[str, RuleStats] = field(default_factory=FrozenDict)
    #: Wall-clock seconds spent extracting from this e-graph: the runner
    #: accumulates its in-loop anytime evaluations here, and the pipeline's
    #: extraction stage adds the final extraction on top, so one JSON
    #: object carries the full search/apply/rebuild/extract phase profile
    #: of a kernel.  0.0 when no extraction ran.
    extract_time: float = 0.0
    #: Spelling of the rule scheduler that drove the run ("simple",
    #: "backoff", "match-budget").
    scheduler: str = "simple"

    def __post_init__(self) -> None:
        if type(self.iterations) is not tuple:
            object.__setattr__(self, "iterations", tuple(self.iterations))
        if type(self.rule_stats) is not FrozenDict:
            object.__setattr__(self, "rule_stats", FrozenDict(self.rule_stats))

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def total_applied(self) -> int:
        return sum(it.applied for it in self.iterations)

    @property
    def total_search_time(self) -> float:
        return sum(it.search_time for it in self.iterations)

    @property
    def total_apply_time(self) -> float:
        return sum(it.apply_time for it in self.iterations)

    @property
    def total_rebuild_time(self) -> float:
        return sum(it.rebuild_time for it in self.iterations)

    @property
    def phase_times(self) -> Dict[str, float]:
        """Where the saturation wall-clock went, by phase.

        ``search`` / ``apply`` / ``rebuild`` aggregate the per-iteration
        rows; ``extract`` is the downstream extraction time when the
        pipeline attached it (see :attr:`extract_time`).  Surfaced in
        ``BENCH_engine.json`` so perf work can see where time goes without
        re-profiling.
        """

        return {
            "search": self.total_search_time,
            "apply": self.total_apply_time,
            "rebuild": self.total_rebuild_time,
            "extract": self.extract_time,
        }

    def summary(self) -> str:
        return (
            f"stop={self.stop_reason.value} iters={self.num_iterations} "
            f"applied={self.total_applied} nodes={self.egraph_nodes} "
            f"classes={self.egraph_classes} time={self.total_time:.3f}s"
        )

    @property
    def extracted_cost(self) -> Optional[float]:
        """Last in-loop extracted cost (None when anytime never ran)."""

        for it in reversed(self.iterations):
            if it.extracted_cost is not None:
                return it.extracted_cost
        return None

    def as_dict(self) -> Dict[str, object]:
        return {
            "stop_reason": self.stop_reason.value,
            "total_time": self.total_time,
            "egraph_nodes": self.egraph_nodes,
            "egraph_classes": self.egraph_classes,
            "scheduler": self.scheduler,
            "iterations": [it.as_dict() for it in self.iterations],
            "rule_stats": {name: rs.as_dict() for name, rs in self.rule_stats.items()},
            "phase_times": self.phase_times,
        }


class _RuleTally:
    """The mutable counters of one rule during a run; the run turns each
    into its :class:`RuleStats` row when it stops."""

    __slots__ = (
        "searches", "incremental_searches", "search_time", "apply_time",
        "matches", "applied",
    )

    def __init__(self) -> None:
        self.searches = self.incremental_searches = 0
        self.search_time = self.apply_time = 0.0
        self.matches = self.applied = 0

    def row(self, name: str) -> RuleStats:
        return RuleStats(
            name, self.searches, self.incremental_searches, self.search_time,
            self.apply_time, self.matches, self.applied,
        )


class Runner:
    """Drive equality saturation of an :class:`EGraph` with a rule set.

    ``scheduler`` mediates the search and apply phases (a
    :class:`~repro.egraph.schedule.RuleScheduler`, or its string spelling
    — see :func:`~repro.egraph.schedule.make_scheduler`); ``anytime``
    attaches in-loop extraction with plateau-based early stopping.

    ``on_iteration`` is a progress hook called after every completed
    iteration (post-rebuild, post-anytime-evaluation) with that iteration's
    finished :class:`IterationReport` — the optimization service streams
    per-iteration ``extracted_cost`` snapshots to job subscribers through
    it.  The hook observes the loop, it must not mutate the e-graph; its
    wall-clock cost counts against ``time_limit`` like any other phase.  An
    exception raised by the hook aborts the run (it propagates).
    """

    def __init__(
        self,
        egraph: EGraph,
        rewrites: Sequence[Rewrite],
        limits: Optional[RunnerLimits] = None,
        scheduler: Union[None, str, "RuleScheduler"] = None,
        anytime: Optional[AnytimeExtraction] = None,
        on_iteration: Optional[IterationCallback] = None,
        cancellation: Optional[CancellationToken] = None,
        tracer=None,
        trace_parent=None,
    ) -> None:
        from repro.egraph.schedule import make_scheduler

        self.egraph = egraph
        self.rewrites = list(rewrites)
        seen: set = set()
        dupes: set = set()
        for rule in self.rewrites:
            (dupes if rule.name in seen else seen).add(rule.name)
        if dupes:
            raise ValueError(
                f"duplicate rewrite names {sorted(dupes)}: per-rule profiling "
                f"stats are keyed by name"
            )
        self.limits = limits or RunnerLimits()
        self.scheduler = make_scheduler(scheduler)
        self.anytime = anytime
        self.on_iteration = on_iteration
        #: Cooperative cancellation/deadline token, polled at iteration
        #: boundaries only (where the e-graph is canonical).
        self.cancellation = cancellation
        #: Optional :class:`repro.obs.Tracer` + parent span id — strictly
        #: observational (like ``on_iteration``): never part of any config
        #: fingerprint, and every use below is guarded by ``is not None``
        #: so the disabled hot loop allocates no spans and reads no extra
        #: clocks (phase child spans reuse the report's own timings).
        self.tracer = tracer
        self.trace_parent = trace_parent
        if anytime is not None:
            anytime.validate()
        #: Per-rule e-graph version of the last *committed* scan (parallel
        #: to :attr:`rewrites`); -1 forces a full first scan.  Only
        #: advanced when the scheduler admitted the complete match batch
        #: and the node limit did not cut it short.
        self._last_scan: List[int] = [-1] * len(self.rewrites)
        # -- anytime-extraction state (per run) ---------------------------
        self._best_cost: Optional[float] = None
        self._stale_evals: int = 0
        self._extract_time: float = 0.0

    # ------------------------------------------------------------------
    # phases (mediated by the scheduler)
    # ------------------------------------------------------------------

    def _search_phase(
        self, iteration: int, tallies: List[_RuleTally]
    ) -> List[tuple]:
        """Search scheduled rules against the pre-iteration e-graph.

        Every rule sees the same e-graph snapshot, so the result does not
        depend on rule order within an iteration.  Returns
        ``(index, rule, rows, complete)`` tuples — ``complete`` False
        when the scheduler dropped or truncated the batch, which pins the
        rule's incremental-scan stamp (see :meth:`_apply_phase`).
        """

        egraph = self.egraph
        scheduler = self.scheduler
        all_matches: List[tuple] = []
        for index, rule in enumerate(self.rewrites):
            if not scheduler.should_search(iteration, index, rule):
                continue
            since = self._last_scan[index]
            rt0 = time.perf_counter()
            matches = rule.search_rows(egraph, since=since)
            rt1 = time.perf_counter()
            rs = tallies[index]
            rs.searches += 1
            if since >= 0:
                rs.incremental_searches += 1
            rs.search_time += rt1 - rt0
            rs.matches += len(matches)
            matches, complete = scheduler.admit(iteration, index, rule, matches)
            all_matches.append((index, rule, matches, complete))
        return all_matches

    def _apply_phase(
        self,
        all_matches: List[tuple],
        scan_version: int,
        tallies: List[_RuleTally],
    ) -> tuple:
        """Apply the admitted matches; returns ``(unions made, tripped)``.

        Each batch runs under the node limit (:meth:`Rewrite.apply_rows`
        returns right after the row that crosses it); ``tripped`` is True
        when some row left the e-graph above ``node_limit``, and then no
        later rule is applied.  A rule's incremental-scan stamp advances
        to *scan_version* only when its batch was complete and applied in
        full: matches the scheduler dropped must be re-findable by the
        rule's next scan, and so must the rows a trip left unapplied.
        """

        egraph = self.egraph
        node_limit = self.limits.node_limit
        applied = 0
        for index, rule, matches, complete in all_matches:
            at0 = time.perf_counter()
            n_applied = rule.apply_rows(egraph, matches, node_limit)
            at1 = time.perf_counter()
            tripped = len(egraph) > node_limit
            if complete and not tripped:
                # matches up to scan_version are now committed; the next
                # incremental scan joins only rows changed since then
                self._last_scan[index] = scan_version
            rs = tallies[index]
            rs.apply_time += at1 - at0
            rs.applied += n_applied
            applied += n_applied
            if tripped:
                return applied, True
        return applied, False

    def _anytime_evaluate(self, iteration: int) -> tuple:
        """Run one in-loop extraction at an iteration boundary.

        Called after ``rebuild`` only — extraction reads canonical class
        ids, which are only coherent between iterations.  Returns
        ``(extracted_cost, plateaued)``.
        """

        anytime = self.anytime
        if anytime is None or (iteration + 1) % anytime.interval != 0:
            return None, False
        from repro.egraph.extract import extract_best

        egraph = self.egraph
        result = anytime.result_at(egraph)
        if result is None:
            et0 = time.perf_counter()
            result = extract_best(
                egraph,
                anytime.roots,
                anytime.cost_model,
                anytime.method,
                anytime.time_limit,
            )
            self._extract_time += time.perf_counter() - et0
            anytime.last = (egraph.version, result)
        cost = result.dag_cost
        if self._best_cost is None or cost < self._best_cost - 1e-12:
            self._best_cost = cost
            self._stale_evals = 0
            # the class ids are canonical *now*; consumers rebase them
            # against later merges (extract.resolve_result)
            anytime.best_result = result
        else:
            self._stale_evals += 1
        # the column records the best cost seen so far (monotone
        # non-increasing), not the raw per-boundary cost: greedy DAG
        # extraction can regress as the e-graph grows, and the trajectory
        # should show what an anytime stop at this boundary could deliver
        return self._best_cost, self._stale_evals >= anytime.patience

    # ------------------------------------------------------------------

    def run(self) -> RunnerReport:
        """Run until saturation or a limit is hit; returns the report."""

        start = time.perf_counter()
        egraph = self.egraph
        limits = self.limits
        scheduler = self.scheduler
        rows: List[IterationReport] = []
        tallies = [_RuleTally() for _ in self.rewrites]
        scheduler.reset(self.rewrites)
        self._best_cost = None
        self._stale_evals = 0
        self._extract_time = 0.0
        if self.anytime is not None:
            self.anytime.best_result = None
            self.anytime.last = None
        budget = CancellationToken(timeout=limits.time_limit)
        caller = self.cancellation

        def boundary_stop() -> Optional[StopReason]:
            # the caller's cancel, then its deadline, then the budget
            return (caller is not None and caller.tripped()) or budget.tripped()

        stop: Optional[StopReason] = None
        for iteration in range(limits.iter_limit):
            if len(egraph) > limits.node_limit:
                stop = StopReason.NODE_LIMIT
                break
            stop = boundary_stop()
            if stop is not None:
                break

            scheduler.begin_iteration(iteration)
            tracer = self.tracer
            it_span = None
            if tracer is not None:
                it_span = tracer.span(
                    "iteration", parent=self.trace_parent, index=iteration,
                    scheduler=scheduler.name,
                    anytime=self.anytime is not None,
                )
            scan_version = egraph.version
            t0 = time.perf_counter()
            all_matches = self._search_phase(iteration, tallies)
            t1 = time.perf_counter()
            applied, tripped = self._apply_phase(all_matches, scan_version, tallies)
            t2 = time.perf_counter()
            egraph.rebuild()
            t3 = time.perf_counter()

            scheduler.end_iteration(iteration, applied)
            extracted_cost, plateaued = self._anytime_evaluate(iteration)

            row = IterationReport(
                index=iteration,
                applied=applied,
                egraph_nodes=len(egraph),
                egraph_classes=egraph.num_classes,
                search_time=t1 - t0,
                apply_time=t2 - t1,
                rebuild_time=t3 - t2,
                extracted_cost=extracted_cost,
            )
            rows.append(row)
            if it_span is not None:
                # the child spans reuse the phase timings measured above
                # for the iteration row — tracing adds no clock reads that
                # untraced runs would not perform
                tracer.record_span("search", t0, t1, parent=it_span)
                tracer.record_span("apply", t1, t2, parent=it_span)
                tracer.record_span("rebuild", t2, t3, parent=it_span)
                it_span.end(
                    applied=applied, nodes=len(egraph),
                    classes=egraph.num_classes,
                    extracted_cost=extracted_cost,
                )
            if self.on_iteration is not None:
                self.on_iteration(row)

            if applied == 0 and scheduler.exhaustive():
                stop = StopReason.SATURATED
                break
            if plateaued:
                stop = StopReason.COST_PLATEAU
                break
            # polled after the anytime evaluation so that a tripped
            # deadline stops at exactly the state a plateau or iteration-
            # limit stop at this boundary would have seen — the
            # degradation contract
            stop = boundary_stop()
            if stop is not None:
                break
            # a trip in the apply phase stops here even when rebuild's
            # congruence merges brought the count back under the limit
            if tripped or len(egraph) > limits.node_limit:
                stop = StopReason.NODE_LIMIT
                break

        total_time = time.perf_counter() - start
        report = RunnerReport(
            stop_reason=StopReason.ITER_LIMIT if stop is None else stop,
            iterations=tuple(rows),
            total_time=total_time,
            egraph_nodes=len(egraph),
            egraph_classes=egraph.num_classes,
            rule_stats=FrozenDict(
                (rule.name, tally.row(rule.name))
                for rule, tally in zip(self.rewrites, tallies)
            ),
            extract_time=self._extract_time,
            scheduler=scheduler.name,
        )
        if self.tracer is not None:
            self.tracer.event(
                "saturation:stop", span=self.trace_parent,
                reason=report.stop_reason.value,
                iterations=len(report.iterations),
                nodes=report.egraph_nodes, classes=report.egraph_classes,
            )
        return report
