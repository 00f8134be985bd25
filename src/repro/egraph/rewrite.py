"""Rewrite rules over e-graphs.

A rewrite is a named pair *(searcher, applier)*: the searcher is a
:class:`~repro.egraph.pattern.Pattern` whose matches are collected across
the whole e-graph, and the applier either instantiates a right-hand-side
pattern (the common case — every rule in the paper's Table I is of this
form) or runs an arbitrary callable for dynamic rewrites.  An optional
guard filters matches before application.

The searcher is compiled once (see
:class:`~repro.egraph.pattern.CompiledPattern`) and :meth:`Rewrite.search`
accepts an optional ``since`` version stamp for incremental search: classes
untouched since the rule's previous scan are skipped, which is sound
because the matches rooted there are exactly the ones the previous scan
already found (and applying a match twice is a no-op union).  The caveat:
touch stamps only track the *match cone* — a guard reading state outside
it may change its verdict without the class being touched, so the
:class:`~repro.egraph.runner.Runner` only passes ``since`` for guard-free
pattern-applier rules.

There is one apply loop per kind of applier.  A pattern applier is
lowered at construction into a generated row loop
(:func:`~repro.egraph.pattern.compile_row_applier`) that instantiates the
right-hand side and merges, match by match, over flat ``(class id, v0,
v1, ..)`` rows; :meth:`Rewrite.apply_rows` feeds it the matcher's rows and
:meth:`Rewrite.apply` converts substitution dicts to rows first.  A
callable applier has its own loop in :meth:`Rewrite.apply`.  A rule is
immutable after construction: no per-run state lives on it, so one
ruleset may serve any number of runners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from repro.egraph import columns
from repro.egraph.egraph import EGraph
from repro.egraph.pattern import (
    CompiledPattern,
    Pattern,
    Substitution,
    compile_pattern,
    compile_row_applier,
    parse_pattern,
)

__all__ = ["Rewrite", "rewrite"]

#: A guard receives (egraph, matched class id, substitution) and may veto.
Guard = Callable[[EGraph, int, Substitution], bool]

#: A dynamic applier returns the e-class id to merge with the match, or None.
DynamicApplier = Callable[[EGraph, int, Substitution], Optional[int]]


@dataclass
class Rewrite:
    """A named rewrite rule ``lhs => rhs``."""

    name: str
    searcher: Pattern
    applier: Union[Pattern, DynamicApplier]
    guard: Optional[Guard] = None
    #: Set False for expansive rules that should only fire once per pair
    #: (not needed by the paper's rule set but useful for experimentation).
    bidirectional: bool = False

    def __post_init__(self) -> None:
        self._compiled: CompiledPattern = compile_pattern(self.searcher)
        #: The generated row loop of a pattern applier (None for a
        #: callable applier).
        self._apply_rows_fn = None
        if isinstance(self.applier, Pattern):
            lhs_vars = self._compiled.vars
            unbound = [
                name for name in self.applier.variables() if name not in lhs_vars
            ]
            if unbound:
                raise ValueError(
                    f"rewrite {self.name!r}: applier {self.applier} uses "
                    + ", ".join(f"?{name}" for name in unbound)
                    + f", which the searcher {self.searcher} does not bind"
                )
            self._apply_rows_fn = compile_row_applier(self.applier, lhs_vars)

    @property
    def rows_capable(self) -> bool:
        """True when this rule can run the flat-row search/apply pipeline.

        Requires a guard-free pattern applier — exactly the rules the
        runner may also search incrementally.  Guarded or dynamic rules
        need substitution dicts (their callables receive one by contract).
        """

        return self.guard is None and self._apply_rows_fn is not None

    # ------------------------------------------------------------------

    def search(
        self,
        egraph: EGraph,
        since: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[Tuple[int, Substitution]]:
        """Find matches of the left-hand side.

        With ``since`` set, only classes touched after that version stamp
        are scanned (incremental search); pass None for a full scan.
        With ``limit`` set, at most that many (post-guard) matches are
        returned — the *first* ``limit`` in the deterministic sorted-bucket
        match order, so capped searches are reproducible across processes.
        A caller that truncates (e.g. the match-budget scheduler) must not
        advance its incremental-scan stamp past this scan, or the matches
        beyond the cap are lost to future scans.
        """

        matches = self._compiled.search(egraph, since)
        if self.guard is not None:
            guard = self.guard
            matches = [
                (eclass_id, subst)
                for eclass_id, subst in matches
                if guard(egraph, eclass_id, subst)
            ]
        if limit is not None and len(matches) > limit:
            del matches[limit:]
        return matches

    def search_rows(
        self,
        egraph: EGraph,
        since: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[tuple]:
        """:meth:`search` for :attr:`rows_capable` rules: flat match rows.

        Returns ``(eclass_id, v0, v1, ..)`` tuples (searcher variable
        order) in the same deterministic order as :meth:`search` — the two
        pipelines differ only in representation, never in content.  Only
        valid for guard-free rules (callers check :attr:`rows_capable`).
        """

        rows = self._compiled.search_rows(egraph, since)
        if limit is not None and len(rows) > limit:
            # a non-empty search result is always a RowBatch
            rows = columns.RowBatch(rows.mat[:limit])
        return rows

    def apply(
        self, egraph: EGraph, matches: List[Tuple[int, Substitution]]
    ) -> int:
        """Apply the right-hand side to every match; returns #unions made.

        Note that every match is applied, even ones already committed by a
        previous iteration: a redundant application is a no-op *union*, but
        its hashcons probes participate in the e-graph's node-count
        trajectory (mid-phase canonicalisation drift can spawn transient
        classes), and the node-limit check observes that trajectory.
        Skipping them would change where limit-bounded runs stop.
        """

        if self._apply_rows_fn is not None:
            # rows in searcher-variable order, as search_rows emits them
            names = self._compiled.vars
            return self.apply_rows(
                egraph,
                [
                    (eclass_id, *[subst[name] for name in names])
                    for eclass_id, subst in matches
                ],
            )

        applied = 0
        applier = self.applier
        for eclass_id, subst in matches:
            new_id = applier(egraph, eclass_id, subst)
            if new_id is None:
                continue
            if not egraph.is_equal(new_id, eclass_id):
                egraph.merge(new_id, eclass_id)
                applied += 1
        return applied

    def apply_rows(self, egraph: EGraph, rows: List[tuple]) -> int:
        """:meth:`apply` for flat match rows from :meth:`search_rows`.

        Hands the rows to the rule's generated row loop
        (:func:`~repro.egraph.pattern.compile_row_applier`) — the one
        place a pattern right-hand side is instantiated and merged.
        """

        if type(rows) is columns.RowBatch:
            # bulk .tolist() rows (lists of Python ints) — the generated
            # loop only indexes them, and skipping the per-row tuple()
            # halves the materialisation cost
            rows = rows.mat.tolist()
        return self._apply_rows_fn(egraph, rows)

    def run(self, egraph: EGraph) -> int:
        """Search and apply in one step (rebuild is the caller's job)."""

        return self.apply(egraph, self.search(egraph))

    def __str__(self) -> str:
        rhs = self.applier if isinstance(self.applier, Pattern) else "<dynamic>"
        return f"{self.name}: {self.searcher} => {rhs}"


def rewrite(
    name: str,
    lhs: Union[str, Pattern],
    rhs: Union[str, Pattern, DynamicApplier],
    guard: Optional[Guard] = None,
) -> Rewrite:
    """Build a :class:`Rewrite`, parsing textual patterns when given strings.

    Example — the paper's FMA1 rule::

        rewrite("fma1", "(+ ?a (* ?b ?c))", "(fma ?a ?b ?c)")
    """

    searcher = parse_pattern(lhs) if isinstance(lhs, str) else lhs
    applier: Union[Pattern, DynamicApplier]
    if isinstance(rhs, str):
        applier = parse_pattern(rhs)
    else:
        applier = rhs
    return Rewrite(name, searcher, applier, guard)
