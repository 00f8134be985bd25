"""Rewrite rules over e-graphs.

A rewrite is a named pair of patterns, *searcher* ``=>`` *applier* —
every rule of the paper's Table I has this shape, and it is the only one
the engine knows (constant folding is an e-class analysis, not a rule).

The searcher is compiled once (see
:class:`~repro.egraph.pattern.CompiledPattern`); :meth:`Rewrite.search_rows`
returns its matches as flat ``(class id, v0, v1, ..)`` rows and accepts a
``since`` version stamp for incremental search: only matches that use a
row created or re-rooted since the rule's previous scan come back, which
is sound because a match built only from older rows is one that scan
already found and applied.  Applying a match twice is not always a no-op:
when another rule's union in the same iteration moved a class the row
binds, the re-application can mint a transient duplicate e-node and a
redundant union — not re-finding old matches avoids exactly that.

The applier is lowered at construction into a generated row loop
(:func:`~repro.egraph.pattern.compile_row_applier`) that instantiates the
right-hand side and merges, row by row; :meth:`Rewrite.apply_rows` feeds
it the search's rows.  A rule is immutable after construction: no per-run
state lives on it, so one ruleset may serve any number of runners.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.egraph import columns
from repro.egraph.egraph import EGraph
from repro.egraph.pattern import (
    CompiledPattern,
    Pattern,
    compile_pattern,
    compile_row_applier,
    parse_pattern,
)

__all__ = ["Rewrite", "rewrite"]

#: Match rows handed to the generated apply loop per call: a batch is
#: turned into Python lists one slice at a time.
_APPLY_SLICE = 1024


@dataclass
class Rewrite:
    """A named rewrite rule ``lhs => rhs``."""

    name: str
    searcher: Pattern
    applier: Pattern

    def __post_init__(self) -> None:
        if not isinstance(self.applier, Pattern):
            raise TypeError(
                f"rewrite {self.name!r}: applier must be a Pattern, "
                f"not {type(self.applier).__name__}"
            )
        self._compiled: CompiledPattern = compile_pattern(self.searcher)
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

    def search_rows(self, egraph: EGraph, since: Optional[int] = None) -> List[tuple]:
        """Find matches of the left-hand side as flat match rows.

        Returns ``(eclass_id, v0, v1, ..)`` tuples (searcher variable
        order) in the deterministic sorted-bucket match order.  With
        ``since >= 0`` only matches using a row created or re-rooted after
        that version stamp are returned (incremental search, see
        :meth:`~repro.egraph.pattern.CompiledPattern.search_rows`); pass
        None or ``-1`` for a full scan.
        """

        return self._compiled.search_rows(egraph, since)

    def apply_rows(
        self, egraph: EGraph, rows: List[tuple], limit: Optional[int] = None
    ) -> int:
        """Apply the right-hand side to the match rows; returns #unions made.

        Hands the rows to the rule's generated row loop
        (:func:`~repro.egraph.pattern.compile_row_applier`) — the one
        place a right-hand side is instantiated and merged.

        Rows are applied in order until one leaves the e-graph with more
        than ``limit`` e-nodes (None: no limit); the loop returns right
        after that row and never touches the rest.  The runner passes its
        ``node_limit``, so a limit-bounded run stops within one row of the
        bound instead of one rule batch.  A match a previous iteration
        already committed (re-found after its stamp stayed pinned) is
        applied again: its union is usually a no-op, and its hashcons
        probes add nothing unless mid-phase canonicalisation drift spawns
        a transient class, which the node count then includes.

        A :class:`~repro.egraph.columns.RowBatch` reaches the loop in
        slices of ``_APPLY_SLICE`` rows, each turned into Python lists
        only when its turn comes: a large batch never exists as lists all
        at once, and the slices after a node-limit trip are never
        converted.
        """

        apply_fn = self._apply_rows_fn
        if limit is None:
            limit = sys.maxsize
        if type(rows) is not columns.RowBatch:
            return apply_fn(egraph, rows, limit)
        # per-slice .tolist() rows (lists of Python ints) — the generated
        # loop only indexes them, and skipping the per-row tuple() halves
        # the materialisation cost.  The loop checks the limit after every
        # row, so stopping after the slice whose last applied row crossed
        # it applies exactly the rows one whole-batch call would.
        mat = rows.mat
        applied = 0
        for start in range(0, len(mat), _APPLY_SLICE):
            applied += apply_fn(egraph, mat[start:start + _APPLY_SLICE].tolist(), limit)
            if len(egraph) > limit:
                break
        return applied

    def __str__(self) -> str:
        return f"{self.name}: {self.searcher} => {self.applier}"


def rewrite(
    name: str,
    lhs: Union[str, Pattern],
    rhs: Union[str, Pattern],
) -> Rewrite:
    """Build a :class:`Rewrite`, parsing textual patterns when given strings.

    Example — the paper's FMA1 rule::

        rewrite("fma1", "(+ ?a (* ?b ?c))", "(fma ?a ?b ?c)")
    """

    searcher = parse_pattern(lhs) if isinstance(lhs, str) else lhs
    applier = parse_pattern(rhs) if isinstance(rhs, str) else rhs
    return Rewrite(name, searcher, applier)
