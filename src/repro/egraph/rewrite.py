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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.egraph import columns
from repro.egraph.egraph import EGraph
from repro.egraph.pattern import (
    CompiledPattern,
    Pattern,
    Substitution,
    compile_pattern,
    compile_rhs_plan,
    compile_row_applier,
    compile_row_instantiator,
    parse_pattern,
    rhs_pure_partition,
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
        self._compiled_rhs: Optional[CompiledPattern] = (
            compile_pattern(self.applier)
            if isinstance(self.applier, Pattern)
            else None
        )
        # rows pipeline (guard-free pattern->pattern rules only): either a
        # positional RHS builder or, for a bare-variable RHS, the row index
        # of the bound variable.  A RHS variable absent from the LHS keeps
        # the rule on the dict path, preserving its KeyError-at-apply
        # behaviour (such a rule is malformed, but the failure mode is
        # part of the observable API).
        self._inst_rows = None
        self._apply_rows_fn = None
        self._bare_idx: Optional[int] = None
        self._rhs_plan = None
        self._batch_cooldown = 0
        self._batch_bails = 0
        compiled_rhs = self._compiled_rhs
        if compiled_rhs is not None and self.guard is None:
            lhs_vars = self._compiled.vars
            if compiled_rhs._bare_var is not None:
                if compiled_rhs._bare_var in lhs_vars:
                    self._bare_idx = 1 + lhs_vars.index(compiled_rhs._bare_var)
                    # degenerate probe plan: no nodes, root reads the row
                    self._rhs_plan = ((), (0, self._bare_idx))
            elif all(name in lhs_vars for name in compiled_rhs.vars):
                self._inst_rows = compile_row_instantiator(self.applier, lhs_vars)
                self._apply_rows_fn = compile_row_applier(self.applier, lhs_vars)
                self._rhs_plan = compile_rhs_plan(self.applier, lhs_vars)

    @property
    def rows_capable(self) -> bool:
        """True when this rule can run the flat-row search/apply pipeline.

        Requires a guard-free pattern applier whose variables all occur in
        the searcher — exactly the rules the runner may also search
        incrementally.  Guarded or dynamic rules need substitution dicts
        (their callables receive one by contract).
        """

        return self._bare_idx is not None or self._inst_rows is not None

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

        applied = 0
        compiled_rhs = self._compiled_rhs
        if compiled_rhs is not None:
            find = egraph.uf.find
            parent = egraph.uf._parent
            merge_roots = egraph.merge_roots
            # bind the generated arena builder directly (skips a method
            # dispatch per match); a bare-variable RHS has no builder and
            # resolves to the bound class.  The builder returns a canonical
            # root, and a matched class id is only stale if an earlier
            # match of this batch merged it — the inline parent-array check
            # skips the find call in the common still-canonical case.
            inst = compiled_rhs._inst
            if inst is None:
                bare = compiled_rhs._bare_var
                for eclass_id, subst in matches:
                    ra = find(subst[bare])
                    rb = eclass_id
                    if parent[rb] != rb:
                        rb = find(rb)
                    if ra != rb:
                        merge_roots(ra, rb)
                        applied += 1
                return applied
            for eclass_id, subst in matches:
                # the builder's class can be merged away before it returns
                # (constant folding's `modify` unions the folded literal
                # in), so its id needs the same staleness check
                ra = inst(egraph, subst)
                if parent[ra] != ra:
                    ra = find(ra)
                rb = eclass_id
                if parent[rb] != rb:
                    rb = find(rb)
                if ra != rb:
                    merge_roots(ra, rb)
                    applied += 1
            return applied

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

        Identical union sequence to :meth:`apply` on the equivalent dict
        matches (same builders, same staleness checks, same merge order) —
        minus the per-match substitution dict.  Large batches first run a
        vectorised purity prepass (:func:`rhs_pure_partition`): rows whose
        application would be an invisible no-op — every RHS node already
        interned, final merge a no-op — are skipped in bulk, rows needing
        only a merge get it directly from the precomputed roots, and only
        genuinely opaque rows (a probe missed: adds must fire) run the
        scalar applier, in original row order.  A union after the prepass
        doesn't force a re-probe: each verdict carries a proof-id row, and
        a one-gather root check revalidates it (see
        :func:`rhs_pure_partition`); rows whose proof moved fall back to
        the scalar loop — which keeps the mutation sequence exactly the
        scalar loop's.
        """

        if (
            self._rhs_plan is not None
            and self._rhs_plan[0]
            and len(rows) >= 32
        ):
            # adaptive gate: a batch that bailed (merge/miss-heavy — the
            # e-graph is still growing under this rule) predicts the next
            # few will too, so skip the prepass for a while.  Pure routing
            # heuristic: both paths produce identical mutations.
            if self._batch_cooldown > 0:
                self._batch_cooldown -= 1
            else:
                mat = (
                    rows.mat if type(rows) is columns.RowBatch else None
                )
                return self._apply_rows_batched(egraph, rows, mat)
        return self._apply_rows_scalar(egraph, rows)

    def _apply_rows_scalar(self, egraph: EGraph, rows) -> int:
        if type(rows) is columns.RowBatch:
            # bulk .tolist() rows (lists of Python ints) — the generated
            # loop only indexes them, and skipping the per-row tuple()
            # halves the materialisation cost
            rows = rows.mat.tolist()
        bare_idx = self._bare_idx
        if bare_idx is not None:
            applied = 0
            find = egraph.uf.find
            parent = egraph.uf._parent
            merge_roots = egraph.merge_roots
            for row in rows:
                ra = row[bare_idx]
                if parent[ra] != ra:
                    ra = find(ra)
                rb = row[0]
                if parent[rb] != rb:
                    rb = find(rb)
                if ra != rb:
                    merge_roots(ra, rb)
                    applied += 1
            return applied
        # generated batch loop: instantiate + staleness checks + merge,
        # with the prologue hoisted out of the per-match path
        return self._apply_rows_fn(egraph, rows)

    def _apply_rows_batched(self, egraph, rows, mat=None) -> int:
        """Prepass-driven :meth:`apply_rows` (see there for the contract).

        The batch is partitioned lazily, one chunk at a time (verdicts are
        row-independent, so a chunk's prepass is exact regardless of what
        the sweep did before it) — a growth-heavy batch bails after paying
        for a single chunk, not the whole batch.  Within a chunk, windows
        are scanned for non-pure or proof-invalidated rows with one
        vectorised root check, and only those rows run Python code (a
        direct merge when the proof held, the scalar applier otherwise).
        Every union re-checks the remaining window against a fresh
        union-find snapshot, so each row's action is provably the one the
        scalar loop would have taken in its place.
        """

        n = len(rows)
        if mat is None:
            # flat fromiter is ~2x np.array(list-of-tuples): one C loop
            # over a chained iterator instead of per-row sequence probing
            width = len(rows[0])
            mat = np.fromiter(
                chain.from_iterable(rows), np.int64, count=n * width
            ).reshape(n, width)
        is_batch = type(rows) is columns.RowBatch
        scalar_rest = self._apply_rows_scalar
        merge_roots = egraph.merge_roots
        flat = np.flatnonzero
        applied = 0
        PCHUNK = 4096
        RCHUNK = 512
        p = 0
        while p < n:
            pend = min(p + PCHUNK, n)
            part = rhs_pure_partition(egraph, self._rhs_plan, mat[p:pend])
            if part is None:
                # probe-index encoding overflow: scalar remainder
                self._batch_cooldown = 16
                rest = (
                    columns.RowBatch(mat[p:]) if is_batch else rows[p:]
                )
                return applied + scalar_rest(egraph, rest)
            status, ra_arr, rb_arr, proof = part
            m = pend - p
            nonpure = m - int((status == 0).sum())
            if nonpure > max(32, m >> 6):
                # growth-heavy chunk: per-row work dominates anyway, and a
                # union storm would thrash the revalidation — the scalar
                # loop is strictly better here.  Bails escalate the
                # cooldown exponentially (growth phases produce long runs
                # of them, each costing a wasted chunk prepass); the first
                # pure-dominated batch resets it, so steady-state
                # saturation pays nothing.
                self._batch_bails += 1
                self._batch_cooldown = min(64, 2 << self._batch_bails)
                rest = (
                    columns.RowBatch(mat[p:]) if is_batch else rows[p:]
                )
                return applied + scalar_rest(egraph, rest)
            self._batch_bails = 0
            unions0 = egraph._n_unions
            j = 0
            while j < m:
                end = min(j + RCHUNK, m)
                okw = None
                if egraph._n_unions != unions0:
                    # unions moved some roots: one gather per window
                    # proves which verdicts still hold (all proof ids
                    # still union-find roots)
                    pa = egraph._np_parent()
                    pr = proof[j:end]
                    okw = (pa[pr] == pr).all(axis=1)
                    bad = flat((status[j:end] != 0) | ~okw)
                else:
                    bad = flat(status[j:end] != 0)
                nb = len(bad)
                bi = 0
                dirty = False
                while bi < nb:
                    w = int(bad[bi])
                    idx = j + w
                    if status[idx] == 1 and (okw is None or okw[w]):
                        # proof held: ra/rb are exactly the canonical
                        # roots the scalar epilogue would compute here
                        merge_roots(int(ra_arr[idx]), int(rb_arr[idx]))
                        applied += 1
                        j = idx + 1
                        dirty = True
                        break
                    # scalar-bound run (opaque, or verdict invalidated):
                    # extend over adjacent bad rows of the same kind — the
                    # scalar loop is the reference semantics, so a
                    # contiguous slice of it is exact no matter what
                    # unions fire inside
                    k = bi
                    while k + 1 < nb and int(bad[k + 1]) == int(bad[k]) + 1:
                        w2 = int(bad[k + 1])
                        if status[j + w2] == 1 and (okw is None or okw[w2]):
                            break
                        k += 1
                    hi = j + int(bad[k]) + 1
                    applied += scalar_rest(egraph, rows[p + idx : p + hi])
                    if egraph._n_unions != unions0:
                        # a union voids the rest of this window's scan —
                        # resume from the next row with a fresh root check
                        j = hi
                        dirty = True
                        break
                    bi = k + 1
                if not dirty:
                    j = end
            p = pend
        return applied

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
