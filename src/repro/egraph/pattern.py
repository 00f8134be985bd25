"""Patterns, compiled patterns, and relational e-matching.

A pattern is a term whose leaves may be *pattern variables* (spelled ``?x``
in the textual syntax).  E-matching finds, for a given e-class, every
substitution of pattern variables to e-class ids such that the pattern is
represented in the class.  This is the search half of a rewrite rule.

The textual syntax accepted by :func:`parse_pattern` is a tiny s-expression
language, e.g. the FMA1 rule of the paper (Table I) is written::

    (+ ?a (* ?b ?c))   ->   (fma ?a ?b ?c)

One production engine, one reference:

* the **relational matcher** (:func:`_relational_search`, behind
  :meth:`CompiledPattern.search_rows`) executes every operator pattern as
  a *join* over the e-graph's columnar store (:mod:`repro.egraph.columns`):
  each operator node becomes an *atom* whose relation is the per-op column
  slice filtered by arity/payload, and shared variables (plus the
  parent-child links of the pattern tree) become hash-join keys (encoded
  into int64 and resolved by sort + ``searchsorted``).  The join plan is
  deterministic (:func:`_plan_order`): a lead atom, then greedily the
  smallest remaining connected relation, ties broken by op id then
  pre-order atom index.  An incremental ``since`` search is semi-naive
  over the store's per-row change stamps (see
  :meth:`EGraph._sync_row_touch`): each relation splits into its Δ
  (rows stamped after ``since``) and old half, and the join that leads
  with atom *i* reads Δ_i, old_j for j < i and full_j for j > i, so every
  match using a changed row is found exactly once and no match built
  only from unchanged rows is found at all.
  Join results are ordered by lexsorting ``(root class id, rank_0, ..,
  rank_k)`` where ``rank_i`` is atom *i*'s position inside its class's
  deterministic :meth:`~repro.egraph.egraph.EGraph.nodes_by_op`
  bucket order — which is the reference matcher's nested-loop emission
  order (two results agreeing on all earlier ranks chose identical rows,
  hence atom *i* draws from the same bucket, where rank order *is*
  iteration order).  A single-atom "join" is the relation slice itself.
* the **reference matcher** (:meth:`Pattern.search_naive`,
  :func:`_match_pattern`) — a backtracking generator that re-walks the
  pattern dataclass tree over :class:`~repro.egraph.egraph.ENode` values
  built on demand: root classes in ascending id, each class's nodes in
  bucket order.  It is the executable specification of *which* rows
  match and in *what order*; the relational matcher is tested against it
  with exact list equality.

Matches flow as flat **rows** ``(root_class_id, v0, v1, ..)`` with
variable values in :meth:`Pattern.variables` order — what
:meth:`CompiledPattern.search_rows` returns; the reference matcher yields
``(class id, substitution dict)`` pairs in the same order.  The apply half
is one generated loop per right-hand side (:func:`compile_row_applier`,
built by :class:`_InstantiatorCodegen`) that consumes those rows;
:meth:`Pattern.instantiate` is its plain recursive reference.

:func:`compile_pattern` memoises the lowering, and :func:`parse_pattern`
memoises parsing, so building a ruleset repeatedly (as benchmark loops do)
costs one compilation total per distinct pattern.  Compiled patterns are
graph-agnostic: interned ids are resolved per call, so one compiled
pattern serves every e-graph in the process.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.egraph import columns
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.language import Term

__all__ = [
    "PatternVar",
    "Pattern",
    "CompiledPattern",
    "compile_pattern",
    "compile_row_applier",
    "parse_pattern",
    "Substitution",
]


@dataclass(frozen=True)
class PatternVar:
    """A pattern variable, e.g. ``?a``."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


#: A substitution maps pattern-variable names to e-class ids.
Substitution = Dict[str, int]

PatternNode = Union["Pattern", PatternVar]


@dataclass(frozen=True)
class Pattern:
    """A pattern term: an operator applied to sub-patterns or variables."""

    op: str
    children: Tuple[PatternNode, ...] = ()
    payload: object = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def from_term(term: Term) -> "Pattern":
        """Lift a ground term into a (variable-free) pattern."""

        return Pattern(
            term.op,
            tuple(Pattern.from_term(c) for c in term.children),
            term.payload,
        )

    def variables(self) -> List[str]:
        """Names of the pattern variables, in first-occurrence order."""

        names: List[str] = []

        def visit(node: PatternNode) -> None:
            if isinstance(node, PatternVar):
                if node.name not in names:
                    names.append(node.name)
                return
            for child in node.children:
                visit(child)

        visit(self)
        return names

    # ------------------------------------------------------------------
    # E-matching
    # ------------------------------------------------------------------

    def compile(self) -> "CompiledPattern":
        """The (memoised) compiled form of this pattern."""

        return compile_pattern(self)

    def match_class(self, egraph: EGraph, eclass_id: int) -> Iterator[Substitution]:
        """Yield every substitution under which this pattern is in the class."""

        yield from _match_pattern(egraph, self, egraph.find(eclass_id), {})

    def search_naive(self, egraph: EGraph) -> List[Tuple[int, Substitution]]:
        """Reference search: ``(eclass_id, substitution)`` pairs.

        A backtracking generator over every e-class — the executable
        specification :meth:`CompiledPattern.search_rows` is tested
        against (same matches, same order).  Root classes are visited in
        ascending id — with the per-class bucket order of
        :func:`_match_pattern` this fixes the match *order*, not just the
        match set.
        """

        matches: List[Tuple[int, Substitution]] = []
        for eclass_id in egraph.class_ids():
            for subst in self.match_class(egraph, eclass_id):
                matches.append((eclass_id, subst))
        return matches

    # ------------------------------------------------------------------
    # Instantiation (used by the applier half of rewrites)
    # ------------------------------------------------------------------

    def instantiate(self, egraph: EGraph, subst: Substitution) -> int:
        """Add this pattern to the e-graph under *subst*; return the class id."""

        bare = _bare_variable(self)
        if bare is not None:
            # a bare-variable right-hand side (e.g. the `(+ ?a 0) => ?a`
            # identity): the result is simply the bound class
            return egraph.find(subst[bare])
        child_ids: List[int] = []
        for child in self.children:
            if isinstance(child, PatternVar):
                child_ids.append(subst[child.name])
            else:
                child_ids.append(child.instantiate(egraph, subst))
        return egraph.add(ENode(self.op, tuple(child_ids), self.payload))

    def to_term(self, bindings: Dict[str, Term]) -> Term:
        """Instantiate into a plain term given variable-to-term bindings."""

        children: List[Term] = []
        for child in self.children:
            if isinstance(child, PatternVar):
                children.append(bindings[child.name])
            else:
                children.append(child.to_term(bindings))
        return Term(self.op, tuple(children), self.payload)

    def __str__(self) -> str:
        label = self.op if self.payload is None else f"{self.op}:{self.payload}"
        if not self.children:
            if self.op == "num":
                return repr(self.payload)
            if self.op == "sym":
                return str(self.payload)
            return f"({label})"
        return f"({label} {' '.join(str(c) for c in self.children)})"


def _bare_variable(pattern: Pattern) -> Optional[str]:
    """The variable name if *pattern* is a bare ``?x``, else None.

    :func:`parse_pattern` spells a bare variable ``Pattern("?", (?x,))``.
    """

    if (
        pattern.op == "?"
        and len(pattern.children) == 1
        and isinstance(pattern.children[0], PatternVar)
    ):
        return pattern.children[0].name
    return None


# ---------------------------------------------------------------------------
# Compiled patterns
# ---------------------------------------------------------------------------


#: Process-wide sequence for instantiator identity (indexes the per-graph
#: resolved-constant cache ``EGraph._inst_consts``).
_INST_SEQ = iter(range(1 << 62)).__next__


class _InstantiatorCodegen:
    """Lower a right-hand-side pattern into its generated apply loop.

    Emits a statement sequence mirroring the recursive instantiation order
    (children left-to-right, bottom-up) with the arena's hashcons **hit
    path inlined**: per node, build the ``(op_id, payload_id, child...)``
    key, canonicalise the child ids only if one went stale (an inline
    parent-array check — a sibling's add can merge a child away via
    constant folding), probe ``eg.hashcons`` directly, and only fall back
    to ``eg.add_key`` on a miss.  Saturation overwhelmingly re-derives
    nodes that already exist, so the common per-node cost is one tuple
    build plus one dict probe, with no function call.  The pattern's
    operator/payload ids are interned once per (graph, pattern) and cached
    in ``eg._inst_consts`` (interned ids are append-only, so the cache
    never goes stale), making the per-call prologue two attribute binds
    and one dict probe.

    *positions* maps each variable name to its index in a flat match row:
    the generated code reads its bindings positionally (``row[3]``), so
    the runner never materialises substitution dicts (see
    :func:`compile_row_applier`).
    """

    def __init__(self, positions: Dict[str, int]) -> None:
        self.const_values: List[object] = []   # op names / payloads, in order
        self.const_kinds: List[str] = []       # "op" | "payload"
        self.id_locals: Dict[tuple, str] = {}
        self.body: List[str] = []
        self.var_locals: Dict[str, str] = {}
        self.counter = 0
        self.positions = positions

    def _id_local(self, kind: str, value: object) -> str:
        memo_key = (kind, type(value).__name__, value)
        local = self.id_locals.get(memo_key)
        if local is None:
            local = f"_i{len(self.id_locals)}"
            self.id_locals[memo_key] = local
            self.const_values.append(value)
            self.const_kinds.append(kind)
        return local

    def _name(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def _node(self, node: PatternNode) -> str:
        """Emit statements computing *node*'s class id; return its local."""

        if isinstance(node, PatternVar):
            local = self.var_locals.get(node.name)
            if local is None:
                local = self._name("_s")
                self.var_locals[node.name] = local
                self.body.append(f"{local} = subst[{self.positions[node.name]}]")
            return local
        child_vars = [self._node(child) for child in node.children]
        key = self._name("_t")
        value = self._name("_v")
        payload_expr = (
            "0" if node.payload is None else self._id_local("payload", node.payload)
        )
        parts = [self._id_local("op", node.op), payload_expr]
        parts.extend(child_vars)
        self.body.append(f"{key} = ({', '.join(parts)},)")
        if child_vars:
            stale = " or ".join(f"parent[{v}] != {v}" for v in child_vars)
            canon = ", ".join(f"find({v})" for v in child_vars)
            self.body.append(f"if {stale}:")
            self.body.append("    find = eg.uf.find")
            self.body.append(f"    {key} = ({', '.join(parts[:2])}, {canon},)")
        self.body.append(f"{value} = hc({key})")
        # the key is canonical (inline child re-canonicalisation above) and
        # just missed the probe — take the arena's dedicated miss entry
        self.body.append(f"if {value} is None: {value} = eg._add_canon_miss({key})")
        self.body.append(
            f"elif parent[{value}] != {value}: {value} = eg.uf.find({value})"
        )
        return value

    def _prologue(self, name: str, args: str) -> List[str]:
        seq = _INST_SEQ()
        unpack = ", ".join(f"_i{i}" for i in range(len(self.id_locals)))
        lines = [
            f"def {name}(eg, {args}):",
            "    hc = eg.hashcons.get",
            "    parent = eg.uf._parent",
            f"    _ids = eg._inst_consts.get({seq})",
            "    if _ids is None:",
            "        _ids = _resolve(eg)",
            f"        eg._inst_consts[{seq}] = _ids",
        ]
        if unpack:
            lines.append(f"    {unpack}{',' if len(self.id_locals) == 1 else ''} = _ids")
        return lines

    def _compile(self, lines: List[str], name: str):
        kinds = tuple(self.const_kinds)
        values = tuple(self.const_values)

        def _resolve(eg) -> tuple:
            return tuple(
                eg._intern_op(value) if kind == "op" else eg._intern_payload(value)
                for kind, value in zip(kinds, values)
            )

        namespace: Dict[str, object] = {"_resolve": _resolve}
        exec("\n".join(lines), namespace)  # noqa: S102 - trusted codegen
        return namespace[name]

    def build_batch(self, pattern: PatternNode):
        """The apply loop: instantiate + merge over a whole row list.

        Generates the instantiation statements inside a ``for`` loop over
        match rows, with the prologue (hashcons/parent binds, interned id
        resolution) hoisted out — one function call per *batch*, not one
        per match.  The loop epilogue canonicalises both sides with
        the inline parent-array check (the builder's class can be merged
        away before it returns — constant folding's ``modify`` unions the
        folded literal in — and a matched class id goes stale when an
        earlier row of the batch merged it) and counts the merges
        performed.  All bound locals (the parent list, the hashcons dict)
        are mutated in place by adds/merges, so hoisting the binds cannot
        change what the loop observes.  A :class:`PatternVar` *pattern*
        (a bare-variable right-hand side) generates the epilogue alone.

        After every row the loop compares the e-graph's node count
        (``len(eg.hashcons)``) with ``limit`` and returns right after the
        first row that leaves it above the limit, leaving the remaining
        rows untouched: a row adds
        at most one e-node per operator node of *pattern* (plus the
        literal an analysis's ``modify`` may inject per new class), so
        the count overshoots the limit by at most that much.
        """

        result = self._node(pattern)
        lines = self._prologue("_apply_rows", "rows, limit")
        lines += [
            "    find = eg.uf.find",
            "    merge_roots = eg.merge_roots",
            "    nodes = eg.hashcons",
            "    applied = 0",
            "    for subst in rows:",
        ]
        lines.extend(f"        {line}" for line in self.body)
        lines += [
            f"        ra = {result}",
            "        if parent[ra] != ra: ra = find(ra)",
            "        rb = subst[0]",
            "        if parent[rb] != rb: rb = find(rb)",
            "        if ra != rb:",
            "            merge_roots(ra, rb)",
            "            applied += 1",
            "        if len(nodes) > limit: return applied",
            "    return applied",
        ]
        return self._compile(lines, "_apply_rows")


# ---------------------------------------------------------------------------
# Relational (join-based) matching engine
# ---------------------------------------------------------------------------


class _Atom:
    """One operator node of a flattened pattern.

    ``class_var`` names the variable bound to the atom's e-class id
    (synthetic — ``\\x00``-prefixed — except nowhere: pattern variables can
    only occur in child slots); ``child_vars`` name the variables bound to
    its child slots, one per child, real pattern variables and synthetic
    link variables mixed.  A synthetic variable appears exactly twice: as a
    parent's child slot and as the child atom's ``class_var`` — these links
    plus repeated real variables are the join's equality constraints.
    """

    __slots__ = ("index", "op", "payload", "nchildren", "class_var", "child_vars")

    def __init__(self, index: int, op: str, payload: object, nchildren: int,
                 class_var: str) -> None:
        self.index = index
        self.op = op
        self.payload = payload
        self.nchildren = nchildren
        self.class_var = class_var
        self.child_vars: List[str] = []


def _flatten_pattern(pattern: Pattern) -> List[_Atom]:
    """Flatten *pattern* into atoms in the reference matcher's loop order.

    The reference matcher opens one bucket loop per operator node in
    depth-first pre-order (a nested operator child's loop opens inside its
    parent's, before any later sibling's); atom indices reproduce exactly
    that nesting order, which is what makes the rank-vector sort of
    :func:`_relational_search` equal the nested loops' emission order.
    """

    atoms: List[_Atom] = []
    counter = iter(range(1 << 30))

    def visit(node: Pattern, class_var: str) -> None:
        atom = _Atom(len(atoms), node.op, node.payload, len(node.children), class_var)
        atoms.append(atom)
        nested: List[Tuple[Pattern, str]] = []
        for child in node.children:
            if isinstance(child, PatternVar):
                atom.child_vars.append(child.name)
            else:
                link = f"\x00{next(counter)}"
                atom.child_vars.append(link)
                nested.append((child, link))
        for child, link in nested:
            visit(child, link)

    visit(pattern, "\x00cid")
    return atoms


#: Cache-miss sentinel (None is a meaningful cached value: empty relation).
_NO_REL = object()


def _build_relation(eg: EGraph, op_id: int, nchildren: int, pids):
    """The column relation of one atom, or None when it is empty.

    Rows are the *live* hashcons entries with operator *op_id*, exactly
    *nchildren* children, and (when *pids* is given) payload id in *pids*
    — the reference matcher's arity/payload guards as column masks.  The
    result maps:

    * ``row`` — the store row index (the key into the change stamps),
    * ``cls`` — canonical e-class id per row,
    * ``child`` — canonical child class ids, one int64 array per slot,
    * ``rank`` — the row's position within its class's deterministic
      per-op bucket order (:meth:`EGraph.nodes_by_op`): rows are
      lexsorted by ``(cls, raw child ids.., payload rank)``, which is the
      bucket comparator ``(key[2:], (str(payload), type))`` restricted to
      this relation's fixed arity — so ranks of filtered rows preserve
      their relative bucket order, and
    * ``n`` — the row count (the planner's size measure).

    Join keys and emitted bindings use the *canonical* columns; the rank
    sort uses the *raw* child spellings, because bucket order is defined
    over the stored key tuples.  The Δ and old halves of a delta search
    (:func:`_split_relation`) are row subsets of this relation and keep
    its ranks.
    """

    store = eg.store
    rows = store.op_rows(op_id)
    if rows is None or not len(rows):
        return None
    mask = columns.as_uint8(store.alive)[rows] != 0
    nchild = columns.as_int64(store.nchild)
    mask &= nchild[rows] == nchildren
    pid_col = columns.as_int64(store.payload)[rows]
    if pids is not None:
        pmask = np.zeros(len(rows), dtype=bool)
        for pid in pids:
            pmask |= pid_col == pid
        mask &= pmask
    keep = np.flatnonzero(mask)
    n = len(keep)
    if not n:
        return None
    rows = rows[keep]
    pid_col = pid_col[keep]
    roots = eg._np_roots()
    cls = roots[columns.as_int64(store.cls)[rows]]
    raw = tuple(columns.as_int64(store.child[i])[rows] for i in range(nchildren))
    canon = tuple(roots[col] for col in raw)
    prank = columns.as_int64(eg._payload_ranks())[pid_col]
    # np.lexsort: last key is primary -> (cls, child0.., prank) priority
    order = np.lexsort((prank,) + raw[::-1] + (cls,))
    sorted_cls = cls[order]
    starts = np.zeros(n, dtype=np.int64)
    if n > 1:
        idx = np.arange(1, n, dtype=np.int64)
        starts[1:] = np.where(sorted_cls[1:] != sorted_cls[:-1], idx, 0)
        starts = np.maximum.accumulate(starts)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64) - starts
    return {"row": rows, "cls": cls, "child": canon, "rank": rank, "n": n}


def _subset(rel, keep):
    """The rows of *rel* where the bool mask *keep* holds (None if none)."""

    idx = np.flatnonzero(keep)
    if len(idx) == rel["n"]:
        return rel
    if not len(idx):
        return None
    return {
        "row": rel["row"][idx],
        "cls": rel["cls"][idx],
        "child": tuple(col[idx] for col in rel["child"]),
        "rank": rel["rank"][idx],
        "n": len(idx),
    }


def _split_relation(eg: EGraph, key: tuple, rel, since: int):
    """``(Δ, old)``: the rows of *rel* stamped after / at most *since*.

    Reads the store's per-row change stamps (synced first, a no-op when
    current).  Cached next to the full relations, keyed by the relation's
    key plus *since* — one search phase probes many rules at the same
    stamp, and the cache drops with the relations when the graph moves.
    """

    cache = eg._live_relation_cache()
    skey = key + (since,)
    split = cache.get(skey)
    if split is None:
        eg._sync_row_touch()
        fresh = columns.as_int64(eg.store.touch)[rel["row"]] > since
        split = cache[skey] = (_subset(rel, fresh), _subset(rel, ~fresh))
    return split


def _atom_columns(atom: _Atom, rel):
    """(variable -> column) map of *rel* plus the intra-atom equality mask.

    A variable repeated inside a single atom (e.g. ``(* ?a ?a)``) yields a
    column-equality mask; the first occurrence's column represents it.
    """

    cols = {atom.class_var: rel["cls"]}
    mask = None
    for i, var in enumerate(atom.child_vars):
        col = rel["child"][i]
        prev = cols.get(var)
        if prev is None:
            cols[var] = col
        else:
            eq = prev == col
            mask = eq if mask is None else mask & eq
    return cols, mask


def _atom_relations(atoms: List[_Atom], eg: EGraph):
    """Yield ``(relation key, full relation)`` per atom, in atom order.

    The key is ``(op id, arity, payload ids)`` — op id ``-1`` when the
    graph never interned the operator — and the relation is None when
    empty.  Relations are memoised in the e-graph's relation cache, so
    rules sharing an atom shape share one relation per search phase; the
    whole cache drops whenever the graph's ``(version, interned-key
    count, store epoch)`` stamp moves (:meth:`EGraph._live_relation_cache`).
    """

    cache = eg._live_relation_cache()
    for atom in atoms:
        op_id = eg._op_ids.get(atom.op)
        pids = (
            None if atom.payload is None
            else eg.payload_ids_matching(atom.payload)
        )
        key = (-1 if op_id is None else op_id, atom.nchildren, pids)
        if op_id is None or pids == ():
            yield key, None
            continue
        rel = cache.get(key, _NO_REL)
        if rel is _NO_REL:
            rel = cache[key] = _build_relation(eg, op_id, atom.nchildren, pids)
        yield key, rel


def _plan_order(
    atoms: List[_Atom], sizes: List[int], op_ids: List[int], lead: int = 0
) -> List[int]:
    """Join order over *atoms*, as atom indices.

    Atom *lead* goes first (the root on a full search, the Δ atom of one
    semi-naive join); then greedily the smallest remaining relation among
    atoms connected to the bound variables, ties broken by ``(size, op
    id, pre-order atom index)`` — all integers, never hash order.  The
    atom graph is a tree linked by synthetic variables, so some remaining
    atom is always connected once the lead is bound.
    """

    order = [lead]
    bound = {atoms[lead].class_var, *atoms[lead].child_vars}
    remaining = [i for i in range(len(atoms)) if i != lead]
    while remaining:
        ai = min(
            (sizes[i], op_ids[i], i)
            for i in remaining
            if atoms[i].class_var in bound
            or any(v in bound for v in atoms[i].child_vars)
        )[2]
        remaining.remove(ai)
        order.append(ai)
        bound.add(atoms[ai].class_var)
        bound.update(atoms[ai].child_vars)
    return order


def _delta_joins(keys, rels, eg: EGraph, since):
    """The ``(lead atom, relations)`` pairs one search joins.

    A full search (*since* None or negative) is one join led by the root.
    A semi-naive search runs one join per atom *i* with a non-empty Δ:
    Δ_i, old_j for j < i, full_j for j > i — a match is found by the join
    of the first atom whose row changed, so it appears exactly once.
    """

    if since is None or since < 0:
        return [(0, rels)]
    splits = [_split_relation(eg, key, rel, since) for key, rel in zip(keys, rels)]
    joins = []
    for lead, (delta, _) in enumerate(splits):
        if delta is None:
            continue
        lead_rels = [old for _, old in splits[:lead]] + [delta] + rels[lead + 1:]
        if all(rel is not None for rel in lead_rels):
            joins.append((lead, lead_rels))
    return joins


#: Exclusive bound on composite join-key codes (int64 with headroom for
#: one more Horner multiply-add).
_JOIN_KEY_LIMIT = 2 ** 62


def _join_codes(shared: List[str], cols, state, base: int):
    """One int64 join key per row of each side over the *shared* variables.

    Horner evaluation in base *base* (class ids are < the base, so the
    encoding is injective).  Before a step that could pass
    :data:`_JOIN_KEY_LIMIT`, the partial codes of both sides are
    re-densified together — ``np.unique`` inverse indices over their
    concatenation: equal codes stay equal, distinct ones stay distinct,
    and every value drops below the combined row count — so arbitrarily
    many shared variables encode without overflow.
    """

    rcode = cols[shared[0]]
    scode = state[shared[0]]
    bound = base
    for var in shared[1:]:
        if bound * base >= _JOIN_KEY_LIMIT:
            dense = np.unique(
                np.concatenate((rcode, scode)), return_inverse=True
            )[1]
            rcode, scode = dense[: len(rcode)], dense[len(rcode):]
            bound = len(dense)
        rcode = rcode * base + cols[var]
        scode = scode * base + state[var]
        bound *= base
    return rcode, scode


def _join(atoms: List[_Atom], rels, op_ids: List[int], lead: int, base: int):
    """One join of *rels* led by atom *lead*: ``(state, ranks)`` or None.

    ``state`` maps every variable to its column over the result rows and
    ``ranks`` every atom index to its matched row's bucket rank.  Each
    step is a sort-based hash join on the variables the atom shares with
    the bound state (:func:`_join_codes`).
    """

    state: Dict[str, object] = {}
    ranks: Dict[int, object] = {}
    for ai in _plan_order(atoms, [rel["n"] for rel in rels], op_ids, lead):
        atom, rel = atoms[ai], rels[ai]
        cols, mask = _atom_columns(atom, rel)
        arank = rel["rank"]
        if mask is not None:
            keep = np.flatnonzero(mask)
            cols = {var: col[keep] for var, col in cols.items()}
            arank = arank[keep]
        if not state:
            if not len(arank):
                return None
            state = cols
            ranks[ai] = arank
            continue

        # shared variables in deterministic (class var, child slots) order
        shared = []
        for var in (atom.class_var, *atom.child_vars):
            if var in state and var not in shared:
                shared.append(var)
        rcode, scode = _join_codes(shared, cols, state, base)
        order = np.argsort(rcode, kind="stable")
        rsorted = rcode[order]
        left = np.searchsorted(rsorted, scode, side="left")
        counts = np.searchsorted(rsorted, scode, side="right") - left
        total = int(counts.sum())
        if not total:
            return None
        out_s = np.repeat(np.arange(len(scode), dtype=np.int64), counts)
        offsets = (
            np.arange(total, dtype=np.int64)
            - np.repeat(np.cumsum(counts) - counts, counts)
            + np.repeat(left, counts)
        )
        out_r = order[offsets]
        state = {var: col[out_s] for var, col in state.items()}
        ranks = {i: r[out_s] for i, r in ranks.items()}
        for var, col in cols.items():
            if var not in state:
                state[var] = col[out_r]
        ranks[ai] = arank[out_r]
    return state, ranks


def _relational_search(cp: "CompiledPattern", eg: EGraph, since: Optional[int]):
    """Execute *cp* as a join over the columnar store.

    Returns flat ``(cid, v0, v1, ..)`` rows (a :class:`columns.RowBatch`,
    or ``[]`` when nothing matches) in exactly the reference matcher's
    order — restricted, when *since* >= 0, to the matches that use at
    least one row stamped after *since* (:func:`_delta_joins`).

    Result order: joins track, per atom, the matched row's bucket rank
    (the full relation's, on Δ and old halves too); one final lexsort of
    the concatenated joins by ``(root cid, rank_0, .., rank_{m-1})``
    (atoms in pre-order) reproduces the nested loops' emission order —
    two results equal on all earlier ranks picked identical rows, so atom
    *i* draws from the same bucket, where rank order is iteration order.
    """

    atoms = cp._atoms
    keys = []
    rels = []
    for key, rel in _atom_relations(atoms, eg):
        if rel is None:
            return []
        keys.append(key)
        rels.append(rel)

    op_ids = [key[0] for key in keys]
    base = len(eg.uf._parent) + 1
    parts = []
    for lead, lead_rels in _delta_joins(keys, rels, eg, since):
        part = _join(atoms, lead_rels, op_ids, lead, base)
        if part is not None:
            parts.append(part)
    if not parts:
        return []

    names = (atoms[0].class_var, *cp.vars)
    cols = [np.concatenate([st[name] for st, _ in parts]) for name in names]
    rank_cols = [np.concatenate([rk[i] for _, rk in parts]) for i in range(len(atoms))]
    order = np.lexsort(tuple(rank_cols[::-1]) + (cols[0],))
    mat = np.empty((len(order), len(names)), dtype=np.int64)
    for j, col in enumerate(cols):
        mat[:, j] = col[order]
    # a lazy facade: tuples materialise only if a consumer asks for them —
    # the apply loop takes the matrix's bulk .tolist() (columns.RowBatch)
    return columns.RowBatch(mat)


class CompiledPattern:
    """A searcher pattern lowered into its join atoms."""

    __slots__ = ("pattern", "vars", "_atoms")

    def __init__(self, pattern: Pattern) -> None:
        self.pattern = pattern
        self.vars: Tuple[str, ...] = tuple(pattern.variables())
        # a bare-variable pattern `?x` parses as ("?" ?x): it has no
        # operator atom to look up, so as a searcher it matches nothing
        self._atoms: Optional[List[_Atom]] = (
            None if _bare_variable(pattern) is not None else _flatten_pattern(pattern)
        )

    def search_rows(self, egraph: EGraph, since: Optional[int] = None) -> List[tuple]:
        """Search the e-graph; returns flat ``(eclass_id, v0, v1, ..)`` rows.

        Variable values follow :attr:`vars` order.  Rows are what the
        generated apply loop (:func:`compile_row_applier`) consumes — no
        per-match dict is built.

        With ``since >= 0`` only matches that use at least one row
        created or re-rooted after version *since* are returned (in the
        same order): a match built only from older rows carries the
        tuple it carried at *since*, so a search at that version found
        it.  The engine serves this with semi-naive joins over the
        store's per-row change stamps (:func:`_delta_joins`).  ``since``
        None or ``-1`` is a full search.
        """

        if self._atoms is None:
            return []
        return _relational_search(self, egraph, since)

    def join_plan(
        self, egraph: EGraph, since: Optional[int] = None
    ) -> Optional[List[List[Tuple[int, str, int]]]]:
        """The joins :meth:`search_rows` runs on *egraph*, for introspection.

        One plan per join, each a list of ``(atom index, op name,
        relation size)`` triples in execution order: a full search runs
        one plan led by the root atom; a semi-naive search (``since >=
        0``) one plan per lead atom with a non-empty Δ, sized by the Δ,
        old or full relation that join reads; no plan when some
        relation is empty.  None for a bare-variable pattern, which has
        no atoms.  The plans depend only on
        deterministic inputs (relation sizes, interned op ids, pre-order
        atom indices), never on hash iteration order — the determinism
        tests assert this across ``PYTHONHASHSEED`` values.
        """

        atoms = self._atoms
        if atoms is None:
            return None
        keys, rels = zip(*_atom_relations(atoms, egraph))
        if any(rel is None for rel in rels):
            return []  # an empty relation: search_rows joins nothing
        op_ids = [key[0] for key in keys]
        plans = []
        for lead, lead_rels in _delta_joins(keys, list(rels), egraph, since):
            sizes = [rel["n"] for rel in lead_rels]
            plans.append([
                (ai, atoms[ai].op, sizes[ai])
                for ai in _plan_order(atoms, sizes, op_ids, lead)
            ])
        return plans


@lru_cache(maxsize=None)
def compile_pattern(pattern: Pattern) -> CompiledPattern:
    """Lower *pattern* to its compiled form (memoised per distinct pattern)."""

    return CompiledPattern(pattern)


@lru_cache(maxsize=None)
def compile_row_applier(pattern: Pattern, lhs_vars: Tuple[str, ...]):
    """The apply loop of pattern applier *pattern* over a list of match rows.

    *lhs_vars* is the searcher's :attr:`CompiledPattern.vars` tuple.  The
    returned function takes ``(egraph, rows, limit)``, where each row is a
    ``(cid, v0, v1, ..)`` sequence as ``search_rows`` emits them, reads
    each variable at its row position, and performs the instantiate +
    canonicalise + merge loop in one call, returning the number of unions
    made; it stops after the first row that leaves more than ``limit``
    e-nodes in the e-graph.  It is the only code that applies a pattern
    right-hand side (:meth:`Rewrite.apply_rows`).  A bare-variable pattern has nothing to
    instantiate: its loop merges the bound class with the matched one.
    Requires every variable of *pattern* to occur in *lhs_vars*
    (:class:`~repro.egraph.rewrite.Rewrite` rejects such rules at
    construction).
    """

    positions = {name: i + 1 for i, name in enumerate(lhs_vars)}
    bare = _bare_variable(pattern)
    return _InstantiatorCodegen(positions).build_batch(
        pattern if bare is None else PatternVar(bare)
    )


# ---------------------------------------------------------------------------
# Reference matcher
# ---------------------------------------------------------------------------


def _match_pattern(
    egraph: EGraph,
    pattern: PatternNode,
    eclass_id: int,
    subst: Substitution,
) -> Iterator[Substitution]:
    """Backtracking e-matcher (reference implementation).

    Candidate nodes come from :meth:`EGraph.nodes_by_op` — the class's
    deterministic bucket order, never ``Set[ENode]`` hash order — so the
    emission order is a pure function of the e-graph.  The substitution
    dict is copied only when a *new* variable is bound; an already-bound
    variable is checked against the canonical class id and the incoming
    dict is yielded as-is.
    """

    eclass_id = egraph.find(eclass_id)

    if isinstance(pattern, PatternVar):
        bound = subst.get(pattern.name)
        if bound is None:
            new_subst = dict(subst)
            new_subst[pattern.name] = eclass_id
            yield new_subst
        elif bound == eclass_id or egraph.find(bound) == eclass_id:
            yield subst
        return

    for enode in egraph.nodes_by_op(eclass_id, pattern.op):
        if pattern.payload is not None and enode.payload != pattern.payload:
            continue
        if len(enode.children) != len(pattern.children):
            continue
        yield from _match_children(egraph, pattern.children, enode.children, 0, subst)


def _match_children(
    egraph: EGraph,
    patterns: Sequence[PatternNode],
    child_ids: Sequence[int],
    index: int,
    subst: Substitution,
) -> Iterator[Substitution]:
    if index == len(patterns):
        yield subst
        return
    for new_subst in _match_pattern(egraph, patterns[index], child_ids[index], subst):
        yield from _match_children(egraph, patterns, child_ids, index + 1, new_subst)


# ---------------------------------------------------------------------------
# Textual pattern syntax
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


@lru_cache(maxsize=1024)
def parse_pattern(text: str) -> Pattern:
    """Parse the s-expression pattern syntax.

    Leaves: ``?x`` is a pattern variable, a number literal is a ``num``
    term, and any other atom is a ``sym`` leaf.  ``(op child...)`` builds an
    operator node; ``call:sqrt`` style atoms set the payload.

    Patterns are immutable, so parses are memoised — rulesets rebuilt in a
    loop reuse both the pattern objects and their compiled programs.
    """

    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise ValueError("empty pattern")
    pos = 0

    def parse_node() -> PatternNode:
        nonlocal pos
        token = tokens[pos]
        pos += 1
        if token == "(":
            head = tokens[pos]
            pos += 1
            op, _, payload = head.partition(":")
            children: List[PatternNode] = []
            while tokens[pos] != ")":
                children.append(parse_node())
            pos += 1  # consume ")"
            return Pattern(op, tuple(children), payload or None)
        if token == ")":
            raise ValueError("unexpected ')' in pattern")
        return _parse_atom(token)

    node = parse_node()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in pattern: {tokens[pos:]}")
    if isinstance(node, PatternVar):
        return Pattern("?", (node,))  # degenerate single-variable pattern
    return node


def _parse_atom(token: str) -> PatternNode:
    if token.startswith("?"):
        return PatternVar(token[1:])
    try:
        if "." in token or "e" in token.lower():
            return Pattern("num", (), float(token))
        return Pattern("num", (), int(token))
    except ValueError:
        return Pattern("sym", (), token)
