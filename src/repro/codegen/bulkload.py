"""Scheduling and emission of temporaries inside a straight-line group.

Two policies (paper §VI):

* **lazy** — every temporary is emitted immediately before the first
  statement that needs it (temporary-variable insertion only),
* **bulk load** — every memory load is relocated to the first point where
  its dependencies are resolved: loads that only read values live at group
  entry are hoisted to the very top of the group; loads that forward from a
  store performed inside the group are placed immediately after that store.
  Loads emitted at the same point are sorted by their static index (their
  rendered access expression), which is the paper's tie-break for memory
  coalescing.

:func:`schedule_group` walks e-classes and statement positions and emits
each item the moment it decides that item comes next: it calls
``declare(cid)`` for the temporary of a class and ``statement(i)`` for the
group's i-th original statement.  The caller's callbacks build the AST
(:mod:`repro.codegen.generator`); ``declare`` binds the class's name in
``renderer.names``, which is the only record of what is already declared.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set, Tuple

from repro.codegen.tempvars import ClassRenderer
from repro.egraph.egraph import NodeKey

__all__ = ["schedule_group"]


def schedule_group(
    renderer: ClassRenderer,
    root_classes: Sequence[int],
    store_stmt_of: Dict[int, int],
    bulk_load: bool,
    declare: Callable[[int], None],
    statement: Callable[[int], None],
) -> None:
    """Emit one straight-line group through *declare* and *statement*.

    ``root_classes[i]`` is the e-class of the i-th assignment's right-hand
    side.  ``store_stmt_of`` maps the e-class of every ``store`` performed
    *inside this group* to the position of the statement that performs it.
    ``declare(cid)`` must bind ``renderer.names[cid]``.
    """

    egraph = renderer.egraph
    find = egraph.uf.find
    op_names = egraph.op_names
    # choices and inline_only are fixed before scheduling, so each class's
    # temp dependencies are computed once per group
    deps: Dict[int, List[int]] = {}

    def temp_children(eclass_id: int) -> List[int]:
        """Temp classes this class's rendering depends on (transitively
        through inline-rendered nodes)."""

        result = deps.get(eclass_id)
        if result is not None:
            return result
        result = deps[eclass_id] = []
        seen: Set[int] = set()

        def visit(cid: int, is_root: bool) -> None:
            cid = find(cid)
            if cid in seen:
                return
            seen.add(cid)
            if not is_root and renderer.is_temp_class(cid):
                result.append(cid)
                return
            key = renderer.choices.get(cid)
            if key is None:
                return
            for child in _operands(op_names, key):
                visit(child, False)

        try:
            visit(eclass_id, True)
        finally:
            del visit  # see the release at the end of schedule_group
        return result

    def load_stmt_dep(eclass_id: int) -> int:
        """Earliest statement position after which this load may execute.

        Returns -1 when the load only reads state live at group entry.
        """

        key = renderer.choices.get(find(eclass_id))
        if key is None or op_names[key[0]] != "load":
            return -1
        version = find(key[2])
        return store_stmt_of.get(version, -1)

    def emit_temp(eclass_id: int, after_position: int) -> None:
        """Declare the temp of *eclass_id* (and its temp dependencies first)."""

        eclass_id = find(eclass_id)
        if eclass_id in renderer.names or not renderer.is_temp_class(eclass_id):
            return
        if load_stmt_dep(eclass_id) > after_position:
            # This load forwards from a store that has not executed yet; it
            # cannot be hoisted here.  It will be emitted after its store.
            return
        for dep in temp_children(eclass_id):
            emit_temp(dep, after_position)
        declare(eclass_id)

    # ------------------------------------------------------------------
    # bulk-load pools
    # ------------------------------------------------------------------

    # the sort keys are rendered before any temp of the group is declared,
    # so every key is fully inline; loads with equal keys (two memory
    # versions of one access) keep the iteration order of ``all_loads``
    load_pool: Dict[int, List[int]] = {}
    if bulk_load:
        all_loads: Set[int] = set()
        for root in root_classes:
            for cid in _reachable_temp_classes(renderer, root):
                key = renderer.choices.get(find(cid))
                if key is not None and op_names[key[0]] == "load":
                    all_loads.add(find(cid))
        for load in all_loads:
            load_pool.setdefault(load_stmt_dep(load), []).append(load)
        for loads in load_pool.values():
            loads.sort(key=lambda cid: renderer.render_definition(cid))

    def flush_loads(after_position: int) -> None:
        """Emit every pooled load whose dependencies are now resolved."""

        for dep_position in sorted(load_pool):
            if dep_position > after_position:
                break
            for load in load_pool[dep_position]:
                emit_temp(load, after_position)

    # ------------------------------------------------------------------
    # main walk over the group's statements
    # ------------------------------------------------------------------

    # emit_temp (like each temp_children call's visit) calls itself through
    # its closure cell: a reference cycle through the renderer and its
    # e-graph until released, so the graph would outlive its kernel
    try:
        if bulk_load:
            flush_loads(-1)

        for position, root in enumerate(root_classes):
            root = find(root)
            # temporaries feeding this statement
            for dep in temp_children(root):
                emit_temp(dep, position - 1)
            emit_temp(root, position - 1)
            statement(position)
            if bulk_load:
                flush_loads(position)
    finally:
        del emit_temp


def _reachable_temp_classes(renderer: ClassRenderer, root: int) -> Set[int]:
    """All temp classes reachable from *root* through the selected DAG."""

    egraph = renderer.egraph
    find = egraph.uf.find
    op_names = egraph.op_names
    seen: Set[int] = set()
    result: Set[int] = set()

    def visit(cid: int) -> None:
        cid = find(cid)
        if cid in seen:
            return
        seen.add(cid)
        if renderer.is_temp_class(cid):
            result.add(cid)
        key = renderer.choices.get(cid)
        if key is None:
            return
        for child in _operands(op_names, key):
            visit(child)

    try:
        visit(root)
    finally:
        del visit  # see the release at the end of schedule_group
    return result


def _operands(op_names: Sequence[str], key: NodeKey) -> Tuple[int, ...]:
    """The child classes whose values the selected node *key* renders.

    A load's / store's version operand carries no generated code, and φ
    values render as the merged variable, so their operands are not part
    of this group's code.
    """

    op = op_names[key[0]]
    if op in ("load", "store"):
        return key[3:]
    if op in ("phi", "phi-loop"):
        return ()
    return key[2:]
