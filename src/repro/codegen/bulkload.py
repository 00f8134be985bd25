"""Scheduling of temporaries inside a straight-line group.

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

The scheduler works on e-classes and statement positions only; the actual
AST surgery happens in :mod:`repro.codegen.generator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.codegen.tempvars import ClassRenderer
from repro.egraph.egraph import NodeKey

__all__ = ["ScheduleItem", "schedule_group"]


@dataclass(frozen=True)
class ScheduleItem:
    """One entry of a group schedule."""

    #: Either ``"temp"`` (emit the temporary of ``eclass``) or ``"stmt"``
    #: (emit the group's original statement number ``position``).
    kind: str
    eclass: Optional[int] = None
    position: Optional[int] = None


def schedule_group(
    renderer: ClassRenderer,
    root_classes: Sequence[int],
    store_stmt_of: Dict[int, int],
    bulk_load: bool,
) -> List[ScheduleItem]:
    """Compute the emission schedule of one straight-line group.

    ``root_classes[i]`` is the e-class of the i-th assignment's right-hand
    side.  ``store_stmt_of`` maps the e-class of every ``store`` performed
    *inside this group* to the position of the statement that performs it.
    """

    egraph = renderer.egraph
    op_names = egraph.op_names
    emitted: Set[int] = set()
    schedule: List[ScheduleItem] = []

    # ------------------------------------------------------------------
    # dependency helpers
    # ------------------------------------------------------------------

    def temp_children(eclass_id: int) -> List[int]:
        """Temp classes this class's rendering depends on (transitively
        through inline-rendered nodes)."""

        result: List[int] = []
        seen: Set[int] = set()

        def visit(cid: int, is_root: bool) -> None:
            cid = egraph.find(cid)
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

        key = renderer.choices.get(egraph.find(eclass_id))
        if key is None or op_names[key[0]] != "load":
            return -1
        version = egraph.find(key[2])
        return store_stmt_of.get(version, -1)

    def emit_temp(eclass_id: int, after_position: int) -> None:
        """Emit the temp of *eclass_id* (and its temp dependencies first)."""

        eclass_id = egraph.find(eclass_id)
        if eclass_id in emitted or not renderer.is_temp_class(eclass_id):
            return
        if load_stmt_dep(eclass_id) > after_position:
            # This load forwards from a store that has not executed yet; it
            # cannot be hoisted here.  It will be emitted after its store.
            return
        for dep in temp_children(eclass_id):
            emit_temp(dep, after_position)
        if eclass_id in emitted:
            return
        emitted.add(eclass_id)
        renderer.available_temps.add(eclass_id)
        schedule.append(ScheduleItem("temp", eclass=eclass_id))

    # ------------------------------------------------------------------
    # bulk-load pools
    # ------------------------------------------------------------------

    load_pool: Dict[int, List[int]] = {}
    if bulk_load:
        all_loads: Set[int] = set()
        for root in root_classes:
            for cid in _reachable_temp_classes(renderer, root):
                key = renderer.choices.get(egraph.find(cid))
                if key is not None and op_names[key[0]] == "load":
                    all_loads.add(egraph.find(cid))
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
            root = egraph.find(root)
            # temporaries feeding this statement
            for dep in temp_children(root):
                emit_temp(dep, position - 1)
            emit_temp(root, position - 1)
            schedule.append(ScheduleItem("stmt", position=position))
            if bulk_load:
                flush_loads(position)
    finally:
        del emit_temp

    return schedule


def _reachable_temp_classes(renderer: ClassRenderer, root: int) -> Set[int]:
    """All temp classes reachable from *root* through the selected DAG."""

    egraph = renderer.egraph
    op_names = egraph.op_names
    seen: Set[int] = set()
    result: Set[int] = set()

    def visit(cid: int) -> None:
        cid = egraph.find(cid)
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
