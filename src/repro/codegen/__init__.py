"""Code generation from extracted e-graph solutions (paper §VI).

Three cooperating modules:

* :mod:`repro.codegen.tempvars` — :class:`ClassRenderer` builds the C
  expression of a selected e-class, through the names of the temporaries
  already declared, and says which classes get a ``_vN`` temporary
  (§VI-A, temporary-variable insertion).
* :mod:`repro.codegen.bulkload` — :func:`schedule_group` decides, inside
  each straight-line group, when each temporary and statement comes next,
  either lazily (immediately before first use) or with the *bulk load*
  policy that hoists every memory load to the first point where its
  dependencies are resolved, sorted by static index (§VI-B).
* :mod:`repro.codegen.generator` — :class:`CodeGenerator` drives the
  schedule over a kernel's SSA form and emits each item as the schedule
  reaches it, rewriting the AST in place and preserving directives and
  loop structure.
"""

from repro.codegen.generator import CodeGenerator, KernelCodeStats
from repro.codegen.tempvars import ClassRenderer
from repro.codegen.bulkload import schedule_group

__all__ = [
    "ClassRenderer",
    "CodeGenerator",
    "KernelCodeStats",
    "schedule_group",
]
