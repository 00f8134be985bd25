"""Report structures returned by the pipeline.

These mirror the numbers the paper reports in §VII (SSA/codegen time,
saturation time, e-node counts) and §VIII (instruction and memory-access
deltas), so the experiment harness can regenerate the evaluation tables.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.codegen.generator import KernelCodeStats
from repro.egraph.runner import RunnerReport
from repro.records import record

__all__ = ["KernelReport", "OptimizationResult"]


@record
class KernelReport:
    """Per-kernel statistics gathered along the pipeline.

    A frozen :func:`~repro.records.record`, like every report class of an
    artifact: each pipeline stage replaces the report with a copy that
    adds its fields, and it pickles as its field values in declaration
    order, so the field order is the cached-artifact format — changing it
    bumps :data:`~repro.session.fingerprint.ENGINE_SCHEMA`.
    """

    name: str = ""
    #: SSA construction + code generation time (seconds) — the paper's
    #: "91.8 ms per kernel" metric.
    ssa_codegen_time: float = 0.0
    #: Equality-saturation time (seconds) — the paper's "0.63 s" metric.
    saturation_time: float = 0.0
    extraction_time: float = 0.0
    #: Saturation statistics (None when the variant does not saturate).
    runner: Optional[RunnerReport] = None
    #: E-graph size after (optional) saturation.
    egraph_nodes: int = 0
    egraph_classes: int = 0
    #: Number of SSA assignments / groups.
    assignments: int = 0
    groups: int = 0
    #: Operation counts before optimization (original code).
    original: KernelCodeStats = KernelCodeStats()
    #: Operation counts after optimization (generated code).
    optimized: KernelCodeStats = KernelCodeStats()
    #: DAG cost of the extracted solution under the paper's cost model.
    extracted_cost: float = 0.0
    #: True when this report came out of a session artifact cache instead
    #: of a pipeline run (see :mod:`repro.session`); every other field is
    #: identical to the cold run that produced the artifact.
    from_cache: bool = False
    #: True when a deadline — the caller's or the ``time_limit`` budget —
    #: stopped saturation early at an iteration boundary (graceful
    #: degradation).  The code is still correct — just not saturated as
    #: deep as asked — and degraded artifacts are never stored in caches.
    degraded: bool = False

    @property
    def load_reduction(self) -> float:
        """Fractional reduction in memory loads (0.5 == 50% fewer loads)."""

        if self.original.loads == 0:
            return 0.0
        return 1.0 - self.optimized.loads / self.original.loads

    @property
    def instruction_reduction(self) -> float:
        if self.original.instructions == 0:
            return 0.0
        return 1.0 - self.optimized.instructions / self.original.instructions

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "ssa_codegen_time": self.ssa_codegen_time,
            "saturation_time": self.saturation_time,
            "extraction_time": self.extraction_time,
            "egraph_nodes": self.egraph_nodes,
            "egraph_classes": self.egraph_classes,
            "assignments": self.assignments,
            "groups": self.groups,
            "original": self.original.as_dict(),
            "optimized": self.optimized.as_dict(),
            "extracted_cost": self.extracted_cost,
            "from_cache": self.from_cache,
            "degraded": self.degraded,
            "load_reduction": self.load_reduction,
            "instruction_reduction": self.instruction_reduction,
            # full saturation profile (per-iteration and per-rule stats)
            "runner": None if self.runner is None else self.runner.as_dict(),
        }


@record
class OptimizationResult:
    """Result of optimizing a source file (or a single kernel)."""

    #: Regenerated C source (directives and structure preserved).
    code: str
    #: Per-kernel reports, in source order.
    kernels: Tuple[KernelReport, ...] = ()
    #: The variant that produced this code.
    variant: str = ""

    def __post_init__(self) -> None:
        if type(self.kernels) is not tuple:
            object.__setattr__(self, "kernels", tuple(self.kernels))

    @property
    def degraded(self) -> bool:
        """True when a deadline stopped any kernel's saturation early."""

        return any(k.degraded for k in self.kernels)

    @property
    def total_ssa_codegen_time(self) -> float:
        return sum(k.ssa_codegen_time for k in self.kernels)

    @property
    def total_saturation_time(self) -> float:
        return sum(k.saturation_time for k in self.kernels)

    def kernel(self, name: str) -> KernelReport:
        for report in self.kernels:
            if report.name == name:
                return report
        raise KeyError(name)
