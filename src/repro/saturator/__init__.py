"""The ACC Saturator pipeline: the paper's primary contribution.

This package wires the substrates together exactly as §III describes:

1. parse the OpenACC/OpenMP C source and locate every innermost parallel
   loop (:mod:`repro.saturator.kernel`),
2. build the SSA form of each loop body and pack it into an e-graph
   (:mod:`repro.ssa`),
3. optionally run equality saturation with the Table I rule set
   (:mod:`repro.rules`, :mod:`repro.egraph.runner`),
4. extract the minimum-cost DAG under the paper's cost model
   (:mod:`repro.egraph.extract`, :mod:`repro.cost`),
5. regenerate code with temporary-variable insertion and (optionally) the
   bulk-load reordering (:mod:`repro.codegen`).

The four generated-code variants evaluated in §VIII — CSE, CSE+SAT,
CSE+BULK and ACCSAT — correspond to the :class:`Variant` enum.
"""

from repro.saturator.config import SaturatorConfig, Variant
from repro.saturator.report import KernelReport, OptimizationResult
from repro.saturator.kernel import ParallelKernel, find_parallel_kernels
from repro.saturator.driver import optimize_source

__all__ = [
    "KernelReport",
    "OptimizationResult",
    "ParallelKernel",
    "SaturatorConfig",
    "Variant",
    "find_parallel_kernels",
    "optimize_source",
]
