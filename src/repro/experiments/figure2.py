"""Figure 2 — NPB speedups on the A100-PCIE-40GB (NVHPC and GCC).

For every NPB benchmark and each generated-code variant (CSE, CSE+BULK,
CSE+SAT, ACCSAT) the harness reports the modelled speedup over the
original code, mirroring the four bar groups of the paper's Figure 2.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.benchsuite import NPB_BENCHMARKS
from repro.experiments.common import (
    EvaluationSettings,
    VARIANT_ORDER,
    evaluate_benchmark,
    format_speedup_table,
)
from repro.gpusim import A100_PCIE_40GB, GPUConfig
from repro.gpusim.metrics import VariantComparison, geomean

__all__ = ["run", "summarize", "format_report"]

COMPILERS: Sequence[str] = ("nvhpc", "gcc")


def run(
    gpu: GPUConfig = A100_PCIE_40GB,
    settings: EvaluationSettings = EvaluationSettings(),
    benchmarks=NPB_BENCHMARKS,
    compilers: Sequence[str] = COMPILERS,
) -> Dict[str, List[VariantComparison]]:
    """Evaluate every benchmark under every compiler; keyed by compiler."""

    results: Dict[str, List[VariantComparison]] = {}
    for compiler in compilers:
        results[compiler] = [
            evaluate_benchmark(bench, compiler, gpu, settings=settings)
            for bench in benchmarks
        ]
    return results


def summarize(results: Dict[str, List[VariantComparison]]) -> Dict[str, Dict[str, float]]:
    """Geometric-mean speedup per compiler per variant (the paper's averages)."""

    summary: Dict[str, Dict[str, float]] = {}
    for compiler, comparisons in results.items():
        summary[compiler] = {
            variant: geomean(c.speedup(variant) for c in comparisons)
            for variant in VARIANT_ORDER
        }
    return summary


def format_report(results: Dict[str, List[VariantComparison]]) -> str:
    parts = []
    summary = summarize(results)
    for compiler, comparisons in results.items():
        parts.append(f"== {compiler.upper()} ==")
        parts.append(format_speedup_table(comparisons))
        means = ", ".join(f"{v}: {s:.2f}x" for v, s in summary[compiler].items())
        parts.append(f"geomean: {means}")
        parts.append("")
    return "\n".join(parts)


if __name__ == "__main__":  # pragma: no cover
    print("Figure 2 — NPB speedups on A100-PCIE-40GB")
    print(format_report(run()))
