"""Figure 4 — SPEC ACCEL speedups on the A100-PCIE-40GB.

OpenACC benchmarks under NVHPC and GCC, OpenMP benchmarks (``p`` names)
under NVHPC, GCC and Clang, for all four generated-code variants.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.benchsuite import SPEC_ACC_BENCHMARKS, SPEC_OMP_BENCHMARKS
from repro.experiments.common import (
    EvaluationSettings,
    VARIANT_ORDER,
    evaluate_benchmark,
    format_speedup_table,
)
from repro.gpusim import A100_PCIE_40GB, GPUConfig
from repro.gpusim.metrics import VariantComparison, geomean

__all__ = ["run", "summarize", "format_report"]

ACC_COMPILERS: Sequence[str] = ("nvhpc", "gcc")
OMP_COMPILERS: Sequence[str] = ("nvhpc", "gcc", "clang")


def run(
    gpu: GPUConfig = A100_PCIE_40GB,
    settings: EvaluationSettings = EvaluationSettings(),
) -> Dict[str, List[VariantComparison]]:
    """Keyed by "<compiler>/acc" or "<compiler>/omp"."""

    results: Dict[str, List[VariantComparison]] = {}
    for compiler in ACC_COMPILERS:
        results[f"{compiler}/acc"] = [
            evaluate_benchmark(bench, compiler, gpu, settings=settings)
            for bench in SPEC_ACC_BENCHMARKS
        ]
    for compiler in OMP_COMPILERS:
        results[f"{compiler}/omp"] = [
            evaluate_benchmark(bench, compiler, gpu, settings=settings)
            for bench in SPEC_OMP_BENCHMARKS
        ]
    return results


def summarize(results: Dict[str, List[VariantComparison]]) -> Dict[str, Dict[str, float]]:
    return {
        key: {
            variant: geomean(c.speedup(variant) for c in comparisons)
            for variant in VARIANT_ORDER
        }
        for key, comparisons in results.items()
    }


def format_report(results: Dict[str, List[VariantComparison]]) -> str:
    parts = []
    summary = summarize(results)
    for key, comparisons in results.items():
        parts.append(f"== {key} ==")
        parts.append(format_speedup_table(comparisons))
        means = ", ".join(f"{v}: {s:.2f}x" for v, s in summary[key].items())
        parts.append(f"geomean: {means}")
        parts.append("")
    return "\n".join(parts)


if __name__ == "__main__":  # pragma: no cover
    print("Figure 4 — SPEC ACCEL speedups on A100-PCIE-40GB")
    print(format_report(run()))
