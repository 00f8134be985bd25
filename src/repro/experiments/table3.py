"""Table III — SPEC ACCEL benchmark description and original times.

OpenACC originals under NVHPC and GCC; OpenMP originals under NVHPC, GCC
and Clang.  Paper values are included for comparison.
"""

from __future__ import annotations

from typing import Dict, List

from repro.benchsuite import SPEC_ACC_BENCHMARKS, SPEC_OMP_BENCHMARKS
from repro.experiments.common import EvaluationSettings, evaluate_benchmark
from repro.gpusim import A100_PCIE_40GB

__all__ = ["run", "format_table"]

_ACC_COMPILERS = ("nvhpc", "gcc")
_OMP_COMPILERS = ("nvhpc", "gcc", "clang")


def run(settings: EvaluationSettings = EvaluationSettings()) -> List[Dict[str, object]]:
    """One row per SPEC ACCEL benchmark (OpenACC + matching OpenMP times)."""

    rows: List[Dict[str, object]] = []
    for acc_bench, omp_bench in zip(SPEC_ACC_BENCHMARKS, SPEC_OMP_BENCHMARKS):
        row: Dict[str, object] = {
            "name": acc_bench.name,
            "compute": acc_bench.compute,
            "access": acc_bench.access,
            "num_kernels": acc_bench.num_kernels,
            "size": acc_bench.problem_class,
        }
        for compiler in _ACC_COMPILERS:
            comparison = evaluate_benchmark(
                acc_bench, compiler, A100_PCIE_40GB, ("original",), settings
            )
            row[f"acc_model_{compiler}"] = comparison.total_time["original"]
            row[f"acc_paper_{compiler}"] = acc_bench.paper_original_time.get(compiler)
        for compiler in _OMP_COMPILERS:
            comparison = evaluate_benchmark(
                omp_bench, compiler, A100_PCIE_40GB, ("original",), settings
            )
            row[f"omp_model_{compiler}"] = comparison.total_time["original"]
            row[f"omp_paper_{compiler}"] = omp_bench.paper_original_time.get(compiler)
        rows.append(row)
    return rows


def format_table(rows: List[Dict[str, object]]) -> str:
    lines = [
        f"{'Name':<9} {'Kernels':>7} "
        f"{'ACC nvhpc':>10} {'ACC gcc':>10} {'OMP nvhpc':>10} {'OMP gcc':>10} {'OMP clang':>10}"
    ]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(
            f"{row['name']:<9} {row['num_kernels']:>7} "
            f"{row['acc_model_nvhpc']:>9.2f}s {row['acc_model_gcc']:>9.2f}s "
            f"{row['omp_model_nvhpc']:>9.2f}s {row['omp_model_gcc']:>9.2f}s "
            f"{row['omp_model_clang']:>9.2f}s"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print("Table III — SPEC ACCEL benchmarks (modelled original execution time)")
    print(format_table(run()))
