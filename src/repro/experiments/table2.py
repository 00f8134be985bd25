"""Table II — NPB benchmark description and original execution times.

Columns: benchmark, compute pattern, access pattern, number of kernels,
and the original (unoptimized) execution time under NVHPC and GCC.  The
"paper" columns are the values reported in the paper; the "model" columns
are what the GPU model predicts for the same configuration.
"""

from __future__ import annotations

from typing import Dict, List

from repro.benchsuite import NPB_BENCHMARKS
from repro.experiments.common import EvaluationSettings, evaluate_benchmark
from repro.gpusim import A100_PCIE_40GB

__all__ = ["run", "format_table"]


def run(settings: EvaluationSettings = EvaluationSettings()) -> List[Dict[str, object]]:
    """Return one row per NPB benchmark."""

    rows: List[Dict[str, object]] = []
    for bench in NPB_BENCHMARKS:
        row: Dict[str, object] = {
            "name": bench.name,
            "compute": bench.compute,
            "access": bench.access,
            "num_kernels": bench.num_kernels,
            "class": bench.problem_class,
        }
        for compiler in ("nvhpc", "gcc"):
            comparison = evaluate_benchmark(
                bench, compiler, A100_PCIE_40GB, ("original",), settings
            )
            row[f"model_time_{compiler}"] = comparison.total_time["original"]
            row[f"paper_time_{compiler}"] = bench.paper_original_time.get(compiler)
        rows.append(row)
    return rows


def format_table(rows: List[Dict[str, object]]) -> str:
    header = (
        f"{'Name':<5} {'Compute':<12} {'Access':<14} {'Kernels':>7} "
        f"{'NVHPC(model)':>13} {'NVHPC(paper)':>13} {'GCC(model)':>11} {'GCC(paper)':>11}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['name']:<5} {row['compute']:<12} {row['access']:<14} "
            f"{row['num_kernels']:>7} "
            f"{row['model_time_nvhpc']:>12.2f}s {row['paper_time_nvhpc']:>12.2f}s "
            f"{row['model_time_gcc']:>10.2f}s {row['paper_time_gcc']:>10.2f}s"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print("Table II — NPB benchmarks (original execution time)")
    print(format_table(run()))
