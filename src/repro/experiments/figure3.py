"""Figure 3 — per-kernel speedup distribution of NPB-BT.

The paper's Figure 3 plots, for each BT kernel, the speedup of every
variant together with the kernel's share of the total execution time.
This harness reports the same data as a list of rows.
"""

from __future__ import annotations

from typing import Dict, List

from repro.benchsuite.npb.bt import BT
from repro.experiments.common import (
    EvaluationSettings,
    VARIANT_ORDER,
    evaluate_kernel,
)
from repro.gpusim import A100_PCIE_40GB, compiler_model

__all__ = ["run", "format_report"]


def run(settings: EvaluationSettings = EvaluationSettings()) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for compiler_name in ("nvhpc", "gcc"):
        compiler = compiler_model(compiler_name, BT.programming_model)
        measurements = [
            (spec, evaluate_kernel(spec, compiler, A100_PCIE_40GB, settings=settings))
            for spec in BT.kernels
        ]
        total = sum(m.by_variant["original"].time_s * s.repeat for s, m in measurements)
        for spec, measurement in measurements:
            share = measurement.by_variant["original"].time_s * spec.repeat / total
            row: Dict[str, object] = {
                "compiler": compiler_name,
                "kernel": spec.name,
                "time_share": share,
            }
            for variant in VARIANT_ORDER:
                row[f"speedup_{variant}"] = measurement.speedup(variant)
            rows.append(row)
    return rows


def format_report(rows: List[Dict[str, object]]) -> str:
    lines = [
        f"{'compiler':<8} {'kernel':<16} {'share':>6} "
        + " ".join(f"{v:>9}" for v in VARIANT_ORDER)
    ]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(
            f"{row['compiler']:<8} {row['kernel']:<16} {row['time_share'] * 100:>5.1f}% "
            + " ".join(f"{row[f'speedup_{v}']:>8.2f}x" for v in VARIANT_ORDER)
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print("Figure 3 — NPB-BT per-kernel speedups")
    print(format_report(run()))
