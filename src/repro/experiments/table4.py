"""Table IV — per-kernel breakdown of NPB-BT.

For every BT kernel and every variant (original, CSE, CSE+SAT, CSE+BULK,
ACCSAT) under NVHPC and GCC: time per launch, executed instructions,
memory utilisation, registers per thread and SM occupancy — the five
columns of the paper's Table IV.
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

__all__ = ["run", "format_table"]

_VARIANTS = ("original",) + VARIANT_ORDER


def run(settings: EvaluationSettings = EvaluationSettings()) -> List[Dict[str, object]]:
    """One row per (compiler, BT kernel, variant)."""

    rows: List[Dict[str, object]] = []
    for compiler_name in ("nvhpc", "gcc"):
        compiler = compiler_model(compiler_name, BT.programming_model)
        for spec in BT.kernels:
            measurement = evaluate_kernel(spec, compiler, A100_PCIE_40GB,
                                          _VARIANTS, settings)
            for variant in _VARIANTS:
                perf = measurement.by_variant[variant]
                rows.append(
                    {
                        "compiler": compiler_name,
                        "kernel": spec.name,
                        "variant": variant,
                        "time_per_launch_ms": perf.time_per_launch_ms,
                        "instructions_M": perf.instructions_per_launch / 1e6,
                        "memory_utilization": perf.memory_utilization,
                        "registers": perf.registers,
                        "occupancy": perf.occupancy,
                        "speedup": measurement.speedup(variant) if variant != "original" else 1.0,
                    }
                )
    return rows


def format_table(rows: List[Dict[str, object]]) -> str:
    lines = [
        f"{'compiler':<8} {'kernel':<16} {'variant':<9} {'ms/launch':>10} "
        f"{'Minstr':>9} {'mem%':>6} {'regs':>5} {'occ':>5} {'speedup':>8}"
    ]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(
            f"{row['compiler']:<8} {row['kernel']:<16} {row['variant']:<9} "
            f"{row['time_per_launch_ms']:>10.3f} {row['instructions_M']:>9.1f} "
            f"{row['memory_utilization'] * 100:>5.1f}% {row['registers']:>5d} "
            f"{row['occupancy']:>5.2f} {row['speedup']:>7.2f}x"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print("Table IV — NPB-BT kernel breakdown")
    print(format_table(run()))
