"""Figure 6 — SPEC ACCEL speedups on the A100-SXM4-80GB.

Identical to Figure 4 but with the higher-bandwidth SXM4-80GB GPU.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments import figure4
from repro.experiments.common import EvaluationSettings
from repro.gpusim import A100_SXM4_80GB
from repro.gpusim.metrics import VariantComparison

__all__ = ["run", "summarize", "format_report"]


def run(
    settings: EvaluationSettings = EvaluationSettings(),
) -> Dict[str, List[VariantComparison]]:
    return figure4.run(gpu=A100_SXM4_80GB, settings=settings)


summarize = figure4.summarize
format_report = figure4.format_report


if __name__ == "__main__":  # pragma: no cover
    print("Figure 6 — SPEC ACCEL speedups on A100-SXM4-80GB")
    print(format_report(run()))
