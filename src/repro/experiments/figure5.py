"""Figure 5 — NPB speedups on the A100-SXM4-80GB.

Identical to Figure 2 but with the higher-bandwidth SXM4-80GB GPU, which
shifts memory-bound kernels closer to the compute/latency limits and (as in
the paper) slightly increases BT's speedup.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments import figure2
from repro.experiments.common import EvaluationSettings
from repro.gpusim import A100_SXM4_80GB
from repro.gpusim.metrics import VariantComparison

__all__ = ["run", "summarize", "format_report"]


def run(
    settings: EvaluationSettings = EvaluationSettings(),
) -> Dict[str, List[VariantComparison]]:
    return figure2.run(gpu=A100_SXM4_80GB, settings=settings)


summarize = figure2.summarize
format_report = figure2.format_report


if __name__ == "__main__":  # pragma: no cover
    print("Figure 5 — NPB speedups on A100-SXM4-80GB")
    print(format_report(run()))
