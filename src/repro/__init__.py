"""ACC Saturator reproduction.

A from-scratch Python implementation of *ACC Saturator: Automatic Kernel
Optimization for Directive-Based GPU Code* (SC 2024): equality saturation
over OpenACC/OpenMP C kernels, plus every substrate the paper's evaluation
depends on (C frontend, SSA, e-graph engine, extraction, code generation,
a reference interpreter, an analytic GPU/compiler performance model, and
the NPB / SPEC ACCEL benchmark kernels).

Typical use::

    from repro import optimize_source, SaturatorConfig

    result = optimize_source(kernel_c_source, SaturatorConfig())
    print(result.code)

The heavyweight subpackages are imported lazily so that ``import repro``
stays cheap and so that low-level substrates (``repro.frontend``,
``repro.egraph`` ...) can be used independently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__version__ = "1.0.0"

#: Names re-exported lazily from :mod:`repro.saturator`.
_SATURATOR_EXPORTS = (
    "OptimizationResult",
    "SaturatorConfig",
    "Variant",
    "optimize_source",
)

__all__ = list(_SATURATOR_EXPORTS) + ["__version__"]

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.saturator import (  # noqa: F401
        OptimizationResult,
        SaturatorConfig,
        Variant,
        optimize_source,
    )


def __getattr__(name: str):
    """Lazily expose the high-level pipeline API at the package root."""

    if name in _SATURATOR_EXPORTS:
        from repro import saturator

        return getattr(saturator, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
