"""Staged optimization sessions.

This package turns the per-kernel pipeline into reusable infrastructure:

* :mod:`repro.session.stages` — the pipeline as typed, composable stages
  over a shared :class:`~repro.session.stages.StageContext`,
* :mod:`repro.session.fingerprint` / :mod:`repro.session.cache` — a
  content-addressed artifact cache (memory, disk, tiered backends) keyed
  on (source fingerprint, config fingerprint, stage),
* :mod:`repro.session.session` — :class:`OptimizationSession`, which ties
  the two together for cached whole-source optimization.

The experiment harness (:mod:`repro.experiments.common`), the
optimization service (:mod:`repro.service`, the one way to run sessions
concurrently), the ``accsat`` CLI and the engine benchmark all build on
this package.
"""

from repro.session.cache import (
    MISS,
    ArtifactCache,
    CacheStats,
    DiskCache,
    MemoryCache,
    TieredCache,
)
from repro.session.fingerprint import (
    CacheKey,
    fingerprint_config,
    fingerprint_text,
    stage_key,
)
from repro.session.stages import (
    DEFAULT_STAGES,
    CodegenStage,
    EGraphBuildStage,
    ExtractionStage,
    FrontendStage,
    SaturationStage,
    Stage,
    StageContext,
    StageError,
    run_stages,
)
from repro.session.session import OptimizationSession

__all__ = [
    "MISS",
    "ArtifactCache",
    "CacheKey",
    "CacheStats",
    "CodegenStage",
    "DEFAULT_STAGES",
    "DiskCache",
    "EGraphBuildStage",
    "ExtractionStage",
    "FrontendStage",
    "MemoryCache",
    "OptimizationSession",
    "SaturationStage",
    "Stage",
    "StageContext",
    "StageError",
    "TieredCache",
    "fingerprint_config",
    "fingerprint_text",
    "run_stages",
    "stage_key",
]
