"""Shared evaluation harness for the experiment modules.

The harness connects the three layers of the reproduction:

1. the **pipeline** (`repro.saturator`) runs on every benchmark kernel
   source and yields operation counts for the original code and for each
   generated variant,
2. the **compiler model** (`repro.gpusim.compilers`) lowers those counts to
   a machine-level characterisation per compiler,
3. the **GPU model** (`repro.gpusim.launch`) turns that into time.

Every figure/table cell re-runs the same parse→SSA→saturate→extract→codegen
flow, so the harness sits on the **session architecture**
(:mod:`repro.session`) rather than looping over the raw pipeline:

pipeline runs go through a module-level
:class:`~repro.session.OptimizationSession` whose content-addressed
:class:`~repro.session.MemoryCache` is keyed on (source fingerprint,
config fingerprint) — the SAT variants only differ from their non-SAT
counterparts by equality saturation, and BULK only changes the code
layout, so each kernel needs exactly two pipeline runs (CSE and CSE+SAT)
and every other cell is a cache hit (counters:
:func:`pipeline_cache_stats`).  :func:`evaluate_kernel` and
:func:`evaluate_benchmark` are plain loops over those cells.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.benchsuite.base import BenchmarkSpec, KernelSpec
from repro.codegen.generator import KernelCodeStats
from repro.egraph.runner import RunnerLimits
from repro.gpusim import (
    GPUConfig,
    A100_PCIE_40GB,
    CompilerModel,
    KernelCharacterization,
    KernelMeasurement,
    LaunchConfig,
    VariantComparison,
    compile_kernel,
    compiler_model,
    simulate_kernel,
)
from repro.saturator import SaturatorConfig, Variant
from repro.session import (
    ArtifactCache,
    DiskCache,
    MemoryCache,
    OptimizationSession,
    TieredCache,
)

__all__ = [
    "EvaluationSettings",
    "VARIANT_ORDER",
    "characterize_kernel",
    "clear_pipeline_cache",
    "configure_pipeline_cache",
    "evaluate_kernel",
    "evaluate_benchmark",
    "format_speedup_table",
    "pipeline_cache_stats",
    "pipeline_workload",
]

#: Display order of the paper's variants.
VARIANT_ORDER = ("cse", "cse+sat", "cse+bulk", "accsat")


@dataclass(frozen=True)
class EvaluationSettings:
    """Knobs of the evaluation harness (kept small for CI-speed runs)."""

    node_limit: int = 3000
    iter_limit: int = 4
    time_limit: float = 5.0
    extraction: str = "dag-greedy"
    #: Rule-scheduler spelling (``simple`` / ``backoff[:..]`` /
    #: ``match-budget[:..]``); the CLI's ``--scheduler``.
    scheduler: str = "simple"
    #: Anytime extraction with plateau-based early stopping; the CLI's
    #: ``--anytime``.
    anytime: bool = False
    plateau_patience: int = 3

    def config(self, variant: Variant) -> SaturatorConfig:
        return SaturatorConfig(
            variant=variant,
            limits=RunnerLimits(self.node_limit, self.iter_limit, self.time_limit),
            extraction=self.extraction,
            scheduler=self.scheduler,
            anytime_extraction=self.anytime,
            plateau_patience=self.plateau_patience,
        )


_DEFAULT_SETTINGS = EvaluationSettings()

def _default_pipeline_cache() -> ArtifactCache:
    """The harness's artifact cache backend.

    With ``REPRO_CACHE_DIR`` set, pipeline artifacts are shared through a
    disk-backed tier (memory in front for O(1) repeat hits), so repeated
    figure/table sweeps — and separate processes, e.g. the CI bench
    smoke — skip cold pipeline runs entirely.  Without
    it, the in-memory backend serves the single-process case.  512 memory
    entries comfortably hold both configs of every kernel in both suites;
    the cache key covers the full SaturatorConfig, so different settings
    never collide.
    """

    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    memory = MemoryCache(max_entries=512)
    if cache_dir:
        return TieredCache(memory=memory, disk=DiskCache(cache_dir))
    return memory


#: Session cache shared by every experiment module in the process (see
#: :func:`_default_pipeline_cache`; reconfigure at runtime with
#: :func:`configure_pipeline_cache`).
_PIPELINE_CACHE: ArtifactCache = _default_pipeline_cache()
_SESSION = OptimizationSession(cache=_PIPELINE_CACHE)


def configure_pipeline_cache(
    cache_dir: Union[None, str, "os.PathLike"] = None,
    cache: Optional[ArtifactCache] = None,
) -> ArtifactCache:
    """Rebind the harness's shared pipeline cache.

    ``cache_dir`` wires a disk-backed tier at that path (the programmatic
    twin of the ``REPRO_CACHE_DIR`` environment variable); ``cache``
    installs an arbitrary pre-built backend; with neither, the default
    backend is rebuilt from the environment.  Derived-stat memos are
    dropped so every figure/table cell re-reads through the new backend.
    Returns the installed cache.
    """

    global _PIPELINE_CACHE, _SESSION
    if cache is not None and cache_dir is not None:
        raise ValueError("pass either cache_dir or cache, not both")
    if cache is None:
        if cache_dir is not None:
            cache = TieredCache(
                memory=MemoryCache(max_entries=512),
                disk=DiskCache(os.fspath(cache_dir)),
            )
        else:
            cache = _default_pipeline_cache()
    _PIPELINE_CACHE = cache
    _SESSION = OptimizationSession(cache=_PIPELINE_CACHE)
    _pipeline_stats.cache_clear()
    return cache


def pipeline_cache_stats() -> Dict[str, object]:
    """Counters of both pipeline cache layers.

    ``hits``/``misses``/``stores`` are the session artifact cache;
    ``derived_hits``/``derived_misses`` are the O(1) memo of the derived
    stat tuples sitting in front of it.
    """

    stats = _PIPELINE_CACHE.stats.as_dict()
    info = _pipeline_stats.cache_info()
    stats["derived_hits"] = info.hits
    stats["derived_misses"] = info.misses
    return stats


def clear_pipeline_cache() -> None:
    """Drop every cached pipeline artifact (for benchmarks and tests)."""

    _pipeline_stats.cache_clear()
    _PIPELINE_CACHE.clear()


@lru_cache(maxsize=1024)
def _pipeline_stats(
    source: str, saturate: bool, settings: EvaluationSettings
) -> Tuple[KernelCodeStats, KernelCodeStats, int]:
    """Run the pipeline once per (source, config); cached thereafter.

    Two cache layers: this ``lru_cache`` serves the *derived* stat tuple
    in O(1) for the repeated figure/table cells of one process, while the
    session's content-addressed artifact cache underneath holds the full
    :class:`OptimizationResult` (shared across call signatures, and the
    layer a future disk backend plugs into).
    """

    variant = Variant.CSE_SAT if saturate else Variant.CSE
    result = _SESSION.run(source, settings.config(variant))
    original = KernelCodeStats()
    generated = KernelCodeStats()
    temps = 0
    for kernel in result.kernels:
        for field_name in ("loads", "stores", "flops", "fmas", "divs", "calls", "int_ops"):
            setattr(original, field_name,
                    getattr(original, field_name) + getattr(kernel.original, field_name))
            setattr(generated, field_name,
                    getattr(generated, field_name) + getattr(kernel.optimized, field_name))
        temps += kernel.optimized.temporaries
    generated.temporaries = temps
    return original, generated, temps


def pipeline_workload(
    benchmarks: Optional[Sequence[BenchmarkSpec]] = None,
    settings: EvaluationSettings = _DEFAULT_SETTINGS,
) -> Sequence[Tuple[str, SaturatorConfig, str]]:
    """The distinct pipeline runs behind a figure/table sweep.

    Every figure and table cell of the evaluation reduces to exactly two
    pipeline runs per kernel — the CSE baseline and the CSE+SAT saturated
    build (see :func:`_pipeline_stats`); all other variants and compilers
    are cache hits over those artifacts.  This returns that deduplicated
    ``(source, config, kernel name)`` workload, which is what the service
    load generator samples its request mix from.  ``benchmarks`` defaults
    to both suites (NPB and SPEC ACCEL).
    """

    if benchmarks is None:
        from repro.benchsuite.registry import NPB_BENCHMARKS, SPEC_ACC_BENCHMARKS

        benchmarks = list(NPB_BENCHMARKS) + list(SPEC_ACC_BENCHMARKS)
    workload = []
    seen = set()
    for bench in benchmarks:
        for spec in bench.kernels:
            if spec.source in seen:
                continue
            seen.add(spec.source)
            for variant in (Variant.CSE, Variant.CSE_SAT):
                workload.append(
                    (spec.source, settings.config(variant),
                     f"{bench.name}_{spec.name}")
                )
    return workload


def characterize_kernel(
    spec: KernelSpec,
    variant: str,
    settings: EvaluationSettings = _DEFAULT_SETTINGS,
) -> KernelCharacterization:
    """Build the GPU-model characterisation of one kernel variant.

    ``variant`` is ``"original"`` or one of :data:`VARIANT_ORDER`.
    """

    saturate = variant in ("cse+sat", "accsat")
    bulk = variant in ("cse+bulk", "accsat")
    uses_kernels = "acc kernels" in spec.source
    original, generated, temps = _pipeline_stats(spec.source, saturate, settings)
    if variant == "original":
        # the irreducible loads/ops reference is the plain CSE build
        _, cse_generated, _ = _pipeline_stats(spec.source, False, settings)
        return KernelCharacterization(
            name=spec.name,
            original=original,
            generated=cse_generated,
            bulk_load=False,
            is_original=True,
            live_temporaries=0,
            scale=spec.statement_scale,
            uses_kernels_directive=uses_kernels,
        )
    return KernelCharacterization(
        name=spec.name,
        original=original,
        generated=generated,
        bulk_load=bulk,
        is_original=False,
        live_temporaries=temps,
        scale=spec.statement_scale,
        uses_kernels_directive=uses_kernels,
    )


def evaluate_kernel(
    spec: KernelSpec,
    compiler: CompilerModel,
    gpu: GPUConfig = A100_PCIE_40GB,
    variants: Sequence[str] = ("original",) + VARIANT_ORDER,
    settings: EvaluationSettings = _DEFAULT_SETTINGS,
) -> KernelMeasurement:
    """Model the performance of one kernel under every requested variant."""

    launch = LaunchConfig(
        iterations_per_launch=spec.iterations_per_launch,
        launches=spec.launches,
        threads_per_block=spec.threads_per_block,
        parallel_fraction=spec.parallel_fraction,
    )
    measurement = KernelMeasurement(kernel=spec.name)
    for variant in variants:
        characterization = characterize_kernel(spec, variant, settings)
        compiled = compile_kernel(characterization, compiler, gpu)
        measurement.by_variant[variant] = simulate_kernel(compiled, gpu, launch)
    return measurement


def evaluate_benchmark(
    bench: BenchmarkSpec,
    compiler_name: str,
    gpu: GPUConfig = A100_PCIE_40GB,
    variants: Sequence[str] = ("original",) + VARIANT_ORDER,
    settings: EvaluationSettings = _DEFAULT_SETTINGS,
) -> VariantComparison:
    """Model a whole benchmark: per-kernel times aggregated by repeat count."""

    comparison = VariantComparison(
        benchmark=bench.name,
        compiler=compiler_name,
        gpu=gpu.name,
        total_time={variant: 0.0 for variant in variants},
    )
    compiler = compiler_model(compiler_name, bench.programming_model)
    for spec in bench.kernels:
        measurement = evaluate_kernel(spec, compiler, gpu, variants, settings)
        comparison.kernels.append(measurement)
        for variant in variants:
            comparison.total_time[variant] += measurement.by_variant[variant].time_s * spec.repeat
    return comparison


def format_speedup_table(
    comparisons: Iterable[VariantComparison],
    variants: Sequence[str] = VARIANT_ORDER,
    baseline: str = "original",
) -> str:
    """Render benchmark speedups as an aligned text table (one row each)."""

    comparisons = list(comparisons)
    header = ["benchmark"] + list(variants)
    rows = [header]
    for comparison in comparisons:
        row = [comparison.benchmark]
        for variant in variants:
            row.append(f"{comparison.speedup(variant, baseline):.2f}x")
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
