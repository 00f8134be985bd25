"""Cache-correctness contract: a hit is indistinguishable from a cold run.

These tests enforce the session architecture's core promise — for every
variant and extractor, the artifact a cache hit returns carries the same
generated C and the same per-kernel statistics as a cold pipeline run,
whether the artifact came from memory or from the cache directory.
"""

import pytest

from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.session import MemoryCache, OptimizationSession

KERNEL = """
#pragma acc parallel loop gang
for (int i = 0; i < n; i++) {
#pragma acc loop vector
  for (int j = 0; j < m; j++) {
    out[i][j] = w0 * in[i][j] + w1 * (in[i][j-1] + in[i][j+1])
              + w0 * in[i][j] * w1;
  }
}
"""

_TIME_KEYS = ("ssa_codegen_time", "saturation_time", "extraction_time",
              "search_time", "apply_time", "rebuild_time", "total_time",
              "phase_times", "hit_rate")


def _strip_volatile(obj):
    """Drop wall-clock fields (and cache flags) from a report dict tree."""

    if isinstance(obj, dict):
        return {
            key: _strip_volatile(value)
            for key, value in obj.items()
            if key not in _TIME_KEYS and key != "from_cache"
        }
    if isinstance(obj, list):
        return [_strip_volatile(item) for item in obj]
    return obj


def _comparable(result):
    return [_strip_volatile(k.as_dict()) for k in result.kernels]


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("extraction", ["dag-greedy", "ilp"])
def test_hit_equals_cold_run_for_every_variant_and_extractor(variant, extraction):
    config = SaturatorConfig(variant=variant, extraction=extraction)
    session = OptimizationSession(config=config, cache=MemoryCache())

    cold = session.run(KERNEL)
    hit = session.run(KERNEL)
    assert session.cache.stats.hits == 1

    assert hit.code == cold.code
    assert hit.variant == cold.variant
    # every statistic matches, including the saturation profile; only the
    # provenance flag differs
    assert _comparable(hit) == _comparable(cold)
    assert all(k.from_cache for k in hit.kernels)
    assert not any(k.from_cache for k in cold.kernels)
    # timing fields of a hit are the cold run's (the artifact is the same)
    assert [k.saturation_time for k in hit.kernels] == [
        k.saturation_time for k in cold.kernels
    ]

    # and an entirely fresh, uncached run agrees on code and statistics
    fresh = optimize_source(KERNEL, config)
    assert fresh.code == cold.code
    assert _comparable(fresh) == _comparable(cold)


def test_ilp_extraction_artifacts_cache_identically():
    config = SaturatorConfig(variant=Variant.CSE_SAT, extraction="ilp")
    session = OptimizationSession(config=config, cache=MemoryCache())
    cold = session.run(KERNEL)
    hit = session.run(KERNEL)
    assert hit.code == cold.code
    assert _comparable(hit) == _comparable(cold)


def test_disk_backend_reproduces_artifacts_across_sessions(tmp_path):
    config = SaturatorConfig(variant=Variant.ACCSAT)
    first = OptimizationSession(config=config, cache=MemoryCache(directory=tmp_path))
    cold = first.run(KERNEL)

    # a brand-new session over the same directory sees the artifact
    second = OptimizationSession(config=config, cache=MemoryCache(directory=tmp_path))
    hit = second.run(KERNEL)
    assert second.cache.stats.hits == 1
    assert hit.code == cold.code
    assert _comparable(hit) == _comparable(cold)
    assert all(k.from_cache for k in hit.kernels)


def test_cache_discriminates_configs_and_sources(tmp_path):
    session = OptimizationSession(cache=MemoryCache())
    accsat = session.run(KERNEL, SaturatorConfig(variant=Variant.ACCSAT))
    cse = session.run(KERNEL, SaturatorConfig(variant=Variant.CSE))
    assert session.cache.stats.misses == 2  # no false sharing
    assert accsat.variant != cse.variant
    other = session.run(KERNEL.replace("w1", "w2"), SaturatorConfig())
    assert other.code != accsat.code


def test_name_prefix_is_part_of_the_key():
    session = OptimizationSession(cache=MemoryCache())
    a = session.run(KERNEL, name_prefix="alpha")
    b = session.run(KERNEL, name_prefix="beta")
    assert a.kernels[0].name.startswith("alpha")
    assert b.kernels[0].name.startswith("beta")
    assert session.cache.stats.hits == 0


def test_uncached_session_still_optimizes():
    session = OptimizationSession()
    result = session.run(KERNEL)
    assert result.kernels
    assert session.cache_stats is None
