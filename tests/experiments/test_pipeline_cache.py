"""The experiment harness's pipeline caches (and the REPRO_CACHE_DIR hook).

The figure/table harness defaults to an in-memory artifact cache; pointing
``REPRO_CACHE_DIR`` (or ``configure_pipeline_cache(cache_dir=...)``) at a
directory routes it through a disk-backed tier so separate processes —
repeated benchmark sweeps, the CI bench smoke — reuse each other's cold
pipeline runs.  Within one process, repeated figure cells never re-run
the pipeline.
"""

import pytest

from repro.benchsuite import get_benchmark
from repro.benchsuite.npb.cg import CG
from repro.experiments import common
from repro.experiments.common import (
    EvaluationSettings,
    clear_pipeline_cache,
    configure_pipeline_cache,
    evaluate_benchmark,
    pipeline_cache_stats,
)
from repro.session import DiskCache, MemoryCache, TieredCache

FAST = EvaluationSettings(node_limit=300, iter_limit=2)
SOURCE = CG.kernels[0].source


@pytest.fixture(autouse=True)
def _restore_default_cache():
    yield
    configure_pipeline_cache()


def test_env_var_selects_disk_backed_tier(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cache = common._default_pipeline_cache()
    assert isinstance(cache, TieredCache)
    assert isinstance(cache.disk, DiskCache)
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert isinstance(common._default_pipeline_cache(), MemoryCache)


def test_cache_dir_hook_shares_artifacts_across_sessions(tmp_path):
    cache_dir = tmp_path / "cache"
    first = configure_pipeline_cache(cache_dir=cache_dir)
    assert isinstance(first, TieredCache)

    cold = common._pipeline_stats(SOURCE, False, FAST)
    assert first.stats.stores > 0
    assert list(cache_dir.glob("*/*.pkl")), "artifacts must land on disk"

    # a rebound cache (fresh memory tier — stands in for a new process)
    # serves the same artifact from disk instead of re-running the pipeline
    second = configure_pipeline_cache(cache_dir=cache_dir)
    assert second is not first
    warm = common._pipeline_stats(SOURCE, False, FAST)
    assert second.disk.stats.hits > 0
    assert warm == cold

    # the derived stats are byte-identical to an uncached default run
    configure_pipeline_cache()
    fresh = common._pipeline_stats(SOURCE, False, FAST)
    assert fresh == cold


def test_configure_rejects_conflicting_arguments(tmp_path):
    with pytest.raises(ValueError):
        configure_pipeline_cache(cache_dir=tmp_path, cache=MemoryCache())


def test_repeated_cells_hit_the_pipeline_caches():
    settings = EvaluationSettings(node_limit=1200, iter_limit=2, time_limit=3.0)
    bench = get_benchmark("BT")
    clear_pipeline_cache()
    evaluate_benchmark(bench, "nvhpc", settings=settings)
    before = pipeline_cache_stats()
    evaluate_benchmark(bench, "gcc", settings=settings)
    after = pipeline_cache_stats()
    # the second compiler re-uses every pipeline artifact: no new
    # stores in the session cache, every cell served by the memo
    assert after["stores"] == before["stores"]
    assert after["derived_hits"] > before["derived_hits"]
