"""Process-executor jobs are served from the disk artifacts the parent wrote.

Process workers run uncached: the service's cache lives in the parent,
which probes it before shipping a job to a worker and stores the result
after the worker returns it.  A cache directory another session wrote is
therefore the cross-process warm state — a process service over a *fresh*
cache on that directory serves every job from disk, and no worker starts
a pipeline.
"""

from repro.benchsuite.npb.cg import CG
from repro.experiments.common import EvaluationSettings
from repro.saturator import Variant
from repro.service import OptimizationService
from repro.session import MemoryCache, OptimizationSession

SOURCES = [spec.source for spec in CG.kernels[:2]]
#: Deliberately unusual limits so no other test's artifacts collide.
CONFIG = EvaluationSettings(node_limit=311, iter_limit=2).config(Variant.CSE)


def test_workers_hit_artifacts_the_parent_wrote(tmp_path):
    cache_dir = tmp_path / "fleet-cache"

    # The parent seeds the directory through a standalone session: the
    # service below starts with a fresh cache whose memory is empty, so
    # the on-disk artifact is the only shared state.
    seeder = OptimizationSession(CONFIG, MemoryCache(directory=cache_dir))
    expected = [seeder.run(source).code for source in SOURCES]
    assert len(list(cache_dir.glob("*/*.pkl"))) == len(SOURCES)

    cache = MemoryCache(directory=cache_dir)
    seen = []
    cache.trace_hook = lambda site, attrs: seen.append(attrs.get("backend"))
    service = OptimizationService(
        config=CONFIG, cache=cache, workers=2, executor="process"
    )
    handles = [service.submit(source) for source in SOURCES]
    with service:
        results = [handle.result(timeout=120) for handle in handles]
        snap = service.stats.snapshot()

    assert [result.code for result in results] == expected
    assert all(handle.from_cache for handle in handles)
    assert snap["cache_hits"] == len(SOURCES) and snap["pipeline_runs"] == 0
    assert cache.stats.hits == len(SOURCES)
    assert seen == ["disk"] * len(SOURCES)
