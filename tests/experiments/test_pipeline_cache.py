"""The experiment harness's memo of pipeline runs.

Every figure/table cell reduces to a CSE or a CSE+SAT pipeline run of one
kernel; ``_pipeline_stats`` memoises each run's stat tuple, so repeated
cells within one process never re-run the pipeline.
"""

from repro.benchsuite import get_benchmark
from repro.benchsuite.npb.cg import CG
from repro.experiments import common
from repro.experiments.common import (
    EvaluationSettings,
    clear_pipeline_cache,
    evaluate_benchmark,
    pipeline_cache_stats,
)

FAST = EvaluationSettings(node_limit=300, iter_limit=2)
SOURCE = CG.kernels[0].source


def test_stats_count_the_memo_and_clear_empties_it():
    clear_pipeline_cache()
    assert pipeline_cache_stats() == {"hits": 0, "misses": 0}
    cold = common._pipeline_stats(SOURCE, False, FAST)
    warm = common._pipeline_stats(SOURCE, False, FAST)
    assert warm is cold
    assert pipeline_cache_stats() == {"hits": 1, "misses": 1}
    clear_pipeline_cache()
    assert pipeline_cache_stats() == {"hits": 0, "misses": 0}
    # a cleared memo re-runs the pipeline to the same stats
    assert common._pipeline_stats(SOURCE, False, FAST) == cold


def test_repeated_cells_hit_the_pipeline_caches():
    settings = EvaluationSettings(node_limit=1200, iter_limit=2, time_limit=3.0)
    bench = get_benchmark("BT")
    clear_pipeline_cache()
    evaluate_benchmark(bench, "nvhpc", settings=settings)
    before = pipeline_cache_stats()
    evaluate_benchmark(bench, "gcc", settings=settings)
    after = pipeline_cache_stats()
    # the second compiler re-uses every pipeline run: no new misses,
    # every cell served by the memo
    assert before["misses"] == 2 * len({spec.source for spec in bench.kernels})
    assert after["misses"] == before["misses"]
    assert after["hits"] > before["hits"]
