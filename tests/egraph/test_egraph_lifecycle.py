"""A kernel's e-graph dies when ``optimize_source`` returns.

Nothing outside a kernel may keep its :class:`EGraph` alive, and nothing
inside the graph may point back at it: then reference counting frees the
graph (often the largest object a compile builds) the moment its kernel
is done, instead of whenever the cyclic collector next runs.  Each gate
runs with the collector disabled and counts the ``EGraph`` objects that
``gc.get_objects()`` still holds afterwards; with the collector off, a
reference cycle through a graph keeps it there.

Covered: the corpus under all four variants (default scheduler), ACCSAT
under the ``backoff`` and ``match-budget`` schedulers and under anytime
extraction, the ILP extractor, and a thread-executor service resolving
solo jobs plus a coalesced follower.  A planted cycle (the constant-
folding analysis keeping a strong reference to the graph it served) must
fail the gate.
"""

import gc
from contextlib import contextmanager

import pytest

from repro.benchsuite.registry import NPB_BENCHMARKS, SPEC_ACC_BENCHMARKS
from repro.egraph.analysis import ConstantFoldingAnalysis
from repro.egraph.egraph import EGraph
from repro.egraph.runner import RunnerLimits
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.service import JobState, OptimizationService

#: The paper's node and iteration limits; the wall limit never binds.
LIMITS = RunnerLimits(10_000, 10, 300.0)


def _corpus():
    """``(request name, source)`` of the distinct corpus kernel sources."""

    seen = {}
    for bench in NPB_BENCHMARKS + SPEC_ACC_BENCHMARKS:
        for spec in bench.kernels:
            seen.setdefault(spec.source, f"{bench.name}_{spec.name}")
    return [(name, source) for source, name in seen.items()]


CORPUS = _corpus()
#: The shortest sources: cheap kernels for the ILP and service gates.
SMALL = sorted(CORPUS, key=lambda item: (len(item[1]), item[0]))[:6]


@contextmanager
def _collector_off():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _surviving_egraphs(run) -> int:
    """How many e-graphs created by ``run()`` outlive it, collector off."""

    with _collector_off():
        # the graphs alive before stay referenced, so no new graph can
        # reuse one of their ids
        before = [o for o in gc.get_objects() if isinstance(o, EGraph)]
        known = {id(o) for o in before}
        run()
        survivors = sum(
            1 for o in gc.get_objects()
            if isinstance(o, EGraph) and id(o) not in known
        )
        del before
    gc.collect()
    return survivors


def _compile_all(config, corpus=CORPUS):
    def run():
        for name, source in corpus:
            optimize_source(source, config, name)

    return run


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_corpus_compiles_leave_no_egraph(variant):
    config = SaturatorConfig(variant=variant, limits=LIMITS)
    assert _surviving_egraphs(_compile_all(config)) == 0


@pytest.mark.parametrize("options", [
    {"scheduler": "backoff"},
    {"scheduler": "match-budget"},
    {"anytime_extraction": True, "anytime_interval": 1, "plateau_patience": 3},
], ids=["backoff", "match-budget", "anytime"])
def test_accsat_under_other_schedules_leaves_no_egraph(options):
    config = SaturatorConfig(variant=Variant.ACCSAT, limits=LIMITS, **options)
    assert _surviving_egraphs(_compile_all(config)) == 0


def test_ilp_extraction_leaves_no_egraph():
    config = SaturatorConfig(variant=Variant.ACCSAT, limits=LIMITS, extraction="ilp")
    assert _surviving_egraphs(_compile_all(config, SMALL[:1])) == 0


def test_thread_service_keeps_no_egraph():
    """Six solo jobs and one coalesced follower: the service's jobs,
    handles and cached artifacts hold no e-graph once resolved."""

    config = SaturatorConfig(variant=Variant.ACCSAT, limits=LIMITS)
    held = []

    def run():
        service = OptimizationService(config=config, workers=2, executor="thread")
        # every submission lands before a worker exists, so the repeated
        # source is in flight with its leader and coalesces onto it
        handles = [service.submit(source) for _, source in SMALL]
        handles.append(service.submit(SMALL[0][1]))
        with service:
            assert service.join(120)
        assert [h.state for h in handles] == [JobState.DONE] * 7
        assert [h.coalesced for h in handles] == [False] * 6 + [True]
        assert service.stats.snapshot()["pipeline_runs"] == 6
        # keep the service and its results alive across the count
        held.extend([service, handles, [h.result() for h in handles]])

    assert _surviving_egraphs(run) == 0


def test_planted_cycle_through_the_graph_fails_the_gate(monkeypatch):
    """An analysis that keeps a strong reference to its graph closes a
    cycle (the graph holds its analysis): the gate must see it."""

    refresh = ConstantFoldingAnalysis._refresh_opid_cache

    def planted(self, egraph):
        self.planted_graph = egraph
        return refresh(self, egraph)

    monkeypatch.setattr(ConstantFoldingAnalysis, "_refresh_opid_cache", planted)
    config = SaturatorConfig(variant=Variant.ACCSAT, limits=LIMITS)
    assert _surviving_egraphs(_compile_all(config, SMALL[:3])) >= 1
