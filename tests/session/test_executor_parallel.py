"""Concurrent sessions run on the service, and the parallel == serial contract.

:class:`~repro.service.OptimizationService` is the one way to run sessions
concurrently: ``accsat FILE... -j N --executor thread|process`` builds one
service per run, and a service wave — on either backend, with any number
of workers — produces the artifacts a serial run produces, handle by
handle in input order.  The figure/table harness is serial, but a cache a
service wave filled serves every one of its cells unchanged.
"""

import pytest

import repro.cli as cli
from repro.benchsuite import get_benchmark
from repro.cli import main
from repro.egraph.runner import RunnerLimits
from repro.experiments.common import (
    EvaluationSettings,
    clear_pipeline_cache,
    configure_pipeline_cache,
    evaluate_benchmark,
    evaluate_kernel,
    pipeline_workload,
)
from repro.gpusim import A100_PCIE_40GB, compiler_model
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.service import OptimizationService
from repro.session import DiskCache, MemoryCache

FAST = EvaluationSettings(node_limit=1200, iter_limit=2, time_limit=3.0)

CONFIG = SaturatorConfig(variant=Variant.CSE_SAT, limits=RunnerLimits(400, 3, 60.0))

#: Heaviest first, so under enough workers later jobs finish first.
KERNELS = [
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = (b[i] + c[i]) * (b[i] + c[i])"
    " + (c[i] + b[i]) * d[i] + b[i] * c[i] + d[i] * d[i]; }",
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = (b[i] + c[i]) * d[i] + (c[i] + b[i]); }",
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = b[i] * c[i] + b[i] * c[i]; }",
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = b[i] * 2 + c[i] * 2; }",
]

KERNEL_FILE = """
#pragma acc parallel loop gang
for (int i = 0; i < n; i++) {
  out[i] = a * in[i] + b * in[i];
}
"""


def _serial(sources):
    return [optimize_source(source, CONFIG).code for source in sources]


def _wave(sources, **kwargs):
    """Submit every source before the workers start; resolve in order."""

    service = OptimizationService(config=CONFIG, **kwargs)
    handles = [service.submit(source) for source in sources]
    with service:
        return [handle.result(timeout=120).code for handle in handles]


def _record_services(monkeypatch):
    """Make the CLI's services inspectable after ``main`` returns."""

    built = []

    class Recording(OptimizationService):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cli, "OptimizationService", Recording)
    return built


def _write_files(tmp_path, count):
    paths = []
    for index in range(count):
        path = tmp_path / f"k{index}.c"
        path.write_text(KERNEL_FILE.replace("out[i]", f"out{index}[i]"))
        paths.append(str(path))
    return paths


def _warmed_cache(workload, **kwargs):
    """A cache filled by one service wave over ``(source, config, _)`` rows."""

    cache = MemoryCache()
    service = OptimizationService(cache=cache, **kwargs)
    handles = [service.submit(source, config=config) for source, config, _ in workload]
    with service:
        for handle in handles:
            handle.result(timeout=300)
    return cache


class TestMakeExecutor:
    """``-j N`` and ``--executor`` are the only concurrency spellings."""

    def test_spellings(self, tmp_path, monkeypatch):
        built = _record_services(monkeypatch)
        one, two, three = _write_files(tmp_path, 3)
        assert main(["--quiet", one]) == 0
        assert main(["--quiet", "-j", "2", one, two]) == 0
        assert main(["--quiet", "--jobs", "3", "--executor", "process", one, two, three]) == 0
        assert main(["--quiet", "-j", "1", "--executor", "thread", one, two]) == 0
        assert [(service.executor, service.workers) for service in built] == [
            ("thread", 1), ("thread", 2), ("process", 3), ("thread", 1),
        ]

    def test_existing_executor_passes_through(self, tmp_path, monkeypatch):
        # the service runs the CLI's own session: its config and its
        # --cache-dir disk cache, which is where the stores land
        built = _record_services(monkeypatch)
        (path,) = _write_files(tmp_path, 1)
        cache_dir = tmp_path / "artifacts"
        assert main([
            "--quiet", "--variant", "cse", "--cache-dir", str(cache_dir), path,
        ]) == 0
        (service,) = built
        assert service.session.config.variant is Variant.CSE
        assert isinstance(service.session.cache, DiskCache)
        assert service.session.cache.root == cache_dir
        assert service.session.cache.stats.stores == 1
        assert len(list(cache_dir.rglob("*.pkl"))) == 1

    def test_rejects_bad_specs(self, tmp_path):
        for spelling in ("serial", "threads", "processes", "fleet"):
            with pytest.raises(ValueError, match="unknown executor"):
                OptimizationService(executor=spelling)
        with pytest.raises(ValueError):
            OptimizationService(workers=0)
        (path,) = _write_files(tmp_path, 1)
        with pytest.raises(SystemExit) as excinfo:
            main(["--quiet", "-j", "0", path])
        assert excinfo.value.code == 2


class TestExecutors:
    def test_serial_map(self):
        assert _wave(KERNELS, workers=1) == _serial(KERNELS)

    def test_threads_preserve_input_order(self):
        assert _wave(KERNELS, workers=4) == _serial(KERNELS)

    def test_processes_map(self):
        assert _wave(KERNELS, workers=2, executor="process") == _serial(KERNELS)

    def test_single_item_short_circuits_pool(self, tmp_path, monkeypatch):
        # one input never starts more workers than it can use
        built = _record_services(monkeypatch)
        (path,) = _write_files(tmp_path, 1)
        assert main(["--quiet", "-j", "4", "--executor", "process", path]) == 0
        assert [(service.executor, service.workers) for service in built] == [
            ("process", 1)
        ]


class TestParallelEvaluationMatchesSerial:
    @pytest.fixture(scope="class")
    def bench(self):
        return get_benchmark("BT")

    def test_evaluate_benchmark_threads_equals_serial(self, bench):
        clear_pipeline_cache()
        serial = evaluate_benchmark(bench, "nvhpc", settings=FAST)
        cache = _warmed_cache(pipeline_workload([bench], FAST), workers=4)
        stores = cache.stats.stores
        try:
            configure_pipeline_cache(cache=cache)
            threaded = evaluate_benchmark(bench, "nvhpc", settings=FAST)
        finally:
            configure_pipeline_cache()
        # every cell was served by an artifact the thread wave computed
        assert cache.stats.stores == stores
        assert threaded.total_time == serial.total_time
        assert [m.kernel for m in threaded.kernels] == [m.kernel for m in serial.kernels]
        for ours, theirs in zip(threaded.kernels, serial.kernels):
            assert ours.by_variant.keys() == theirs.by_variant.keys()
            for variant in ours.by_variant:
                assert ours.by_variant[variant].time_s == theirs.by_variant[variant].time_s

    def test_evaluate_kernel_executor_matches_serial(self, bench):
        spec = bench.kernels[0]
        compiler = compiler_model("nvhpc", bench.programming_model)
        clear_pipeline_cache()
        serial = evaluate_kernel(spec, compiler, A100_PCIE_40GB, settings=FAST)
        workload = [
            (spec.source, FAST.config(variant), spec.name)
            for variant in (Variant.CSE, Variant.CSE_SAT)
        ]
        cache = _warmed_cache(workload, workers=2, executor="process")
        stores = cache.stats.stores
        try:
            configure_pipeline_cache(cache=cache)
            processed = evaluate_kernel(spec, compiler, A100_PCIE_40GB, settings=FAST)
        finally:
            configure_pipeline_cache()
        assert stores == 2 and cache.stats.stores == stores
        assert {
            v: m.time_s for v, m in processed.by_variant.items()
        } == {v: m.time_s for v, m in serial.by_variant.items()}
