"""Concurrent sessions run on the service, and the parallel == serial contract.

:class:`~repro.service.OptimizationService` is the one way to run sessions
concurrently: ``accsat FILE... -j N --executor thread|process`` builds one
service per run, and a service wave — on either backend, with any number
of workers — produces the artifacts a serial run produces, handle by
handle in input order.
"""

import pytest

import repro.cli as cli
from repro.cli import main
from repro.egraph.runner import RunnerLimits
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.service import OptimizationService
from repro.session import MemoryCache

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
        # --cache-dir cache, which is where the stores land
        built = _record_services(monkeypatch)
        (path,) = _write_files(tmp_path, 1)
        cache_dir = tmp_path / "artifacts"
        assert main([
            "--quiet", "--variant", "cse", "--cache-dir", str(cache_dir), path,
        ]) == 0
        (service,) = built
        assert service.session.config.variant is Variant.CSE
        assert type(service.session.cache) is MemoryCache
        assert service.session.cache.directory == cache_dir
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


    def test_both_modes_build_one_cache_and_rerun_from_it(self, tmp_path, monkeypatch):
        # ``accsat --cache-dir D`` and ``accsat serve --cache-dir D`` build
        # the same cache; whichever runs second over D runs no pipeline
        built = _record_services(monkeypatch)
        paths = _write_files(tmp_path, 2)
        cache_dir = tmp_path / "artifacts"
        assert main(["--quiet", "--cache-dir", str(cache_dir), *paths]) == 0
        assert main([
            "serve", "--quiet", "--no-write", "--cache-dir", str(cache_dir), *paths,
        ]) == 0
        assert main(["--quiet", "--cache-dir", str(cache_dir), *paths]) == 0
        caches = [service.session.cache for service in built]
        assert [type(cache) for cache in caches] == [MemoryCache] * 3
        assert {cache.directory for cache in caches} == {cache_dir}
        assert [service.stats.snapshot()["pipeline_runs"] for service in built] == [
            2, 0, 0,
        ]
        for cache in caches[1:]:
            assert (cache.stats.hits, cache.stats.misses) == (2, 0)

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
