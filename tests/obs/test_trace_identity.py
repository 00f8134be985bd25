"""The observational contract, enforced: tracing never changes results.

A traced run and an untraced run of the identical workload must produce
byte-identical artifacts — the same generated code and the same
deterministic report fields (wall-clock fields excluded, exactly as the
cache-equivalence suite excludes them) — through the bare pipeline, the
thread-executor service, and the process-executor service (where spans
cross the process boundary).
"""

from repro.egraph.runner import RunnerLimits
from repro.obs import Tracer
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.service import OptimizationService

CONFIG = SaturatorConfig(
    variant=Variant.ACCSAT, limits=RunnerLimits(800, 4, 60.0)
)

KERNELS = [
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = b[i] * c[i] + b[i] * c[i]; }",
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { d[i] = (x[i] + y[i]) * (x[i] + y[i]); }",
]

_TIME_KEYS = ("ssa_codegen_time", "saturation_time", "extraction_time",
              "search_time", "apply_time", "rebuild_time", "total_time",
              "phase_times", "hit_rate")


def _strip_volatile(obj):
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


class TestPipelineIdentity:
    def test_traced_equals_untraced_for_every_variant(self):
        for variant in Variant:
            config = CONFIG.with_variant(variant)
            untraced = optimize_source(KERNELS[0], config)
            tracer = Tracer()
            root = tracer.span("run")
            traced = optimize_source(
                KERNELS[0], config, tracer=tracer, trace_parent=root.span_id
            )
            root.end()
            assert traced.code == untraced.code
            assert _comparable(traced) == _comparable(untraced)
            # the tracer actually observed the run it didn't perturb
            assert tracer.counts()["spans_started"] > 5


class TestServiceIdentity:
    def _wave(self, executor, traced):
        tracer = Tracer() if traced else None
        service = OptimizationService(
            config=CONFIG, workers=2, executor=executor, coalesce=False,
            tracer=tracer,
        )
        with service:
            handles = [
                service.submit(source, name_prefix=f"k{index}")
                for index, source in enumerate(KERNELS)
            ]
            assert service.join(120)
        results = [handle.result() for handle in handles]
        if tracer is not None:
            assert tracer.counts()["spans_started"] > 0
        return (
            [result.code for result in results],
            [_comparable(result) for result in results],
        )

    def test_thread_executor(self):
        assert self._wave("thread", traced=True) == self._wave("thread", traced=False)

    def test_process_executor(self):
        assert self._wave("process", traced=True) == self._wave("process", traced=False)
