"""The artifact record format: frozen slotted dataclasses pickled positionally.

An artifact's pickle is what the session cache stores and what every
cache hit unpickles, so its shape is pinned here:

* every record class round-trips ``==`` through ``pickle``, ``copy`` and
  ``copy.deepcopy``, keeps no instance ``__dict__`` and refuses
  assignment;
* a real corpus artifact pickles with no ``BUILD`` opcode and exactly one
  ``REDUCE`` per record instance and per :class:`FrozenDict` — a record
  that falls back to the dataclass default (NEWOBJ + state dict + BUILD)
  fails;
* each record's field names, in order, are a literal table: the
  positional tuple *is* the on-disk format, so changing it must come with
  an ``ENGINE_SCHEMA`` bump;
* a load fills each record's slots through the record's loader
  (``cls._load``) without running the frozen ``__init__`` or
  ``__post_init__``, while bytes in the older ``(cls, values)`` form load
  through the class;
* an artifact written before the records were frozen (lists and a plain
  dict in the same positions) still loads, as an immutable value;
* the config fingerprint moved with that bump, so older disk entries miss.
"""

import contextlib
import copy
import dataclasses
import enum
import pickle
import pickletools

import pytest

from repro.benchsuite.registry import NPB_BENCHMARKS
from repro.codegen.generator import KernelCodeStats
from repro.egraph.runner import IterationReport, RuleStats, RunnerLimits, RunnerReport
from repro.records import FrozenDict
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.saturator.report import KernelReport, OptimizationResult
from repro.session import MemoryCache, OptimizationSession
from repro.session import fingerprint as fingerprint_module
from repro.session import fingerprint_config

#: Field names in declaration order — the positional pickle format.
FIELDS = {
    IterationReport: (
        "index", "applied", "egraph_nodes", "egraph_classes", "search_time",
        "apply_time", "rebuild_time", "extracted_cost",
    ),
    RuleStats: (
        "name", "searches", "incremental_searches", "search_time",
        "apply_time", "matches", "applied",
    ),
    RunnerReport: (
        "stop_reason", "iterations", "total_time", "egraph_nodes",
        "egraph_classes", "rule_stats", "extract_time", "scheduler",
    ),
    KernelCodeStats: (
        "loads", "stores", "flops", "fmas", "divs", "calls", "temporaries",
        "int_ops",
    ),
    KernelReport: (
        "name", "ssa_codegen_time", "saturation_time", "extraction_time",
        "runner", "egraph_nodes", "egraph_classes", "assignments", "groups",
        "original", "optimized", "extracted_cost", "from_cache", "degraded",
    ),
    OptimizationResult: ("code", "kernels", "variant"),
}

#: The schema every disk entry before the positional format was keyed by.
PREVIOUS_ENGINE_SCHEMA = "columnar-v4"

LIMITS = RunnerLimits(10_000, 10, 300.0)


def _artifact(variant: Variant, index: int = 0) -> OptimizationResult:
    spec = NPB_BENCHMARKS[0].kernels[index]
    config = SaturatorConfig(variant=variant, limits=LIMITS)
    return optimize_source(spec.source, config, spec.name)


@pytest.fixture(scope="module")
def accsat():
    return _artifact(Variant.ACCSAT)


def _instances(result: OptimizationResult) -> dict:
    """One instance of every record class, taken from a real artifact."""

    kernel = result.kernels[0]
    runner = kernel.runner
    return {
        OptimizationResult: result,
        KernelReport: kernel,
        KernelCodeStats: kernel.optimized,
        RunnerReport: runner,
        IterationReport: runner.iterations[0],
        RuleStats: next(iter(runner.rule_stats.values())),
    }


def _distinct(value, records: dict, enums: dict) -> None:
    """Collect the distinct record, mapping and enum objects reachable
    from *value* (a :class:`FrozenDict` counts with the records)."""

    if type(value) in FIELDS:
        if id(value) not in records:
            records[id(value)] = value
            for name in FIELDS[type(value)]:
                _distinct(getattr(value, name), records, enums)
    elif isinstance(value, enum.Enum):
        enums[id(value)] = value
    elif isinstance(value, (list, tuple)):
        for item in value:
            _distinct(item, records, enums)
    elif isinstance(value, (dict, FrozenDict)):
        if isinstance(value, FrozenDict):
            records[id(value)] = value
        for item in value.values():
            _distinct(item, records, enums)


def test_field_order_is_pinned():
    for cls, expected in FIELDS.items():
        actual = tuple(f.name for f in dataclasses.fields(cls))
        assert actual == expected, (
            f"{cls.__qualname__} fields changed to {actual}; the field order "
            "is the artifact format of positional pickles: bump ENGINE_SCHEMA "
            "(repro.session.fingerprint) and update this table"
        )


def test_every_record_round_trips_and_is_slotted(accsat):
    for cls, instance in _instances(accsat).items():
        assert type(instance) is cls
        assert not hasattr(instance, "__dict__"), cls.__qualname__
        for clone in (
            pickle.loads(pickle.dumps(instance, protocol=pickle.HIGHEST_PROTOCOL)),
            copy.copy(instance),
            copy.deepcopy(instance),
        ):
            assert type(clone) is cls
            assert clone == instance and clone is not instance, cls.__qualname__
        name = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, name, getattr(instance, name))


@pytest.mark.parametrize("variant", [Variant.ACCSAT, Variant.CSE])
def test_artifact_pickles_one_reduce_per_record_and_no_build(variant):
    result = _artifact(variant, index=1)
    records, enums = {}, {}
    _distinct(result, records, enums)
    assert {type(r) for r in records.values()} >= {
        OptimizationResult, KernelReport, KernelCodeStats,
    }
    if variant is Variant.ACCSAT:
        assert FrozenDict in {type(r) for r in records.values()}
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    opcodes = [op.name for op, _, _ in pickletools.genops(blob)]
    assert "BUILD" not in opcodes
    assert "NEWOBJ" not in opcodes
    # enum members reduce to their class too (once each, then the memo)
    assert opcodes.count("REDUCE") == len(records) + len(enums)
    assert pickle.loads(blob) == result


def _older_reduce(record):
    """The reducer of the mutable-record format: ``(cls, field values)``."""

    return type(record), tuple(
        getattr(record, f.name) for f in dataclasses.fields(record)
    )


@contextlib.contextmanager
def _older_format(monkeypatch):
    """Pickle records in the ``(cls, values)`` form while inside."""

    with monkeypatch.context() as patch:
        for cls in FIELDS:
            patch.setattr(cls, "__reduce__", _older_reduce)
        yield


def test_loads_skip_the_frozen_init_and_older_bytes_run_it(accsat, monkeypatch):
    blob = pickle.dumps(accsat, protocol=pickle.HIGHEST_PROTOCOL)
    with _older_format(monkeypatch):
        older = pickle.dumps(accsat, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"_load" in blob and b"_load" not in older

    inits = []
    for cls in FIELDS:
        def counting_init(self, *args, _init=cls.__init__, **kwargs):
            inits.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    loaded = pickle.loads(blob)
    assert inits == []
    assert loaded == accsat
    for cls, instance in _instances(loaded).items():
        assert type(instance) is cls and not hasattr(instance, "__dict__")
        name = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, name, getattr(instance, name))
    assert pickle.loads(older) == accsat
    assert set(inits) == set(FIELDS)


def test_artifact_in_the_mutable_format_loads_as_an_immutable_value(
    tmp_path, monkeypatch
):
    """Bytes written when the records were mutable — the same positional
    tuples in the ``(cls, values)`` form, with ``kernels`` and
    ``iterations`` lists and ``rule_stats`` a plain dict — load from a
    cache directory as tuples and a :class:`FrozenDict`; a session hit
    carries ``from_cache=True`` while the stored bytes keep ``False``."""

    spec = NPB_BENCHMARKS[0].kernels[0]
    config = SaturatorConfig(variant=Variant.ACCSAT, limits=LIMITS)
    result = optimize_source(spec.source, config, spec.name)
    runner = result.kernels[0].runner
    object.__setattr__(result, "kernels", list(result.kernels))
    object.__setattr__(runner, "iterations", list(runner.iterations))
    object.__setattr__(runner, "rule_stats", dict(runner.rule_stats))
    key = OptimizationSession(config).key_for(spec.source, name_prefix=spec.name)
    with _older_format(monkeypatch):
        MemoryCache(directory=tmp_path).put(key, result)
    [path] = tmp_path.glob("*/*.pkl")
    blob = path.read_bytes()
    assert b"FrozenDict" not in blob and b"_load" not in blob

    session = OptimizationSession(config, MemoryCache(directory=tmp_path))
    hit, cached = session.run_detailed(spec.source, name_prefix=spec.name)
    assert cached and session.cache.stats.hits == 1
    assert type(hit.kernels) is tuple
    hit_runner = hit.kernels[0].runner
    assert type(hit_runner.iterations) is tuple
    assert type(hit_runner.rule_stats) is FrozenDict
    assert hit_runner.rule_stats == runner.rule_stats
    assert hit_runner.iterations == tuple(runner.iterations)
    assert hit.code == result.code
    with pytest.raises(TypeError):
        hit_runner.rule_stats["x"] = next(iter(runner.rule_stats.values()))
    assert all(kernel.from_cache for kernel in hit.kernels)
    stored = pickle.loads(blob)
    assert not any(kernel.from_cache for kernel in stored.kernels)
    assert path.read_bytes() == blob


def test_fingerprint_moved_with_the_schema(monkeypatch):
    assert fingerprint_module.ENGINE_SCHEMA != PREVIOUS_ENGINE_SCHEMA
    config = SaturatorConfig()
    current = fingerprint_config(config)
    with monkeypatch.context() as patch:
        patch.setattr(fingerprint_module, "ENGINE_SCHEMA", PREVIOUS_ENGINE_SCHEMA)
        previous = fingerprint_config(config)
    assert previous != current
