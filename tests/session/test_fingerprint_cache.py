"""Fingerprints and the artifact cache."""

import dataclasses
import enum
import pickle
import sys
import threading
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.egraph.runner import RunnerLimits
from repro.saturator import SaturatorConfig, Variant
from repro.session import fingerprint as fingerprint_module
from repro.session import (
    MISS,
    CacheKey,
    MemoryCache,
    OptimizationSession,
    fingerprint_config,
    fingerprint_text,
    stage_key,
)


_KERNEL = (
    "#pragma acc parallel loop\n"
    "for (i = 0; i < n; i++) { a[i] = b[i] * c[i] + b[i] * c[i]; }"
)


class TestFingerprints:
    def test_text_fingerprint_is_stable_and_content_sensitive(self):
        assert fingerprint_text("abc") == fingerprint_text("abc")
        assert fingerprint_text("abc") != fingerprint_text("abd")

    def test_config_fingerprint_covers_every_field(self):
        base = SaturatorConfig()
        assert fingerprint_config(base) == fingerprint_config(SaturatorConfig())
        assert fingerprint_config(base) != fingerprint_config(
            SaturatorConfig(variant=Variant.CSE)
        )
        assert fingerprint_config(base) != fingerprint_config(
            SaturatorConfig(limits=RunnerLimits(123, 4, 5.0))
        )
        assert fingerprint_config(base) != fingerprint_config(
            SaturatorConfig(temp_prefix="_t")
        )

    def test_config_has_no_incremental_search_knob(self):
        # every rule is a pattern pair, so every search is incremental
        assert "incremental_search" not in vars(SaturatorConfig())

    def test_stage_key_digest_is_stable(self):
        key = stage_key("src", SaturatorConfig(), "optimize-source", "k")
        again = stage_key("src", SaturatorConfig(), "optimize-source", "k")
        assert key == again
        assert key.digest == again.digest
        assert key.digest != stage_key("src", SaturatorConfig(), "frontend", "k").digest


#: Values drawn so that ``==``-equal spellings of different JSON text meet:
#: ``10`` / ``10.0``, ``1`` / ``True`` / ``1.0``.  Every value is a valid
#: limit (a config checks its fields when it is built).
_numbers = st.sampled_from([1, 3, 10, True, 1.0, 10.0, 0.5])
#: The same for the fields that count iterations (at least 1).
_counts = st.sampled_from([1, 3, 10, True, 1.0, 10.0])

_configs = st.builds(
    SaturatorConfig,
    variant=st.sampled_from(list(Variant)),
    ruleset=st.sampled_from(["default", "fma-only"]),
    limits=st.builds(
        RunnerLimits, node_limit=_numbers, iter_limit=_numbers, time_limit=_numbers
    ),
    extraction_time_limit=_numbers,
    constant_folding=_numbers,
    temp_prefix=st.sampled_from(["_v", "_t"]),
    scheduler=st.sampled_from(["simple", "backoff", "backoff:8:2"]),
    anytime_extraction=st.booleans(),
    anytime_interval=_counts,
    plateau_patience=_counts,
)


class _Flavour(enum.Enum):
    # same values as two Variant members: the JSON cannot tell them apart
    CSE = "cse"
    ACCSAT = "accsat"


@dataclasses.dataclass
class _LooseConfig:
    """A config whose field takes anything ``fingerprint_config`` may be
    handed."""

    payload: Any = None
    limits: Any = None


class TestFingerprintMemo:
    """The memo is one attribute: ``SaturatorConfig.fingerprint`` is
    ``fingerprint_config`` computed once per (frozen) instance."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_configs, min_size=1, max_size=12), st.randoms())
    def test_memoised_equals_reference_in_any_call_order(self, configs, rng):
        calls = configs * 2
        rng.shuffle(calls)
        for config in calls:
            assert config.fingerprint == fingerprint_config(config)
            assert config.fingerprint is config.fingerprint  # computed once
            assert dataclasses.replace(config).fingerprint == config.fingerprint

    def test_equal_but_differently_typed_values_do_not_collide(self):
        def fp(**limits):
            return SaturatorConfig(limits=RunnerLimits(**limits)).fingerprint

        assert fp(time_limit=10) != fp(time_limit=10.0)
        assert fp(iter_limit=1) != fp(iter_limit=True)
        assert fp(time_limit=10) == fp(time_limit=10)
        assert fingerprint_config(_LooseConfig(Variant.CSE)) == fingerprint_config(
            _LooseConfig(_Flavour.CSE)
        )  # the JSON renders both as "cse"

    def test_a_config_cannot_change_under_its_fingerprint(self):
        config = SaturatorConfig()
        before = config.fingerprint
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.ruleset = "bogus"
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.limits.time_limit = 1.0
        assert config.ruleset == "default" and config.fingerprint == before
        derived = config.with_variant(Variant.CSE)
        assert derived.fingerprint == fingerprint_config(derived) != before
        assert config.fingerprint == before

    def test_a_rejected_mutation_stores_nothing(self):
        session = OptimizationSession(SaturatorConfig(), MemoryCache())
        with pytest.raises(dataclasses.FrozenInstanceError):
            session.config.ruleset = "bogus"
        assert len(session.cache) == 0 and session.cache.stats.stores == 0
        # the session still runs and stores under the config it was given
        session.run(_KERNEL)
        assert session.cache.stats.stores == 1
        assert session.cache.get(stage_key(
            _KERNEL, SaturatorConfig(), "optimize-source", "kernel"
        )) is not MISS

    @pytest.mark.parametrize(
        "payload", [[1, 2], {"a": 1}, (1, 2.0), {1, 2}, 3 + 4j, object],
        ids=["list", "dict", "tuple", "set", "complex", "class"],
    )
    def test_values_a_config_cannot_hold_raise(self, payload):
        for config in (_LooseConfig(payload), _LooseConfig(limits=_LooseConfig(payload))):
            with pytest.raises(TypeError):
                fingerprint_config(config)

    def test_concurrent_callers_agree(self):
        expected = [
            fingerprint_config(SaturatorConfig(plateau_patience=i + 1))
            for i in range(12)
        ]
        # shared instances nobody has fingerprinted yet, read by every thread
        shared = [SaturatorConfig(plateau_patience=i + 1) for i in range(12)]
        wrong = []

        def hammer(worker: int) -> None:
            for step in range(600):
                index = (worker + step) % len(expected)
                fresh = SaturatorConfig(plateau_patience=index + 1)
                for config in (shared[index], fresh):
                    if config.fingerprint != expected[index]:
                        wrong.append(index)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-computation
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong

    def test_schema_and_digests_are_what_disk_caches_were_written_with(self):
        """Disk entries written under this schema must still hit (the pins
        move only with an ``ENGINE_SCHEMA`` bump)."""

        assert fingerprint_module.ENGINE_SCHEMA == "tablerebuild-v10"
        assert fingerprint_config(SaturatorConfig()) == (
            "c142f046d3d303dc2357f35b09d9e363de215342f6ed89cce2a635bcf151fb4b"
        )
        key = stage_key("src", SaturatorConfig(), "optimize-source", "k")
        assert key.digest == (
            "41b802e3ee4b6f3d1c60db72f460fd210ae961f28330d3d8d8c89f7a0f31c57f"
        )


def _key(tag: str) -> CacheKey:
    return CacheKey("s" + tag, "c" + tag, "stage", "")


class TestMemoryCache:
    def test_roundtrip_and_stats(self):
        cache = MemoryCache()
        assert cache.get(_key("a")) is MISS
        cache.put(_key("a"), {"v": 1})
        assert cache.get(_key("a")) == {"v": 1}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_artifacts_are_isolated_from_caller_mutation(self):
        cache = MemoryCache()
        artifact = {"v": [1, 2]}
        cache.put(_key("a"), artifact)
        artifact["v"].append(3)  # mutating the original after put
        first = cache.get(_key("a"))
        assert first == {"v": [1, 2]}
        first["v"].append(4)  # mutating a returned copy
        assert cache.get(_key("a")) == {"v": [1, 2]}

    def test_lru_eviction(self):
        cache = MemoryCache(max_entries=2)
        cache.put(_key("a"), 1)
        cache.put(_key("b"), 2)
        assert cache.get(_key("a")) == 1  # refresh a
        cache.put(_key("c"), 3)  # evicts b
        assert cache.get(_key("b")) is MISS
        assert cache.get(_key("a")) == 1
        assert cache.get(_key("c")) == 3

    def test_none_is_a_cacheable_artifact(self):
        cache = MemoryCache()
        cache.put(_key("n"), None)
        assert cache.get(_key("n")) is None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            MemoryCache(max_entries=0)

    def test_unpicklable_value_raises_at_put_and_stores_nothing(self):
        """Entries are pickle bytes, the same in memory and on disk."""

        cache = MemoryCache()
        cache.put(_key("a"), "kept")
        with pytest.raises(TypeError):
            cache.put(_key("a"), {"lock": threading.Lock()})
        with pytest.raises(TypeError):
            cache.put(_key("b"), threading.Lock())
        assert cache.get(_key("a")) == "kept"
        assert cache.get(_key("b")) is MISS
        assert len(cache) == 1 and cache.stats.stores == 1

    def test_every_get_is_a_fresh_object_with_sharing_preserved(self):
        cache = MemoryCache()
        shared = [1, 2]
        cache.put(_key("a"), {"x": shared, "y": shared})
        first, second = cache.get(_key("a")), cache.get(_key("a"))
        assert first == second == {"x": [1, 2], "y": [1, 2]}
        assert first is not second and first["x"] is not second["x"]
        assert first["x"] is first["y"]


class TestDiskCache:
    """``MemoryCache(directory=...)``: write-through and read-back."""

    def test_roundtrip_persists_across_instances(self, tmp_path):
        cache = MemoryCache(directory=tmp_path / "cache")
        cache.put(_key("a"), {"v": 42})
        assert cache.directory == tmp_path / "cache"
        reopened = MemoryCache(directory=tmp_path / "cache")
        assert reopened.get(_key("a")) == {"v": 42}
        assert reopened.stats.hits == 1

    def test_put_fills_both_tiers(self, tmp_path):
        cache = MemoryCache(directory=tmp_path)
        cache.put(_key("b"), 7)
        digest = _key("b").digest
        path = tmp_path / digest[:2] / f"{digest}.pkl"
        assert pickle.loads(path.read_bytes()) == 7
        assert not list(tmp_path.rglob("*.tmp")), "writes are atomic renames"
        assert len(cache) == 1 and cache.get(_key("b")) == 7

    def test_each_put_pickles_exactly_once(self, tmp_path, monkeypatch):
        calls = []
        real_dumps = pickle.dumps

        def counting_dumps(*args, **kwargs):
            calls.append(args[0])
            return real_dumps(*args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counting_dumps)
        cache = MemoryCache(directory=tmp_path)
        cache.put(_key("a"), {"v": 1})
        cache.put(_key("b"), [2])
        assert calls == [{"v": 1}, [2]]

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        MemoryCache(directory=tmp_path).put(_key("a"), "artifact")
        cache = MemoryCache(directory=tmp_path)
        seen = []
        cache.trace_hook = lambda site, attrs: seen.append((site, attrs))
        assert cache.get(_key("a")) == "artifact"
        assert len(cache) == 1
        # the second read is served from memory, even with the file gone
        for entry in tmp_path.rglob("*.pkl"):
            entry.unlink()
        assert cache.get(_key("a")) == "artifact"
        assert cache.stats.hits == 2 and cache.stats.misses == 0
        assert [attrs["backend"] for _, attrs in seen] == ["disk", "memory"]
        assert {attrs["outcome"] for _, attrs in seen} == {"hit"}

    def test_every_get_is_a_fresh_object(self, tmp_path):
        MemoryCache(directory=tmp_path).put(_key("a"), {"v": [1]})
        cache = MemoryCache(directory=tmp_path)
        first = cache.get(_key("a"))
        first["v"].append(2)
        assert cache.get(_key("a")) == {"v": [1]}

    def test_corrupted_entry_degrades_to_miss(self, tmp_path):
        MemoryCache(directory=tmp_path).put(_key("a"), {"v": 1})
        [path] = list(tmp_path.glob("*/*.pkl"))
        path.write_bytes(b"not a pickle")
        fresh = MemoryCache(directory=tmp_path)
        assert fresh.get(_key("a")) is MISS
        assert fresh.stats.corrupt == 1 and fresh.stats.misses == 1
        assert [p.name for p in tmp_path.rglob("*.corrupt")] == [
            path.with_suffix(".corrupt").name
        ]

    def test_absent_entry_is_one_miss(self, tmp_path):
        cache = MemoryCache(directory=tmp_path)
        assert cache.get(_key("a")) is MISS
        assert cache.stats.misses == 1 and cache.stats.corrupt == 0

    def test_fault_hook_fires_once_per_operation(self, tmp_path):
        cache = MemoryCache(directory=tmp_path)
        sites = []
        cache.fault_hook = sites.append
        cache.get(_key("a"))
        cache.put(_key("a"), 1)
        cache.get(_key("a"))
        assert sites == ["cache:get", "cache:store", "cache:get"]

    def test_unpicklable_value_writes_no_file(self, tmp_path):
        cache = MemoryCache(directory=tmp_path)
        with pytest.raises(TypeError):
            cache.put(_key("a"), threading.Lock())
        assert not list(tmp_path.rglob("*.*"))
        assert cache.stats.stores == 0
