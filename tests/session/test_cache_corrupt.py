"""Corrupt cache-directory entries: quarantine instead of silent swallow.

An on-disk entry that exists but won't unpickle (truncated by a crashed
writer, or written by an incompatible version) must degrade to a miss
*once*: the entry is quarantined off the probe path, the ``corrupt``
counter records it, and the next probe is a plain miss that a fresh
``put`` can refill.  Each corrupt file is read by a fresh cache, the way
another process would meet it: a cache that wrote the entry itself
answers from memory.
"""

import pickle
import threading

from repro.session import MISS, MemoryCache
from repro.session.fingerprint import CacheKey


def _key(tag: str = "k") -> CacheKey:
    return CacheKey(source_fp=tag, config_fp="cfg", stage="pipeline")


def _corrupt_entry(cache: MemoryCache, key: CacheKey, payload: bytes) -> None:
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)


class TestCorruptQuarantine:
    def test_truncated_pickle_is_quarantined_and_counted(self, tmp_path):
        writer = MemoryCache(directory=tmp_path)
        key = _key()
        writer.put(key, {"answer": 42})
        path = writer._path(key)
        # truncate mid-stream: pickle.loads raises
        blob = path.read_bytes()
        _corrupt_entry(writer, key, blob[: len(blob) // 2])

        cache = MemoryCache(directory=tmp_path)

        assert cache.get(key) is MISS
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        assert not path.exists(), "corrupt entry must leave the probe path"
        assert path.with_suffix(".corrupt").exists()

        # second probe: plain miss, no second corruption event
        assert cache.get(key) is MISS
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 2

    def test_garbage_bytes_are_quarantined(self, tmp_path):
        cache = MemoryCache(directory=tmp_path)
        key = _key()
        _corrupt_entry(cache, key, b"this is not a pickle")
        assert cache.get(key) is MISS
        assert cache.stats.corrupt == 1

    def test_refill_after_quarantine_hits(self, tmp_path):
        cache = MemoryCache(directory=tmp_path)
        key = _key()
        _corrupt_entry(cache, key, pickle.dumps(object)[:4])
        assert cache.get(key) is MISS
        cache.put(key, "fresh")
        assert cache.get(key) == "fresh"
        assert cache.stats.hits == 1
        assert cache.stats.corrupt == 1

    def test_missing_entry_is_a_plain_miss_not_corruption(self, tmp_path):
        cache = MemoryCache(directory=tmp_path)
        assert cache.get(_key("absent")) is MISS
        assert cache.stats.corrupt == 0
        assert cache.stats.misses == 1

    def test_concurrent_probes_quarantine_once_and_refill_clean(self, tmp_path):
        """Two threads racing into the same corrupt entry must not fight.

        Whichever thread loses the ``os.replace`` race degrades to a
        plain miss (or a second best-effort unlink that finds nothing):
        exactly one ``.corrupt`` quarantine file appears, each thread
        books at most one ``corrupt`` increment, and a subsequent ``put``
        refills the slot cleanly.
        """

        cache = MemoryCache(directory=tmp_path)
        key = _key("raced")
        _corrupt_entry(cache, key, b"\x80\x04 definitely not a pickle")
        path = cache._path(key)

        barrier = threading.Barrier(2)
        results = []

        def probe():
            barrier.wait()
            results.append(cache.get(key))

        threads = [threading.Thread(target=probe) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert results == [MISS, MISS]
        # exactly one quarantine artifact, none left on the probe path
        assert not path.exists()
        quarantined = list(path.parent.glob("*.corrupt"))
        assert len(quarantined) == 1
        # each probe books at most one corruption event (the loser of the
        # rename race may instead see a plain FileNotFoundError miss)
        assert 1 <= cache.stats.corrupt <= 2
        assert cache.stats.misses == 2

        # clean refill: the quarantined entry no longer shadows the slot
        cache.put(key, "fresh")
        assert cache.get(key) == "fresh"
        assert cache.stats.hits == 1
        assert len(list(path.parent.glob("*.corrupt"))) == 1


class TestCorruptCounterPlumbing:
    def test_corrupt_counter_is_reported(self, tmp_path):
        cache = MemoryCache(directory=tmp_path)
        _corrupt_entry(cache, _key(), b"\x80")
        assert cache.get(_key()) is MISS
        assert cache.stats.as_dict()["corrupt"] == 1
        assert cache.stats.lookups == 1
