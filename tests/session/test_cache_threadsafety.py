"""Thread-safety of the artifact cache and the CacheStats counters.

Coalescing accounting in the service depends on exact hit/miss/store
counts under concurrent access; before PR 5 the counters were bare ``+= 1``
increments, which drop updates under a thread pool.
"""

import threading

from repro.session import CacheStats, MemoryCache
from repro.session.cache import MISS
from repro.session.fingerprint import CacheKey


def _key(index: int) -> CacheKey:
    return CacheKey(f"src{index}", "cfg", "stage", "")


def test_cache_stats_counters_are_exact_under_contention():
    stats = CacheStats()

    def hammer():
        for _ in range(5000):
            stats.hit()
            stats.miss()
            stats.store()

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert stats.hits == 40000
    assert stats.misses == 40000
    assert stats.stores == 40000
    assert stats.lookups == 80000


def test_memory_cache_concurrent_get_put_accounting():
    cache = MemoryCache(max_entries=None)
    keys = [_key(i) for i in range(4)]
    for key in keys:
        cache.put(key, {"payload": key.source_fp})
    rounds = 2000
    workers = 8

    def hammer(worker: int):
        for i in range(rounds):
            key = keys[(worker + i) % len(keys)]
            value = cache.get(key)
            assert value is not MISS
            assert value["payload"] == key.source_fp
            cache.get(_key(99))  # guaranteed miss

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert cache.stats.hits == rounds * workers
    assert cache.stats.misses == rounds * workers
    assert cache.stats.stores == len(keys)


def test_directory_cache_counters_are_exact_under_contention(tmp_path):
    writer = MemoryCache(directory=tmp_path)
    keys = [_key(0), _key(1)]
    for key in keys:
        writer.put(key, key.source_fp)
    # one memory slot: the two keys keep evicting each other, so reads
    # alternate between memory and the directory
    cache = MemoryCache(max_entries=1, directory=tmp_path)

    def hammer():
        for _ in range(500):
            for key in keys:
                assert cache.get(key) == key.source_fp
            assert cache.get(_key(7)) is MISS

    threads = [threading.Thread(target=hammer) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not any(thread.is_alive() for thread in threads)
    assert cache.stats.hits == 6000
    assert cache.stats.misses == 3000
    assert cache.stats.corrupt == 0 and len(cache) == 1
