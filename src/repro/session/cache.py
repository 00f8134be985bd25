"""Content-addressed artifact cache for optimization sessions.

Three backends share one tiny interface (:class:`ArtifactCache`):

* :class:`MemoryCache` — an in-process LRU keyed by :class:`CacheKey`.
  An artifact is stored as its pickle bytes: one ``dumps`` per ``put``,
  one ``loads`` per ``get``, so a caller can never mutate a cached entry
  (reports are mutable).  Values must be picklable.  The report classes
  are slotted positional records (:mod:`repro.records`): each unpickles
  as one REDUCE of its field values in declaration order, with no state
  dict, so that order is part of the stored format and changing it bumps
  :data:`~repro.session.fingerprint.ENGINE_SCHEMA`.
* :class:`DiskCache` — artifacts pickled under ``root/<aa>/<digest>.pkl``
  where ``digest`` is the key's SHA-256 content address; survives the
  process and is shared between processes.  Writes are atomic
  (temp-file + rename) and unreadable entries degrade to a miss.
* :class:`TieredCache` — memory in front of disk, promoting disk hits.

``get`` returns the :data:`MISS` sentinel rather than ``None`` so that
``None`` remains a cacheable artifact.  Every backend tracks hit/miss/store
counters in :class:`CacheStats`; the engine benchmark and the experiment
harness surface them (``BENCH_engine.json``, ``pipeline_cache_stats``).
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from repro.session.fingerprint import CacheKey

__all__ = [
    "MISS",
    "ArtifactCache",
    "CacheStats",
    "DiskCache",
    "MemoryCache",
    "TieredCache",
]


class _Miss:
    """Sentinel returned by ``get`` when the key is absent."""

    _instance: Optional["_Miss"] = None

    def __new__(cls) -> "_Miss":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "<cache MISS>"

    def __bool__(self) -> bool:
        return False


MISS = _Miss()


@dataclass
class CacheStats:
    """Hit/miss/store counters of one cache backend.

    The counters are incremented through :meth:`hit` / :meth:`miss` /
    :meth:`store`, which serialize on an internal lock: cache backends are
    shared across :class:`~repro.session.executor.ThreadExecutor` workers
    and the optimization service's worker pool, and unlocked ``+= 1``
    increments would under-count there.  Reads (``as_dict``, the plain
    attributes) are intentionally lock-free — they are monotone counters
    and every consumer treats them as a snapshot.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries that existed on disk but failed to load (truncated pickle,
    #: incompatible version, ...) and were quarantined; each also counts
    #: as a miss, so ``lookups`` stays hit+miss.
    corrupt: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def hit(self, n: int = 1) -> None:
        with self._lock:
            self.hits += n

    def miss(self, n: int = 1) -> None:
        with self._lock:
            self.misses += n

    def store(self, n: int = 1) -> None:
        with self._lock:
            self.stores += n

    def corrupted(self, n: int = 1) -> None:
        with self._lock:
            self.corrupt += n

    # the lock is per-process bookkeeping, not part of the counter state
    def __getstate__(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }

    def __setstate__(self, state: Dict[str, int]) -> None:
        self.hits = state.get("hits", 0)
        self.misses = state.get("misses", 0)
        self.stores = state.get("stores", 0)
        self.corrupt = state.get("corrupt", 0)
        self._lock = threading.Lock()

    def __deepcopy__(self, memo: Dict[int, object]) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.stores, self.corrupt)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "hit_rate": self.hit_rate,
        }


class ArtifactCache:
    """Interface shared by every cache backend."""

    def __init__(self) -> None:
        self.stats = CacheStats()
        #: Fault-injection hook (see :mod:`repro.service.faults`); called
        #: with ``"cache:get"`` / ``"cache:store"`` before the respective
        #: IO in backends that support it.  ``None`` in production.
        self.fault_hook = None
        #: Telemetry hook ``(site, attrs_dict)`` — ``None`` in production.
        #: Called *after* each probe/store with the instrumentation-site
        #: name (``"cache:get"`` / ``"cache:store"``, the same strings the
        #: fault hook uses — see :mod:`repro.obs.sites`) and the probe
        #: outcome.  Strictly observational: it sees completed operations
        #: only and must not raise.
        self.trace_hook = None

    def _trace(self, site: str, **attrs: object) -> None:
        hook = self.trace_hook
        if hook is not None:
            hook(site, attrs)

    def get(self, key: CacheKey) -> object:
        """Return the cached artifact or :data:`MISS`."""

        raise NotImplementedError

    def put(self, key: CacheKey, value: object) -> None:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class MemoryCache(ArtifactCache):
    """In-process LRU artifact cache.

    An entry is the artifact's pickle bytes, taken once in ``put``; every
    ``get`` unpickles a fresh object from them.  Bytes are immutable, so
    neither the object handed to ``put`` nor any returned one can reach a
    cached entry, and a ``loads`` of a pipeline-sized artifact (reports +
    code strings) is 4-5x cheaper than deep-copying the live object graph.
    The contract is :class:`DiskCache`'s: values must be picklable, and an
    unpicklable one raises at ``put``.
    """

    def __init__(self, max_entries: Optional[int] = 1024) -> None:
        super().__init__()
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None)")
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, bytes]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CacheKey) -> object:
        if self.fault_hook is not None:
            self.fault_hook("cache:get")
        with self._lock:
            blob = self._entries.get(key)
            if blob is None:
                self.stats.miss()
                self._trace("cache:get", backend="memory", outcome="miss")
                return MISS
            self._entries.move_to_end(key)
            self.stats.hit()
        self._trace("cache:get", backend="memory", outcome="hit")
        return pickle.loads(blob)

    def put(self, key: CacheKey, value: object) -> None:
        if self.fault_hook is not None:
            self.fault_hook("cache:store")
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._entries[key] = blob
            self._entries.move_to_end(key)
            self.stats.store()
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
        self._trace("cache:store", backend="memory")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class DiskCache(ArtifactCache):
    """On-disk artifact cache, content-addressed by :attr:`CacheKey.digest`."""

    def __init__(self, root: Union[str, Path]) -> None:
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: CacheKey) -> Path:
        digest = key.digest
        return self.root / digest[:2] / f"{digest}.pkl"

    def get(self, key: CacheKey) -> object:
        path = self._path(key)
        if self.fault_hook is not None:
            self.fault_hook("cache:get")
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self.stats.miss()
            self._trace("cache:get", backend="disk", outcome="miss")
            return MISS
        except (OSError, pickle.PickleError, EOFError, AttributeError, ImportError):
            # the entry exists but won't load — truncated by a crashed
            # writer or written by an incompatible version.  Quarantine it
            # so the next probe is a clean miss instead of re-paying the
            # failed load forever, and count it.
            self._quarantine(path)
            self.stats.corrupted()
            self.stats.miss()
            self._trace("cache:get", backend="disk", outcome="corrupt")
            return MISS
        self.stats.hit()
        self._trace("cache:get", backend="disk", outcome="hit")
        return value

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a corrupt entry off the probe path (best effort)."""

        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - raced removal / perms
                pass

    def put(self, key: CacheKey, value: object) -> None:
        path = self._path(key)
        if self.fault_hook is not None:
            self.fault_hook("cache:store")
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.store()
        self._trace("cache:store", backend="disk")

    def clear(self) -> None:
        for entry in self.root.glob("*/*.pkl"):
            try:
                entry.unlink()
            except OSError:  # pragma: no cover - concurrent removal
                pass


class TieredCache(ArtifactCache):
    """Memory cache in front of a disk cache; disk hits are promoted."""

    def __init__(self, memory: Optional[MemoryCache] = None,
                 disk: Optional[DiskCache] = None) -> None:
        super().__init__()
        if memory is None and disk is None:
            raise ValueError("TieredCache needs at least one backend")
        self.memory = memory
        self.disk = disk

    def get(self, key: CacheKey) -> object:
        if self.memory is not None:
            value = self.memory.get(key)
            if value is not MISS:
                self.stats.hit()
                self._trace("cache:get", backend="tiered", outcome="hit",
                            tier="memory")
                return value
        if self.disk is not None:
            value = self.disk.get(key)
            if value is not MISS:
                if self.memory is not None:
                    self.memory.put(key, value)
                self.stats.hit()
                self._trace("cache:get", backend="tiered", outcome="hit",
                            tier="disk")
                return value
        self.stats.miss()
        self._trace("cache:get", backend="tiered", outcome="miss")
        return MISS

    def put(self, key: CacheKey, value: object) -> None:
        if self.memory is not None:
            self.memory.put(key, value)
        if self.disk is not None:
            self.disk.put(key, value)
        self.stats.store()
        self._trace("cache:store", backend="tiered")

    def clear(self) -> None:
        if self.memory is not None:
            self.memory.clear()
        if self.disk is not None:
            self.disk.clear()
