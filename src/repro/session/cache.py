"""Content-addressed artifact cache for optimization sessions.

:class:`MemoryCache` is the one cache: an in-process LRU keyed by
:class:`CacheKey` that, given a ``directory``, also writes every artifact
through to it and reads it back on a memory miss.

* An artifact is stored as its pickle bytes: one ``dumps`` per ``put``,
  one ``loads`` per ``get``.  The cache holds arbitrary picklable values,
  not only the immutable reports, so every hit is a fresh object and no
  caller can change a cached entry through the value it got.  The report
  classes are frozen positional records (:mod:`repro.records`): each
  unpickles as one REDUCE of its field values in declaration order, with
  no state dict, so that order is part of the stored format and changing
  it bumps :data:`~repro.session.fingerprint.ENGINE_SCHEMA`.
* With a directory, the same bytes land under ``directory/<aa>/<digest>.pkl``
  where ``digest`` is the key's SHA-256 content address; they survive the
  process and are shared between processes.  Writes are atomic
  (temp-file + rename), and an entry that does not load is quarantined
  as ``.corrupt`` and read as a miss.

``get`` returns the :data:`MISS` sentinel rather than ``None`` so that
``None`` remains a cacheable artifact.  Hit/miss/store counters live in
:class:`CacheStats`; the engine benchmark and the service report surface
them (``BENCH_engine.json``, ``accsat --report``).
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

__all__ = ["MISS", "CacheStats", "MemoryCache"]


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
    """Hit/miss/store counters of one cache.

    The counters are incremented through :meth:`hit` / :meth:`miss` /
    :meth:`store`, which serialize on an internal lock: a cache is shared
    across the optimization service's worker threads, and unlocked
    ``+= 1`` increments would under-count there.  Reads (``as_dict``, the plain
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


class MemoryCache:
    """In-process LRU artifact cache, optionally backed by a directory.

    An entry is the artifact's pickle bytes, taken once in ``put``; every
    ``get`` unpickles a fresh object from them.  Bytes are immutable, so
    neither the object handed to ``put`` nor any returned one can reach a
    cached entry, and a ``loads`` of a pipeline-sized artifact (reports +
    code strings) is 4-5x cheaper than deep-copying the live object graph.
    An unpicklable value raises at ``put`` and stores nothing.

    With a ``directory``, ``put`` also writes those bytes to the entry's
    file, and a ``get`` that misses memory reads the file, keeps its bytes
    in the LRU and returns their ``loads``.  ``get`` and ``put`` never call
    each other, so a subclass may wrap either alone.
    """

    def __init__(
        self,
        max_entries: Optional[int] = 1024,
        directory: Union[None, str, "os.PathLike[str]"] = None,
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None)")
        self.max_entries = max_entries
        self.directory = None if directory is None else Path(directory)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        #: Fault-injection hook (see :mod:`repro.service.faults`); called
        #: with ``"cache:get"`` / ``"cache:store"`` before the respective
        #: operation.  ``None`` in production.
        self.fault_hook = None
        #: Telemetry hook ``(site, attrs_dict)`` — ``None`` in production.
        #: Called *after* each probe/store with the instrumentation-site
        #: name (``"cache:get"`` / ``"cache:store"``, the same strings the
        #: fault hook uses — see :mod:`repro.obs.sites`), the probe
        #: ``outcome`` and the ``backend`` (``memory`` / ``disk``) that
        #: answered.  Strictly observational: it sees completed operations
        #: only and must not raise.
        self.trace_hook = None
        self._entries: "OrderedDict[CacheKey, bytes]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def _trace(self, site: str, **attrs: object) -> None:
        hook = self.trace_hook
        if hook is not None:
            hook(site, attrs)

    def _path(self, key: CacheKey) -> Path:
        digest = key.digest
        return self.directory / digest[:2] / f"{digest}.pkl"

    def _remember(self, key: CacheKey, blob: bytes) -> None:
        """Insert *blob* as the most recent entry and evict past capacity."""

        with self._lock:
            self._entries[key] = blob
            self._entries.move_to_end(key)
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)

    def get(self, key: CacheKey) -> object:
        """Return the cached artifact or :data:`MISS`."""

        if self.fault_hook is not None:
            self.fault_hook("cache:get")
        with self._lock:
            blob = self._entries.get(key)
            if blob is not None:
                self._entries.move_to_end(key)
        if blob is not None:
            self.stats.hit()
            self._trace("cache:get", backend="memory", outcome="hit")
            return pickle.loads(blob)
        if self.directory is None:
            self.stats.miss()
            self._trace("cache:get", backend="memory", outcome="miss")
            return MISS
        path = self._path(key)
        try:
            blob = path.read_bytes()
            value = pickle.loads(blob)
        except FileNotFoundError:
            self.stats.miss()
            self._trace("cache:get", backend="disk", outcome="miss")
            return MISS
        except (OSError, pickle.PickleError, EOFError, AttributeError, ImportError):
            # the entry exists but won't load — truncated by a crashed
            # writer or written by an incompatible version.  Quarantine it
            # so the next probe is a clean miss instead of re-paying the
            # failed load forever, and count it.
            _quarantine(path)
            self.stats.corrupted()
            self.stats.miss()
            self._trace("cache:get", backend="disk", outcome="corrupt")
            return MISS
        self._remember(key, blob)
        self.stats.hit()
        self._trace("cache:get", backend="disk", outcome="hit")
        return value

    def put(self, key: CacheKey, value: object) -> None:
        if self.fault_hook is not None:
            self.fault_hook("cache:store")
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        if self.directory is not None:
            _write_atomic(self._path(key), blob)
        self._remember(key, blob)
        self.stats.store()
        self._trace(
            "cache:store", backend="memory" if self.directory is None else "disk"
        )


def _write_atomic(path: Path, blob: bytes) -> None:
    """Write *blob* to *path* through a temp file and one rename."""

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _quarantine(path: Path) -> None:
    """Move a corrupt entry off the probe path (best effort)."""

    try:
        os.replace(path, path.with_suffix(".corrupt"))
    except OSError:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - raced removal / perms
            pass
