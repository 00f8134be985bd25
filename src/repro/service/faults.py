"""Deterministic fault injection for the optimization service.

A :class:`FaultPlan` decides, at named **sites** along the serving path,
whether to inject a failure.  The sites are no-op hooks in production
(``None`` everywhere) and cost one attribute check when armed:

==================== =====================================================
site                 where it fires
==================== =====================================================
``worker:pickup``    a worker picked the attempt up, before anything else
``worker:crash``     right after pickup: decides whether — and after how
                     many published iterations — the attempt's cold run
                     dies
``cache:get``        artifact-cache lookup (memory, then its directory)
``stage:<name>``     before each pipeline stage (``stage:saturate``, ...);
                     thread executor only, the child never sees the plan
``progress:publish`` before each per-iteration progress event
``ipc:result-drop``  after the cold run: decides whether its result is
                     discarded (a result lost in IPC after the run ended)
``cache:store``      artifact-cache store
==================== =====================================================

The table is in firing order within one attempt, and the order is the
same on both executors: every site but ``stage:<name>`` fires in the
service process, at the same point of the attempt.  ``progress:publish``
verdicts are drawn as a process worker's progress messages arrive, so a
``deadline`` verdict there stops the child asynchronously — possibly at a
later iteration boundary than a thread would stop at.

Determinism is the whole point: every counter and RNG stream is keyed by
``(site, job key)`` — *not* by global arrival order — so which attempt of
which job faults is a pure function of the plan (seed + rules) and the
job's identity, independent of worker interleaving.  A fixed seed
therefore reproduces the exact same fault pattern, failure set, and
service stats on every run; the chaos test suite and the
``run_service_bench.py --faults`` mode both assert on that.

Five fault kinds:

* ``"transient"`` — raises :class:`~repro.service.errors.TransientError`
  (the service retries with backoff),
* ``"permanent"`` — raises :class:`~repro.service.errors.InjectedFault`
  (the service fails the job fast),
* ``"deadline"`` — calls ``expire()`` on the running job's
  :class:`~repro.egraph.runner.CancellationToken`, tripping its deadline
  at the next iteration boundary (degradation path) without touching the
  wall clock,
* ``"crash"`` / ``"drop"`` — **structural** kinds: :meth:`FaultPlan.fire`
  only counts them; the service consumes their verdicts through the
  non-raising :meth:`FaultPlan.check` at the ``worker:crash`` and
  ``ipc:result-drop`` points of every attempt, on both executors.  A
  crash kills the attempt's cold run after it published
  ``FaultRule.after`` iterations (``0``: at its start; a cache hit runs
  nothing and cannot crash): a process worker hard-exits, a thread raises
  :class:`~repro.service.errors.WorkerDiedError` at the same point.
  Either way the death counts in ``worker_deaths`` and fails the attempt
  as a transient error, so per-job attempt counts are the same on both
  executors.  A drop discards a finished cold run's result before it is
  stored, also as a transient error.
"""

from __future__ import annotations

import random
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.sites import check_site
from repro.service.errors import InjectedFault, TransientError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.service.job import Job

__all__ = ["FaultPlan", "FaultRule", "KINDS"]

#: The legal fault kinds (see the module docstring).
KINDS = ("transient", "permanent", "deadline", "crash", "drop")

#: Kinds :meth:`FaultPlan.fire` acts on; the structural kinds (crash/drop)
#: are consumed by the service through :meth:`FaultPlan.check` instead.
_RAISING_KINDS = ("transient", "permanent", "deadline")


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *where*, *what*, and *which hits*.

    Counting (``nth``/``count``) fires on hits ``nth .. nth+count-1`` of
    the per-``(site, job)`` hit counter — e.g. ``nth=1`` faults a job's
    first cache lookup, and because the job retries, its *second* lookup
    (hit 2) passes, exercising the recovery path deterministically.

    ``probability`` switches the rule to a seeded per-hit coin flip drawn
    from an RNG stream private to ``(site, job, rule)``; the flips each
    job sees are then reproducible regardless of thread scheduling.

    ``after`` applies to ``"crash"`` rules only: the attempt's cold run
    publishes that many iteration-progress messages, then dies
    (``after=0`` dies at the start of the cold run, before any work).
    """

    site: str
    kind: str
    nth: int = 1
    count: int = 1
    probability: Optional[float] = None
    after: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected {KINDS}")
        if self.nth < 1 or self.count < 1:
            raise ValueError("nth and count are 1-based and must be >= 1")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.after and self.kind != "crash":
            raise ValueError("after only applies to 'crash' rules")
        # sites come from the shared instrumentation-site registry
        # (repro.obs.sites) — the same table telemetry instruments — so a
        # typo'd or undeclared site fails here instead of never firing.
        # Ad-hoc sites (tests, experiments) register via register_site().
        check_site(self.site)


class FaultPlan:
    """A seeded, thread-safe set of :class:`FaultRule`\\ s.

    The service binds the running job to the worker thread
    (:meth:`scoped`) so that a bare ``fire(site)`` call from deep inside
    the cache or stage machinery still knows *whose* hit it is.  Calls
    with no bound job (e.g. a session used directly) count under the
    ``None`` key and are injectable all the same.
    """

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0) -> None:
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed
        self._lock = threading.Lock()
        self._hits: Dict[Tuple[str, Optional[str]], int] = {}
        self._injected: Dict[str, int] = {}
        self._rngs: Dict[Tuple[int, str, Optional[str]], random.Random] = {}
        self._tl = threading.local()
        #: Optional observer ``(site, rule, job_key, hit)`` called — outside
        #: the plan lock, before the fault acts — for every verdict either
        #: :meth:`fire` or :meth:`check` produced.  The service wires it to
        #: the tracer, so every injected fault is automatically a trace
        #: event; observers must not raise.
        self.on_inject = None

    # -- binding -------------------------------------------------------------

    @contextmanager
    def scoped(self, job: "Job") -> Iterator[None]:
        """Bind *job* to the calling thread for the duration of its run."""

        self._tl.key = str(job.key.digest) if job.key is not None else None
        self._tl.token = job.cancellation
        try:
            yield
        finally:
            self._tl.key = None
            self._tl.token = None

    # -- the hook ------------------------------------------------------------

    def _evaluate(self, site: str) -> Tuple[List[FaultRule], Optional[str], int]:
        """Count one hit at *site* for the bound job; collect the verdicts.

        The shared core of :meth:`fire` and :meth:`check` — both count the
        hit identically, so a plan replays the same pattern whichever way
        its sites are consumed.
        """

        key = getattr(self._tl, "key", None)
        with self._lock:
            hit = self._hits.get((site, key), 0) + 1
            self._hits[(site, key)] = hit
            verdicts = []
            for index, rule in enumerate(self.rules):
                if rule.site != site:
                    continue
                if rule.probability is not None:
                    rng = self._rng(index, site, key)
                    if rng.random() < rule.probability:
                        verdicts.append(rule)
                elif rule.nth <= hit < rule.nth + rule.count:
                    verdicts.append(rule)
            for rule in verdicts:
                self._injected[rule.kind] = self._injected.get(rule.kind, 0) + 1
        return verdicts, key, hit

    def fire(self, site: str) -> None:
        """Count one hit at *site* for the bound job; maybe inject.

        Raises for ``transient``/``permanent`` kinds; a ``deadline`` kind
        expires the bound job's cancellation token and returns.  The
        structural kinds (``crash``/``drop``) are counted but never acted
        on here — the service consumes them via :meth:`check`.
        """

        verdicts, key, hit = self._evaluate(site)
        self._observe(verdicts, site, key, hit)
        # act outside the lock: injections raise, and the deadline kind
        # touches the token (which other threads may be polling)
        for rule in verdicts:
            if rule.kind in _RAISING_KINDS:
                self._inject(rule, site, key, hit)

    def check(self, site: str) -> List[FaultRule]:
        """Count one hit at *site*; return the fired rules without acting.

        The service's entry point for the structural kinds: a
        ``worker:crash`` check at pickup returns the crash rules whose
        ``after`` picks the kill boundary, an ``ipc:result-drop`` check
        after the cold run returns whether to discard its result.  Counting
        is identical to :meth:`fire`, so hit patterns stay deterministic
        per ``(site, job)`` regardless of which method consumes a site.
        """

        verdicts, key, hit = self._evaluate(site)
        self._observe(verdicts, site, key, hit)
        return verdicts

    def _rng(self, index: int, site: str, key: Optional[str]) -> random.Random:
        """The rule's private RNG stream for one (site, job) pair.

        Seeded via ``crc32`` (never the builtin ``hash``, which is
        randomized per process) so streams are stable across runs.
        """

        stream = (index, site, key)
        rng = self._rngs.get(stream)
        if rng is None:
            material = f"{self.seed}|{index}|{site}|{key}".encode()
            rng = random.Random(zlib.crc32(material))
            self._rngs[stream] = rng
        return rng

    def _observe(
        self, verdicts: List[FaultRule], site: str, key: Optional[str], hit: int
    ) -> None:
        observer = self.on_inject
        if observer is None:
            return
        for rule in verdicts:
            observer(site, rule, key, hit)

    def _inject(
        self, rule: FaultRule, site: str, key: Optional[str], hit: int
    ) -> None:
        if rule.kind == "deadline":
            token = getattr(self._tl, "token", None)
            if token is not None:
                token.expire()
            return
        detail = f"injected {rule.kind} fault at {site} (job {key}, hit {hit})"
        if rule.kind == "transient":
            raise TransientError(detail)
        raise InjectedFault(detail)

    # -- observation ---------------------------------------------------------

    def injected(self) -> Dict[str, int]:
        """Injection counts by kind (empty when nothing fired yet)."""

        with self._lock:
            return dict(self._injected)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<FaultPlan seed={self.seed} rules={len(self.rules)} injected={self.injected()}>"
