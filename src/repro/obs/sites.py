"""The instrumentation-site registry: one table for faults *and* telemetry.

Before this module existed, the :class:`~repro.service.FaultPlan` hook
sites (``cache:get``, ``stage:<name>``, ``worker:pickup``, …) and the
tracer's instrumentation points were defined independently — a new hook
site added for fault injection was invisible to telemetry until someone
remembered to mirror it, and vice versa.  This registry is the single
source of truth both layers consult:

* ``FaultPlan`` validates every :class:`FaultRule`'s site against it at
  construction, so a typo'd or undeclared site fails fast instead of
  silently never firing;
* the tracer names its cache/stage/worker events by the *same* site
  strings, and every fault verdict is reported through
  ``FaultPlan.on_inject`` as a trace event carrying the site name — an
  injected fault is automatically visible in the trace without any
  per-site wiring.

Sites are plain strings.  A site may be registered exact
(``"cache:get"``) or as a prefix family (``"stage:"`` covers
``stage:frontend``, ``stage:saturate``, …).  Tests and experiments may
register ad-hoc sites with :func:`register_site`; registration is
idempotent.
"""

from __future__ import annotations

import threading

_lock = threading.Lock()
_EXACT: dict = {}
_PREFIXES: dict = {}


def register_site(name: str, description: str = "", *, prefix: bool = False) -> str:
    """Register an instrumentation site (idempotent).  Returns *name*."""

    if not name:
        raise ValueError("instrumentation site name must be non-empty")
    with _lock:
        if prefix:
            _PREFIXES[name] = description
        else:
            _EXACT[name] = description
    return name


def is_known_site(site: str) -> bool:
    """True when *site* matches a registered exact name or prefix family."""

    with _lock:
        if site in _EXACT:
            return True
        return any(site.startswith(prefix) for prefix in _PREFIXES)


def check_site(site: str) -> str:
    """Validate *site* against the registry; raise ``ValueError`` if unknown."""

    if not is_known_site(site):
        raise ValueError(
            f"unknown instrumentation site {site!r}; known sites: "
            f"{', '.join(all_sites())} (register new ones via "
            "repro.obs.sites.register_site)"
        )
    return site


def all_sites() -> list:
    """Deterministically ordered list of registered sites (prefixes end with ':')."""

    with _lock:
        return sorted(_EXACT) + sorted(_PREFIXES)


# ---------------------------------------------------------------------------
# The built-in sites.  Fault-injection hooks and telemetry events share
# these names — that is the whole point of the registry.
# ---------------------------------------------------------------------------

#: Session cache probe (fired once per lookup; telemetry emits the probe
#: outcome — hit / miss / corrupt — and the answering backend as event
#: attributes).
SITE_CACHE_GET = register_site("cache:get", "artifact cache lookup")
#: Session cache store.
SITE_CACHE_STORE = register_site("cache:store", "artifact cache store")
#: Pipeline stage entry; one site per stage name (``stage:frontend``,
#: ``stage:saturate``, …) — the tracer's stage spans use the same names.
SITE_STAGE = register_site("stage:", "pipeline stage entry", prefix=True)
#: Service worker picking a job off the queue.
SITE_WORKER_PICKUP = register_site("worker:pickup", "service worker job pickup")
#: Worker death at an iteration boundary of the cold run (both executors:
#: a process hard-exits, a thread raises ``WorkerDiedError``).
SITE_WORKER_CRASH = register_site("worker:crash", "worker process hard-kill")
#: Per-iteration progress publication on the job's event stream.
SITE_PROGRESS_PUBLISH = register_site("progress:publish", "job progress publication")
#: Finished cold-run result dropped before it is stored (both executors).
SITE_IPC_RESULT_DROP = register_site("ipc:result-drop", "IPC result drop")
#: A traced process-executor attempt ended without its worker's span
#: buffer (the worker died first): emitted on the attempt span, counted
#: in the tracer's ``buffers_lost``.
SITE_WORKER_SPANS_LOST = register_site(
    "worker:spans-lost", "worker span buffer lost with its process"
)
