"""Stable fingerprints for session cache keys.

Artifacts in the session cache are addressed by *content*, not identity:
the key of a cached stage artifact is derived from (a) the SHA-256 of the
kernel source text, (b) a canonical JSON rendering of every
:class:`~repro.saturator.config.SaturatorConfig` field, and (c) the stage
name.  Two processes (or two runs weeks apart) that feed the same source
through the same configuration therefore hit the same on-disk artifact.

Config fingerprints walk dataclass fields recursively and render enums by
value, so fields added to :class:`SaturatorConfig` later are picked up
automatically — an old cache simply misses instead of serving a stale
artifact.  A config is frozen and computes its fingerprint once per
instance (:attr:`SaturatorConfig.fingerprint`), so a service that keys
every submit on the same configuration pays the JSON rendering and the
SHA-256 once.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.saturator.config import SaturatorConfig

__all__ = [
    "CacheKey",
    "ENGINE_SCHEMA",
    "fingerprint_config",
    "fingerprint_text",
    "stage_key",
]

#: Engine-representation tag mixed into every config fingerprint.  Bump it
#: when the e-graph core's representation or report payloads change shape
#: (e.g. the arena/interning rewrite) so artifacts pickled by an older
#: engine are never replayed into a newer one — the cache simply re-misses
#: and repopulates.  arena-v2: PR-4 report payloads grew scheduler /
#: extracted_cost fields (old pickles would lack the attributes), and the
#: new scheduler/anytime config knobs re-key every artifact anyway.
#: arena-v3: PR-5 best-result anytime codegen — anytime-enabled configs
#: may now ship the best in-loop extraction snapshot instead of the final
#: greedy extraction, so artifacts cached by the older engine must re-miss.
#: columnar-v4: PR-7 columnar e-graph core + relational e-matching — the
#: saturation outcomes are bit-identical by construction, but pickled
#: e-graph-adjacent state (column mirrors, pending buffers) changed shape,
#: so older artifacts must re-miss rather than unpickle into the new core.
#: records-v5: the report classes became slotted positional records
#: (:mod:`repro.records`) — a pickle now carries each record's field values
#: as a tuple in declaration order, so that order is the on-disk format,
#: and an older dict-state pickle cannot load into a slotted class at all;
#: re-keying makes every older disk entry a clean miss instead of a
#: quarantined "corrupt" hit.
#: deadline-v6: ``RunnerLimits.time_limit`` became a boundary deadline
#: whose stops are degraded and never cached, and ``StopReason.TIME_LIMIT``
#: is gone.  Older disk entries may be truncated time-limit stops served
#: as if saturated, and a pickle naming ``StopReason("time_limit")`` would
#: no longer load (quarantined as "corrupt"); re-keying makes both a clean
#: miss.
#: rowcap-v7: ``node_limit`` is enforced after every applied match row
#: instead of after every rule batch, so a node-limit stop ends with a
#: different (smaller) e-graph and its ``KernelReport``/``RunnerReport``
#: counts change; older disk entries must re-miss.
#: extract-v8: ``KernelReport`` lost its extraction-memo counters field
#: (the memo is gone), so its positional pickle has one field fewer and
#: older disk entries would unpickle into the wrong slots; they re-miss.
#: rowdelta-v9: incremental search is semi-naive over per-row change
#: stamps and no longer re-finds old matches, so ``RuleStats.matches``
#: (and, where a re-found row minted a redundant union, ``applied``)
#: change; an older disk entry would replay counters a cold run no
#: longer produces, so it re-misses.
#: tablerebuild-v10: ``EGraph.rebuild`` is one loop over the column table
#: (the parents-driven repair is gone), which renumbers classes and, under
#: the ``match-budget`` scheduler, changes the saturation path of some
#: kernels (their ``applied`` counts and, on one kernel, the generated
#: text); older disk entries re-miss.
ENGINE_SCHEMA = "tablerebuild-v10"


def fingerprint_text(text: str) -> str:
    """SHA-256 hex digest of a source (or any) string."""

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _encode(value: object) -> object:
    """Render a config value as JSON-stable plain data.

    A config holds enums, dataclasses, strings, numbers, booleans and
    ``None``; anything else raises :class:`TypeError`.
    """

    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot fingerprint a {type(value).__qualname__} value")


def fingerprint_config(config: object) -> str:
    """Canonical fingerprint of a (dataclass) configuration object: the
    SHA-256 of its JSON rendering.

    Includes :data:`ENGINE_SCHEMA`, so disk artifacts written by a
    different engine representation miss instead of replaying.  The JSON
    keeps a value's type: ``10`` and ``10.0`` (or ``1`` and ``True``)
    compare equal but fingerprint differently.
    """

    payload = {
        "__class__": type(config).__qualname__,
        "__engine__": ENGINE_SCHEMA,
        "fields": _encode(config),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CacheKey(NamedTuple):
    """Content address of one stage artifact.

    ``extra`` carries stage-relevant context that is neither source nor
    config (e.g. the kernel name prefix, which ends up inside reports).
    """

    source_fp: str
    config_fp: str
    stage: str
    extra: str = ""

    @property
    def digest(self) -> str:
        """The flat content address used by on-disk backends."""

        joined = "\x00".join(self)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def stage_key(
    source: str, config: SaturatorConfig, stage: str, extra: str = ""
) -> CacheKey:
    """Build the :class:`CacheKey` of one (source, config, stage) artifact."""

    return CacheKey(fingerprint_text(source), config.fingerprint, stage, extra)
