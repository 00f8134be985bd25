"""Configuration of the ACC Saturator pipeline."""

from __future__ import annotations

import dataclasses
import enum
import functools
from dataclasses import dataclass, field

from repro.egraph.extract import EXTRACTION_METHODS
from repro.egraph.runner import RunnerLimits
from repro.egraph.schedule import make_scheduler
from repro.rules.rulesets import RULESET_NAMES

__all__ = ["Variant", "SaturatorConfig"]


class Variant(enum.Enum):
    """The four generated-code variants of the paper's evaluation (§VIII).

    ======== =================== =========
    variant  equality saturation bulk load
    ======== =================== =========
    CSE      no                  no
    CSE_SAT  yes                 no
    CSE_BULK no                  yes
    ACCSAT   yes                 yes
    ======== =================== =========

    Every variant goes through the e-graph round trip, so common
    subexpressions (in particular redundant loads) are always eliminated —
    that is what the paper calls the *CSE* baseline.
    """

    CSE = "cse"
    CSE_SAT = "cse+sat"
    CSE_BULK = "cse+bulk"
    ACCSAT = "accsat"

    @property
    def saturate(self) -> bool:
        return self in (Variant.CSE_SAT, Variant.ACCSAT)

    @property
    def bulk_load(self) -> bool:
        return self in (Variant.CSE_BULK, Variant.ACCSAT)

    @staticmethod
    def from_name(name: str) -> "Variant":
        normalized = name.strip().lower().replace("_", "+").replace(" ", "")
        for variant in Variant:
            if variant.value == normalized or variant.name.lower() == name.strip().lower():
                return variant
        raise ValueError(f"unknown variant {name!r}; expected one of "
                         f"{[v.value for v in Variant]}")


@dataclass(frozen=True)
class SaturatorConfig:
    """All knobs of the pipeline, with the paper's defaults.

    A config checks its fields when it is built: an unknown rule set,
    extraction method or scheduler spelling, an anytime interval or
    plateau patience below 1, a non-positive (or NaN) extraction time
    limit, or a temporary prefix that is not a C identifier raises
    :class:`ValueError` (the limits check themselves, see
    :class:`~repro.egraph.runner.RunnerLimits`).

    A config is frozen, so it stays as checked: derive another one with
    :func:`dataclasses.replace` or :meth:`with_variant`.  Its
    :attr:`fingerprint` is computed once per instance, so hold on to an
    instance to reuse it.  Equal configs hash equal, but ``10`` and
    ``10.0`` are equal with different fingerprints: key caches on the
    fingerprint, never on the config.
    """

    #: Which generated-code variant to produce.
    variant: Variant = Variant.ACCSAT
    #: Rule set name (see :func:`repro.rules.ruleset_by_name`).
    ruleset: str = "default"
    #: Extraction method: ``dag-greedy`` (default) or ``ilp``.
    extraction: str = "dag-greedy"
    #: Saturation limits (10k e-nodes / 10 iterations / 10 s, §VII).
    limits: RunnerLimits = field(default_factory=RunnerLimits)
    #: Extraction time limit in seconds (30 s, §VII) — only the ILP
    #: extractor enforces it.
    extraction_time_limit: float = 30.0
    #: Enable constant folding (as an e-class analysis).
    constant_folding: bool = True
    #: Prefix of generated temporaries.
    temp_prefix: str = "_v"
    #: Rule-scheduler spelling (see :func:`repro.egraph.schedule.make_scheduler`):
    #: ``"simple"`` (default — the paper's every-rule-every-iteration loop),
    #: ``"backoff[:MATCH_LIMIT[:BAN_LENGTH]]"`` or ``"match-budget[:BUDGET]"``.
    #: Fingerprint-relevant: non-default schedulers change which e-nodes
    #: exist when a limit truncates saturation.
    scheduler: str = "simple"
    #: Anytime extraction: extract from the live e-graph every
    #: ``anytime_interval`` iterations and stop saturating once the
    #: extracted cost has not improved for ``plateau_patience``
    #: consecutive evaluations (the final extraction reuses the last
    #: in-loop result when the e-graph has not changed since).
    #: Fingerprint-relevant: early stopping changes the saturated e-graph.
    anytime_extraction: bool = False
    anytime_interval: int = 1
    plateau_patience: int = 3

    def __post_init__(self) -> None:
        if self.ruleset not in RULESET_NAMES:
            raise ValueError(
                f"unknown ruleset {self.ruleset!r}; available: {list(RULESET_NAMES)}"
            )
        if self.extraction not in EXTRACTION_METHODS:
            raise ValueError(
                f"unknown extraction method {self.extraction!r}; "
                f"expected one of {list(EXTRACTION_METHODS)}"
            )
        make_scheduler(self.scheduler)  # raises on a bad spelling
        if self.anytime_interval < 1:
            raise ValueError("anytime_interval must be at least 1")
        if self.plateau_patience < 1:
            raise ValueError("plateau_patience must be at least 1")
        if not (self.extraction_time_limit > 0):  # NaN fails too
            raise ValueError("extraction_time_limit must be positive")
        if not (self.temp_prefix.isascii() and self.temp_prefix.isidentifier()):
            raise ValueError(
                f"temp_prefix {self.temp_prefix!r} is not a C identifier"
            )

    @functools.cached_property
    def fingerprint(self) -> str:
        """The cache-key digest of this config (see
        :func:`~repro.session.fingerprint.fingerprint_config`)."""

        # imported here: repro.session imports this module
        from repro.session.fingerprint import fingerprint_config

        return fingerprint_config(self)

    def with_variant(self, variant: Variant) -> "SaturatorConfig":
        """A copy of this config with a different variant."""

        # dataclasses.replace copies every field, including ones added
        # after this method was written
        return dataclasses.replace(self, variant=variant)
