"""Named rule sets and the printable rule table (paper Table I).

The *default* rule set is exactly what ACC Saturator enables: FMA
introduction, commutativity and associativity of ``+`` and ``*``, plus
constant folding (as an analysis).  The *extended* set adds the identities
the paper deliberately leaves out because they inflate the e-graph; the
ablation benchmark (`benchmarks/test_ablation_rulesets.py`) measures that
trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.egraph.rewrite import Rewrite
from repro.rules.arithmetic import associativity_rules, commutativity_rules, identity_rules
from repro.rules.fma import fma_rules

__all__ = [
    "RULESET_NAMES",
    "RuleSpec",
    "RULE_TABLE",
    "default_ruleset",
    "extended_ruleset",
    "ruleset_by_name",
]


@dataclass(frozen=True)
class RuleSpec:
    """One row of the paper's Table I (for reporting)."""

    name: str
    pattern: str
    result: str


#: Table I of the paper, verbatim.
RULE_TABLE: List[RuleSpec] = [
    RuleSpec("FMA1", "A + B * C", "FMA(A, B, C)"),
    RuleSpec("FMA2", "A - B * C", "FMA(A, -B, C)"),
    RuleSpec("FMA3", "B * C - A", "FMA(-A, B, C)"),
    RuleSpec("COMM-ADD", "A + B", "B + A"),
    RuleSpec("COMM-MUL", "A * B", "B * A"),
    RuleSpec("ASSOC-ADD1", "A + (B + C)", "(A + B) + C"),
    RuleSpec("ASSOC-ADD2", "(A + B) + C", "A + (B + C)"),
    RuleSpec("ASSOC-MUL1", "A * (B * C)", "(A * B) * C"),
    RuleSpec("ASSOC-MUL2", "(A * B) * C", "A * (B * C)"),
]


def default_ruleset() -> List[Rewrite]:
    """The paper's rule set: FMA + commutativity + associativity.

    The textual patterns (and their compiled forms) are memoised by
    :func:`repro.egraph.pattern.parse_pattern`, so building a ruleset in a
    loop does not re-parse or re-compile anything.  Rule names must be
    unique — the saturation profiler keys per-rule statistics by name;
    :class:`~repro.egraph.runner.Runner` enforces this for every rule
    list it is given.
    """

    return fma_rules() + commutativity_rules() + associativity_rules()


def extended_ruleset() -> List[Rewrite]:
    """Default rules plus algebraic identities (ablation only)."""

    return default_ruleset() + identity_rules()


_RULESETS: Dict[str, Callable[[], List[Rewrite]]] = {
    "default": default_ruleset,
    "extended": extended_ruleset,
    "fma-only": fma_rules,
    "reassoc-only": lambda: commutativity_rules() + associativity_rules(),
    "none": lambda: [],
}

#: The rule-set names :func:`ruleset_by_name` accepts.
RULESET_NAMES = tuple(sorted(_RULESETS))


def ruleset_by_name(name: str) -> List[Rewrite]:
    """Look up a rule set by name (``default``, ``extended``, ``fma-only``,
    ``reassoc-only``, ``none``)."""

    try:
        return _RULESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown ruleset {name!r}; available: {sorted(_RULESETS)}"
        ) from None
