"""ACC Saturator's cost model.

Paper §V-B: *"constant numbers pose no cost, each input variable or φ counts
as 1, all computational operations except division and modular arithmetic
count as 10, and each memory access, division, modular arithmetic, or
function call counts as 100."*

The weights are configurable (:class:`CostWeights`) so that the ablation
benchmarks can study the sensitivity of extraction to the cost assignment,
which the paper flags as future work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.egraph.language import Payload, Term

__all__ = [
    "OpClass",
    "CostWeights",
    "CostModel",
    "AccSaturatorCostModel",
    "DEFAULT_COST_MODEL",
    "classify_op",
]


class OpClass(enum.Enum):
    """Coarse operation classes distinguished by the paper's cost model."""

    CONSTANT = "constant"
    VARIABLE = "variable"
    PHI = "phi"
    COMPUTE = "compute"
    EXPENSIVE = "expensive"  # memory access, division, modulo, call
    STRUCTURAL = "structural"  # casts and other zero-compute wrappers


#: Operators considered plain computation (cost 10 by default).
_COMPUTE_OPS = frozenset(
    {"+", "-", "*", "neg", "fma", "<", ">", "<=", ">=", "==", "!=",
     "&&", "||", "!", "&", "|", "^", "<<", ">>", "~", "min", "max",
     "ternary"}
)

#: Operators priced as expensive (cost 100 by default).
_EXPENSIVE_OPS = frozenset({"load", "store", "/", "%", "call"})

#: Operators that only change the view of a value.
_STRUCTURAL_OPS = frozenset({"cast", "member", "addr", "deref"})

#: φ-style operators introduced by the SSA builder.
_PHI_OPS = frozenset({"phi", "phi-loop"})


def classify_op(op: str) -> OpClass:
    """Classify an operator according to the paper's cost categories."""

    if op == "num":
        return OpClass.CONSTANT
    if op == "sym":
        return OpClass.VARIABLE
    if op in _PHI_OPS:
        return OpClass.PHI
    if op in _EXPENSIVE_OPS:
        return OpClass.EXPENSIVE
    if op in _STRUCTURAL_OPS:
        return OpClass.STRUCTURAL
    if op in _COMPUTE_OPS:
        return OpClass.COMPUTE
    # Unknown operators are treated as plain computation so that new rules
    # never make extraction blow up.
    return OpClass.COMPUTE


@dataclass(frozen=True)
class CostWeights:
    """Per-class cost weights (defaults are the paper's values)."""

    constant: float = 0.0
    variable: float = 1.0
    phi: float = 1.0
    compute: float = 10.0
    expensive: float = 100.0
    structural: float = 0.0

    def of(self, op_class: OpClass) -> float:
        # OpClass values are the field names, so this is a direct lookup
        # (building a dict per call showed up in extraction profiles).
        return getattr(self, op_class.value)


class CostModel:
    """Base cost model: price one node from its ``(op, payload)`` alone.

    Children are priced separately, as their own classes.  Extraction
    prices each distinct ``(op, payload)`` pair of an e-graph once, through
    :meth:`op_cost`, and :meth:`term_cost` prices every term node the same
    way.
    """

    def __init__(self, weights: CostWeights | None = None) -> None:
        self._weights = weights or CostWeights()
        #: op -> cost memo (the classification depends only on the operator,
        #: and extraction prices the same operators millions of times).
        self._op_cost: dict = {}

    @property
    def weights(self) -> CostWeights:
        return self._weights

    @weights.setter
    def weights(self, value: CostWeights) -> None:
        # invalidate the per-op memo, or re-priced models would keep
        # serving costs computed under the old weights
        self._weights = value
        self._op_cost.clear()

    def op_cost(self, op: str, payload: Payload = None) -> float:
        """Cost of one node with operator *op* and *payload* (children excluded)."""

        cost = self._op_cost.get(op)
        if cost is None:
            cost = self._weights.of(classify_op(op))
            self._op_cost[op] = cost
        return cost

    def term_cost(self, term) -> float:
        """DAG-unaware cost of a whole term (every node counted)."""

        assert isinstance(term, Term)
        total = self.op_cost(term.op, term.payload)
        for child in term.children:
            total += self.term_cost(child)
        return total

    def term_dag_cost(self, term) -> float:
        """Cost of a term with structurally identical subterms counted once."""

        assert isinstance(term, Term)
        seen: set = set()
        total = 0.0

        def visit(t: Term) -> None:
            nonlocal total
            if t in seen:
                return
            seen.add(t)
            total += self.op_cost(t.op, t.payload)
            for child in t.children:
                visit(child)

        visit(term)
        return total


class AccSaturatorCostModel(CostModel):
    """The exact model of the paper (kept as a named class for clarity)."""


#: Shared default instance.
DEFAULT_COST_MODEL = AccSaturatorCostModel()
