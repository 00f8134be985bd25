"""E-graph engine: the equality-saturation substrate.

A faithful, pure-Python re-implementation of the parts of the ``egg``
library that ACC Saturator relies on, built on a flat interned core:
operators and payloads intern to small integers per graph, e-nodes are
``(op_id, payload_id, *child_ids)`` key tuples in struct-of-arrays
hashcons/arena structures — the one node representation matching,
analysis, extraction, costing and code generation read — and
:class:`~repro.egraph.egraph.ENode` is a value type built on demand for
tests, the reference matcher and user code:

* :class:`~repro.egraph.unionfind.UnionFind` — canonical e-class ids,
* :class:`~repro.egraph.egraph.EGraph` — hash-consed interned e-nodes,
  congruence closure with deferred batched rebuilding, and e-class
  analyses,
* :class:`~repro.egraph.pattern.Pattern` — e-matching of pattern terms,
  with a relational (join over the column store) compiled engine
  (:class:`~repro.egraph.pattern.CompiledPattern`) behind it,
* :class:`~repro.egraph.rewrite.Rewrite` — rewrite rules, each a
  pattern ``=>`` pattern pair, searched incrementally,
* :class:`~repro.egraph.runner.Runner` — the saturation loop with e-node,
  iteration and wall-clock limits (paper §VII: 10,000 e-nodes, 10 rewriting
  iterations, 10 s saturation, 30 s extraction) and per-rule profiling
  (:class:`~repro.egraph.runner.RuleStats`),
* :mod:`~repro.egraph.extract` — cost-based term extraction: greedy DAG
  (shared e-classes counted once, as in the paper's CSE) and an ILP
  formulation solved with ``scipy.optimize.milp`` standing in for CBC.
"""

from repro.egraph.analysis import Analysis, ConstantFoldingAnalysis
from repro.egraph.egraph import EGraph, ENode, NodeKey
from repro.egraph.extract import (
    DagExtractor,
    ExtractionResult,
    ILPExtractor,
    extract_best,
    extract_terms,
    resolve_result,
)
from repro.egraph.language import Term
from repro.egraph.pattern import (
    CompiledPattern,
    Pattern,
    PatternVar,
    compile_pattern,
    parse_pattern,
)
from repro.egraph.rewrite import Rewrite, rewrite
from repro.egraph.runner import (
    AnytimeExtraction,
    IterationCallback,
    Runner,
    RunnerLimits,
    RunnerReport,
    RuleStats,
    StopReason,
)
from repro.egraph.schedule import (
    BackoffScheduler,
    MatchBudgetScheduler,
    RuleScheduler,
    SimpleScheduler,
    make_scheduler,
)
from repro.egraph.unionfind import UnionFind

__all__ = [
    "Analysis",
    "AnytimeExtraction",
    "BackoffScheduler",
    "CompiledPattern",
    "ConstantFoldingAnalysis",
    "DagExtractor",
    "MatchBudgetScheduler",
    "RuleScheduler",
    "SimpleScheduler",
    "make_scheduler",
    "EGraph",
    "ENode",
    "ExtractionResult",
    "ILPExtractor",
    "NodeKey",
    "Pattern",
    "PatternVar",
    "Rewrite",
    "RuleStats",
    "Runner",
    "RunnerLimits",
    "RunnerReport",
    "StopReason",
    "Term",
    "UnionFind",
    "compile_pattern",
    "IterationCallback",
    "extract_best",
    "extract_terms",
    "parse_pattern",
    "resolve_result",
    "rewrite",
]
