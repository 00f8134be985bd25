"""Match rows reach the generated apply loop one bounded slice at a time.

``Rewrite.apply_rows`` turns a relational search's row matrix into Python
lists slice by slice, so a large match batch never exists as lists all at
once.  Pinned here on ``olbm_olbm_collide``, the corpus kernel with the
largest batches (a 19 101-row ``assoc-add1`` batch) and the one the node
limit binds on: no loop call receives more than ``_APPLY_SLICE`` rows,
some batch does span several slices, and the streamed rows apply exactly
what one whole-batch call applies (the same per-rule rows, unions and
stop; ``tests/egraph/test_node_cap.py`` pins the node-limit contract).
"""

import importlib
import sys

from repro.benchsuite.registry import get_benchmark
from repro.egraph.columns import RowBatch
from repro.egraph.rewrite import _APPLY_SLICE, Rewrite
from repro.egraph.runner import RunnerLimits, StopReason
from repro.saturator import SaturatorConfig, Variant, optimize_source

# the package re-exports the ``rewrite`` function under the module's name
rewrite_module = importlib.import_module("repro.egraph.rewrite")

CONFIG = SaturatorConfig(variant=Variant.ACCSAT, limits=RunnerLimits(10_000, 10, 300.0))


def _olbm():
    return optimize_source(
        get_benchmark("olbm").kernels[0].source, CONFIG, "olbm_olbm_collide"
    )


def _outcome(result):
    (kernel,) = result.kernels
    report = kernel.runner
    rules = [(s.name, s.matches, s.applied) for s in report.rule_stats.values()]
    steps = [(i.applied, i.egraph_nodes, i.egraph_classes) for i in report.iterations]
    return (result.code, report.stop_reason, report.egraph_nodes,
            report.egraph_classes, steps, rules)


def test_apply_loop_never_receives_more_than_one_slice(monkeypatch):
    calls = []
    compile_row_applier = rewrite_module.compile_row_applier

    def recording(pattern, lhs_vars):
        apply_fn = compile_row_applier(pattern, lhs_vars)

        def apply(egraph, rows, limit):
            calls.append(len(rows))
            return apply_fn(egraph, rows, limit)

        return apply

    monkeypatch.setattr(rewrite_module, "compile_row_applier", recording)
    (kernel,) = _olbm().kernels
    assert kernel.runner.stop_reason is StopReason.NODE_LIMIT
    assert calls and max(calls) <= _APPLY_SLICE
    # not vacuous: batches larger than one slice were streamed
    assert calls.count(_APPLY_SLICE) > 1


def test_streamed_rows_apply_what_one_whole_batch_call_applies(monkeypatch):
    streamed = _olbm()

    def whole_batch(self, egraph, rows, limit=None):
        if type(rows) is RowBatch:
            rows = rows.mat.tolist()
        return self._apply_rows_fn(egraph, rows, sys.maxsize if limit is None else limit)

    monkeypatch.setattr(Rewrite, "apply_rows", whole_batch)
    whole = _olbm()
    assert _outcome(streamed) == _outcome(whole)
