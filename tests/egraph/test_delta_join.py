"""PR-9 semi-naive delta joins + apply-loop guarantees.

Contracts pinned here:

* **The row contract** (hypothesis): on randomized e-graphs mutated in
  two stages, the semi-naive search (``search_rows(since=stamp)``) is an
  order-preserving subsequence of the full search; it contains every
  full-search row whose bindings (up to ``find``) the full search at the
  stamp did not produce; and it contains no match built only from rows
  unchanged since the stamp (same key, same class root).  A planted
  mutant sync that stamps only fresh rows fails the same check.
* **Delta-plan determinism**: incremental join plans and their result
  rows depend only on relation sizes, interned op ids and pre-order atom
  indices — asserted across ``PYTHONHASHSEED`` values in subprocesses.
* **Compaction coherence**: ``ColumnStore.compact()`` interleaved with
  pending appends and kills keeps row order, the op buckets and the
  ``cls`` / ``touch`` columns coherent — every live row keeps its
  change stamp, and delta reads across a compaction keep the contract.
* **Apply-loop equivalence**: the generated row loop every pattern rule
  runs and a reference loop written here from the public API
  (``Pattern.instantiate`` + ``EGraph.merge`` per match) produce
  bit-identical e-graphs (hashcons, union-find, class structure) —
  under mid-batch unions, for bare-variable right-hand sides, and when
  the node limit trips in the middle of a batch.
* **Stamp pinning under the join engine**: a scheduler-dropped batch
  keeps the rule's incremental stamp pinned, and the delta join re-finds
  every dropped match on the next iteration (the PR-4 invariant, now
  served by the relational engine).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.egraph import columns
from repro.egraph.columns import ColumnStore
from repro.egraph.egraph import EGraph
from repro.egraph.language import num, op, sym
from repro.egraph.pattern import PatternVar, compile_pattern, parse_pattern
from repro.egraph.rewrite import Rewrite
from repro.egraph.runner import Runner, RunnerLimits
from repro.egraph.schedule import SimpleScheduler
from repro.rules import default_ruleset, extended_ruleset

_PATTERNS = [
    "(+ ?a (* ?b ?c))",
    "(* (+ ?a ?b) ?a)",
    "(+ (+ ?a ?b) ?c)",
    "(+ (* ?a ?b) (* ?b ?c))",
    "(* ?a (+ ?b ?b))",
    "(+ 1 ?x)",
]

_LEAVES = [sym("x"), sym("y"), sym("z"), num(1), num(2)]
_OPS = ["+", "*"]


def _draw_term(draw, depth):
    if depth == 0:
        return draw(st.sampled_from(_LEAVES))
    left = _draw_term(draw, depth - 1)
    right = _draw_term(draw, draw(st.integers(min_value=0, max_value=depth - 1)))
    return op(draw(st.sampled_from(_OPS)), left, right)


@st.composite
def _two_stage_script(draw):
    """Base terms/merges, then a delta batch of more terms/merges."""

    stages = []
    for lo, hi in ((2, 6), (1, 5)):
        n_terms = draw(st.integers(min_value=lo, max_value=hi))
        terms = [
            _draw_term(draw, draw(st.integers(min_value=0, max_value=3)))
            for _ in range(n_terms)
        ]
        n_merges = draw(st.integers(min_value=0, max_value=3))
        merges = [
            (
                draw(st.integers(min_value=0, max_value=99)),
                draw(st.integers(min_value=0, max_value=99)),
            )
            for _ in range(n_merges)
        ]
        stages.append((terms, merges))
    return stages


def _apply_stage(eg, roots, stage):
    terms, merges = stage
    for t in terms:
        roots.append(eg.add_term(t))
    for a, b in merges:
        eg.merge(roots[a % len(roots)], roots[b % len(roots)])
    eg.rebuild()


def naive_rows(pattern, eg):
    """The reference matcher's matches as flat ``(class, v0, ..)`` rows."""

    names = pattern.variables()
    return [
        (cid, *[subst[name] for name in names])
        for cid, subst in pattern.search_naive(eg)
    ]


def _live_roots(eg):
    """key -> canonical class of every live row: the rows' state now."""

    return {key: eg.find(cid) for key, cid in eg.hashcons.items()}


def _match_keys(eg, pattern, row):
    """The live keys one match row is built from, one per operator atom."""

    bindings = dict(zip(pattern.variables(), row[1:]))
    keys = []

    def build(node):
        if isinstance(node, PatternVar):
            return eg.find(bindings[node.name])
        children = tuple(build(child) for child in node.children)
        op_id = eg._op_ids[node.op]
        pids = (0,) if node.payload is None else eg.payload_ids_matching(node.payload)
        key = next(k for k in ((op_id, pid) + children for pid in pids) if k in eg.hashcons)
        keys.append(key)
        return eg.find(eg.hashcons[key])

    assert build(pattern) == eg.find(row[0])
    return keys


def _check_delta_contract(pattern, eg, stamp, before_rows, before_roots):
    """The semi-naive search at *stamp* against the full search now.

    *before_rows* are the full search's rows and *before_roots* the live
    rows' ``(key -> class root)`` at the stamp.
    """

    full = naive_rows(pattern, eg)
    delta = list(compile_pattern(pattern).search_rows(eg, since=stamp))
    # an order-preserving subsequence of the full search (so no repeats)
    remaining = iter(full)
    assert all(row in remaining for row in delta), (delta, full)
    # every match whose bindings are new since the stamp
    def canon(row):
        return tuple(eg.find(c) for c in row)

    before = {canon(row) for row in before_rows}
    missed = [row for row in full if canon(row) not in before and row not in delta]
    assert not missed, f"delta search missed new matches {missed}"
    # and no match built only from rows unchanged since the stamp
    for row in delta:
        keys = _match_keys(eg, pattern, row)
        assert any(
            before_roots.get(key) != eg.find(eg.hashcons[key]) for key in keys
        ), f"{row} re-found from unchanged rows {keys}"


# ---------------------------------------------------------------------------
# The row contract (hypothesis)
# ---------------------------------------------------------------------------


#: ``(+ x y)``, ``q`` and ``(* q x)``; then ``q`` wins a union with the
#: ``+`` class.  No row is new, yet ``(* (+ ?a ?b) ?a)`` gains a match
#: through the re-rooted ``+`` row — only its root-change stamp shows it.
_REROOTED_MATCH = [
    ([op("+", sym("x"), sym("y")), sym("q"), op("*", sym("q"), sym("x"))], []),
    ([], [(1, 0)]),
]


@settings(max_examples=60, deadline=None)
@given(
    script=_two_stage_script(),
    pattern_text=st.sampled_from(_PATTERNS),
    full=st.booleans(),
)
@example(script=_REROOTED_MATCH, pattern_text="(* (+ ?a ?b) ?a)", full=False)
def test_delta_join_matches_incremental_scan_exactly(script, pattern_text, full):
    pattern = parse_pattern(pattern_text)
    eg = EGraph()
    roots = []
    _apply_stage(eg, roots, script[0])
    stamp = eg.version
    before = naive_rows(pattern, eg), _live_roots(eg)
    _apply_stage(eg, roots, script[1])
    if full:
        # since=-1 is the plain full join: the reference list exactly
        assert compile_pattern(pattern).search_rows(eg, since=-1) == naive_rows(
            pattern, eg
        )
    else:
        _check_delta_contract(pattern, eg, stamp, *before)
    eg.check_invariants()


def _fresh_rows_only_sync(eg):
    """A planted mutant of ``EGraph._sync_row_touch``: it stamps fresh
    rows but never a row whose class root moved."""

    store = eg.store
    store.flush()
    cls = columns.as_int64(store.cls)
    touch = columns.as_int64(store.touch)
    fresh = touch == -1
    cls[fresh] = eg._np_roots()[cls[fresh]]
    touch[fresh] = eg.version
    store.touch_stamp = (eg.version, len(store.keys), store.epoch)


def test_fresh_rows_only_sync_is_caught(monkeypatch):
    """The row-contract property kills a sync that misses root changes."""

    monkeypatch.setattr(EGraph, "_sync_row_touch", _fresh_rows_only_sync)
    with pytest.raises(AssertionError, match="missed new matches"):
        test_delta_join_matches_incremental_scan_exactly()


def test_delta_join_is_empty_after_quiescent_rebuild():
    """No class touched after the stamp => the delta slice is empty."""

    eg = EGraph()
    eg.add_term(op("+", sym("x"), op("*", sym("y"), sym("z"))))
    eg.rebuild()
    stamp = eg.version
    for text in _PATTERNS:
        cp = compile_pattern(parse_pattern(text))
        assert cp.search_rows(eg, since=stamp) == []


# ---------------------------------------------------------------------------
# Delta-plan + delta-result determinism across hash seeds
# ---------------------------------------------------------------------------

_DELTA_SCRIPT = """
from repro.egraph.egraph import EGraph
from repro.egraph.language import num, op, sym
from repro.egraph.runner import Runner, RunnerLimits
from repro.rules import default_ruleset

eg = EGraph()
expr = op("+", op("*", sym("a"), sym("b")),
        op("*", op("+", sym("a"), num(1)), sym("c")))
eg.add_term(expr)
rules = default_ruleset()
Runner(eg, rules, RunnerLimits(node_limit=300, iter_limit=3)).run()
stamp = eg.version
eg.add_term(op("+", expr, op("*", sym("d"), num(2))))
eg.rebuild()
for rule in rules:
    cp = rule._compiled
    plan = cp.join_plan(eg, since=stamp)
    rows = cp.search_rows(eg, since=stamp)
    print(rule.name, plan, list(rows))
"""


def _run_with_hash_seed(seed: str) -> str:
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _DELTA_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_delta_join_plans_are_hash_seed_independent():
    outputs = {_run_with_hash_seed(seed) for seed in ("0", "1", "12345")}
    assert len(outputs) == 1, f"delta plans diverged across hash seeds: {outputs}"


# ---------------------------------------------------------------------------
# Compaction coherence under interleaved pending appends and tombstones
# ---------------------------------------------------------------------------


def test_compact_interleaved_with_pending_appends():
    store = ColumnStore()
    for i in range(8):
        store.append_new((1, 0, i), i)
    store.flush()
    store.alive[0] = 0  # the rebuild sweep's tombstone
    store.alive[5] = 0
    # interleave: queue new rows, then compact with the buffer still warm
    store.append_new((2, 0, 100), 50)
    store.append_new((2, 0, 101), 51)
    dropped = store.compact()
    assert dropped == 2
    assert store.pending == []  # compaction flushed the queue first
    live = [(1, 0, i) for i in (1, 2, 3, 4, 6, 7)] + [(2, 0, 100), (2, 0, 101)]
    assert store.keys == live  # live-relative order preserved
    assert store.cls.tolist() == [1, 2, 3, 4, 6, 7, 50, 51]
    assert list(store.alive) == [1] * len(live)
    assert len(store.touch) == len(live)
    # touch indices moved: the column must be flagged for re-sync
    assert store.touch_stamp == -1


def test_delta_reads_stay_exact_across_compaction():
    """Compaction carries every live row's class and touch stamp, and the
    row contract holds across a rebuild-time compaction."""

    eg = EGraph()
    for i in range(300):
        eg.add_term(
            op("*", op("+", sym(f"x{i}"), op("*", sym(f"y{i}"), sym("z"))), sym("w"))
        )
    eg.rebuild()
    early = eg.version
    patterns = [parse_pattern(text) for text in _PATTERNS]
    early_state = [(naive_rows(p, eg), _live_roots(eg)) for p in patterns]
    for i in range(1, 300):
        eg.merge(eg.add_term(sym("x0")), eg.add_term(sym(f"x{i}")))
        eg.merge(eg.add_term(sym("y0")), eg.add_term(sym(f"y{i}")))
    epoch = eg.store.epoch
    eg.rebuild()  # mass merge tombstones >50% of rows => compact() runs
    assert eg.store.epoch == epoch + 1
    eg.check_invariants()  # synced classes survived the compaction
    stamp = eg.version
    late_state = [(naive_rows(p, eg), _live_roots(eg)) for p in patterns]
    eg.add_term(op("+", sym("new"), op("*", sym("y0"), sym("z"))))
    eg.rebuild()
    for pattern, before, after in zip(patterns, early_state, late_state):
        _check_delta_contract(pattern, eg, early, *before)
        _check_delta_contract(pattern, eg, stamp, *after)

    # a direct compaction: each live key keeps its (class, touch) pair
    store = eg.store
    eg.merge(eg.add_term(sym("z")), eg.add_term(sym("w")))
    eg.rebuild()  # re-keys a few rows: tombstones below the policy's bar
    def live_stamps():
        return {
            key: (store.cls[row], store.touch[row])
            for row, key in enumerate(store.keys)
            if store.alive[row]
        }

    stamps = live_stamps()
    assert store.compact() > 0
    assert len(store.cls) == len(store.touch) == len(store.keys)
    assert live_stamps() == stamps
    eg.check_invariants()


# ---------------------------------------------------------------------------
# Generated apply loop == reference apply loop (bit-identical e-graphs)
# ---------------------------------------------------------------------------


class _ReferenceRewrite(Rewrite):
    """A pattern rule applied the slow way, from the public API only.

    Per match row, in match order: ``Pattern.instantiate`` (the
    recursive ENode-level builder) then ``EGraph.merge``, stopping after
    the first row that leaves more than ``limit`` e-nodes.  The executable
    specification of what the generated row loop must do to the e-graph.
    """

    def apply_rows(self, egraph, rows, limit=None):
        names = self.searcher.variables()
        applied = 0
        for row in rows:
            eclass_id = row[0]
            new_id = self.applier.instantiate(egraph, dict(zip(names, row[1:])))
            if not egraph.is_equal(new_id, eclass_id):
                egraph.merge(new_id, eclass_id)
                applied += 1
            if limit is not None and len(egraph) > limit:
                break
        return applied


def _wide_graph():
    eg = EGraph()
    term = op("+", sym("s0"), sym("s1"))
    for i in range(40):
        term = op("+", term, op("*", sym(f"a{i}"), sym(f"b{i % 7}")))
    eg.add_term(term)
    eg.rebuild()
    return eg


def _chain_graph():
    """Chains of commutable/associable sums: merge-heavy batches where an
    early row's union re-roots class ids that later rows of the same
    batch carry (the loop's staleness checks must catch them)."""

    eg = EGraph()
    term = sym("c0")
    for i in range(1, 36):
        term = op("+", term, sym(f"c{i % 5}"))
    eg.add_term(term)
    eg.rebuild()
    return eg


def _identity_graph():
    """The wide graph plus redexes of the bare-variable identity rules."""

    eg = _wide_graph()
    for i in range(8):
        a = sym(f"a{i}")
        eg.add_term(op("+", op("*", a, num(1)), num(0)))
        eg.add_term(op("neg", op("neg", op("*", a, sym("b0")))))
    eg.rebuild()
    return eg


def _comm_assoc_rules():
    return [r for r in default_ruleset() if r.name.startswith(("comm", "assoc"))]


def _graph_signature(eg):
    return (
        list(eg.hashcons.items()),  # content *and* interning order
        list(eg.uf._parent),
        eg.class_ids(),
        len(eg),
        eg.num_classes,
    )


@pytest.mark.parametrize(
    "make_graph, make_rules, node_limit",
    [
        pytest.param(_wide_graph, default_ruleset, 1500, id="wide-default"),
        pytest.param(
            _chain_graph, _comm_assoc_rules, 900, id="chain-midbatch-unions"
        ),
        pytest.param(
            _identity_graph, extended_ruleset, 1500, id="bare-variable-rhs"
        ),
        # iteration 1 ends at 113 e-nodes: the cap trips a few rows into
        # iteration 2's first batch
        pytest.param(
            _chain_graph, _comm_assoc_rules, 120, id="chain-cap-trips-midbatch"
        ),
    ],
)
def test_generated_apply_loop_matches_reference_loop(make_graph, make_rules, node_limit):
    """Same runner, same searches; only the apply loop differs."""

    limits = RunnerLimits(node_limit=node_limit, iter_limit=3)

    def run(rules):
        eg = make_graph()
        report = Runner(eg, rules, limits).run()
        applied = {name: rs.applied for name, rs in report.rule_stats.items()}
        assert sum(applied.values()) > 0
        return _graph_signature(eg), applied, report.stop_reason

    rules = make_rules()
    reference = [_ReferenceRewrite(r.name, r.searcher, r.applier) for r in rules]
    assert run(rules) == run(reference)


# ---------------------------------------------------------------------------
# Stamp pinning: dropped batches are re-found by the delta join
# ---------------------------------------------------------------------------


class _DropOnce(SimpleScheduler):
    """Drops the target rule's entire first-iteration batch."""

    name = "drop-once"

    def __init__(self, target: str) -> None:
        self.target = target
        self.dropped = 0
        self.refound = 0

    def admit(self, iteration, index, rule, matches):
        if rule.name == self.target:
            if iteration == 0 and matches:
                self.dropped = len(matches)
                return [], False  # incomplete: the stamp must stay pinned
            if iteration == 1:
                self.refound = len(matches)
        return matches, True


def test_dropped_batch_is_refound_by_delta_join():
    eg = EGraph()
    eg.add_term(op("+", sym("p"), op("*", sym("q"), sym("r"))))
    eg.rebuild()
    rules = default_ruleset()
    target = "comm-add"
    assert any(r.name == target for r in rules)
    sched = _DropOnce(target)
    Runner(eg, rules, RunnerLimits(node_limit=500, iter_limit=3),
           scheduler=sched).run()
    assert sched.dropped > 0, "scheduler never saw the first batch"
    # iteration 1 searches incrementally from the *pinned* stamp; the
    # delta join must surface at least every dropped match again
    assert sched.refound >= sched.dropped
    # and the matches were actually applied on the retry: the commuted
    # spelling is interned
    commuted = compile_pattern(parse_pattern("(+ (* ?a ?b) ?c)"))
    assert commuted.search_rows(eg)
