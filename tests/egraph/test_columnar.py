"""PR-7 columnar core + relational e-matching guarantees.

Three contracts pinned here:

* **Engine == reference** (hypothesis): on randomized e-graphs, the
  relational (join-based) engine returns the *exact list* — multiset and
  order — of match rows the reference nested-loop scan
  (``Pattern.search_naive``) produces, for patterns spanning the
  planner's shapes (heterogeneous ops, shared variables, self-joins),
  including when the join-key encoding has to re-densify.
* **Join-plan determinism**: the greedy join order depends only on
  relation sizes, interned op ids and pre-order atom indices — asserted
  by comparing plans across ``PYTHONHASHSEED`` values in subprocesses.
* **Pending-buffer semantics**: the column store's deferred append buffer
  is invisible from outside — kills and overwrites of still-pending keys
  resolve inside the buffer, and materialised row order equals hashcons
  dict order.

Payloads are kept collision-free (plain ints) throughout: distinct
payloads with identical ``(str, type name)`` sort pairs are a documented
acceptable divergence between the engines' tie-breaks.
"""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.egraph import pattern as pattern_mod
from repro.egraph.columns import ColumnStore
from repro.egraph.egraph import EGraph
from repro.egraph.language import num, op, sym
from repro.egraph.pattern import compile_pattern, parse_pattern


def naive_rows(pattern, eg):
    """The reference matcher's matches as flat ``(class, v0, ..)`` rows."""

    names = pattern.variables()
    return [
        (cid, *[subst[name] for name in names])
        for cid, subst in pattern.search_naive(eg)
    ]

# ---------------------------------------------------------------------------
# Engine equivalence (hypothesis)
# ---------------------------------------------------------------------------

#: Multi-atom patterns exercising the planner's shapes: heterogeneous op
#: pairs, a variable shared across atoms, nested same-op (self-join), and
#: a payload-guarded leaf atom.
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


@st.composite
def _graph_script(draw):
    """A build script: term specs plus merge pairs over their class ids."""

    n_terms = draw(st.integers(min_value=2, max_value=10))
    terms = []
    for _ in range(n_terms):
        depth = draw(st.integers(min_value=0, max_value=3))
        terms.append(_draw_term(draw, depth))
    n_merges = draw(st.integers(min_value=0, max_value=4))
    merges = [
        (
            draw(st.integers(min_value=0, max_value=n_terms - 1)),
            draw(st.integers(min_value=0, max_value=n_terms - 1)),
        )
        for _ in range(n_merges)
    ]
    return terms, merges


def _draw_term(draw, depth):
    if depth == 0:
        return draw(st.sampled_from(_LEAVES))
    left = _draw_term(draw, depth - 1)
    right = _draw_term(draw, draw(st.integers(min_value=0, max_value=depth - 1)))
    return op(draw(st.sampled_from(_OPS)), left, right)


def _build(script):
    terms, merges = script
    eg = EGraph()
    roots = [eg.add_term(t) for t in terms]
    for a, b in merges:
        eg.merge(roots[a], roots[b])
    eg.rebuild()
    return eg


@settings(max_examples=60, deadline=None)
@given(script=_graph_script(), pattern_text=st.sampled_from(_PATTERNS))
def test_join_backend_matches_scan_exactly(script, pattern_text):
    eg = _build(script)
    pattern = parse_pattern(pattern_text)
    # same match rows, same order
    assert compile_pattern(pattern).search_rows(eg) == naive_rows(pattern, eg)


def test_join_backend_matches_scan_on_default_ruleset():
    """Every rule of the paper ruleset, on a saturated graph."""

    from repro.egraph.runner import Runner, RunnerLimits
    from repro.rules import default_ruleset

    eg = EGraph()
    expr = op(
        "+",
        op("*", sym("a"), op("+", sym("b"), num(0))),
        op("*", op("+", sym("a"), num(0)), sym("c")),
    )
    eg.add_term(expr)
    rules = default_ruleset()
    Runner(eg, rules, RunnerLimits(node_limit=400, iter_limit=4)).run()
    for rule in rules:
        assert rule.search_rows(eg) == naive_rows(rule.searcher, eg), rule.name


def test_single_atom_join_matches_scan():
    # a single-atom "join" is the relation slice itself — same matches,
    # same order as the reference scan
    eg = _build(([op("+", sym("x"), sym("y")), op("+", sym("y"), sym("x"))], [(0, 1)]))
    pattern = parse_pattern("(+ ?a ?b)")
    rows = compile_pattern(pattern).search_rows(eg)
    assert len(rows) == 2
    assert rows == naive_rows(pattern, eg)


def test_join_key_overflow_redensifies_exactly(monkeypatch):
    """Force the int64 join-key budget to trip on every multi-variable
    join step: the re-densified composite keys must select exactly the
    rows the plain Horner keys (and the reference matcher) select."""

    leaves = [sym("x"), sym("y"), sym("z")]
    prods = [op("*", a, b) for a in leaves for b in leaves]
    terms = [op("+", p, q) for p in prods for q in prods]
    terms += [op("*", op("+", a, b), c) for a in leaves for b in leaves for c in leaves]
    eg = _build((terms, [(0, 4), (10, 50)]))  # merges: bucket ranks > 0 matter
    for text in (
        "(+ (* ?a ?b) (* ?a ?b))",  # joins the second * on three variables
        "(+ (* ?a ?b) (* ?b ?c))",
        "(* (+ ?a ?b) ?a)",
    ):
        pattern = parse_pattern(text)
        cp = compile_pattern(pattern)
        plain = cp.search_rows(eg)
        assert plain, text
        with monkeypatch.context() as patch:
            # any second shared variable now overflows the budget
            patch.setattr(pattern_mod, "_JOIN_KEY_LIMIT", 1)
            dense = cp.search_rows(eg)
        assert dense == plain == naive_rows(pattern, eg), text


def test_bare_variable_searcher_matches_nothing():
    eg = _build(([op("+", sym("x"), sym("y"))], []))
    pattern = parse_pattern("?x")  # no operator atom at all
    cp = compile_pattern(pattern)
    assert cp.search_rows(eg) == []
    assert cp.join_plan(eg) is None
    assert pattern.search_naive(eg) == []


# ---------------------------------------------------------------------------
# Join-plan determinism across hash seeds
# ---------------------------------------------------------------------------

_PLAN_SCRIPT = """
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
for rule in rules:
    print(rule.name, rule._compiled.join_plan(eg))
"""


def _run_with_hash_seed(seed: str) -> str:
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _PLAN_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_join_plans_are_hash_seed_independent():
    outputs = {_run_with_hash_seed(seed) for seed in ("0", "1", "12345")}
    assert len(outputs) == 1, f"join plans diverged across hash seeds: {outputs}"


# ---------------------------------------------------------------------------
# Pending-buffer semantics of the column store
# ---------------------------------------------------------------------------


def test_len_counts_pending_rows():
    store = ColumnStore()
    assert len(store) == 0
    store.append_new((1, 0), 0)
    assert len(store) == 1  # visible before materialisation
    store.flush()
    assert len(store) == 1
