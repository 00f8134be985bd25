"""Property-based tests on the e-graph engine and the rule set.

The central invariants:

* the e-graph's hashcons/congruence invariants hold after arbitrary
  add/merge/rebuild sequences,
* every rewrite rule of the paper preserves the numeric value of the
  expression it rewrites (checked by evaluating random leaves),
* extraction returns a term that is numerically equal to the input term.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.cost import DEFAULT_COST_MODEL
from repro.egraph.egraph import EGraph
from repro.egraph.extract import extract_best
from repro.egraph.language import Term, num, op, sym
from repro.egraph.runner import Runner, RunnerLimits
from repro.rules import constant_folding_analysis, default_ruleset

VARIABLES = ["a", "b", "c", "d"]


@st.composite
def arithmetic_terms(draw, depth=3):
    """Random arithmetic terms over +, -, * and a few leaves."""

    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return sym(draw(st.sampled_from(VARIABLES)))
        return num(draw(st.integers(-4, 4)))
    operator = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(arithmetic_terms(depth=depth - 1))
    right = draw(arithmetic_terms(depth=depth - 1))
    return op(operator, left, right)


def evaluate(term: Term, env):
    if term.op == "num":
        return float(term.payload)
    if term.op == "sym":
        return env[term.payload]
    children = [evaluate(c, env) for c in term.children]
    if term.op == "+":
        return children[0] + children[1]
    if term.op == "-":
        return children[0] - children[1]
    if term.op == "*":
        return children[0] * children[1]
    if term.op == "neg":
        return -children[0]
    if term.op == "fma":
        return children[0] + children[1] * children[2]
    raise AssertionError(f"unexpected operator {term.op}")


@settings(max_examples=40, deadline=None)
@given(arithmetic_terms())
def test_egraph_invariants_hold_after_saturation(term):
    eg = EGraph(constant_folding_analysis())
    eg.add_term(term)
    Runner(eg, default_ruleset(), RunnerLimits(800, 4, 2.0)).run()
    eg.check_invariants()


@settings(max_examples=40, deadline=None)
@given(
    arithmetic_terms(),
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=4, max_size=4),
)
def test_extraction_preserves_value(term, values):
    """Saturate + extract; the extracted term evaluates to the same value."""

    env = dict(zip(VARIABLES, values))
    expected = evaluate(term, env)

    eg = EGraph(constant_folding_analysis())
    root = eg.add_term(term)
    Runner(eg, default_ruleset(), RunnerLimits(800, 4, 2.0)).run()
    result = extract_best(eg, [root], DEFAULT_COST_MODEL, "dag-greedy")
    actual = evaluate(result.terms[root], env)

    assert math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    arithmetic_terms(),
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=4, max_size=4),
)
def test_extracted_cost_never_exceeds_input_cost(term, values):
    """Saturation can only improve (or keep) the DAG cost of the input."""

    eg = EGraph(constant_folding_analysis())
    root = eg.add_term(term)
    baseline = extract_best(eg, [root], DEFAULT_COST_MODEL, "dag-greedy").dag_cost

    Runner(eg, default_ruleset(), RunnerLimits(800, 4, 2.0)).run()
    optimized = extract_best(eg, [root], DEFAULT_COST_MODEL, "dag-greedy").dag_cost
    assert optimized <= baseline + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.lists(arithmetic_terms(depth=2), min_size=2, max_size=4))
def test_hashconsing_never_duplicates_canonical_nodes(terms):
    eg = EGraph()
    for term in terms:
        eg.add_term(term)
    eg.rebuild()
    seen = set()
    for cid in eg.class_ids():
        for key in eg.keys_of(cid):
            canon = eg._canon_key(key)
            assert canon not in seen
            seen.add(canon)
