"""Every rewrite rule of every named rule set is sound on finite doubles.

For each rule the searcher and the applier are instantiated with
``Pattern.to_term`` over one symbol per pattern variable, each side is
built as a C expression (``fma(a, b, c)`` as ``a + b * c``, ``neg x`` as
``-x``) and both are evaluated by the reference interpreter under seeded
random bindings.  The two values must agree at ``verify_equivalence``'s
tolerance.  The translation validator trusts the rules; this test is what
discharges that trust, and a planted unsound rule must fail it.
"""

import numpy as np
import pytest

from repro.egraph.language import Term, sym
from repro.egraph.rewrite import Rewrite, rewrite
from repro.frontend import cast as C
from repro.interp.interpreter import evaluate_expression
from repro.interp.values import Environment
from repro.rules import ruleset_by_name

RULESETS = ("default", "extended", "fma-only", "reassoc-only")
#: ``verify_equivalence``'s defaults.
RTOL, ATOL = 1e-6, 1e-9
TRIALS = 25


def to_c(term: Term) -> C.Expr:
    """*term* as a C expression over its symbols."""

    kids = [to_c(child) for child in term.children]
    if term.op == "sym":
        return C.Ident(term.payload)
    if term.op == "num":
        value = term.payload
        return C.Number(repr(value), value, isinstance(value, float))
    if term.op == "?":  # a bare-variable right-hand side
        return kids[0]
    if term.op == "neg":
        return C.UnaryOp("-", kids[0])
    if term.op == "fma":
        return C.BinOp("+", kids[0], C.BinOp("*", kids[1], kids[2]))
    assert len(kids) == 2, f"no C spelling for {term.op!r}"
    return C.BinOp(term.op, kids[0], kids[1])


def counterexample(rule: Rewrite, seed: int = 0):
    """A binding on which the rule's two sides differ, or None."""

    names = rule.searcher.variables()
    bindings = {name: sym(name) for name in names}
    lhs = to_c(rule.searcher.to_term(bindings))
    rhs = to_c(rule.applier.to_term(bindings))
    rng = np.random.default_rng(seed)
    for _ in range(TRIALS):
        scalars = {name: float(rng.uniform(-1e3, 1e3)) for name in names}
        left = evaluate_expression(lhs, Environment(scalars=dict(scalars)))
        right = evaluate_expression(rhs, Environment(scalars=dict(scalars)))
        if not np.isclose(left, right, rtol=RTOL, atol=ATOL):
            return scalars, left, right
    return None


def _rules():
    seen = {}
    for name in RULESETS:
        for rule in ruleset_by_name(name):
            seen.setdefault(rule.name, (name, rule))
    return list(seen.values())


def test_every_named_ruleset_is_covered():
    covered = {rule.name for _, rule in _rules()}
    for name in RULESETS:
        rules = ruleset_by_name(name)
        assert rules, f"ruleset {name!r} is empty"
        assert {rule.name for rule in rules} <= covered


@pytest.mark.parametrize(
    "ruleset, rule", _rules(), ids=lambda x: x if isinstance(x, str) else x.name
)
def test_rule_is_sound_on_random_doubles(ruleset, rule):
    found = counterexample(rule)
    assert found is None, f"{ruleset}/{rule}: lhs != rhs at {found}"


def test_planted_unsound_rule_is_caught():
    planted = rewrite("sub-flip", "(- ?a ?b)", "(- ?b ?a)")
    assert counterexample(planted) is not None
