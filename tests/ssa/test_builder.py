"""Tests for SSA construction."""

from repro.frontend import parse_statement
from repro.frontend.normalize import normalize_blocks
from repro.ssa import build_ssa


def ssa_for(source):
    body = parse_statement(source)
    normalize_blocks(body)
    return build_ssa(body)


class TestScalars:
    def test_assignment_binds_value(self):
        ssa = ssa_for("{ x = a * b; y = x + 1.0; }")
        assignments = ssa.all_assignments()
        assert len(assignments) == 2
        # y's term references the term of x, not the symbol x
        assert str(assignments[1].term) == "(+ (* a b) 1.0)"

    def test_redefinition_uses_latest_value(self):
        ssa = ssa_for("{ x = a; x = x + 1.0; y = x; }")
        assignments = ssa.all_assignments()
        assert str(assignments[2].term) == "(+ a 1.0)"

    def test_compound_assignment_expands(self):
        ssa = ssa_for("{ s = a; s += b; }")
        assert str(ssa.all_assignments()[1].term) == "(+ a b)"

    def test_declaration_with_initializer_is_assignment(self):
        ssa = ssa_for("{ double t = a + b; x = t * 2.0; }")
        assignments = ssa.all_assignments()
        assert assignments[0].is_decl
        assert str(assignments[1].term) == "(* (+ a b) 2.0)"

    def test_increment_statement(self):
        ssa = ssa_for("{ i++; x = i; }")
        assert str(ssa.all_assignments()[1].term) == "(+ i 1)"


class TestArrays:
    def test_load_uses_template_payload(self):
        ssa = ssa_for("{ x = a[i][j]; }")
        term = ssa.all_assignments()[0].term
        assert term.op == "load"
        assert term.payload == "a[{0}][{1}]"

    def test_store_creates_new_version(self):
        ssa = ssa_for("{ a[i] = x; y = a[i]; }")
        load = ssa.all_assignments()[1].term
        assert load.op == "load"
        # the version operand of the load is the store term
        assert load.children[0].op == "store"

    def test_loads_before_store_share_old_version(self):
        ssa = ssa_for("{ x = a[i]; y = a[i]; a[i] = 0.0; z = a[i]; }")
        first, second, _, after = ssa.all_assignments()
        assert first.term == second.term  # identical loads CSE naturally
        assert after.term != first.term   # the post-store load is distinct

    def test_distinct_arrays_have_distinct_versions(self):
        ssa = ssa_for("{ a[i] = 1.0; x = b[i]; }")
        load = ssa.all_assignments()[1].term
        assert load.children[0].op == "sym"  # b untouched by store to a

    def test_store_term_recorded(self):
        ssa = ssa_for("{ r[i][j] = alpha * x; }")
        info = ssa.all_assignments()[0]
        assert info.is_store
        assert info.store_term is not None and info.store_term.op == "store"


class TestControlFlow:
    def test_if_introduces_phi(self):
        ssa = ssa_for("{ if (b == 0) { b = a; } c = b + 1.0; }")
        final = ssa.all_assignments()[-1].term
        assert any(node.op == "phi" for node in final.walk())
        assert len(ssa.phis) >= 1

    def test_if_else_phi_merges_both_branches(self):
        ssa = ssa_for("{ if (x > 0) { y = 1.0; } else { y = 2.0; } z = y; }")
        final = ssa.all_assignments()[-1].term
        phi = [n for n in final.walk() if n.op == "phi"][0]
        assert len(phi.children) == 3

    def test_loop_introduces_loop_phi(self):
        ssa = ssa_for("{ s = 0.0; for (l = 0; l < n; l++) { s += a[l]; } r = s; }")
        final = ssa.all_assignments()[-1].term
        assert any(node.op == "phi-loop" for node in final.walk())

    def test_loop_body_does_not_see_pre_loop_value(self):
        ssa = ssa_for("{ s = 123.0; for (l = 0; l < n; l++) { s = s + 1.0; } }")
        body_assign = [a for a in ssa.all_assignments() if a.var_name == "s"][1]
        # the in-loop use of s is opaque (loop-carried), not 123.0
        assert "123" not in str(body_assign.term)

    def test_groups_split_at_control_flow(self):
        ssa = ssa_for("{ x = a; if (p) { y = b; } z = c; }")
        assert len(ssa.groups) == 3

    def test_stats_counts(self):
        ssa = ssa_for("{ x = a[i] + b[i]; c[i] = x * 2.0; }")
        stats = ssa.stats()
        assert stats["assignments"] == 2
        # the second assignment's term embeds the value of x, so its two
        # loads are counted again (stats count term occurrences, the e-graph
        # later shares them)
        assert stats["loads"] == 4
        assert stats["stores"] == 1


class TestBarriers:
    def test_unknown_call_invalidates_arrays(self):
        ssa = ssa_for("{ x = a[i]; update(a); y = a[i]; }")
        first, second = ssa.all_assignments()[0], ssa.all_assignments()[-1]
        assert first.term != second.term

    def test_nested_block_assignments_are_collected(self):
        ssa = ssa_for("{ { x = a; } { y = b; } }")
        assert len(ssa.all_assignments()) == 2

    def test_unmodelled_statement_rebinds_assigned_scalars(self):
        ssa = ssa_for("{ x = 1.0; y = 2.0; x = y = a[i]; z = x + y; }")
        # not the stale (+ 1.0 2.0): both names are opaque after the barrier
        assert str(ssa.all_assignments()[-1].term) == "(+ x@barrier1 y@barrier1)"

    def test_unmodelled_statement_keeps_other_scalars(self):
        ssa = ssa_for("{ x = 1.0; w = b; y = (p + 1)[i]; z = x + w; }")
        assert str(ssa.all_assignments()[-1].term) == "(+ 1.0 b)"

    def test_indirect_call_is_not_modelled(self):
        ssa = ssa_for("{ x = 1.0; x = ops.f(a[i]); z = x; }")
        terms = [str(info.term) for info in ssa.all_assignments()]
        assert terms == ["1.0", "x@barrier1"]
