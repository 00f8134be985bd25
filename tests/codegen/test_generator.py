"""Tests for code generation: temp-var insertion, bulk load, stats."""

import re

import pytest

from repro.frontend import parse_statement, print_c
from repro.frontend.cast import clone
from repro.frontend.parser import parse_statement as reparse
from repro.interp import verify_equivalence
from repro.saturator import SaturatorConfig, Variant
from repro.saturator.pipeline import optimize_loop_body
from repro.frontend.normalize import normalize_blocks


MATMUL_BODY = """
{
  double tmp = 0.0;
  for (int l = 0; l < ax; l++)
    tmp += a[i][l] * b[l][j];
  r[i][j] = alpha * tmp + beta * c[i][j];
}
"""

BT_BODY = """
{
  temp1 = dt * tz1;
  temp2 = dt * tz2;
  lhsZ[0][k][i][j] = - temp2 * fjacZ[0][k-1][i][j] - temp1 * njacZ[0][k-1][i][j] - temp1 * dz1;
  lhsZ[1][k][i][j] = - temp2 * fjacZ[1][k-1][i][j] - temp1 * njacZ[1][k-1][i][j];
  lhsZ[2][k][i][j] = - temp2 * fjacZ[2][k-1][i][j] - temp1 * njacZ[2][k-1][i][j] - temp1 * dz2;
}
"""


def optimize_body(source, variant):
    body = parse_statement(source)
    report = optimize_loop_body(body, SaturatorConfig(variant=variant), "test")
    return body, report


class TestTempVariables:
    def test_temporaries_inserted_with_prefix(self):
        body, _ = optimize_body(BT_BODY, Variant.CSE)
        text = print_c(body)
        assert "_v0" in text
        assert "double _v" in text

    def test_statements_rewritten_to_reference_temps(self):
        body, _ = optimize_body(BT_BODY, Variant.CSE)
        text = print_c(body)
        # each original store now assigns a temp (or a trivial leaf)
        assert re.search(r"lhsZ\[0\]\[k\]\[i\]\[j\] = _v\d+;", text)

    def test_common_subexpression_computed_once(self):
        body, report = optimize_body(BT_BODY, Variant.CSE)
        text = print_c(body)
        # dt * tz1 appears exactly once in the generated code
        assert text.count("dt * tz1") == 1
        assert report.optimized.flops < report.original.flops

    def test_generated_code_reparses(self):
        body, _ = optimize_body(BT_BODY, Variant.ACCSAT)
        reparse(print_c(body))  # must not raise

    def test_custom_temp_prefix(self):
        body = parse_statement(BT_BODY)
        optimize_loop_body(body, SaturatorConfig(variant=Variant.CSE, temp_prefix="_acc"), "k")
        assert "_acc0" in print_c(body)


class TestBulkLoad:
    def test_loads_hoisted_to_top_of_group(self):
        body, _ = optimize_body(BT_BODY, Variant.ACCSAT)
        text = print_c(body)
        first_store = text.index("lhsZ[0][k][i][j] =")
        for array in ("fjacZ[0]", "fjacZ[1]", "fjacZ[2]", "njacZ[0]", "njacZ[1]", "njacZ[2]"):
            assert text.index(array) < first_store, f"{array} not hoisted above first store"

    def test_lazy_mode_does_not_hoist_all_loads(self):
        bulk, _ = optimize_body(BT_BODY, Variant.CSE_BULK)
        lazy, _ = optimize_body(BT_BODY, Variant.CSE)
        bulk_text, lazy_text = print_c(bulk), print_c(lazy)
        first_store_lazy = lazy_text.index("lhsZ[0][k][i][j] =")
        # in lazy mode at least one later-used load appears after the first store
        assert lazy_text.index("fjacZ[2]") > first_store_lazy
        # while bulk mode hoists it
        assert bulk_text.index("fjacZ[2]") < bulk_text.index("lhsZ[0][k][i][j] =")

    def test_loads_sorted_by_static_index(self):
        body, _ = optimize_body(BT_BODY, Variant.ACCSAT)
        text = print_c(body)
        positions = [text.index(f"fjacZ[{i}][k - 1]") for i in range(3)]
        assert positions == sorted(positions)

    def test_load_after_store_not_hoisted_above_it(self):
        source = """
        {
          a[i] = x * 2.0;
          y = a[i] + 1.0;
          b[i] = y * y;
        }
        """
        body, _ = optimize_body(source, Variant.ACCSAT)
        text = print_c(body)
        store_pos = text.index("a[i] =")
        # the load of the freshly stored location (spelled `= a[i];` as a
        # temporary definition) must appear after the store statement
        load_pos = text.index("= a[i];")
        assert store_pos < load_pos


class TestSemanticsPreservation:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_matmul_body_equivalent(self, variant):
        original = parse_statement(MATMUL_BODY)
        normalize_blocks(original)
        work = clone(original)
        optimize_loop_body(work, SaturatorConfig(variant=variant), "k")
        result = verify_equivalence(original, work, trials=2)
        assert result.passed, result.message

    @pytest.mark.parametrize("variant", list(Variant))
    def test_bt_body_equivalent(self, variant):
        original = parse_statement(BT_BODY)
        normalize_blocks(original)
        work = clone(original)
        optimize_loop_body(work, SaturatorConfig(variant=variant), "k")
        result = verify_equivalence(original, work, trials=2)
        assert result.passed, result.message


class TestStats:
    def test_stats_report_reductions(self):
        _, report = optimize_body(BT_BODY, Variant.CSE)
        assert report.original.instructions > 0
        assert report.optimized.instructions <= report.original.instructions
        assert 0.0 <= report.instruction_reduction <= 1.0

    def test_fma_counted_with_saturation(self):
        _, report = optimize_body(MATMUL_BODY, Variant.ACCSAT)
        assert report.optimized.fmas >= 1

    def test_original_ast_counting(self):
        from repro.codegen.generator import count_ast_stats

        stmt = parse_statement("{ r[i] = a[i] * b[i] + c[i] / d[i]; }")
        stats = count_ast_stats(stmt)
        assert stats.loads == 4
        assert stats.stores == 1
        assert stats.divs == 1
        assert stats.flops == 2
