"""Tests for kernel discovery, configuration and the end-to-end pipeline."""

import pytest

from repro.egraph.runner import RunnerLimits
from repro.frontend import parse_statement
from repro.frontend.cast import clone
from repro.frontend.normalize import normalize_blocks
from repro.interp import verify_equivalence
from repro.saturator import (
    SaturatorConfig,
    Variant,
    find_parallel_kernels,
    optimize_source,
)
from repro.saturator.driver import optimize_ast
from repro.session import fingerprint_config

ACC_KERNEL = """
#pragma acc parallel loop gang
for (int i = 0; i < n; i++) {
#pragma acc loop vector(128)
  for (int j = 0; j < m; j++) {
    out[i][j] = w0 * in[i][j] + w1 * (in[i][j-1] + in[i][j+1]);
  }
}
"""

OMP_KERNEL = """
#pragma omp target teams distribute
for (int i = 0; i < n; i++) {
#pragma omp parallel for simd
  for (int j = 0; j < m; j++) {
    out[i][j] = w0 * in[i][j] + w1 * (in[i][j-1] + in[i][j+1]);
  }
}
"""


class TestVariant:
    def test_flags(self):
        assert not Variant.CSE.saturate and not Variant.CSE.bulk_load
        assert Variant.CSE_SAT.saturate and not Variant.CSE_SAT.bulk_load
        assert not Variant.CSE_BULK.saturate and Variant.CSE_BULK.bulk_load
        assert Variant.ACCSAT.saturate and Variant.ACCSAT.bulk_load

    def test_from_name(self):
        assert Variant.from_name("accsat") is Variant.ACCSAT
        assert Variant.from_name("cse+bulk") is Variant.CSE_BULK
        assert Variant.from_name("CSE_SAT") is Variant.CSE_SAT
        with pytest.raises(ValueError):
            Variant.from_name("fastest")

    def test_config_with_variant_copies_other_fields(self):
        config = SaturatorConfig(ruleset="fma-only", extraction="ilp")
        derived = config.with_variant(Variant.CSE)
        assert derived.variant is Variant.CSE
        assert derived.ruleset == "fma-only"
        assert derived.extraction == "ilp"


class TestConfigValidation:
    """A config checks itself when it is built, under every variant."""

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"ruleset": "bogus"}, "unknown ruleset"),
            ({"extraction": "tree"}, "unknown extraction method"),
            ({"scheduler": "bogus"}, "unknown scheduler spec"),
            ({"scheduler": "backoff:x"}, "invalid scheduler spec"),
            ({"anytime_interval": 0}, "anytime_interval"),
            ({"plateau_patience": 0}, "plateau_patience"),
            ({"extraction_time_limit": 0.0}, "extraction_time_limit"),
            ({"extraction_time_limit": -1}, "extraction_time_limit"),
            ({"extraction_time_limit": float("nan")}, "extraction_time_limit"),
            ({"temp_prefix": ""}, "not a C identifier"),
            ({"temp_prefix": "1"}, "not a C identifier"),
            ({"temp_prefix": "a b"}, "not a C identifier"),
            ({"temp_prefix": "_\u00e9"}, "not a C identifier"),
        ],
    )
    @pytest.mark.parametrize("variant", [Variant.CSE, Variant.ACCSAT], ids=lambda v: v.name)
    def test_bad_field_raises(self, variant, fields, message):
        with pytest.raises(ValueError, match=message):
            SaturatorConfig(variant=variant, **fields)

    def test_non_positive_limits_raise_before_any_run(self):
        with pytest.raises(ValueError, match="node_limit"):
            SaturatorConfig(variant=Variant.CSE, limits=RunnerLimits(0, -3, 0.0))
        for field in ("node_limit", "iter_limit", "time_limit"):
            with pytest.raises(ValueError, match=field):
                SaturatorConfig(limits=RunnerLimits(**{field: float("nan")}))

    def test_valid_spellings_build(self):
        for ruleset in ("default", "extended", "fma-only", "reassoc-only", "none"):
            SaturatorConfig(ruleset=ruleset)
        for scheduler in ("simple", "backoff:8:2", "match-budget:64", "budget"):
            SaturatorConfig(scheduler=scheduler)
        SaturatorConfig(extraction="ilp", extraction_time_limit=0.5)
        for prefix in ("_v", "_t", "tmp", "T_1"):
            SaturatorConfig(temp_prefix=prefix)

    def test_defaults_keep_their_digest(self):
        assert fingerprint_config(SaturatorConfig()) == (
            "c142f046d3d303dc2357f35b09d9e363de215342f6ed89cce2a635bcf151fb4b"
        )


class TestKernelDiscovery:
    def test_finds_openacc_kernel_and_innermost_loop(self):
        root = parse_statement(ACC_KERNEL)
        normalize_blocks(root)
        kernels = find_parallel_kernels(root)
        assert len(kernels) == 1
        kernel = kernels[0]
        # innermost parallel loop is the j loop; its body holds the stencil
        assert kernel.innermost.init.name == "j"
        assert len(kernel.directives) == 2

    def test_finds_openmp_kernel(self):
        root = parse_statement(OMP_KERNEL)
        normalize_blocks(root)
        kernels = find_parallel_kernels(root)
        assert len(kernels) == 1
        assert kernels[0].innermost.init.name == "j"

    def test_kernels_directive_descends_unannotated_nests(self):
        source = """
#pragma acc kernels loop independent
for (int i = 0; i < n; i++) {
  for (int j = 0; j < m; j++) {
    a[i][j] = 2.0 * b[i][j];
  }
}
"""
        root = parse_statement(source)
        normalize_blocks(root)
        kernels = find_parallel_kernels(root)
        assert kernels[0].innermost.init.name == "j"

    def test_sequential_code_has_no_kernels(self):
        root = parse_statement("for (int i = 0; i < n; i++) a[i] = 0.0;")
        assert find_parallel_kernels(root) == []

    def test_multiple_kernels_found_in_order(self):
        source = ACC_KERNEL + "\n" + ACC_KERNEL.replace("out", "out2")
        from repro.frontend.parser import parse

        root = parse(source)
        normalize_blocks(root)
        kernels = find_parallel_kernels(root)
        assert len(kernels) == 2
        assert kernels[0].name != kernels[1].name


class TestOptimizeSource:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_all_variants_preserve_semantics(self, variant):
        original = parse_statement(ACC_KERNEL)
        normalize_blocks(original)
        work = clone(original)
        optimize_ast(work, SaturatorConfig(variant=variant))
        assert verify_equivalence(original, work, trials=2).passed

    def test_openmp_source_supported(self):
        result = optimize_source(OMP_KERNEL, SaturatorConfig(variant=Variant.ACCSAT))
        assert len(result.kernels) == 1
        assert "_v0" in result.code
        assert "#pragma omp target teams distribute" in result.code

    def test_directives_and_loops_preserved_verbatim(self):
        result = optimize_source(ACC_KERNEL)
        assert "#pragma acc parallel loop gang" in result.code
        assert "#pragma acc loop vector(128)" in result.code
        assert result.code.count("for (") == 2

    def test_report_contains_timings_and_counts(self):
        result = optimize_source(ACC_KERNEL, SaturatorConfig(variant=Variant.ACCSAT))
        report = result.kernels[0]
        assert report.ssa_codegen_time >= 0.0
        assert report.saturation_time >= 0.0
        assert report.assignments >= 1
        assert report.egraph_nodes > 0
        assert report.runner is not None

    def test_cse_variant_skips_saturation(self):
        result = optimize_source(ACC_KERNEL, SaturatorConfig(variant=Variant.CSE))
        assert result.kernels[0].runner is None
        assert result.kernels[0].saturation_time == 0.0

    def test_ilp_extraction_end_to_end(self):
        config = SaturatorConfig(variant=Variant.ACCSAT, extraction="ilp")
        result = optimize_source(ACC_KERNEL, config)
        assert "_v0" in result.code

    def test_result_kernel_lookup(self):
        result = optimize_source(ACC_KERNEL, name_prefix="stencil")
        assert result.kernel("stencil_0").name == "stencil_0"
        with pytest.raises(KeyError):
            result.kernel("nope")


def _kernel(body):
    return f"#pragma acc parallel loop\nfor (int i = 0; i < n; i++) {{\n{body}\n}}\n"


def _equivalent(original_source, generated_source):
    original = parse_statement(original_source)
    generated = parse_statement(generated_source)
    return verify_equivalence(original, generated, trials=2)


class TestStatementsLeftAsWritten:
    """Statements the SSA builder cannot model stay verbatim and act as a
    barrier: whatever they assign is unknown afterwards."""

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("body", [
        "double x = 1.0; double y = 2.0; x = y = a[i]; out[i] = x + y;",
        "double y = 2.0; double x = y = a[i]; out[i] = x + y;",
        "s.n = 1; s.n++; out[i] = s.n;",
    ], ids=["chained-assign", "chained-assign-in-decl", "member-increment"])
    def test_impure_statement_rebinds_the_scalars_it_assigns(self, body, variant):
        source = _kernel(body)
        result = optimize_source(source, SaturatorConfig(variant=variant))
        verdict = _equivalent(source, result.code)
        assert verdict.passed, f"{verdict.message}\n{result.code}"

    @pytest.mark.parametrize("variant", list(Variant))
    def test_unsupported_rhs_rebinds_its_target(self, variant):
        source = _kernel("double x = 1.0; x = (p + 1)[i]; out[k] = x + 1.0;")
        result = optimize_source(source, SaturatorConfig(variant=variant))
        assert "x = (p + 1)[i];" in result.code
        # the interpreter has no pointer arithmetic: stand an executable
        # load in for the opaque one on both sides
        stand_in = lambda code: code.replace("(p + 1)[i]", "q[i]")
        verdict = _equivalent(stand_in(source), stand_in(result.code))
        assert verdict.passed, f"{verdict.message}\n{result.code}"

    def test_indirect_call_is_kept_verbatim_and_neighbours_still_optimise(self):
        source = _kernel(
            "double t = a[i] * b[i] + a[i] * b[i];\n"
            "x = ops.f(a[i]) + t;\n"
            "out[i] = x + c[i] * 2.0 + c[i] * 2.0;"
        )
        result = optimize_source(source, SaturatorConfig(variant=Variant.ACCSAT))
        assert "x = ops.f(a[i]) + t;" in result.code
        assert "<indirect>" not in result.code
        report = result.kernels[0]
        # both neighbours lost their repeated loads
        assert report.original.loads == 7
        assert report.optimized.loads == 3
        assert result.code.count("c[i]") == 1
