"""The array-version re-materialisation miscompile, as strict xfails.

A scalar computed from an *earlier version* of an array is rebuilt from
memory in a later straight-line group, *after* an intervening store, so
the generated kernel reads the stored value instead of the one the scalar
held.  Each shape below is compiled under every variant and executed
against the original with the interpreter oracle (``verify_equivalence``);
all 16 cases fail today.  They are ``xfail(strict=True)``: the fix (ROADMAP
item 1(a)) must turn every one into a pass and then drop the marker.
"""

import pytest

from repro.egraph.runner import RunnerLimits
from repro.frontend import parse_statement, print_c
from repro.frontend.cast import clone
from repro.frontend.normalize import normalize_blocks
from repro.interp import verify_equivalence
from repro.saturator import SaturatorConfig, Variant
from repro.saturator.driver import optimize_ast

#: The paper's node and iteration limits; the wall limit never binds.
LIMITS = RunnerLimits(10_000, 10, 300.0)

SHAPES = {
    "store-under-if": (
        "double t = a[i] * 2.0; if (c[i] > 0.0) { a[i] = 0.0; } "
        "out[i] = t + a[i] * 2.0;"
    ),
    "store-in-loop": (
        "double t = a[i] * 2.0; for (int j = 0; j < 2; j++) { a[i] = 0.0; } "
        "out[i] = t + a[i] * 2.0;"
    ),
    "store-under-nested-if": (
        "double t = a[i]; if (c[i] > 0.0) { if (b[i] > 0.0) { a[i] = t + 1.0; } } "
        "out[i] = a[i] + t;"
    ),
    "store-to-second-operand": (
        "double t = a[i] + b[i]; if (c[i] > 0.0) { b[i] = 0.0; } "
        "double u = a[i] + b[i]; out[i] = t + u;"
    ),
}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1(a): a scalar read before a store is rebuilt "
    "from memory after it",
)
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_scalar_from_an_earlier_array_version_keeps_its_value(shape, variant):
    source = (
        "#pragma acc parallel loop\n"
        f"for (int i = 0; i < n; i++) {{\n{SHAPES[shape]}\n}}\n"
    )
    original = parse_statement(source)
    normalize_blocks(original)
    work = clone(original)
    optimize_ast(work, SaturatorConfig(variant=variant, limits=LIMITS))
    result = verify_equivalence(original, work, trials=3)
    assert result.passed, f"{result.message}\n--- generated ---\n{print_c(work)}"
