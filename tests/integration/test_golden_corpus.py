"""Byte-identity gates over the 34-kernel corpus (paper Table II/III sources).

The committed goldens pin what the compile path produces:

* ``golden_code_sha256.json`` — SHA-256 of ``optimize_source(src, cfg,
  name).code`` for every corpus source under all four variants at the
  paper's §VII limits (10 000 e-nodes, 10 iterations): 136 hashes.  The
  end-to-end benchmark checks two variants and only sums; this compares
  every artifact.
* ``golden_outcomes.json`` — the 408 artifacts of 3 rule schedulers x 4
  variants x 34 sources.  The two non-saturating variants never consult
  the scheduler, so their 136 cells are the ``simple`` ones; the other
  272 are computed.  Each cell holds the code SHA-256 and, per kernel,
  ``[egraph_nodes, egraph_classes, extracted_cost, stop reason,
  iterations]`` (the last two ``null`` without a runner): a change that
  renumbers classes or reorders matches shows here under
  ``match-budget`` even when the default-config code does not move.
* ``golden_frontend_sha256.json`` — per source, the token count and the
  SHA-256 of the exact ``(kind, text, line, column)`` stream, and the
  SHA-256 of the parsed-and-reprinted source.
* ``golden_shapes_sha256.json`` — the code SHA-256 of 14 loop bodies that
  are not in the corpus (:data:`SHAPES`) under the same 8 scheduler x
  variant cells the outcome golden computes.  No corpus kernel has two
  bulk-load candidates with the same sort key; these shapes do (two loads
  of different memory versions both render as ``a[i]``), so this golden is
  the one that sees a change in the bulk-load tie order.  It pins bytes,
  not correctness: several of these shapes miscompile today (ROADMAP
  items 1 and 16), and fixing them moves their hashes on purpose.
* ``miscompile_ledger.json`` — whether each of those 14 shapes keeps its
  meaning (``pass``) or not (``miscompile``) under ``verify_equivalence``
  (3 trials) in 10 columns: CSE, CSE+BULK, and CSE+SAT and ACCSAT each
  under ``simple``, ``backoff``, ``match-budget`` and ``simple`` with
  anytime extraction.  Any cell that flips fails, a fix included: a fix
  rewrites the ledger and :data:`MISCOMPILES`, its pinned total.

A hash that moves means the change altered generated code (or the token
stream / AST): either the change is wrong, or the new output is intended —
then bump ``ENGINE_SCHEMA`` if cached artifacts are affected, record the
reason in CHANGES.md and regenerate with::

    PYTHONPATH=src python tests/integration/test_golden_corpus.py --write
"""

import functools
import hashlib
import json
import os
import sys

import pytest

from repro.benchsuite.registry import NPB_BENCHMARKS, SPEC_ACC_BENCHMARKS
from repro.egraph.runner import RunnerLimits
from repro.frontend import parse_statement
from repro.frontend.cast import clone
from repro.frontend.lexer import tokenize
from repro.frontend.normalize import normalize_blocks
from repro.frontend.parser import parse
from repro.frontend.printer import print_c
from repro.interp import verify_equivalence
from repro.saturator import SaturatorConfig, Variant, optimize_source
from repro.saturator.driver import optimize_ast

HERE = os.path.dirname(os.path.abspath(__file__))
CODE_GOLDEN = os.path.join(HERE, "golden_code_sha256.json")
FRONTEND_GOLDEN = os.path.join(HERE, "golden_frontend_sha256.json")
OUTCOME_GOLDEN = os.path.join(HERE, "golden_outcomes.json")
SHAPE_GOLDEN = os.path.join(HERE, "golden_shapes_sha256.json")
LEDGER = os.path.join(HERE, "miscompile_ledger.json")

#: The paper's node and iteration limits; the wall limit never binds, so
#: every artifact is a pure function of (source, config).
LIMITS = RunnerLimits(10_000, 10, 300.0)


def corpus():
    """``(request name, source)`` of the distinct kernel sources, suite order."""

    seen = {}
    for bench in NPB_BENCHMARKS + SPEC_ACC_BENCHMARKS:
        for spec in bench.kernels:
            seen.setdefault(spec.source, f"{bench.name}_{spec.name}")
    return [(name, source) for source, name in seen.items()]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


SCHEDULERS = ("simple", "backoff", "match-budget")
#: The variants whose artifacts depend on the rule scheduler.
SATURATING = (Variant.CSE_SAT, Variant.ACCSAT)


@functools.lru_cache(maxsize=None)
def _results(variant: Variant, scheduler: str = "simple"):
    config = SaturatorConfig(variant=variant, limits=LIMITS, scheduler=scheduler)
    return tuple(
        (name, optimize_source(source, config, name)) for name, source in corpus()
    )


def code_hashes(variant: Variant):
    return {name: _sha(result.code) for name, result in _results(variant)}


def _cell(result):
    return {
        "code": _sha(result.code),
        "kernels": [
            [
                k.egraph_nodes,
                k.egraph_classes,
                k.extracted_cost,
                None if k.runner is None else k.runner.stop_reason.value,
                None if k.runner is None else k.runner.num_iterations,
            ]
            for k in result.kernels
        ],
    }


def outcome_cells():
    """``(scheduler, variant)`` pairs whose artifacts are computed."""

    return [
        (s, v) for s in SCHEDULERS for v in Variant if s == "simple" or v in SATURATING
    ]


def outcomes(scheduler: str, variant: Variant):
    return {name: _cell(result) for name, result in _results(variant, scheduler)}


#: Loop bodies outside the corpus, each compiled under ``#pragma acc
#: parallel loop`` over ``i``: the four shapes of the array-version
#: re-materialisation miscompile (a scalar computed from an earlier
#: version of an array is rebuilt from memory after an intervening
#: store), the fully spelled array shapes of ROADMAP's miscompile probe,
#: and the three scalar out-of-SSA shapes (swap, lost copy, copy of a φ
#: value).
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
    "reassign-after-store": (
        "double t = a[i]*2.0; if (c[i]>0.0) { a[i] = 0.0; } "
        "double x = t*3.0; t = b[i]; out[i] = x + t;"
    ),
    "swap-after-store": (
        "double t = a[i]+1.0; double u = b[i]+1.0; "
        "if (c[i] > 0.0) { a[i] = 0.0; } "
        "double s = t; t = u; u = s; out[i] = t - u;"
    ),
    "reload-after-store": (
        "double t = a[i]*2.0; if (c[i] > 0.0) { a[i] = 1.0; } "
        "double u = a[i]*2.0; t = u + t; out[i] = t + a[i]*2.0;"
    ),
    "store-of-derived-value": (
        "double t = a[i]*2.0; if (c[i] > 0.0) { double t2 = t + 1.0; a[i] = t2; } "
        "out[i] = t + a[i];"
    ),
    "phi-then-store": (
        "double t = a[i]; if (c[i] > 0.0) { t = b[i]; a[i] = 2.0; } "
        "double u = t*2.0; t = 0.0; out[i] = u + t + a[i];"
    ),
    "store-in-carried-loop": (
        "double t = a[i]; for (int j = 0; j < 3; j++) { t = t*0.5 + b[i]; a[i] = t; } "
        "out[i] = t + a[i];"
    ),
    "store-to-other-array": (
        "double t = a[i]*b[i]; if (c[i] > 0.0) { out[i] = 1.0; } "
        "double u = a[i]*b[i] + t; out[i] = u;"
    ),
    "scalar-swap": "double s = p; p = q; q = s; out[i] = p - q;",
    "scalar-lost-copy": "double u = p; p = q + 1.0; out[i] = u * p;",
    "scalar-phi-copy": (
        "double t = a[i]; if (c[i] > 0.0) { t = b[i]; } "
        "double u = t; t = 0.0; out[i] = u + t;"
    ),
}


def _shape_source(body: str) -> str:
    return f"#pragma acc parallel loop\nfor (int i = 0; i < n; i++) {{\n{body}\n}}\n"


def shape_hashes(scheduler: str, variant: Variant):
    config = SaturatorConfig(variant=variant, limits=LIMITS, scheduler=scheduler)
    return {
        name: _sha(optimize_source(_shape_source(body), config, "shape").code)
        for name, body in sorted(SHAPES.items())
    }


#: Ledger column name -> (variant, scheduler, anytime extraction).
LEDGER_COLUMNS = {
    "cse": (Variant.CSE, "simple", False),
    "cse+bulk": (Variant.CSE_BULK, "simple", False),
    **{
        f"{scheduler}{'+anytime' if anytime else ''}/{variant.value}": (
            variant, scheduler, anytime,
        )
        for variant in SATURATING
        for scheduler, anytime in (
            ("simple", False), ("backoff", False), ("match-budget", False),
            ("simple", True),
        )
    },
}
#: Ledger cells that miscompile; a fix lowers it on purpose.
MISCOMPILES = 118


def ledger_column(column: str):
    """``{shape: "pass" | "miscompile"}`` of one ledger column."""

    variant, scheduler, anytime = LEDGER_COLUMNS[column]
    config = SaturatorConfig(
        variant=variant, limits=LIMITS, scheduler=scheduler,
        anytime_extraction=anytime,
    )
    out = {}
    for name, body in sorted(SHAPES.items()):
        original = parse_statement(_shape_source(body))
        normalize_blocks(original)
        work = clone(original)
        optimize_ast(work, config)
        passed = verify_equivalence(original, work, trials=3).passed
        out[name] = "pass" if passed else "miscompile"
    return out


def frontend_hashes():
    out = {}
    for name, source in corpus():
        tokens = tokenize(source)
        stream = "\n".join(
            f"{t.kind.value}\t{t.text}\t{t.line}\t{t.column}" for t in tokens
        )
        out[name] = {
            "tokens": len(tokens),
            "token_stream": _sha(stream),
            "printed": _sha(print_c(parse(source))),
        }
    return out


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_corpus_is_the_34_benchmark_sources():
    assert len(corpus()) == 34
    assert len(_load(FRONTEND_GOLDEN)) == 34
    assert {len(v) for v in _load(CODE_GOLDEN).values()} == {34}


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.name)
def test_generated_code_is_byte_identical_to_golden(variant):
    golden = _load(CODE_GOLDEN)[variant.value]
    actual = code_hashes(variant)
    moved = sorted(name for name in golden if actual.get(name) != golden[name])
    assert not moved and set(actual) == set(golden), (
        f"{variant.name}: generated code changed for {moved}"
    )


def test_golden_outcomes_cover_408_artifacts():
    golden = _load(OUTCOME_GOLDEN)
    assert sorted(golden) == sorted(f"{s}/{v.value}" for s, v in outcome_cells())
    computed = sum(len(cells) for cells in golden.values())
    shared = len(SCHEDULERS[1:]) * (len(Variant) - len(SATURATING)) * 34
    assert computed + shared == 408


@pytest.mark.parametrize(
    "scheduler,variant", outcome_cells(), ids=lambda x: getattr(x, "name", x)
)
def test_outcomes_are_identical_to_golden(scheduler, variant):
    golden = _load(OUTCOME_GOLDEN)[f"{scheduler}/{variant.value}"]
    actual = outcomes(scheduler, variant)
    moved = sorted(name for name in golden if actual.get(name) != golden[name])
    assert not moved and set(actual) == set(golden), (
        f"{scheduler}/{variant.name}: outcome changed for {moved}"
    )


@pytest.mark.parametrize(
    "scheduler,variant", outcome_cells(), ids=lambda x: getattr(x, "name", x)
)
def test_non_corpus_shapes_are_byte_identical_to_golden(scheduler, variant):
    golden = _load(SHAPE_GOLDEN)
    assert sorted(golden) == sorted(f"{s}/{v.value}" for s, v in outcome_cells())
    golden = golden[f"{scheduler}/{variant.value}"]
    actual = shape_hashes(scheduler, variant)
    moved = sorted(name for name in golden if actual.get(name) != golden[name])
    assert not moved and set(actual) == set(golden), (
        f"{scheduler}/{variant.name}: generated code changed for {moved}"
    )


@pytest.mark.parametrize("column", sorted(LEDGER_COLUMNS))
def test_miscompile_ledger_cells_are_unchanged(column):
    ledger = _load(LEDGER)
    assert sorted(ledger) == sorted(LEDGER_COLUMNS)
    assert {len(cells) for cells in ledger.values()} == {len(SHAPES)} == {14}
    total = sum(v == "miscompile" for cells in ledger.values() for v in cells.values())
    assert total == MISCOMPILES, f"the ledger holds {total} miscompiles"
    actual = ledger_column(column)
    flipped = sorted(name for name in ledger[column] if actual.get(name) != ledger[column][name])
    assert not flipped and set(actual) == set(ledger[column]), (
        f"{column}: verdict changed for {flipped}"
    )


def test_token_streams_and_reprinted_sources_match_golden():
    golden = _load(FRONTEND_GOLDEN)
    actual = frontend_hashes()
    moved = sorted(name for name in golden if actual.get(name) != golden[name])
    assert not moved and set(actual) == set(golden), (
        f"lexer/parser output changed for {moved}"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    for path, payload in (
        (CODE_GOLDEN, {v.value: code_hashes(v) for v in Variant}),
        (FRONTEND_GOLDEN, frontend_hashes()),
        (
            OUTCOME_GOLDEN,
            {f"{s}/{v.value}": outcomes(s, v) for s, v in outcome_cells()},
        ),
        (
            SHAPE_GOLDEN,
            {f"{s}/{v.value}": shape_hashes(s, v) for s, v in outcome_cells()},
        ),
        (LEDGER, {column: ledger_column(column) for column in LEDGER_COLUMNS}),
    ):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
