"""Smoke test of the end-to-end benchmark harness (collected by tier-1).

Runs every workload in-process with one round over the six shortest
kernels, so the harness cannot rot unnoticed: the output schema must match
``BENCHMARK.json``, the staged replay must be byte-identical to
``optimize_source``, the service counters must hit their constants, and
nothing may fail.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (HERE, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.saturator import Variant, optimize_source  # noqa: E402

from e2e_bench.check import verify_outputs  # noqa: E402
from e2e_bench.corpus import build_corpus, config_for  # noqa: E402
from e2e_bench.measure import run_workload  # noqa: E402
from e2e_bench.replay import replay_optimize_source  # noqa: E402
from e2e_bench.spans import Recorder  # noqa: E402
from e2e_bench.workloads import EXACT_COUNTERS, HOT_DRAWS, WORKLOADS  # noqa: E402

KERNELS = 6

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(workload, trace):
    return run_workload(
        workload, seed=0, seconds=1, rounds=1, trace=trace, kernels=KERNELS
    )


def test_spec_names_the_workloads_and_setup_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    end_to_end = {m["name"]: m for m in SPEC["end_to_end"]}
    assert end_to_end["setup_s"]["unit"] == "s"
    assert end_to_end["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_run(workload):
    report = _run(workload, trace=False)
    assert report["failures"] == []
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] == report["requests_per_round"]
    metrics = report["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    # the driver divides by these medians
    assert all(value > 0 for value in metrics.values())
    json.dumps(report)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run(workload):
    report = _run(workload, trace=True)
    # ``correct`` covers the staged replay: traced rounds must return the
    # bytes and counts of the untraced ones
    assert report["failures"] == []
    metrics = report["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["interp.oracle_skipped"] == 2
    assert metrics["interp.kernels_verified"] == KERNELS - 2
    assert [row["kernel"] for row in report["rows"]] == [
        request.name for request in build_corpus(KERNELS)
    ]
    counters = {name: metrics[f"service.{name}"] for name in EXACT_COUNTERS}
    expected = dict.fromkeys(EXACT_COUNTERS, 0)
    if workload == "serve_process_cold":
        expected["pipeline_runs"] = KERNELS
        assert metrics["session.cache_puts"] == KERNELS
        assert metrics["egraph.nodes_final"] > 0  # from the solo replay pass
    elif workload == "serve_thread_hot":
        expected["cache_hits"] = KERNELS
        expected["coalesced"] = HOT_DRAWS - KERNELS
        assert metrics["session.cache_hit_ratio"] == 1.0
        assert metrics["egraph.nodes_final"] == 0  # no pipeline run in a round
    else:
        assert metrics["saturator.kernels"] == KERNELS
        assert metrics["bench.coverage_ratio"] > 0.8
        saturating = workload == "compile_accsat"
        assert (metrics["egraph.iterations"] > 0) == saturating
    assert counters == expected


@pytest.mark.parametrize("variant", [Variant.ACCSAT, Variant.CSE])
def test_staged_replay_is_byte_identical(variant):
    config = config_for(variant)
    for request in build_corpus(KERNELS):
        replayed, build_nodes = replay_optimize_source(
            request.source, config, request.name, Recorder(), request.name
        )
        direct = optimize_source(request.source, config, request.name)
        assert replayed.code == direct.code
        assert [k.extracted_cost for k in replayed.kernels] == [
            k.extracted_cost for k in direct.kernels
        ]
        assert build_nodes > 0


def test_oracle_rejects_wrong_code():
    corpus = build_corpus(KERNELS)
    config = config_for(Variant.CSE)
    results = {r.name: optimize_source(r.source, config, r.name) for r in corpus}
    failures, verified, skipped, _ = verify_outputs(corpus, results, seed=0)
    assert (failures, verified, len(skipped)) == ([], KERNELS - 2, 2)
    # hand the axpy kernel the code generated for the norm kernel
    results["CG_cg_axpy"] = results["CG_cg_norm"]
    failures, _, _, _ = verify_outputs(corpus, results, seed=0)
    assert len(failures) == 1 and failures[0].startswith("CG_cg_axpy")
