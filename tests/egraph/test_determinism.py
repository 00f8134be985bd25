"""Cross-process reproducibility of saturation outcomes.

Per-class match buckets used to be iterated in ``Set[ENode]`` order, which
hashes strings — so two processes (different ``PYTHONHASHSEED``) applied
matches in different orders, and a node-limit stop froze *different*
e-graphs.  The sorted buckets in ``EGraph.nodes_by_op`` make the whole
pipeline a pure function of (source, config), which the content-addressed
artifact cache relies on.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

#: A kernel rich enough to blow a tiny node limit mid-saturation.
_SCRIPT = textwrap.dedent(
    """
    import hashlib
    from repro.egraph.runner import RunnerLimits
    from repro.saturator import SaturatorConfig, Variant, optimize_source

    SOURCE = '''
    #pragma acc parallel loop gang
    for (int i = 1; i < n; i++) {
      out[i] = w0 * a[i] + w1 * a[i-1] + w2 * a[i+1]
             + w0 * b[i] + w1 * b[i-1] + w2 * b[i+1]
             + w0 * a[i] * b[i];
    }
    '''
    config = SaturatorConfig(
        variant=Variant.CSE_SAT, limits=RunnerLimits(60, 5, 5.0)
    )
    result = optimize_source(SOURCE, config)
    kernel = result.kernels[0]
    assert kernel.runner.stop_reason.value == "node_limit", (
        "the fixture must hit the node limit to exercise truncation"
    )
    digest = hashlib.sha256(result.code.encode()).hexdigest()
    print(digest, kernel.egraph_nodes, kernel.egraph_classes, kernel.extracted_cost)
    """
)

#: The same kernel under a tightly parameterised backoff scheduler: the
#: tiny match threshold forces real bans mid-run, so the digest covers
#: the scheduler's skip/drop decisions as well as the match order.
_BACKOFF_SCRIPT = textwrap.dedent(
    """
    import hashlib
    from repro.egraph.runner import RunnerLimits
    from repro.saturator import SaturatorConfig, Variant, optimize_source

    SOURCE = '''
    #pragma acc parallel loop gang
    for (int i = 1; i < n; i++) {
      out[i] = w0 * a[i] + w1 * a[i-1] + w2 * a[i+1]
             + w0 * b[i] + w1 * b[i-1] + w2 * b[i+1]
             + w0 * a[i] * b[i];
    }
    '''
    config = SaturatorConfig(
        variant=Variant.CSE_SAT, limits=RunnerLimits(400, 8, 5.0),
        scheduler="backoff:16:2",
    )
    result = optimize_source(SOURCE, config)
    kernel = result.kernels[0]
    assert kernel.runner.scheduler == "backoff"
    searches = sorted(
        (name, rs.searches, rs.matches, rs.applied)
        for name, rs in kernel.runner.rule_stats.items()
    )
    digest = hashlib.sha256(result.code.encode()).hexdigest()
    print(digest, kernel.egraph_nodes, kernel.egraph_classes,
          kernel.extracted_cost, searches)
    """
)

#: The reference matcher's match lists for every default rule over a small
#: saturated graph: classes holding several same-op nodes (commuted sums)
#: are where a hash-ordered node walk would reorder the matches.
_REFERENCE_SCRIPT = textwrap.dedent(
    """
    from repro.egraph.egraph import EGraph
    from repro.egraph.language import op, sym
    from repro.egraph.runner import Runner, RunnerLimits
    from repro.rules import default_ruleset

    eg = EGraph()
    eg.add_term(op("+", op("*", sym("a"), sym("b")),
                   op("*", sym("c"), op("+", sym("a"), sym("d")))))
    rules = default_ruleset()
    Runner(eg, rules, RunnerLimits(300, 3, 5.0)).run()
    for rule in rules:
        print(rule.name, rule.searcher.search_naive(eg))
    """
)


def _run_with_hash_seed(seed: str, script: str = _SCRIPT) -> str:
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_node_limited_saturation_is_hash_seed_independent():
    outputs = {_run_with_hash_seed(seed) for seed in ("0", "1", "12345")}
    assert len(outputs) == 1, f"outcomes diverged across hash seeds: {outputs}"


def test_backoff_scheduled_saturation_is_hash_seed_independent():
    """Backoff runs must be byte-identical across processes: the ban
    decisions hang off deterministically ordered match counts, so the
    generated code, the truncated e-graph, and the per-rule search/ban
    history all reproduce under any PYTHONHASHSEED."""

    outputs = {
        _run_with_hash_seed(seed, _BACKOFF_SCRIPT) for seed in ("0", "1", "12345")
    }
    assert len(outputs) == 1, f"backoff outcomes diverged across hash seeds: {outputs}"


def test_reference_matcher_order_is_hash_seed_independent():
    """``search_naive`` is the executable spec of match *order*, so its
    match list (not just the match set) must reproduce across processes."""

    outputs = {
        _run_with_hash_seed(seed, _REFERENCE_SCRIPT) for seed in ("0", "1", "12345")
    }
    assert len(outputs) == 1, "reference match order diverged across hash seeds"
