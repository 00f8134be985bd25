#!/usr/bin/env python3
"""Caller census: which ``src/repro`` functions does the product never enter?

Runs the product's entry points under the stdlib profiler
(``sys.setprofile`` plus ``threading.setprofile`` for worker threads) and
lists every function or method defined under ``src/repro`` whose code
object was never entered, with its file, first line and length.  The
entry points:

* the corpus — the distinct kernels of the paper's NPB + SPEC ACCEL
  suites — through ``optimize_source`` under all four variants at the
  paper's limits (10 000 e-nodes, 10 iterations);
* the same corpus through a 2-worker thread ``OptimizationService``;
* the figure/table harnesses (``repro.experiments``);
* ``accsat FILE`` and ``accsat serve`` on corpus kernels;
* ``accsat`` once per non-default option set (:data:`OPTION_SETS`: the
  ILP, both non-default schedulers, anytime extraction, and two process
  workers with a trace) on the two smallest kernels at small limits.

A function missing from the run is a deletion candidate, not a verdict:
error paths and defensive branches show up too.  Tests are deliberately
not an entry point.

Usage::

    PYTHONPATH=src python benchmarks/census.py                 # full corpus
    PYTHONPATH=src python benchmarks/census.py --kernels 4 -o census.json
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
sys.path.insert(0, str(SRC))

#: The paper's §VII node/iteration limits; the wall limit is raised so it
#: never binds and every run takes the same path.
PAPER_LIMITS = (10_000, 10, 300.0)

#: One ``accsat`` run per entry (the ``options`` step); ``{trace}`` is
#: replaced by a trace path in the census's scratch directory.
OPTION_SETS = (
    ("--extraction", "ilp"),
    ("--scheduler", "backoff"),
    ("--scheduler", "match-budget"),
    ("--anytime",),
    ("-j", "2", "--executor", "process", "--trace", "{trace}"),
)


def defined_functions() -> Dict[Tuple[str, int], Tuple[str, int]]:
    """``(abs path, first line) -> (qualified name, length in lines)``.

    The first line is the one the code object reports as
    ``co_firstlineno``: the first decorator's line for decorated functions.
    """

    out: Dict[Tuple[str, int], Tuple[str, int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    name = prefix + child.name
                    out[(str(path), first)] = (name, child.end_lineno - first + 1)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return out


class Census:
    """Collects every code object entered while active, in any thread."""

    def __init__(self) -> None:
        self.codes: Set[object] = set()

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            self.codes.add(frame.f_code)

    def __enter__(self) -> "Census":
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def entered(self) -> Set[Tuple[str, int]]:
        return {
            (os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in self.codes
        }


def corpus(kernels: Optional[int]) -> List[Tuple[str, str]]:
    """Distinct ``(name, source)`` kernels in suite order.

    ``kernels`` keeps only that many of the shortest sources.
    """

    from repro.benchsuite.registry import NPB_BENCHMARKS, SPEC_ACC_BENCHMARKS

    out: List[Tuple[str, str]] = []
    seen: Set[str] = set()
    for bench in NPB_BENCHMARKS + SPEC_ACC_BENCHMARKS:
        for spec in bench.kernels:
            if spec.source not in seen:
                seen.add(spec.source)
                out.append((f"{bench.name}_{spec.name}", spec.source))
    if kernels is not None:
        keep = {name for name, src in sorted(out, key=lambda r: (len(r[1]), r[0]))[:kernels]}
        out = [item for item in out if item[0] in keep]
    return out


def run_corpus(sources: List[Tuple[str, str]]) -> None:
    from repro.egraph.runner import RunnerLimits
    from repro.saturator import SaturatorConfig, Variant, optimize_source

    for variant in Variant:
        config = SaturatorConfig(variant=variant, limits=RunnerLimits(*PAPER_LIMITS))
        for _, source in sources:
            optimize_source(source, config)


def run_service(sources: List[Tuple[str, str]]) -> None:
    from repro.egraph.runner import RunnerLimits
    from repro.saturator import SaturatorConfig
    from repro.service import OptimizationService

    config = SaturatorConfig(limits=RunnerLimits(*PAPER_LIMITS))
    with OptimizationService(config=config, workers=2, executor="thread") as service:
        # every source twice: the second submission coalesces or hits the cache
        handles = service.submit_many([src for _, src in sources] * 2)
        for handle in handles:
            handle.result(timeout=600)


def run_harnesses(quick: bool) -> None:
    from repro.experiments import (
        EvaluationSettings,
        figure2,
        figure3,
        figure4,
        figure5,
        figure6,
        table1,
        table2,
        table3,
        table4,
    )

    # the quick mode keeps every harness code path but saturates one round
    settings = EvaluationSettings(iter_limit=1) if quick else EvaluationSettings()
    table1.run()
    for module in (figure2, figure3, figure4, figure5, figure6, table2, table3, table4):
        module.run(settings=settings)


def run_cli(sources: List[Tuple[str, str]], workdir: Path) -> None:
    from repro.cli import main

    files = []
    for name, source in sources[:2]:
        path = workdir / f"{name}.c"
        path.write_text(source, encoding="utf-8")
        files.append(str(path))
    out = workdir / "out.sat.c"
    for path in files:
        main([path, "-o", str(out), "--report", str(workdir / "report.json"), "--quiet"])
    main(["serve", "--workers", "2", "--no-write", "--quiet",
          "--report", str(workdir / "serve.json"), *files, *files])


def run_options(sources: List[Tuple[str, str]], workdir: Path) -> None:
    from repro.cli import main

    smallest = sorted(sources, key=lambda r: (len(r[1]), r[0]))[:2]
    files = []
    for name, source in smallest:
        path = workdir / f"opt_{name}.c"
        path.write_text(source, encoding="utf-8")
        files.append(str(path))
    trace = str(workdir / "trace.jsonl")
    for options in OPTION_SETS:
        # two inputs, so each writes <input>.sat.c next to it in workdir
        main([*files, "--quiet",
              "--node-limit", "600", "--iter-limit", "3",
              *(item.format(trace=trace) for item in options)])


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kernels", type=int, default=None,
                        help="use only the N shortest corpus kernels and one-round "
                             "harness saturation (a cheap subset)")
    parser.add_argument("-o", "--output", help="write the census as JSON")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    sources = corpus(args.kernels)
    timings: Dict[str, float] = {}
    with tempfile.TemporaryDirectory() as tmp, Census() as census:
        for label, step in (
            ("corpus", lambda: run_corpus(sources)),
            ("service", lambda: run_service(sources)),
            ("harnesses", lambda: run_harnesses(args.kernels is not None)),
            ("cli", lambda: run_cli(sources, Path(tmp))),
            ("options", lambda: run_options(sources, Path(tmp))),
        ):
            t0 = time.perf_counter()
            step()
            timings[label] = time.perf_counter() - t0
            print(f"census: {label} done in {timings[label]:.1f} s", file=sys.stderr)

    defined = defined_functions()
    entered = census.entered()
    missing = [
        {"file": os.path.relpath(path, ROOT), "line": line, "name": name, "length": length}
        for (path, line), (name, length) in sorted(defined.items())
        if (path, line) not in entered
    ]
    for row in missing:
        print(f"{row['file']}:{row['line']}\t{row['name']}\t{row['length']} lines")
    print(
        f"{len(missing)} of {len(defined)} functions never entered "
        f"({sum(row['length'] for row in missing)} lines); "
        f"{len(sources)} kernels"
    )
    if args.output:
        Path(args.output).write_text(json.dumps({
            "kernels": len(sources),
            "seconds": timings,
            "functions": len(defined),
            "never_entered": missing,
        }, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
