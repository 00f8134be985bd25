"""Command-line interface: the ``accsat`` tool.

The paper ships ``accsat`` as a wrapper around a normal C-compiler
invocation (``accsat nvc -O3 kernel.c``).  Offline we cannot invoke NVHPC /
GCC / Clang, so the reproduction's CLI focuses on the part the paper's tool
actually owns: reading OpenACC/OpenMP C, optimizing every kernel, and
writing the saturated source (plus an optional JSON report).  When the
first positional argument looks like a compiler name it is accepted and
recorded in the report for fidelity with the original command line, but no
compiler is spawned.

Examples::

    accsat kernel.c -o kernel.sat.c
    accsat --variant cse+bulk --report report.json nvc kernel.c
    accsat --emit-report-only --variant accsat kernel.c
    accsat --trace trace.json kernel.c
    accsat -j 2 --executor process a.c b.c

Both modes run every input file as a job of a concurrent
:class:`~repro.service.OptimizationService` (duplicate inputs coalesce onto
one pipeline run).  ``accsat serve`` adds the service's knobs:
per-iteration saturation progress can be streamed with ``--stream``, and
the run ends with a service-stats summary::

    accsat serve --workers 4 --anytime kernels/*.c
    accsat serve --workers 8 --cache-dir /tmp/cache --report stats.json a.c a.c b.c
    accsat serve --executor process --workers 2 --cache-dir /tmp/cache kernels/*.c
    accsat serve --trace trace.json --report stats.json kernels/*.c

``--executor process`` runs each job in a supervised worker *process*
instead of a thread: a worker that crashes or hangs is detected, its
orphaned job is requeued through the retry path, and the pool respawns.

``--trace FILE`` (both modes) writes a structured trace of the run: a
JSONL span/event log at FILE (validated by ``benchmarks/check_trace.py``)
plus a Chrome trace-event file next to it (``FILE`` ->
``FILE.chrome.json``, loadable in chrome://tracing or Perfetto).  The
trace covers the full job lifecycle — queued, attempts, retries,
degradation, injected faults — with worker spans collected across the
process boundary; in serve mode ``--report`` additionally embeds the
unified ``MetricsRegistry.snapshot()`` under ``"metrics"``.  Tracing is
strictly observational: outputs are byte-identical to an untraced run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.egraph.runner import RunnerLimits
from repro.egraph.schedule import make_scheduler
from repro.saturator import SaturatorConfig, Variant
from repro.service import JobState, OptimizationService, ServiceOverloadedError
from repro.session import DiskCache, MemoryCache, OptimizationSession, TieredCache

__all__ = ["build_arg_parser", "build_serve_parser", "main", "serve_main"]

_KNOWN_COMPILERS = {"nvc", "nvcc", "gcc", "cc", "clang", "icc", "pgcc"}


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    """Pipeline-configuration options shared by the optimize and serve modes."""

    parser.add_argument(
        "--variant",
        default="accsat",
        help="generated-code variant: cse, cse+sat, cse+bulk, accsat (default)",
    )
    parser.add_argument(
        "--ruleset",
        default="default",
        help="rewrite rule set: default, extended, fma-only, reassoc-only, none",
    )
    parser.add_argument(
        "--extraction",
        default="dag-greedy",
        choices=["dag-greedy", "tree", "ilp"],
        help="extraction method (default: dag-greedy)",
    )
    parser.add_argument("--node-limit", type=int, default=10_000,
                        help="e-node limit for saturation (default 10000)")
    parser.add_argument("--iter-limit", type=int, default=10,
                        help="iteration limit for saturation (default 10)")
    parser.add_argument("--time-limit", type=float, default=10.0,
                        help="saturation time limit in seconds (default 10); a "
                             "limit that binds stops at an iteration boundary "
                             "and returns a degraded result that is never "
                             "cached")
    parser.add_argument(
        "--scheduler",
        default="simple",
        help="rule scheduler: simple (default), backoff[:MATCH_LIMIT[:BAN_LENGTH]] "
             "or match-budget[:BUDGET]",
    )
    parser.add_argument(
        "--anytime",
        action="store_true",
        help="extract in-loop every iteration and stop saturating once the "
             "extracted cost plateaus (see --plateau-patience)",
    )
    parser.add_argument(
        "--plateau-patience", type=int, default=3,
        help="with --anytime: consecutive non-improving extractions before "
             "stopping (default 3)",
    )


def _config_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> SaturatorConfig:
    """Validate the shared options and build the :class:`SaturatorConfig`."""

    try:
        variant = Variant.from_name(args.variant)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        make_scheduler(args.scheduler)  # fail fast on a bad spelling
    except ValueError as exc:
        parser.error(str(exc))
    if args.plateau_patience < 1:
        parser.error("--plateau-patience must be at least 1")
    return SaturatorConfig(
        variant=variant,
        ruleset=args.ruleset,
        extraction=args.extraction,
        limits=RunnerLimits(args.node_limit, args.iter_limit, args.time_limit),
        scheduler=args.scheduler,
        anytime_extraction=args.anytime,
        plateau_patience=args.plateau_patience,
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accsat",
        description="Equality-saturation optimizer for OpenACC/OpenMP C kernels "
                    "(ACC Saturator reproduction).",
    )
    parser.add_argument(
        "inputs",
        nargs="+",
        help="input C file(s); an optional leading compiler name (nvc/gcc/clang) "
             "is accepted and ignored",
    )
    parser.add_argument("-o", "--output", help="output file (default: <input>.sat.c)")
    _add_config_options(parser)
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="optimize input files in parallel with N service workers "
             "(default 1)",
    )
    parser.add_argument(
        "--executor", default="thread", choices=["thread", "process"],
        help="service worker backend: 'thread' runs files on worker threads "
             "in this process; 'process' runs each file in a supervised "
             "worker process (default: thread)",
    )
    parser.add_argument(
        "--cache-dir",
        help="content-addressed artifact cache directory; re-runs over "
             "unchanged source+configuration reuse the cached result",
    )
    parser.add_argument("--report", help="write a JSON report of per-kernel statistics")
    parser.add_argument(
        "--emit-report-only",
        action="store_true",
        help="print the per-kernel report to stdout instead of writing code",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    parser.add_argument(
        "--trace",
        help="write a structured trace of the run: a JSONL span/event log "
             "at FILE (one job span per file, worker spans collected across "
             "the process boundary) plus a Chrome trace-event file "
             "(chrome://tracing / Perfetto) next to it; tracing is "
             "observational only — outputs are byte-identical to an "
             "untraced run",
    )
    return parser


def _split_inputs(inputs: Sequence[str]) -> tuple[Optional[str], List[Path]]:
    """Separate an optional leading compiler name from the input files."""

    compiler: Optional[str] = None
    files: List[Path] = []
    for index, item in enumerate(inputs):
        if index == 0 and item in _KNOWN_COMPILERS:
            compiler = item
            continue
        files.append(Path(item))
    return compiler, files


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``accsat FILE...``: one service job per input file.

    The readable files are submitted, in input order, to one
    :class:`~repro.service.OptimizationService` with ``--jobs`` workers on
    the ``--executor`` backend, and written back in the same order; traced
    and untraced runs take this same path.
    """

    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    parser = build_arg_parser()
    args = parser.parse_args(argv)

    compiler, files = _split_inputs(args.inputs)
    if not files:
        parser.error("no input files given")

    config = _config_from_args(parser, args)
    variant = config.variant

    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    session = OptimizationSession(
        config, DiskCache(args.cache_dir) if args.cache_dir else None
    )

    overall_report = {
        "compiler": compiler,
        "variant": variant.value,
        "files": [],
    }

    exit_code = 0
    readable: List[Path] = []
    sources: List[str] = []
    for path in files:
        if not path.exists():
            print(f"accsat: error: no such file: {path}", file=sys.stderr)
            exit_code = 1
            continue
        readable.append(path)
        sources.append(path.read_text())

    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()

    # every file is one job: submitted in input order before the workers
    # start (so duplicate inputs coalesce deterministically), resolved in
    # the same order
    service = OptimizationService(
        session=session, workers=min(args.jobs, max(1, len(sources))),
        executor=args.executor, tracer=tracer,
    )
    handles = [
        service.submit(source, name_prefix=path.stem)
        for source, path in zip(sources, readable)
    ]
    with service:
        results = [handle.result() for handle in handles]

    for path, result in zip(readable, results):
        file_report = {
            "input": str(path),
            "kernels": [k.as_dict() for k in result.kernels],
            "ssa_codegen_time": result.total_ssa_codegen_time,
            "saturation_time": result.total_saturation_time,
        }
        overall_report["files"].append(file_report)

        if args.emit_report_only:
            continue

        output = Path(args.output) if args.output else path.with_suffix(".sat.c")
        output.write_text(result.code)
        if not args.quiet:
            print(
                f"accsat: {path} -> {output} "
                f"({len(result.kernels)} kernel(s), variant={variant.value})"
            )

    if session.cache is not None:
        overall_report["cache"] = session.cache.stats.as_dict()

    if args.report:
        Path(args.report).write_text(json.dumps(overall_report, indent=2))
    if tracer is not None:
        from repro.obs import write_trace_files

        jsonl_path, chrome_path = write_trace_files(
            tracer.records(), args.trace,
            meta={"mode": "optimize", "variant": variant.value,
                  "executor": args.executor, "jobs": args.jobs},
        )
        if not args.quiet:
            print(f"accsat: trace -> {jsonl_path} (+ {chrome_path})")
    if args.emit_report_only:
        json.dump(overall_report, sys.stdout, indent=2)
        print()
    return exit_code


# ---------------------------------------------------------------------------
# service mode: ``accsat serve``
# ---------------------------------------------------------------------------


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accsat serve",
        description="Optimize input files through the concurrent optimization "
                    "service: duplicate inputs coalesce onto one pipeline run, "
                    "progress streams per saturation iteration, and the run "
                    "ends with a service-stats summary.",
    )
    parser.add_argument("inputs", nargs="+", help="input C file(s); duplicates allowed")
    _add_config_options(parser)
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker threads of the service (default 4)",
    )
    parser.add_argument(
        "--executor", default="thread", choices=["thread", "process"],
        help="worker backend: 'thread' runs jobs on worker threads in this "
             "process; 'process' runs each job in a supervised worker process "
             "that survives crashes — a dead worker is respawned and its "
             "orphaned job retried (default: thread)",
    )
    parser.add_argument(
        "--no-coalesce", action="store_true",
        help="disable in-flight request coalescing (every submission runs)",
    )
    parser.add_argument(
        "--cache-dir",
        help="content-addressed artifact cache directory shared by the workers "
             "(default: an in-memory cache for this run)",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="print a line per saturation iteration as jobs progress",
    )
    parser.add_argument(
        "--deadline", type=float, default=None,
        help="per-job deadline in seconds from submission: a job still "
             "queued past it fails, a running one stops saturating at the "
             "next iteration boundary and returns a degraded result",
    )
    parser.add_argument(
        "--max-queue", type=int, default=None,
        help="bound the number of queued jobs (default: unbounded); a full "
             "queue applies --overload-policy to new submissions",
    )
    parser.add_argument(
        "--overload-policy", default="block",
        choices=["block", "reject", "shed", "shed-oldest-lowest-priority"],
        help="what a full queue does to submit: block until space frees, "
             "reject the newcomer, or shed the worst queued job — lowest "
             "priority first, newest as the tie-break (default: block)",
    )
    parser.add_argument(
        "--retries", type=int, default=2,
        help="transient-failure retries per job, with capped exponential "
             "backoff (default 2)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="overall deadline in seconds (default: wait for every job)",
    )
    parser.add_argument("--report", help="write a JSON report (per-job + service stats)")
    parser.add_argument("--no-write", action="store_true",
                        help="do not write .sat.c outputs (report/stats only)")
    parser.add_argument("--quiet", action="store_true", help="suppress per-job lines")
    parser.add_argument(
        "--trace",
        help="write a structured trace of the service run: a JSONL "
             "span/event log at FILE (job/attempt/stage/iteration spans, "
             "retry/shed/fault events, worker spans collected across the "
             "process boundary) plus a Chrome trace-event file next to it; "
             "observational only — outputs are byte-identical to an "
             "untraced run",
    )
    return parser


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``accsat serve`` service mode."""

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(parser, args)
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.cache_dir:
        cache = TieredCache(memory=MemoryCache(), disk=DiskCache(args.cache_dir))
    else:
        cache = MemoryCache()

    paths = [Path(item) for item in args.inputs]
    missing = [path for path in paths if not path.exists()]
    for path in missing:
        print(f"accsat serve: error: no such file: {path}", file=sys.stderr)
    paths = [path for path in paths if path.exists()]

    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    service = OptimizationService(
        config=config, cache=cache, workers=args.workers,
        executor=args.executor,
        coalesce=not args.no_coalesce,
        max_queue=args.max_queue,
        overload_policy=args.overload_policy,
        max_retries=args.retries,
        tracer=tracer,
    )
    exit_code = 1 if missing else 0
    service.start()
    handles = []
    submitted_paths = []
    for path in paths:
        try:
            handle = service.submit(
                path.read_text(), priority=0, name_prefix=path.stem,
                deadline=args.deadline,
            )
        except ServiceOverloadedError as error:
            print(f"accsat serve: {path} -> rejected: {error}", file=sys.stderr)
            exit_code = 1
            continue
        handles.append(handle)
        submitted_paths.append(path)
    paths = submitted_paths
    deadline_exceeded = False
    if args.stream:
        try:
            for path, handle in zip(paths, handles):
                for event in handle.stream(timeout=args.timeout):
                    cost = (
                        "-" if event.extracted_cost is None
                        else f"{event.extracted_cost:.1f}"
                    )
                    print(
                        f"accsat serve: {path} iter={event.iteration} "
                        f"nodes={event.egraph_nodes} cost={cost}"
                    )
        except TimeoutError:
            deadline_exceeded = True
    if not deadline_exceeded and not service.join(args.timeout):
        deadline_exceeded = True
    if deadline_exceeded:
        print("accsat serve: error: deadline exceeded", file=sys.stderr)
        # don't wait for in-flight pipelines: the workers are daemon
        # threads, cancelling the queue is all a bounded exit needs
        service.stop(wait=False, cancel_pending=True)
        return 1
    service.stop(wait=True)

    # the legacy "service"/"cache" keys stay for stable consumers; the
    # "metrics" document is the full registry snapshot (same counters plus
    # fault-injection counts, phase-time histograms, per-rule counters and
    # the tracer's own bookkeeping), deterministically key-sorted
    report = {"files": [], "service": service.stats.snapshot(),
              "cache": service.session.cache.stats.as_dict(),
              "metrics": service.metrics.snapshot()}
    for path, handle in zip(paths, handles):
        entry = {"input": str(path), "state": handle.state.value,
                 "coalesced": handle.coalesced, "from_cache": handle.from_cache}
        if handle.state is JobState.DONE:
            result = handle.result()
            entry["kernels"] = [k.as_dict() for k in result.kernels]
            entry["degraded"] = result.degraded
            if not args.no_write:
                output = path.with_suffix(".sat.c")
                output.write_text(result.code)
                entry["output"] = str(output)
            if not args.quiet:
                print(
                    f"accsat serve: {path} -> done "
                    f"({len(result.kernels)} kernel(s)"
                    f"{', degraded (deadline)' if result.degraded else ''}"
                    f"{', coalesced' if handle.coalesced else ''}"
                    f"{', cache hit' if handle.from_cache else ''})"
                )
        else:
            entry["error"] = repr(handle.error) if handle.error else None
            exit_code = 1
            if not args.quiet:
                print(f"accsat serve: {path} -> {handle.state.value}: "
                      f"{handle.error}", file=sys.stderr)
        report["files"].append(entry)

    if not args.quiet:
        stats = report["service"]
        print(
            "accsat serve: stats "
            f"submitted={stats['submitted']} runs={stats['pipeline_runs']} "
            f"coalesced={stats['coalesced']} cache_hits={stats['cache_hits']} "
            f"failed={stats['failed']} degraded={stats['degraded']} "
            f"retried={stats['retried']} rejected={stats['rejected']} "
            f"shed={stats['shed']}"
        )
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2))
    if tracer is not None:
        from repro.obs import write_trace_files

        jsonl_path, chrome_path = write_trace_files(
            tracer.records(), args.trace,
            meta={"mode": "serve", "executor": args.executor,
                  "workers": args.workers},
        )
        if not args.quiet:
            print(f"accsat serve: trace -> {jsonl_path} (+ {chrome_path})")
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
