#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, every metric (see README.md).

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--rows] [--aa N]

Each workload runs in its own fresh subprocess (``PYTHONHASHSEED=0``).  With
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are printed, with
``--trace 1`` the per-layer metrics of a separate traced run.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from the first statement

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (HERE, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: Set-ups timed per end-to-end run, each in a fresh process; the fastest is
#: reported, like every other timing (see e2e_bench/measure.py).
SETUP_SAMPLES = 3
#: Seconds one child process may take before the run is abandoned.
CHILD_TIMEOUT = 160
TRACE_DIR = os.path.join(ROOT, ".bench_out")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(spec):
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="length of the timed window; fixes the number of rounds",
    )
    parser.add_argument("--rounds", type=int, help="exact number of timed rounds")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: the separate traced run and its per-layer metrics",
    )
    parser.add_argument("--kernels", type=int, help="only the N shortest sources")
    parser.add_argument("--rows", action="store_true", help="one row per kernel (traced run)")
    parser.add_argument("--aa", type=int, metavar="N", help="N whole runs, one seed each, and their spread")
    parser.add_argument("--role", choices=("measure", "setup"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.rows:
        args.trace = 1
    return args


# --------------------------------------------------------------------- child


def child_main(args) -> int:
    from e2e_bench.measure import run_setup_only, run_workload

    if args.role == "setup":
        report = {"setup_s": run_setup_only(args.workload, args.seed, args.kernels, _STARTED)}
    else:
        report = run_workload(
            args.workload, args.seed, args.seconds, args.rounds, bool(args.trace),
            args.kernels, _STARTED, TRACE_DIR if args.trace else None,
        )
    print(json.dumps(report))
    return 0


# -------------------------------------------------------------------- parent


def spawn(args, workload, seed, role):
    """Run one child to completion and return the report it printed."""

    command = [
        sys.executable, os.path.abspath(__file__), "--role", role,
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    if args.kernels is not None:
        command += ["--kernels", str(args.kernels)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    # the check phase must compute its own artifacts, not read a shared cache
    env.pop("REPRO_CACHE_DIR", None)
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def run_one(args, spec, workload, seed):
    """One run of one workload: the report with the contract's metric names."""

    report = spawn(args, workload, seed, "measure")
    metrics = report["metrics"]
    if not args.trace:
        samples = [metrics["setup_s"]] + [
            spawn(args, workload, seed, "setup")["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        report["setup_samples"] = samples
        metrics["setup_s"] = min(samples)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {metric["name"] for metric in declared}:
        raise SystemExit(
            f"{workload}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ {m['name'] for m in declared})}"
        )
    report["metrics"] = {
        metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    return report


def print_report(report, rows) -> None:
    spread = report["round_s"]
    print(
        f"== {report['workload']}  seed {report['seed']}  "
        f"{spread['n']} rounds x {report['requests_per_round']} requests  "
        f"round median {spread['median']:.4f} s (q1 {spread['q1']:.4f}, q3 {spread['q3']:.4f})"
    )
    if "setup_samples" in report:
        print(f"   round floor {report['round_floor_s']:.4f} s; "
              f"setup_s samples {[round(s, 3) for s in report['setup_samples']]}")
    if "traced_round_s" in report:
        traced = report["traced_round_s"]
        print(f"   traced round median {traced['median']:.4f} s over {traced['n']} rounds; "
              f"spans in {report.get('trace_file')}")
    for name, metric in report["metrics"].items():
        print(f"   {name:<30} {metric['value']:>16.6g} {metric['unit']}")
    for line in report["failures"]:
        print(f"   FAILED: {line}")
    if rows:
        for row in report.get("rows", ()):
            layers = "  ".join(f"{k}={v:.2f}" for k, v in row["layer_ms"].items())
            print(
                f"   {row['kernel']:<26} {row['latency_ms']:9.2f} ms  "
                f"nodes {row['e_nodes']:>6}  stop {row['stop']:<10}  "
                f"cost {row['extracted_cost']:10.1f}  | layer ms: {layers}"
            )


def contract_line(reports):
    """The last line of standard output."""

    single = len(reports) == 1
    return json.dumps({
        "correct": all(report["correct"] for report in reports),
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": {
            (name if single else f"{report['workload']}/{name}"): metric
            for report in reports
            for name, metric in report["metrics"].items()
        },
    })


def exact_metrics(spec):
    """End-to-end metrics that must repeat exactly across runs and seeds."""

    return [m["name"] for m in spec["end_to_end"] if m["bound"] <= 1e-6]


def cross_check(spec, reports):
    """Deterministic metrics repeat across runs, and the service returns the
    artifacts ``compile_accsat`` computes."""

    problems = []
    seen = {}
    for report in reports:
        if report["trace"]:
            continue
        variant = "cse" if report["workload"] == "compile_cse" else "accsat"
        values = {n: report["metrics"][n]["value"] for n in exact_metrics(spec)}
        first = seen.setdefault(variant, (report, values))
        if values != first[1]:
            problems.append(
                f"{report['workload']} seed {report['seed']} differs from "
                f"{first[0]['workload']} seed {first[0]['seed']} on a deterministic metric"
            )
    return problems


def print_aa(spec, reports) -> None:
    """Per workload and metric: median, quartiles, spread and largest deviation."""

    from e2e_bench.measure import quartiles

    print(f"{'workload':<20}{'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'iqr/med %':>11}{'max dev %':>11}  bound %")
    for workload in dict.fromkeys(report["workload"] for report in reports):
        runs = [r for r in reports if r["workload"] == workload]
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            q = quartiles(values)
            deviation = max(abs(v - q["median"]) for v in values) / q["median"]
            print(
                f"{workload:<20}{metric['name']:<24}{q['median']:>14.6g}"
                f"{q['q1']:>14.6g}{q['q3']:>14.6g}"
                f"{100 * (q['q3'] - q['q1']) / q['median']:>11.2f}"
                f"{100 * deviation:>11.2f}  {100 * metric['bound']:g}"
            )


def main() -> int:
    spec = load_spec()
    args = parse_args(spec)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"{ROOT}/src/repro is missing: the benchmark measures that program")
    if args.role is not None:
        return child_main(args)
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    reports = []
    for run in range(args.aa or 1):
        for workload in workloads:
            report = run_one(args, spec, workload, args.seed + run)
            print_report(report, args.rows)
            reports.append(report)
    problems = cross_check(spec, reports)
    for line in problems:
        print(f"FAILED: {line}")
    if args.aa:
        print_aa(spec, reports)
    print(contract_line(reports[-len(workloads):]))
    return 0 if not problems and all(report["correct"] for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
