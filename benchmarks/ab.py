#!/usr/bin/env python3
"""Interleaved A/B runs of the end-to-end benchmark on two revisions.

    python3 benchmarks/ab.py BASE HEAD [--workload W] [--pairs 10] [--seed 0]

``BASE`` and ``HEAD`` are git tree-ishes of this repository: commits, tags,
or ``$(git write-tree)`` for the staged state.  Each is exported into its own
temporary directory (``git archive``; no worktree is registered, so nothing
is left to prune after a crash), and ``benchmarks/e2e/run.py`` of *that*
export measures *that* source — this script only calls it and reads the JSON
contract line it prints last.  The two sides run in alternating order, one
pair after the other, never concurrently.

Per metric the table shows both medians, both quartile pairs, how many pairs
HEAD won (ties count for neither side) and ``apart``: whether the medians
differ by more than the distance between BASE's own quartiles.  A gain may be
claimed only with wins >= 9/10 of the pairs *and* ``apart`` (the rule of
``benchmarks/e2e/README.md``); ``worse>bound`` marks a HEAD median worse than
BASE's by more than the bound ``BENCHMARK.json`` fixes for the metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join("benchmarks", "e2e", "run.py")


def export(treeish: str, directory: str) -> None:
    """Write the files of *treeish* into *directory*."""

    archive = subprocess.Popen(
        ["git", "-C", REPO, "archive", "--format=tar", treeish], stdout=subprocess.PIPE
    )
    unpack = subprocess.run(["tar", "-x", "-C", directory], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or unpack.returncode != 0:
        sys.exit(f"cannot export {treeish!r}")


def run_once(directory: str, workload: str | None, seed: int) -> dict:
    """One ``run.py`` in *directory*; its contract line as a dict."""

    command = [sys.executable, RUN_PY, "--seed", str(seed)]
    if workload:
        command += ["--workload", workload]
    # each side must import its own src/, not whatever the caller exported
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        command, cwd=directory, env=env, stdout=subprocess.PIPE, text=True
    )
    lines = done.stdout.splitlines()
    if not lines:
        sys.exit(f"{RUN_PY} in {directory} printed nothing (exit {done.returncode})")
    return json.loads(lines[-1])


def spread(values):
    """(median, q1, q3) with the quartile method ``run.py --aa`` prints."""

    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", help="default: all of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="ab-base-") as base_dir, \
            tempfile.TemporaryDirectory(prefix="ab-head-") as head_dir:
        export(args.base, base_dir)
        export(args.head, head_dir)
        with open(os.path.join(base_dir, "BENCHMARK.json"), encoding="utf-8") as handle:
            declared = {m["name"]: m for m in json.load(handle)["end_to_end"]}

        sides = {"base": base_dir, "head": head_dir}
        reports = {"base": [], "head": []}
        for pair in range(args.pairs):
            for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
                report = run_once(sides[side], args.workload, args.seed)
                reports[side].append(report)
                print(
                    f"pair {pair + 1}/{args.pairs} {side}: correct={report['correct']} "
                    f"failed={report['failed']}/{report['attempted']}",
                    file=sys.stderr, flush=True,
                )

    print(f"base {args.base}  head {args.head}  workload {args.workload or 'all'}  "
          f"seed {args.seed}  pairs {args.pairs}")
    print(f"{'metric':<44}{'base med':>12}{'q1':>12}{'q3':>12}"
          f"{'head med':>12}{'q1':>12}{'q3':>12}{'head wins':>10}  verdict")
    for name in reports["base"][0]["metrics"]:
        metric = declared[name.rsplit("/", 1)[-1]]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        base = [r["metrics"][name]["value"] for r in reports["base"]]
        head = [r["metrics"][name]["value"] for r in reports["head"]]
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
        (b_med, b_q1, b_q3), (h_med, h_q1, h_q3) = spread(base), spread(head)
        gain = sign * (h_med - b_med)
        verdict = []
        if abs(gain) > b_q3 - b_q1:
            verdict.append("apart:" + ("better" if gain > 0 else "worse"))
        if -gain > metric["bound"] * abs(b_med):
            verdict.append("worse>bound")
        print(
            f"{name:<44}{b_med:>12.6g}{b_q1:>12.6g}{b_q3:>12.6g}"
            f"{h_med:>12.6g}{h_q1:>12.6g}{h_q3:>12.6g}"
            f"{f'{wins}-{losses}':>10}  {' '.join(verdict) or '-'}"
        )

    every = reports["base"] + reports["head"]
    failed = sum(r["failed"] for r in every)
    print(f"runs {len(every)}  all correct: {all(r['correct'] for r in every)}  "
          f"failed operations: {failed}")
    return 0 if failed == 0 and all(r["correct"] for r in every) else 1


if __name__ == "__main__":
    sys.exit(main())
