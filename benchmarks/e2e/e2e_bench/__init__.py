"""The repo's end-to-end benchmark (see ``benchmarks/e2e/README.md``).

``run.py`` is the only entry point; the modules here are its parts:

* :mod:`e2e_bench.corpus` — the 34 kernel sources, configs and seeded orders,
* :mod:`e2e_bench.spans` — the in-memory span recorder of the traced run,
* :mod:`e2e_bench.replay` — ``optimize_source`` replayed from outside, one
  span per layer boundary,
* :mod:`e2e_bench.workloads` — the four workloads (set-up, one round, tear-down),
* :mod:`e2e_bench.check` — the untimed output check (independent interpreter
  oracle, solo-run byte equality, deterministic code-quality metrics),
* :mod:`e2e_bench.measure` — one run of one workload: rounds, statistics, the
  end-to-end and per-layer metric tables.
"""
