"""The ILP extractor's constraint matrix is sparse.

``olbm_olbm_collide`` stops saturating at the paper's 10 000 e-node limit,
which makes its ILP the corpus's largest.  With one dense row per
constraint the matrix alone needs gigabytes; built as sparse triplets the
whole compile stays well under 1 GB.  The compile runs in a subprocess
(its peak RSS is the measurement) whose address space is capped at 2 GB,
so a regression fails this test with a ``MemoryError`` instead of
exhausting the host.  A 1 s extraction time limit keeps it short: the compile either
returns or raises ``ExtractionError`` on the limit.
"""

import os
import subprocess
import sys

SCRIPT = r"""
import resource

resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

from repro.benchsuite.registry import get_benchmark
from repro.egraph.extract import ExtractionError
from repro.egraph.runner import RunnerLimits
from repro.saturator import SaturatorConfig, Variant, optimize_source

config = SaturatorConfig(
    variant=Variant.ACCSAT,
    limits=RunnerLimits(10_000, 10, 300.0),
    extraction="ilp",
    extraction_time_limit=1.0,
)
try:
    optimize_source(get_benchmark("olbm").kernels[0].source, config,
                    "olbm_olbm_collide")
    outcome = "returned"
except ExtractionError:
    outcome = "ExtractionError"
print(outcome, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_olbm_ilp_stays_below_one_gigabyte():
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    # one BLAS thread: per-thread buffers would count against the cap
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    outcome, max_rss_kb = proc.stdout.split()
    assert outcome in ("returned", "ExtractionError")
    assert int(max_rss_kb) < 1 << 20  # ru_maxrss is in KiB on Linux
