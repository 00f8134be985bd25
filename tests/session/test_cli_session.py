"""CLI integration: ``accsat FILE...`` runs its files as service jobs
(--jobs, --executor, --cache-dir, --trace)."""

import json

import pytest

from repro.cli import main
from repro.obs.check import validate_trace_records
from repro.obs.export import load_jsonl

KERNEL_A = """
#pragma acc parallel loop gang
for (int i = 0; i < n; i++) {
  out[i] = a * in[i] + b * in[i];
}
"""

KERNEL_B = """
#pragma acc parallel loop gang
for (int i = 0; i < n; i++) {
  res[i] = (x[i] + y[i]) * (x[i] + y[i]);
}
"""


def _write_inputs(tmp_path):
    a = tmp_path / "a.c"
    b = tmp_path / "b.c"
    a.write_text(KERNEL_A)
    b.write_text(KERNEL_B)
    return a, b


class TestJobs:
    def test_parallel_jobs_match_serial_outputs(self, tmp_path):
        a, b = _write_inputs(tmp_path)
        assert main(["--quiet", str(a), str(b)]) == 0
        serial_a = a.with_suffix(".sat.c").read_text()
        serial_b = b.with_suffix(".sat.c").read_text()

        a.with_suffix(".sat.c").unlink()
        b.with_suffix(".sat.c").unlink()
        assert main(["--quiet", "--jobs", "2", str(a), str(b)]) == 0
        assert a.with_suffix(".sat.c").read_text() == serial_a
        assert b.with_suffix(".sat.c").read_text() == serial_b

    def test_process_executor_jobs(self, tmp_path):
        # a duplicate input coalesces onto one run; every output still
        # lands, byte-equal to a one-worker thread run
        a, b = _write_inputs(tmp_path)
        inputs = [str(a), str(b), str(a)]
        assert main(["--quiet", "-j", "1", *inputs]) == 0
        serial_a = a.with_suffix(".sat.c").read_bytes()
        serial_b = b.with_suffix(".sat.c").read_bytes()

        a.with_suffix(".sat.c").unlink()
        b.with_suffix(".sat.c").unlink()
        assert main(["--quiet", "-j", "2", "--executor", "process", *inputs]) == 0
        assert a.with_suffix(".sat.c").read_bytes() == serial_a
        assert b.with_suffix(".sat.c").read_bytes() == serial_b

    @pytest.mark.parametrize("spelling", ["processes", "serial", "threads"])
    def test_batch_executor_spellings_are_gone(self, tmp_path, spelling):
        a, _ = _write_inputs(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["--quiet", "--executor", spelling, str(a)])
        assert excinfo.value.code == 2

    def test_missing_file_still_fails_gracefully(self, tmp_path, capsys):
        a, _ = _write_inputs(tmp_path)
        assert main(["--quiet", "--jobs", "2", str(a), str(tmp_path / "no.c")]) == 1
        assert "no such file" in capsys.readouterr().err


class TestTrace:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_trace_validates_with_one_job_span_per_file(self, tmp_path, executor):
        a, b = _write_inputs(tmp_path)
        trace = tmp_path / "trace.json"
        assert main([
            "--quiet", "-j", "2", "--executor", executor,
            "--trace", str(trace), str(a), str(b),
        ]) == 0
        meta, records = load_jsonl(str(trace))
        assert meta["executor"] == executor
        assert validate_trace_records(records) == []
        jobs = [r for r in records if r["type"] == "start" and r["name"] == "job"]
        assert sorted(job["attrs"]["name_prefix"] for job in jobs) == ["a", "b"]
        # the pipeline's spans nest under the jobs, across the process
        # boundary too
        assert any(r["type"] == "start" and r["name"] == "kernel" for r in records)


class TestCacheDir:
    def test_second_run_hits_the_disk_cache(self, tmp_path):
        a, b = _write_inputs(tmp_path)
        cache_dir = tmp_path / "artifacts"
        report1 = tmp_path / "r1.json"
        report2 = tmp_path / "r2.json"

        args = ["--quiet", "--cache-dir", str(cache_dir)]
        assert main(args + ["--report", str(report1), str(a), str(b)]) == 0
        first = json.loads(report1.read_text())
        assert first["cache"]["hits"] == 0
        assert first["cache"]["stores"] == 2
        output_a = a.with_suffix(".sat.c").read_text()

        assert main(args + ["--report", str(report2), str(a), str(b)]) == 0
        second = json.loads(report2.read_text())
        assert second["cache"]["hits"] == 2
        assert second["cache"]["stores"] == 0
        # cached artifacts regenerate identical outputs and stats
        assert a.with_suffix(".sat.c").read_text() == output_a
        for cold, warm in zip(first["files"], second["files"]):
            assert [k["optimized"] for k in cold["kernels"]] == [
                k["optimized"] for k in warm["kernels"]
            ]
            assert all(k["from_cache"] for k in warm["kernels"])
