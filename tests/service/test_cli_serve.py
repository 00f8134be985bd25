"""The ``accsat serve`` CLI mode: service-backed batch optimization."""

import json

from repro.cli import main

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


class TestServe:
    def test_serve_writes_outputs_identical_to_optimize_mode(self, tmp_path):
        a, b = _write_inputs(tmp_path)
        assert main(["--quiet", str(a), str(b)]) == 0
        classic_a = a.with_suffix(".sat.c").read_text()
        classic_b = b.with_suffix(".sat.c").read_text()
        a.with_suffix(".sat.c").unlink()
        b.with_suffix(".sat.c").unlink()

        assert main(["serve", "--quiet", "--workers", "2", str(a), str(b)]) == 0
        assert a.with_suffix(".sat.c").read_text() == classic_a
        assert b.with_suffix(".sat.c").read_text() == classic_b

    def test_serve_coalesces_duplicate_inputs(self, tmp_path):
        a, _ = _write_inputs(tmp_path)
        report = tmp_path / "serve.json"
        assert main([
            "serve", "--quiet", "--workers", "2", "--report", str(report),
            str(a), str(a), str(a),
        ]) == 0
        payload = json.loads(report.read_text())
        stats = payload["service"]
        assert stats["submitted"] == 3
        assert stats["pipeline_runs"] == 1
        assert stats["coalesced"] + stats["cache_hits"] == 2
        assert [entry["state"] for entry in payload["files"]] == ["done"] * 3

    def test_serve_process_executor_matches_thread_outputs(self, tmp_path):
        a, b = _write_inputs(tmp_path)
        assert main(["serve", "--quiet", "--workers", "2", str(a), str(b)]) == 0
        thread_a = a.with_suffix(".sat.c").read_text()
        thread_b = b.with_suffix(".sat.c").read_text()
        a.with_suffix(".sat.c").unlink()
        b.with_suffix(".sat.c").unlink()

        report = tmp_path / "serve.json"
        assert main([
            "serve", "--quiet", "--workers", "2", "--executor", "process",
            "--report", str(report), str(a), str(b),
        ]) == 0
        assert a.with_suffix(".sat.c").read_text() == thread_a
        assert b.with_suffix(".sat.c").read_text() == thread_b
        stats = json.loads(report.read_text())["service"]
        assert stats["submitted"] == 2 and stats["worker_deaths"] == 0

    def test_serve_rejects_unknown_executor(self, tmp_path, capsys):
        a, _ = _write_inputs(tmp_path)
        try:
            main(["serve", "--executor", "fibers", str(a)])
        except SystemExit as error:
            assert error.code == 2
        else:  # pragma: no cover - argparse must reject the value
            raise AssertionError("argparse accepted an unknown executor")

    def test_serve_streams_progress_with_anytime(self, tmp_path, capsys):
        a, _ = _write_inputs(tmp_path)
        assert main([
            "serve", "--stream", "--workers", "1", "--anytime",
            "--node-limit", "500", "--iter-limit", "3", str(a),
        ]) == 0
        out = capsys.readouterr().out
        assert "iter=0" in out
        assert "cost=" in out

    def test_serve_reports_bad_input_and_keeps_going(self, tmp_path):
        a, _ = _write_inputs(tmp_path)
        bad = tmp_path / "bad.c"
        bad.write_text("int broken (((")
        report = tmp_path / "serve.json"
        assert main([
            "serve", "--quiet", "--workers", "2", "--report", str(report),
            str(a), str(bad),
        ]) == 1
        payload = json.loads(report.read_text())
        states = {entry["input"]: entry["state"] for entry in payload["files"]}
        assert states[str(a)] == "done"
        assert states[str(bad)] == "failed"
        assert a.with_suffix(".sat.c").exists()

    def test_serve_missing_file_is_an_error(self, tmp_path):
        a, _ = _write_inputs(tmp_path)
        assert main(["serve", "--quiet", str(a), str(tmp_path / "nope.c")]) == 1
        assert a.with_suffix(".sat.c").exists()

    def test_serve_disk_cache_dir(self, tmp_path):
        a, _ = _write_inputs(tmp_path)
        cache_dir = tmp_path / "cache"
        assert main([
            "serve", "--quiet", "--cache-dir", str(cache_dir), str(a),
        ]) == 0
        assert any(cache_dir.rglob("*.pkl"))

    def test_serve_process_disk_cache_dir_is_reused(self, tmp_path):
        a, b = _write_inputs(tmp_path)
        cache_dir = tmp_path / "cache"
        report = tmp_path / "serve.json"
        args = [
            "serve", "--quiet", "--executor", "process", "--workers", "2",
            "--cache-dir", str(cache_dir), "--report", str(report),
            str(a), str(b),
        ]
        assert main(args) == 0
        first = json.loads(report.read_text())["service"]
        assert first["pipeline_runs"] == 2 and first["cache_hits"] == 0
        assert len(list(cache_dir.rglob("*.pkl"))) == 2
        output_a = a.with_suffix(".sat.c").read_text()

        assert main(args) == 0
        second = json.loads(report.read_text())["service"]
        assert second["cache_hits"] == 2 and second["pipeline_runs"] == 0
        assert a.with_suffix(".sat.c").read_text() == output_a

    def test_serve_expired_deadline_fails_typed(self, tmp_path):
        # a deadline already in the past expires every job at pickup —
        # deterministic, no wall-clock sleeping involved
        a, _ = _write_inputs(tmp_path)
        report = tmp_path / "serve.json"
        assert main([
            "serve", "--quiet", "--deadline", "-1", "--report", str(report),
            str(a),
        ]) == 1
        payload = json.loads(report.read_text())
        assert payload["files"][0]["state"] == "failed"
        assert "JobDeadlineError" in payload["files"][0]["error"]
        assert payload["service"]["expired"] == 1
        assert not a.with_suffix(".sat.c").exists()

    def test_serve_fault_tolerance_flags_round_trip(self, tmp_path):
        a, b = _write_inputs(tmp_path)
        report = tmp_path / "serve.json"
        assert main([
            "serve", "--quiet", "--workers", "2",
            "--deadline", "600", "--max-queue", "8",
            "--overload-policy", "shed-oldest-lowest-priority",
            "--retries", "1", "--report", str(report),
            str(a), str(b),
        ]) == 0
        payload = json.loads(report.read_text())
        for entry in payload["files"]:
            assert entry["state"] == "done"
            assert entry["degraded"] is False
        stats = payload["service"]
        assert stats["rejected"] == 0 and stats["shed"] == 0
        assert stats["degraded"] == 0 and stats["retried"] == 0
