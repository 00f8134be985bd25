"""Tests for the accsat command-line interface."""

import json

import pytest

from repro.cli import build_arg_parser, main

KERNEL = """
#pragma acc parallel loop gang
for (int i = 0; i < n; i++) {
#pragma acc loop vector
  for (int j = 0; j < m; j++) {
    c[i][j] = a[i][j] * s + b[i][j] * s;
  }
}
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(KERNEL)
    return path


class TestCLI:
    def test_default_invocation_writes_sat_file(self, kernel_file, capsys):
        assert main([str(kernel_file)]) == 0
        output = kernel_file.with_suffix(".sat.c")
        assert output.exists()
        text = output.read_text()
        assert "#pragma acc parallel loop gang" in text
        assert "_v0" in text
        assert str(output) in capsys.readouterr().out

    def test_compiler_wrapper_style_invocation(self, kernel_file, tmp_path):
        out = tmp_path / "out.c"
        assert main(["nvc", str(kernel_file), "-o", str(out), "--quiet"]) == 0
        assert out.exists()

    def test_variant_selection(self, kernel_file, tmp_path):
        out = tmp_path / "out.c"
        assert main(["--variant", "cse", str(kernel_file), "-o", str(out)]) == 0
        assert "_v" in out.read_text()

    def test_report_json(self, kernel_file, tmp_path):
        report = tmp_path / "report.json"
        assert main([str(kernel_file), "--report", str(report), "--quiet"]) == 0
        data = json.loads(report.read_text())
        assert data["variant"] == "accsat"
        assert data["files"][0]["kernels"][0]["assignments"] >= 1

    def test_emit_report_only(self, kernel_file, capsys):
        assert main(["--emit-report-only", str(kernel_file)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["files"][0]["input"].endswith("kernel.c")

    def test_scheduler_and_anytime_flags(self, kernel_file, capsys):
        assert main([
            str(kernel_file), "--emit-report-only",
            "--scheduler", "backoff:100:2", "--anytime", "--plateau-patience", "1",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        runner = report["files"][0]["kernels"][0]["runner"]
        assert runner["scheduler"] == "backoff"
        assert any(
            it["extracted_cost"] is not None for it in runner["iterations"]
        )

    def test_bad_scheduler_rejected(self, kernel_file, capsys):
        with pytest.raises(SystemExit):
            main([str(kernel_file), "--scheduler", "nope"])
        assert "unknown scheduler spec" in capsys.readouterr().err

    def test_bad_plateau_patience_rejected(self, kernel_file):
        with pytest.raises(SystemExit):
            main([str(kernel_file), "--plateau-patience", "0"])

    @pytest.mark.parametrize("mode", [[], ["serve"]], ids=["optimize", "serve"])
    def test_bad_ruleset_is_a_usage_error(self, kernel_file, capsys, mode):
        with pytest.raises(SystemExit) as exit_info:
            main([*mode, "--ruleset", "bogus", str(kernel_file)])
        assert exit_info.value.code == 2
        assert "unknown ruleset 'bogus'" in capsys.readouterr().err
        assert not kernel_file.with_suffix(".sat.c").exists()

    def test_output_with_several_inputs_is_a_usage_error(self, kernel_file, tmp_path, capsys):
        other = tmp_path / "other.c"
        other.write_text(KERNEL.replace("c[i][j]", "d[i][j]"))
        out = tmp_path / "out.c"
        with pytest.raises(SystemExit) as exit_info:
            main([str(kernel_file), str(other), "-o", str(out)])
        assert exit_info.value.code == 2
        assert "-o/--output takes exactly one input file" in capsys.readouterr().err
        assert not out.exists()
        # one input (after an optional compiler name) still honours -o
        assert main(["nvc", str(kernel_file), "-o", str(out), "--quiet"]) == 0
        assert "c[i][j]" in out.read_text()

    def test_missing_file_fails(self, tmp_path):
        assert main([str(tmp_path / "absent.c")]) == 1

    def test_unparsable_file_fails_alone(self, kernel_file, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("this is not C {{{\n")
        report = tmp_path / "report.json"
        assert main([str(bad), str(kernel_file), "--report", str(report)]) == 1
        assert f"accsat: error: {bad}: " in capsys.readouterr().err
        assert kernel_file.with_suffix(".sat.c").exists()
        assert not bad.with_suffix(".sat.c").exists()
        bad_entry, good_entry = json.loads(report.read_text())["files"]
        assert bad_entry["input"] == str(bad)
        assert "ParseError" in bad_entry["error"]
        assert "error" not in good_entry and good_entry["kernels"]

    @pytest.mark.parametrize("mode", [[], ["serve"]], ids=["optimize", "serve"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("flag", ["--node-limit", "--iter-limit", "--time-limit"])
    def test_non_positive_limit_is_a_usage_error(
        self, kernel_file, capsys, mode, flag, value
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([*mode, "--variant", "cse", f"{flag}={value}", str(kernel_file)])
        assert exit_info.value.code == 2
        option = flag[2:].replace("-", "_")
        assert f"{option} must be positive" in capsys.readouterr().err
        assert not kernel_file.with_suffix(".sat.c").exists()

    @pytest.mark.parametrize("mode", [[], ["serve"]], ids=["optimize", "serve"])
    def test_nan_time_limit_is_a_usage_error(self, kernel_file, capsys, mode):
        # a NaN deadline would never trip: monotonic() > nan is always false
        with pytest.raises(SystemExit) as exit_info:
            main([*mode, "--variant", "cse", "--time-limit", "nan", str(kernel_file)])
        assert exit_info.value.code == 2
        assert "time_limit must be positive" in capsys.readouterr().err
        assert not kernel_file.with_suffix(".sat.c").exists()

    def test_bad_variant_rejected(self, kernel_file):
        with pytest.raises(SystemExit):
            main(["--variant", "warp-speed", str(kernel_file)])

    def test_parser_has_expected_options(self):
        parser = build_arg_parser()
        text = parser.format_help()
        for option in ("--variant", "--ruleset", "--extraction", "--node-limit",
                       "--iter-limit", "--time-limit", "--report",
                       "--scheduler", "--anytime", "--plateau-patience"):
            assert option in text
