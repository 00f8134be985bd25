"""The host record both bench scripts write next to ``machine``."""

import json
import os

from hostinfo import cpu_quota, machine_record


def test_cgroup_v2_quota(tmp_path):
    (tmp_path / "cpu.max").write_text("150000 100000\n")
    assert cpu_quota(str(tmp_path)) == 1.5
    (tmp_path / "cpu.max").write_text("max 100000\n")
    assert cpu_quota(str(tmp_path)) is None


def test_cgroup_v1_quota(tmp_path):
    (tmp_path / "cpu").mkdir()
    (tmp_path / "cpu" / "cpu.cfs_period_us").write_text("100000\n")
    (tmp_path / "cpu" / "cpu.cfs_quota_us").write_text("200000\n")
    assert cpu_quota(str(tmp_path)) == 2.0
    (tmp_path / "cpu" / "cpu.cfs_quota_us").write_text("-1\n")
    assert cpu_quota(str(tmp_path)) is None


def test_unreadable_quota_is_null(tmp_path):
    assert cpu_quota(str(tmp_path / "missing")) is None
    (tmp_path / "cpu.max").write_text("garbage")
    assert cpu_quota(str(tmp_path)) is None


def test_record_is_json_with_the_three_keys():
    record = machine_record()
    assert list(record) == ["machine", "cpus", "cpu_quota"]
    assert record["cpus"] == os.cpu_count()
    assert json.loads(json.dumps(record)) == record
