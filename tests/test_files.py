import json
import os
import stat

import pytest

from eenas.cli import ConfigError, _load_architecture, _load_run_config
from eenas.arch import builtin_backbone
from eenas.evaluate import EvaluationReport, ReportError, load_external_report
from eenas.files import atomic_write
from eenas.hwcost import AcceleratorSpec, CostModelError
from helpers import save_external_report


class TestAtomicWrite:
    def test_stale_temp_file_does_not_block(self, tmp_path):
        path = tmp_path / "front.csv"
        stale = tmp_path / f"front.csv.{os.getpid()}.tmp"
        stale.write_text("left by a killed writer")
        atomic_write(str(path), "rank\n")
        assert path.read_text() == "rank\n"
        assert stale.read_text() == "left by a killed writer"
        assert sorted(os.listdir(tmp_path)) == ["front.csv", stale.name]

    def test_replaces_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write(str(path), "one")
        atomic_write(str(path), "two")
        assert path.read_text() == "two"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_directory_is_synced_after_rename(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def record(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", record)
        atomic_write(str(tmp_path / "out.txt"), "x")
        assert synced == [False, True]


class TestWritersAreAtomic:
    """A failed rename leaves the previous file whole and no temp file."""

    def crash(self, src, dst):
        raise OSError("crash during rename")

    def test_save_external_report(self, tmp_path, monkeypatch):
        report = EvaluationReport(
            accuracy_per_exit=(90.0, 80.0),
            exit_ratios=(0.5, 0.5),
            sample_counts=(50, 50),
            threshold=0.9,
        )
        path = tmp_path / "r.json"
        save_external_report(report, "aaaa", str(path))
        before = path.read_bytes()
        monkeypatch.setattr(os, "replace", self.crash)
        with pytest.raises(OSError, match="crash during rename"):
            save_external_report(report, "bbbb", str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["r.json"]


def test_non_utf8_file_raises_the_loaders_error(tmp_path):
    """A report that is not UTF-8 text is an invalid report, so it fails
    only its architecture, like any other."""
    path = tmp_path / "report.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ReportError, match="^report is not UTF-8 text: "):
        load_external_report(str(path))


class TestLoadersRejectNonFiniteLiterals:
    """``json`` reads NaN and Infinity literals, and overflows ``1e400`` to
    inf, unless told not to; every loader refuses them with its own error
    type."""

    def test_run_config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"backbone": "builtin:smallconv", "nas": {"theta": NaN}}')
        with pytest.raises(ConfigError, match="NaN: numbers must be finite"):
            _load_run_config(str(path))

    def test_architecture(self, tmp_path):
        path = tmp_path / "arch.json"
        path.write_text(
            '{"exits": [{"mount": "E"}], "exit_ratios": [Infinity]}'
        )
        with pytest.raises(ConfigError, match="Infinity: numbers must be finite"):
            _load_architecture(str(path), builtin_backbone("smallconv"))

    def test_external_report(self, tmp_path):
        payload = {
            "architecture": "x",
            "threshold": 0.9,
            "accuracy_per_exit": [float("-inf")],
            "exit_ratios": [1.0],
            "sample_counts": [100],
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ReportError, match="-Infinity: numbers must be finite"):
            load_external_report(str(path))

    def test_overflowing_number(self, tmp_path):
        """``1e400`` is valid JSON that parses to inf."""
        path = tmp_path / "accel.json"
        path.write_text('{"e_dram_pj_bit": 1e400}')
        with pytest.raises(CostModelError, match="1e400: numbers must be finite"):
            AcceleratorSpec.load(str(path))

    def test_accelerator(self, tmp_path):
        data = AcceleratorSpec().to_json() | {"e_dram_pj_bit": float("nan")}
        path = tmp_path / "accel.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CostModelError, match="NaN: numbers must be finite"):
            AcceleratorSpec.load(str(path))
