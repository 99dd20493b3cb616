"""The unified ``python -m repro`` front-end."""

import json

import pytest

from repro.cli import TRACE_ENV, build_parser, main


class TestParser:
    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 2
        assert "SUBCOMMAND" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command", ["figures", "serve", "audit", "trace", "litmus"]
    )
    def test_shared_flags_on_every_subcommand(self, command):
        parser = build_parser()
        argv = [command, "--jobs", "3", "--out", "d", "--trace", "t"]
        if command == "trace":
            argv.insert(1, "SC")
        args = parser.parse_args(argv)
        assert args.jobs == 3 and args.out == "d" and args.trace == "t"

    def test_calibrate_takes_only_out(self):
        parser = build_parser()
        assert parser.parse_args(["calibrate"]).out == "."
        assert parser.parse_args(["calibrate", "--out", "d"]).out == "d"
        with pytest.raises(SystemExit):
            parser.parse_args(["calibrate", "--jobs", "3"])

    def test_trace_flag_defaults_from_environment(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "/tmp/envtrace")
        args = build_parser().parse_args(["litmus"])
        assert args.trace == "/tmp/envtrace"
        monkeypatch.delenv(TRACE_ENV)
        args = build_parser().parse_args(["litmus"])
        assert args.trace is None


class TestLitmusCommand:
    def test_lists_library_without_name(self, capsys):
        assert main(["litmus"]) == 0
        out = capsys.readouterr().out
        assert "mp_paired" in out and "sb_data" in out

    def test_checks_all_models(self, capsys):
        assert main(["litmus", "mp_paired"]) == 0
        out = capsys.readouterr().out
        assert "DRF0" in out and "DRF1" in out and "DRFRLX" in out

    def test_single_model(self, capsys):
        assert main(["litmus", "sb_data", "--model", "drfrlx"]) == 0
        out = capsys.readouterr().out
        assert "DRFRLX" in out and "DRF0" not in out


class TestTraceCommand:
    def test_litmus_enumeration_trace(self, tmp_path, capsys):
        code = main(["trace", "mp_paired", "--litmus", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "litmus_mp_paired.jsonl").exists()
        assert (tmp_path / "litmus_mp_paired.trace.json").exists()
        assert "SC executions" in capsys.readouterr().out

    def test_simulation_trace(self, tmp_path, capsys):
        code = main([
            "trace", "SC", "--config", "DD1", "--scale", "0.05",
            "--out", str(tmp_path),
        ])
        assert code == 0
        with open(tmp_path / "SC_DD1.trace.json") as handle:
            obj = json.load(handle)
        from repro.obs.export import validate_chrome_trace

        assert validate_chrome_trace(obj) == []
        assert "cycles" in capsys.readouterr().out

    def test_out_falls_back_to_trace_flag(self, tmp_path):
        code = main([
            "trace", "mp_paired", "--litmus", "--trace", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "litmus_mp_paired.jsonl").exists()


class TestAuditCommand:
    def test_audit_prints_failure_count(self, capsys):
        assert main(["audit", "--jobs", "1"]) == 0
        assert "failure(s)" in capsys.readouterr().out


@pytest.mark.obs
def test_module_entry_point_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "figures" in proc.stdout and "litmus" in proc.stdout
