"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.profiles import Profiler
from repro.core.softwatt import SoftWatt

WINDOW_ARGS = ["--window", "8000", "--seed", "1"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "jess"])
        assert args.benchmark == "jess"
        assert args.disk == 1
        assert args.cpu == "mxs"
        assert args.idle_policy == "busywait"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "mpegaudio"])

    def test_disk_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "jess", "--disk", "7"])

    def test_thresholds_repeatable(self):
        args = build_parser().parse_args(
            ["disk-study", "compress", "--threshold", "1.5",
             "--threshold", "3.0"])
        assert args.threshold == [1.5, 3.0]


class TestCommands:
    def test_validate(self, capsys):
        assert main(["validate", *WINDOW_ARGS]) == 0
        out = capsys.readouterr().out
        assert "25.3" in out

    def test_run_prints_report(self, capsys):
        assert main(["run", "jess", "--disk", "2", *WINDOW_ARGS]) == 0
        out = capsys.readouterr().out
        assert "mode breakdown" in out
        assert "utlb" in out
        assert "power budget" in out
        assert "idle-only" in out

    def test_run_halt_policy(self, capsys):
        assert main(["run", "jess", "--disk", "2", "--idle-policy", "halt",
                     *WINDOW_ARGS]) == 0
        assert "jess" in capsys.readouterr().out

    def test_run_exports(self, tmp_path, capsys):
        log_path = tmp_path / "log.csv"
        trace_path = tmp_path / "trace.csv"
        assert main(["run", "db", "--export-log", str(log_path),
                     "--export-trace", str(trace_path), *WINDOW_ARGS]) == 0
        assert log_path.exists()
        assert trace_path.exists()
        assert log_path.read_text().startswith("start_s,")

    def test_services(self, capsys):
        assert main(["services", "--invocations", "10", *WINDOW_ARGS]) == 0
        out = capsys.readouterr().out
        assert "utlb" in out
        assert "demand_zero" in out

    def test_disk_study_with_custom_threshold(self, capsys):
        assert main(["disk-study", "db", "--threshold", "1.0",
                     *WINDOW_ARGS]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "spindown-2s" in out
        assert "custom-1s" in out

    @pytest.mark.parametrize("threshold", ["nan", "0"])
    def test_disk_study_rejects_bad_threshold_before_simulating(
        self, monkeypatch, capsys, threshold
    ):
        def simulated(*args, **kwargs):
            raise AssertionError("simulated before rejecting the threshold")

        monkeypatch.setattr(Profiler, "profile_benchmark", simulated)
        assert main(["disk-study", "db", "--threshold", threshold,
                     "--no-cache", *WINDOW_ARGS]) == 2
        assert "spin-down threshold" in capsys.readouterr().err

    def test_checkpoint_workflow(self, tmp_path, capsys, monkeypatch):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(["checkpoint", "db", *cache, *WINDOW_ARGS]) == 0
        assert "profiles cached in" in capsys.readouterr().out
        cold = main(["run", "db", "--no-cache", *WINDOW_ARGS])
        cold_out = capsys.readouterr().out

        def simulated(*args, **kwargs):
            raise AssertionError("a warmed cache must not re-simulate")

        # Re-use it from `run`: every profile the run needs is cached.
        monkeypatch.setattr(Profiler, "profile_benchmark", simulated)
        monkeypatch.setattr(Profiler, "profile_service", simulated)
        assert main(["run", "db", *cache, "--strict", *WINDOW_ARGS]) == cold == 0
        assert capsys.readouterr().out == cold_out

    def test_report_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        assert main(["report", "db", "--disk", "2", "--out", str(path),
                     *WINDOW_ARGS]) == 0
        text = path.read_text()
        assert "Mode breakdown (Table 2)" in text
        assert "Power budget" in text

    def test_sensitivity_command(self, capsys):
        assert main(["sensitivity", "tlb_entries", "32", "128",
                     "--benchmark", "db", "--window", "8000"]) == 0
        out = capsys.readouterr().out
        assert "sweep of tlb_entries" in out
        assert "best EDP" in out

    def test_checkpoint_created_when_missing(self, tmp_path, capsys):
        path = tmp_path / "fresh" / "cache"
        assert main(["checkpoint", "db", "--cache-dir", str(path),
                     *WINDOW_ARGS]) == 0
        assert list(path.glob("*.json"))

    @pytest.mark.parametrize("no_cache", [False, True])
    def test_checkpoint_needs_a_cache_dir(
        self, tmp_path, monkeypatch, capsys, no_cache
    ):
        # --no-cache wins over a cache directory named in the environment.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path) if no_cache else "")
        option = ["--no-cache"] if no_cache else []
        assert main(["checkpoint", "db", *option, *WINDOW_ARGS]) == 2
        assert "cache directory" in capsys.readouterr().err

    def test_suite_report_is_the_same_at_every_worker_count(self, tmp_path):
        paths = [tmp_path / f"suite-{workers}.txt" for workers in (1, 2)]
        for workers, path in zip((1, 2), paths):
            assert main(["report", "suite", "--workers", str(workers),
                         "--out", str(path), "--no-cache", "--window", "3000",
                         "--seed", "1"]) == 0
        assert paths[0].read_text() == paths[1].read_text()

    @pytest.mark.parametrize("parameter, value", [
        ("vdd", "nan"), ("vdd", "inf"),
        ("calibration", "nan"), ("calibration", "inf"),
        ("clock_hz", "nan"), ("clock_hz", "inf"),
        ("spindown_threshold_s", "nan"),
    ])
    def test_sensitivity_rejects_non_finite_values(
        self, capsys, parameter, value
    ):
        assert main(["sensitivity", parameter, value, "--no-cache",
                     "--window", "2000"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sensitivity_rejects_clock_below_floor(self, capsys, monkeypatch):
        def simulate(*args, **kwargs):
            raise AssertionError("the sweep simulated")

        monkeypatch.setattr(SoftWatt, "run", simulate)
        assert main(["sensitivity", "clock_hz", "1", "--no-cache",
                     "--window", "2000"]) == 2
        assert "technology.clock_hz" in capsys.readouterr().err
