"""Tests for the fault-tolerant simulation supervisor.

The deterministic :class:`FaultPlan` harness injects crashes, hangs,
errors, corrupt cache entries, and truncated checkpoints at controlled
points, so every recovery path in ``repro.resilience`` runs in CI —
including the regression proving that a recovered run stays
bit-identical to a clean one (against ``tests/data/golden_energy.json``).
"""

import dataclasses
import json
import pathlib

import pytest

from repro.cli import main
from repro.core.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from repro.core.softwatt import SoftWatt
from repro.core.profiles import Profiler
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RunReport,
    SupervisionInterrupted,
    SupervisorPolicy,
    TaskExecutionError,
    corrupt_file,
    supervised_map,
    truncate_file,
)
from repro.stats.simlog import recent_degradations

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_energy.json"

WINDOW = 4000


def _double(value):
    return 2 * value


class TestFaultPlan:
    def test_action_is_deterministic(self):
        plan = FaultPlan(
            specs=(FaultSpec("crash", 1), FaultSpec("error", 3, attempts=2))
        )
        for _ in range(3):
            assert plan.action(1, 1) == "crash"
            assert plan.action(1, 2) is None
            assert plan.action(3, 2) == "error"
            assert plan.action(3, 3) is None
            assert plan.action(0, 1) is None

    def test_parse(self):
        plan = FaultPlan.parse("crash@1,hang@2x3, error@0")
        assert plan.specs == (
            FaultSpec("crash", 1),
            FaultSpec("hang", 2, attempts=3),
            FaultSpec("error", 0),
        )

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="fault spec"):
            FaultPlan.parse("zap@x")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("explode@1")

    def test_corrupt_file_is_seeded(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for path in (a, b):
            path.write_bytes(b"x" * 64)
            corrupt_file(path, seed=7)
        assert a.read_bytes() == b.read_bytes() != b"x" * 64

    def test_truncate_file(self, tmp_path):
        path = tmp_path / "t"
        path.write_bytes(b"y" * 64)
        truncate_file(path, keep_bytes=8)
        assert path.read_bytes() == b"y" * 8


class TestPolicy:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(retries=-1)
        with pytest.raises(ValueError):
            SupervisorPolicy(task_timeout_s=0.0)


class TestInterrupt:
    def test_interrupt_carries_partial_report(self):
        calls = []

        def flaky(value):
            calls.append(value)
            if value == 2:
                raise KeyboardInterrupt
            return 2 * value

        with pytest.raises(SupervisionInterrupted) as info:
            supervised_map(flaky, [1, 2, 3])
        report = info.value.report
        assert calls == [1, 2]  # task 2 never ran
        assert len(report.completed) == 1
        assert report.completed[0].index == 0
        assert any(d.kind == "interrupted" for d in report.degradations)

    def test_interrupt_is_a_keyboard_interrupt(self):
        # `except KeyboardInterrupt` in callers keeps working.
        assert issubclass(SupervisionInterrupted, KeyboardInterrupt)

    def test_cli_interrupt_exits_130_with_summary(self, monkeypatch, capsys):
        def boom(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(SoftWatt, "validate_max_power", boom)
        assert main(["validate", "--no-cache"]) == 130
        captured = capsys.readouterr()
        assert "interrupted" in captured.err
        assert "Traceback" not in captured.err


class TestSerialSupervision:
    def test_plain_map(self):
        results, report = supervised_map(_double, [1, 2, 3])
        assert results == [2, 4, 6]
        assert report.ok and len(report.completed) == 3

    def test_error_fault_is_retried(self):
        results, report = supervised_map(
            _double, [5, 6], fault_plan=FaultPlan.error_at(1, attempts=2)
        )
        assert results == [10, 12]
        records = {task.index: task for task in report.tasks}
        assert records[0].attempts == 1
        assert records[1].attempts == 3
        assert report.ok  # retries recovered; nothing degraded

    def test_retry_exhaustion_raises_with_report(self):
        with pytest.raises(TaskExecutionError) as info:
            supervised_map(
                _double, [1, 2],
                policy=SupervisorPolicy(retries=1),
                fault_plan=FaultPlan.error_at(0, attempts=99),
            )
        report = info.value.report
        assert [task.label for task in report.failed] == ["task-0"]
        assert report.failed[0].attempts == 2
        # The work that finished survives, and the cause stays typed.
        assert info.value.results == [None, 4]
        assert isinstance(info.value.__cause__, InjectedFault)

    def test_best_effort_yields_none_slot(self):
        results, report = supervised_map(
            _double, [1, 2],
            policy=SupervisorPolicy(retries=1, best_effort=True),
            fault_plan=FaultPlan.error_at(0, attempts=99),
        )
        assert results == [None, 4]
        assert [task.status for task in report.tasks] == ["failed", "ok"]
        assert any(d.kind == "task-failed" for d in report.degradations)

    def test_timeout_in_process_is_reported_unenforced(self):
        results, report = supervised_map(
            _double, [1, 2], policy=SupervisorPolicy(task_timeout_s=0.5)
        )
        assert results == [2, 4]
        assert [d.kind for d in report.degradations] == ["timeout-unenforced"]
        assert any("timeout-unenforced" in m for m in recent_degradations())

    def test_crash_fault_raises_in_process(self):
        # A crash fault must never kill the supervising process itself.
        results, report = supervised_map(
            _double, [1], fault_plan=FaultPlan.crash_at(0)
        )
        assert results == [2]
        assert report.tasks[0].attempts == 2

    def test_pool_unavailable_degrades_to_serial(self, monkeypatch):
        import multiprocessing

        def broken(method):
            raise ValueError(f"no {method} on this platform")

        monkeypatch.setattr(multiprocessing, "get_context", broken)
        results, report = supervised_map(_double, [1, 2, 3], workers=4)
        assert results == [2, 4, 6]
        assert report.serial_fallback
        assert [d.kind for d in report.degradations] == ["pool-unavailable"]
        assert any("pool-unavailable" in m for m in recent_degradations())


class TestPoolSupervision:
    def test_crash_requeues_only_unfinished(self):
        # One sequential worker: tasks 0..k-1 complete, the crash at k
        # breaks the pool, and ONLY tasks >= k are re-executed.
        results, report = supervised_map(
            _double, list(range(5)),
            workers=1, use_pool=True,
            fault_plan=FaultPlan.crash_at(2),
        )
        assert results == [0, 2, 4, 6, 8]
        attempts = {task.index: task.attempts for task in report.tasks}
        assert attempts == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
        assert report.pool_breaks == 1
        assert [d.kind for d in report.degradations] == ["pool-broken"]

    def test_completed_results_survive_the_break(self):
        results, report = supervised_map(
            _double, list(range(6)),
            workers=2,
            fault_plan=FaultPlan.crash_at(3),
        )
        assert results == [2 * v for v in range(6)]
        assert report.pool_breaks == 1
        assert all(task.ok for task in report.tasks)

    @pytest.mark.fault_injection
    def test_hang_is_timed_out_and_retried(self):
        plan = dataclasses.replace(FaultPlan.hang_at(1), hang_seconds=10.0)
        results, report = supervised_map(
            _double, [1, 2, 3],
            workers=2,
            policy=SupervisorPolicy(task_timeout_s=0.4, retries=2),
            fault_plan=plan,
        )
        assert results == [2, 4, 6]
        records = {task.index: task for task in report.tasks}
        assert records[1].attempts == 2
        assert report.pool_restarts == 1
        assert [d.kind for d in report.degradations] == ["task-timeout"]

    @pytest.mark.fault_injection
    def test_lone_task_with_a_timeout_runs_in_the_pool(self):
        plan = dataclasses.replace(FaultPlan.hang_at(0), hang_seconds=10.0)
        results, report = supervised_map(
            _double, [1],
            workers=2,
            policy=SupervisorPolicy(task_timeout_s=0.4),
            fault_plan=plan,
        )
        assert results == [2]
        assert report.tasks[0].attempts == 2
        assert report.pool_restarts == 1

    @pytest.mark.fault_injection
    def test_timeout_retry_exhaustion_fails_the_task(self):
        plan = dataclasses.replace(
            FaultPlan.hang_at(0, attempts=99), hang_seconds=10.0
        )
        results, report = supervised_map(
            _double, [1, 2],
            workers=2,
            policy=SupervisorPolicy(
                task_timeout_s=0.3, retries=1, best_effort=True
            ),
            fault_plan=plan,
        )
        assert results == [None, 4]
        failed = report.failed
        assert len(failed) == 1 and failed[0].index == 0
        assert "timed out" in failed[0].error

    @pytest.mark.fault_injection
    def test_repeated_breaks_degrade_to_serial(self):
        plan = FaultPlan(
            specs=(
                FaultSpec("crash", 0),
                FaultSpec("crash", 1),
                FaultSpec("crash", 2),
            )
        )
        results, report = supervised_map(
            _double, list(range(4)),
            workers=1, use_pool=True,
            fault_plan=plan,
        )
        assert results == [0, 2, 4, 6]
        assert report.serial_fallback
        assert report.pool_breaks == 3
        assert [d.kind for d in report.degradations][-1] == "serial-fallback"


class TestRunReport:
    def test_merge_accumulates(self):
        one, two = RunReport(), RunReport()
        one.add_degradation("pool-broken", "a")
        two.add_degradation("task-timeout", "b")
        two.pool_breaks = 1
        two.serial_fallback = True
        one.merge(two)
        assert [d.kind for d in one.degradations] == [
            "pool-broken", "task-timeout"
        ]
        assert one.pool_breaks == 1 and one.serial_fallback

    def test_to_dict_round_trips_through_json(self):
        report = RunReport()
        report.add_degradation("pool-broken", "x")
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["degradations"][0]["kind"] == "pool-broken"

    def test_summary_names_failures(self):
        _, report = supervised_map(
            _double, [1],
            policy=SupervisorPolicy(retries=0, best_effort=True),
            fault_plan=FaultPlan.error_at(0, attempts=9),
        )
        text = report.summary()
        assert "0/1 tasks ok" in text and "FAILED task-0" in text


class TestCheckpointFailurePaths:
    def test_truncated_checkpoint_raises_checkpoint_error(self, tmp_path):
        sw = SoftWatt(window_instructions=WINDOW, seed=1, use_cache=False)
        sw.profile("jess")
        path = tmp_path / "ck.json"
        save_checkpoint(path, profiles=sw._profiles)
        truncate_file(path, keep_bytes=40)
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(path)

    def test_corrupt_cache_entry_is_quarantined_not_deleted(self, tmp_path):
        sw = SoftWatt(window_instructions=WINDOW, seed=1, cache_dir=tmp_path)
        sw.profile("jess")
        entries = list(tmp_path.glob("*.json"))
        assert entries
        for path in entries:
            corrupt_file(path, seed=3)
        fresh = SoftWatt(window_instructions=WINDOW, seed=1, cache_dir=tmp_path)
        fresh.profile("jess")
        assert fresh.profiler.detailed_runs == 1
        assert fresh.cache.stats.quarantined == len(entries)
        quarantined = fresh.cache.quarantined_entries()
        assert [p.name for p in quarantined] == sorted(e.name for e in entries)
        assert any("cache-quarantine" in m for m in recent_degradations())

    def test_warm_cache_run_with_one_quarantined_entry(self, tmp_path):
        cold = SoftWatt(window_instructions=WINDOW, seed=1, cache_dir=tmp_path)
        reference = {
            name: result.total_energy_j
            for name, result in cold.run_suite(names=("jess", "db")).items()
        }
        # Corrupt exactly one benchmark entry; the warm run must
        # quarantine it, re-profile only that benchmark, and reproduce
        # the same energies.
        key = cold._profile_key(cold._profiles["jess"].spec)
        corrupt_file(tmp_path / f"{key}.json", seed=5)
        warm = SoftWatt(window_instructions=WINDOW, seed=1, cache_dir=tmp_path)
        results = warm.run_suite(names=("jess", "db"))
        assert warm.profiler.detailed_runs == 1
        assert warm.cache.stats.quarantined == 1
        for name, energy in reference.items():
            assert results[name].total_energy_j == energy

    @pytest.mark.parametrize("tier", ["atomic", "sampled"])
    def test_sub_detailed_entries_never_serve_detailed_requests(
        self, tmp_path, tier
    ):
        """A warm sub-detailed cache must not poison a detailed run.

        The fidelity tier (and its sampling knobs) are part of the
        profile cache key, so a detailed request against a cache warmed
        at a cheaper tier re-simulates and reproduces the no-cache
        detailed energies exactly.
        """
        approx = SoftWatt(
            cpu_model="mipsy", window_instructions=WINDOW, seed=1,
            cache_dir=tmp_path, fidelity=tier,
        )
        approx.run("jess")
        assert list(tmp_path.glob("*.json"))  # the tier did warm a cache
        detailed = SoftWatt(
            cpu_model="mipsy", window_instructions=WINDOW, seed=1,
            cache_dir=tmp_path,
        )
        result = detailed.run("jess")
        assert detailed.profiler.detailed_runs >= 1  # cache miss: re-simulated
        clean = SoftWatt(
            cpu_model="mipsy", window_instructions=WINDOW, seed=1,
            use_cache=False,
        ).run("jess")
        assert result.total_energy_j == clean.total_energy_j
        # and the warm sub-detailed instance keeps hitting its own entry
        rewarm = SoftWatt(
            cpu_model="mipsy", window_instructions=WINDOW, seed=1,
            cache_dir=tmp_path, fidelity=tier,
        )
        rewarm.run("jess")
        assert rewarm.profiler.detailed_runs == 0


class TestSuiteRecovery:
    @pytest.mark.fault_injection
    def test_broken_pool_mid_suite_is_bit_identical(self):
        names = ("jess", "db", "javac")
        clean = SoftWatt(
            window_instructions=WINDOW, seed=1, use_cache=False
        ).run_suite(names=names, workers=1)
        faulty = SoftWatt(
            window_instructions=WINDOW, seed=1, use_cache=False,
            fault_plan=FaultPlan.crash_at(1),
        ).run_suite(names=names, workers=2)
        assert set(faulty) == set(names)
        assert faulty.report.pool_breaks == 1
        assert [d.kind for d in faulty.report.degradations] == ["pool-broken"]
        for name in names:
            assert faulty[name].total_energy_j == clean[name].total_energy_j
            assert faulty[name].disk_energy_j == clean[name].disk_energy_j
            assert faulty[name].idle_cycles == clean[name].idle_cycles

    @pytest.mark.fault_injection
    def test_recovered_suite_matches_golden_snapshot(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        names = ("jess", "db")
        faulty = SoftWatt(
            window_instructions=golden["window_instructions"],
            seed=golden["seed"],
            use_cache=False,
            fault_plan=FaultPlan.crash_at(1),
        ).run_suite(names=names, disk=golden["disk"], workers=2)
        assert len(faulty.report.degradations) == 1
        assert faulty.report.degradations[0].kind == "pool-broken"
        for name in names:
            expected = golden["benchmarks"][f"mxs/{name}"]
            assert faulty[name].total_energy_j == expected["total_energy_j"]
            assert faulty[name].disk_energy_j == expected["disk_energy_j"]
            assert faulty[name].power_budget() == expected["budget_w"]

    def test_best_effort_suite_skips_failed_benchmark(self):
        results = SoftWatt(
            window_instructions=WINDOW, seed=1, use_cache=False,
            retries=0, best_effort=True,
            fault_plan=FaultPlan.error_at(0, attempts=99),
        ).run_suite(names=("jess", "db"), workers=2)
        assert set(results) == {"db"}
        assert [task.status for task in results.report.tasks] == [
            "failed", "ok"
        ]


class TestBestEffortServices:
    """A best-effort run whose service characterisation failed says
    which services its timeline ran without, and does not keep the
    incomplete set: the next run characterises again."""

    def test_missing_service_is_reported_then_retried(self):
        softwatt = SoftWatt(
            window_instructions=2000, seed=1, use_cache=False,
            best_effort=True, retries=0,
            fault_plan=FaultPlan.parse("error@1x9"),
        )
        degraded = softwatt.run("jess").total_energy_j
        missing = [
            d for d in softwatt.run_report.degradations
            if d.kind == "service-missing"
        ]
        assert len(missing) == 1 and "read" in missing[0].detail
        assert any("service-missing" in m for m in recent_degradations())
        softwatt.fault_plan = None
        clean = SoftWatt(window_instructions=2000, seed=1, use_cache=False)
        assert softwatt.run("jess").total_energy_j == (
            clean.run("jess").total_energy_j
        )
        assert degraded != clean.run("jess").total_energy_j
        assert len([
            d for d in softwatt.run_report.degradations
            if d.kind == "service-missing"
        ]) == 1


@pytest.mark.parametrize("workers", [1, 2])
class TestFailedStageKeepsWork:
    """A stage that raises still stores every profile that completed."""

    def _failing(self, tmp_path, workers):
        return SoftWatt(
            window_instructions=WINDOW, seed=1, cache_dir=tmp_path,
            workers=workers, retries=0, fault_plan=FaultPlan.parse("error@1x9"),
        )

    def _warm(self, tmp_path):
        return SoftWatt(window_instructions=WINDOW, seed=1, cache_dir=tmp_path)

    def test_benchmark_stage(self, tmp_path, workers):
        names = ("jess", "db", "javac")
        with pytest.raises(TaskExecutionError) as info:
            self._failing(tmp_path, workers).profile_many(names)
        assert isinstance(info.value.__cause__, InjectedFault)
        assert [task.label for task in info.value.report.failed] == ["db"]
        warm = self._warm(tmp_path)
        assert set(warm.profile_many(names)) == set(names)
        assert warm.profiler.detailed_runs == 1

    def test_service_stage(self, tmp_path, workers):
        services = ("read", "write", "utlb")
        with pytest.raises(TaskExecutionError) as info:
            self._failing(tmp_path, workers).service_profiles(
                services, invocations=4
            )
        assert isinstance(info.value.__cause__, InjectedFault)
        warm = self._warm(tmp_path)
        assert set(warm.service_profiles(services, invocations=4)) == set(services)
        assert warm.profiler.detailed_runs == 1


class TestCLIResilience:
    def test_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["suite", "--task-timeout", "30", "--retries", "1", "--strict",
             "--fault-plan", "crash@0"]
        )
        assert args.task_timeout == 30.0
        assert args.retries == 1
        assert args.strict and not args.best_effort

    def test_strict_and_best_effort_exclusive(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--strict", "--best-effort"])

    def test_bad_fault_plan_exits_2(self):
        assert main(["validate", "--fault-plan", "zap@x"]) == 2

    @pytest.mark.fault_injection
    def test_strict_mode_exits_nonzero_on_degraded_run(self, tmp_path, capsys):
        base = ["checkpoint", "db", "jess", "--out", str(tmp_path / "ck.json"),
                "--window", str(WINDOW), "--seed", "1", "--workers", "2",
                "--no-cache", "--fault-plan", "crash@1"]
        assert main([*base, "--strict"]) == 1
        out = capsys.readouterr().out
        assert "run report:" in out
        assert "pool-broken" in out
        # The identical degraded run is tolerated without --strict.
        assert main(base) == 0

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_best_effort_services_prints_skipped_row(self, capsys, workers):
        assert main(
            ["services", "--workers", workers, "--best-effort", "--retries", "0",
             "--fault-plan", "error@0x9", "--window", "2000",
             "--invocations", "2", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        rows = {line.split()[0]: line for line in out.splitlines() if line}
        assert "SKIPPED" in rows["utlb"]
        assert "SKIPPED" not in rows["read"]
        assert "FAILED utlb" in out

    @pytest.mark.parametrize(
        "option", [["--fault-plan", "hang@0"], ["--task-timeout", "5"]]
    )
    def test_uninterruptible_options_need_a_pool(
        self, monkeypatch, capsys, option
    ):
        def simulated(*args, **kwargs):
            raise AssertionError("simulated before rejecting the options")

        monkeypatch.setattr(Profiler, "profile_benchmark", simulated)
        monkeypatch.setattr(Profiler, "profile_service", simulated)
        assert main(["suite", "--workers", "1", "--no-cache", *option]) == 2
        assert "--workers 2 or more" in capsys.readouterr().err
