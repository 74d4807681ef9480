"""Tests for the process-pool profiling fan-out."""

import pickle

from repro.config import SystemConfig
from repro.core.softwatt import SoftWatt
from repro.parallel import (
    ProfileBenchmarkTask,
    ProfileServiceTask,
    parallel_map,
    run_profile_benchmark_task,
    run_profile_service_task,
)
from repro.workloads.specjvm98 import benchmark

WINDOW = 4000
NAMES = ("jess", "db")


def _square(value):
    return value * value


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_pool_path_preserves_order(self):
        assert parallel_map(_square, list(range(8)), workers=4) == [
            v * v for v in range(8)
        ]

    def test_single_item_stays_serial(self):
        assert parallel_map(_square, [7], workers=4) == [49]


class TestTasks:
    def test_tasks_pickle(self):
        config = SystemConfig.table1()
        bench_task = ProfileBenchmarkTask(
            spec=benchmark("jess"), config=config, cpu_model="mxs",
            window_instructions=WINDOW, startup_chunks=4, steady_chunks=2,
            seed=1,
        )
        service_task = ProfileServiceTask(
            service="read", config=config, cpu_model="mxs",
            invocations=10, warmup=6, seed=1,
        )
        assert pickle.loads(pickle.dumps(bench_task)) == bench_task
        assert pickle.loads(pickle.dumps(service_task)) == service_task

    def test_benchmark_task_matches_shared_profiler(self):
        sw = SoftWatt(window_instructions=WINDOW, seed=1, use_cache=False)
        direct = sw.profile("jess")
        task_result = run_profile_benchmark_task(
            ProfileBenchmarkTask(
                spec=benchmark("jess"), config=sw.config, cpu_model="mxs",
                window_instructions=WINDOW,
                startup_chunks=sw.profiler.startup_chunks,
                steady_chunks=sw.profiler.steady_chunks,
                seed=1,
            )
        )
        for name, phase in direct.phases.items():
            other = task_result.phases[name]
            assert other.aggregate.cycles == phase.aggregate.cycles
            assert other.aggregate.instructions == phase.aggregate.instructions

    def test_service_task_matches_shared_profiler(self):
        sw = SoftWatt(window_instructions=WINDOW, seed=1, use_cache=False)
        direct = sw.profiler.profile_service(
            "read", invocations=10
        ).priced(sw.model)
        task_result = run_profile_service_task(
            ProfileServiceTask(
                service="read", config=sw.config, cpu_model="mxs",
                invocations=10, warmup=6, seed=1,
            )
        )
        assert task_result.mean_cycles == direct.mean_cycles
        assert task_result.priced(sw.model).energies_j == direct.energies_j


class TestSuiteBitIdentity:
    def test_parallel_suite_equals_serial(self):
        serial = SoftWatt(
            window_instructions=WINDOW, seed=1, use_cache=False
        ).run_suite(names=NAMES, workers=1)
        parallel = SoftWatt(
            window_instructions=WINDOW, seed=1, use_cache=False
        ).run_suite(names=NAMES, workers=4)
        assert set(serial) == set(parallel) == set(NAMES)
        for name in NAMES:
            a, b = serial[name], parallel[name]
            assert b.total_energy_j == a.total_energy_j
            assert b.disk_energy_j == a.disk_energy_j
            assert b.idle_cycles == a.idle_cycles
            assert b.timeline.duration_s == a.timeline.duration_s

    def test_service_profiles_parallel_equals_serial(self):
        serial = SoftWatt(
            window_instructions=WINDOW, seed=1, use_cache=False
        ).service_profiles(("read", "write", "utlb"), invocations=8, workers=1)
        parallel = SoftWatt(
            window_instructions=WINDOW, seed=1, use_cache=False
        ).service_profiles(("read", "write", "utlb"), invocations=8, workers=4)
        for name, profile in serial.items():
            assert parallel[name].mean_cycles == profile.mean_cycles
            assert parallel[name].energies_j == profile.energies_j
