"""Tests for the supervised profiling and sweep fan-out."""

import functools
import pickle

from repro.core.campaign import SweepCampaign
from repro.core.checkpoint import encode_profile
from repro.core.softwatt import SERVICE_WARMUP, SoftWatt, _profile_service
from repro.kernel.modes import KERNEL_SERVICES
from repro.parallel import parallel_map
from repro.resilience.faults import FaultPlan
from repro.workloads.specjvm98 import benchmark

WINDOW = 4000
NAMES = ("jess", "db")
SERVICES = ("read", "write", "utlb")


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
    """A fan-out task is a picklable callable plus its item; a pool
    child runs an unpickled copy, which must answer like the original."""

    def test_tasks_pickle(self):
        sw = SoftWatt(window_instructions=WINDOW, seed=1, use_cache=False)
        bench_task = pickle.loads(pickle.dumps(sw.profiler.profile_benchmark))
        assert bench_task.__func__ is type(sw.profiler).profile_benchmark
        assert bench_task.__self__ is not sw.profiler
        assert bench_task.__self__.seed == sw.profiler.seed
        service_fn, (profiler, service) = pickle.loads(pickle.dumps((
            functools.partial(_profile_service, invocations=10),
            (sw.profiler, "read"),
        )))
        assert service_fn.func is _profile_service
        assert service_fn.keywords == {"invocations": 10}
        assert service == "read"
        assert profiler.config == sw.profiler.config
        assert pickle.loads(pickle.dumps(sw)).config == sw.config

    def test_benchmark_task_matches_shared_profiler(self):
        sw = SoftWatt(window_instructions=WINDOW, seed=1, use_cache=False)
        direct = sw.profile("jess")
        task = pickle.loads(pickle.dumps(sw.profiler.profile_benchmark))
        task_result = task(benchmark("jess"))
        for name, phase in direct.phases.items():
            other = task_result.phases[name]
            assert other.aggregate.cycles == phase.aggregate.cycles
            assert other.aggregate.instructions == phase.aggregate.instructions

    def test_service_task_matches_shared_profiler(self):
        sw = SoftWatt(window_instructions=WINDOW, seed=1, use_cache=False)
        direct = sw.profiler.profile_service(
            "read", invocations=10, warmup=SERVICE_WARMUP
        ).priced(sw.model)
        task, item = pickle.loads(pickle.dumps((
            functools.partial(_profile_service, invocations=10),
            (sw.profiler, "read"),
        )))
        task_result = task(item)
        assert task_result.mean_cycles == direct.mean_cycles
        assert task_result.priced(sw.model).energies_j == direct.energies_j


def _stages(workers: int, fault_plan: FaultPlan | None):
    """Answers and per-task attempts of the three fan-out stages: a
    suite's profiling, the kernel services and a two-point structural
    sweep."""
    options = dict(
        cpu_model="mipsy", window_instructions=2000, seed=1, use_cache=False,
        workers=workers, fault_plan=fault_plan,
    )
    suite = SoftWatt(**options).profile_many(NAMES)
    services = SoftWatt(**options).service_profiles(SERVICES, invocations=8)
    # Two TLB sizes: two structural points on one service machine.
    sweep = SweepCampaign(benchmark="jess", **options).run_grid(
        {"tlb_entries": [48, 96]}
    )
    answers = (
        {name: encode_profile(profile) for name, profile in suite.items()},
        {
            name: (profile.mean_cycles, profile.energies_j)
            for name, profile in services.items()
        },
        sweep.points,
    )
    attempts = [
        [(task.label, task.attempts, task.status) for task in report.tasks]
        for report in (suite.report, services.report, sweep.report)
    ]
    return answers, attempts


def test_every_stage_is_supervised_alike_at_every_worker_count():
    clean, _ = _stages(1, None)
    fault = FaultPlan.error_at(0)
    serial, serial_attempts = _stages(1, fault)
    pooled, pooled_attempts = _stages(2, fault)
    assert serial == clean
    assert pooled == clean
    assert serial_attempts == pooled_attempts
    suite, services, sweep = serial_attempts
    assert suite == [("jess", 2, "ok"), ("db", 1, "ok")]
    assert services == [("read", 2, "ok"), ("write", 1, "ok"), ("utlb", 1, "ok")]
    # The sweep's report holds its service stage, then its two points.
    assert sweep[0][1:] == (2, "ok")
    assert len(sweep) == len(KERNEL_SERVICES) + 2
    assert sweep[-2:] == [("tlb_entries=48", 2, "ok"), ("tlb_entries=96", 1, "ok")]


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
