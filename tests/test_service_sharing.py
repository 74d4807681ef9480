"""Kernel-service characterisation is shared by everything it cannot see.

A service profile is keyed only by what its simulation reads (caches,
memory, core; see ``service_cache_key``).  These tests pin the
invariant that makes that sound (handlers never translate, so TLB,
technology and fidelity rung leave the measurements bit-identical, and
a handler that does translate fails loudly), the sharing it buys
(a structural grid characterises each simulated machine once, with
and without the persistent cache, serially and fanned out), and the
matching fix for benchmark profiles, which ignore technology.
"""

import collections
import dataclasses

import pytest

from repro.config import SystemConfig
from repro.core.campaign import SweepCampaign, point_from_result
from repro.core.profiles import Profiler, ServiceTranslationError
from repro.core.softwatt import SoftWatt
from repro.isa.instruction import OpClass
from repro.kernel.kernel import Kernel
from repro.kernel.modes import KERNEL_SERVICES
from repro.power.processor import ProcessorPowerModel
from tests.test_profile_cache import SERVICE_BLIND_VARIANTS

USER_ADDRESS = 0x1000_0000


def _measurements(config, cpu_model, **kwargs):
    profiler = Profiler(config, cpu_model=cpu_model, seed=1)
    return {
        service: profiler.profile_service(service, **kwargs)
        for service in KERNEL_SERVICES
    }


def _raw(profile):
    return profile.cycles, profile.counters, profile.instructions


@pytest.mark.parametrize("cpu_model", ["mxs", "mipsy"])
def test_service_measurements_ignore_tlb_technology_and_fidelity(cpu_model):
    reference = _measurements(
        SystemConfig.table1(), cpu_model, invocations=2, warmup=1
    )
    for variant in SERVICE_BLIND_VARIANTS:
        measured = _measurements(variant, cpu_model, invocations=2, warmup=1)
        for service in KERNEL_SERVICES:
            assert _raw(measured[service]) == _raw(reference[service]), (
                service, variant)


@pytest.mark.parametrize("cpu_model", ["mxs", "mipsy"])
def test_handler_that_translates_raises(monkeypatch, cpu_model):
    original = Kernel.invoke_service

    def translating(self, name, **kwargs):
        body = list(original(self, name, **kwargs))
        user_load = dataclasses.replace(
            body[0], op=OpClass.LOAD, dest=8, srcs=(9,),
            address=USER_ADDRESS, size=8,
        )
        return iter([user_load, *body])

    monkeypatch.setattr(Kernel, "invoke_service", translating)
    profiler = Profiler(cpu_model=cpu_model, seed=1)
    with pytest.raises(ServiceTranslationError, match="read"):
        profiler.profile_service("read", invocations=2, warmup=0)


def test_thirty_invocations_are_a_prefix_of_sixty():
    """The timeline's 30-invocation profile is the first half of the
    60-invocation Table 5 run, service by service."""
    model = ProcessorPowerModel(SystemConfig.table1())
    profiler = Profiler(seed=1)
    for service in KERNEL_SERVICES:
        short = profiler.profile_service(service, invocations=30).priced(model)
        long = profiler.profile_service(service, invocations=60).priced(model)
        assert short.cycles == long.cycles[:30], service
        assert short.counters == long.counters[:30], service
        assert short.energies_j == long.energies_j[:30], service


# ---------------------------------------------------------------------------
# Campaign-level sharing
# ---------------------------------------------------------------------------

SETTINGS = dict(benchmark="jess", cpu_model="mipsy", window_instructions=4000,
                seed=1)
GRID = {"l1_size": [8192, 16384, 65536], "tlb_entries": [48, 96]}


def _offline_points(axes):
    campaign = SweepCampaign(use_cache=False, **SETTINGS)
    return [
        point_from_result(
            planned.value,
            SoftWatt(
                config=planned.config,
                cpu_model=SETTINGS["cpu_model"],
                window_instructions=SETTINGS["window_instructions"],
                seed=SETTINGS["seed"],
                use_cache=False,
            ).run(SETTINGS["benchmark"], disk=planned.policy,
                  idle_policy=campaign.idle_policy),
        )
        for planned in campaign.plan_grid(axes)
    ]


@pytest.fixture(scope="module")
def offline_grid():
    return _offline_points(GRID)


def _count_calls(monkeypatch, tmp_path, name):
    """Log every ``Profiler.<name>`` call to a file, fork workers too."""
    log = tmp_path / f"{name}.log"
    log.touch()
    original = getattr(Profiler, name)

    def counted(self, *args, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{getattr(args[0], 'name', args[0])}\n")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Profiler, name, counted)
    return log


@pytest.mark.parametrize("use_cache", [True, False])
@pytest.mark.parametrize("workers", [1, 2])
def test_grid_characterises_each_machine_once(
    tmp_path, monkeypatch, offline_grid, workers, use_cache
):
    log = _count_calls(monkeypatch, tmp_path, "profile_service")
    sweep = SweepCampaign(
        workers=workers, use_cache=use_cache, cache_dir=tmp_path / "cache",
        **SETTINGS,
    ).run_grid(GRID)
    calls = collections.Counter(log.read_text().split())
    # Three L1 sizes are three machines; the TLB axis is invisible.
    assert sum(calls.values()) == 3 * len(KERNEL_SERVICES)
    assert set(calls) == set(KERNEL_SERVICES)
    assert sweep.tiers == ("STRUCTURAL",) * 6
    assert "3 service characterisations for 6 structural points" in (
        sweep.report.notes)
    assert sweep.points == offline_grid


def test_benchmark_profiles_shared_across_technology(tmp_path, monkeypatch):
    axes = {"l1_size": [8192, 16384], "vdd": [2.5, 3.0, 3.3]}
    log = _count_calls(monkeypatch, tmp_path, "profile_benchmark")
    sweep = SweepCampaign(
        cache_dir=tmp_path / "cache", **SETTINGS
    ).run_grid(axes)
    assert sweep.tiers == ("STRUCTURAL",) * 6
    assert len(log.read_text().split()) == 2
    monkeypatch.undo()
    assert sweep.points == _offline_points(axes)
