"""Tests for the fidelity-tiered execution ladder (DESIGN.md §11).

Three properties pin the tiers:

* **determinism** — same seed, same tier, same counters, for both CPU
  flavours;
* **bounded error** — over the whole suite each rung stays within its
  published bound of detailed total energy, per CPU flavour and window
  (the ``fidelity`` marker tags the suite-wide sweeps);
* **isolation** — the detailed path is byte-identical to the
  pre-fidelity code (the golden pins enforce the energies; here we
  check the plumbing returns the unwrapped cores), and sub-detailed
  profiles can never be served from or poison a detailed profile
  cache because the tier is part of the cache key.
"""

import dataclasses
import itertools
import pickle

import pytest

from repro.cli import main
from repro.config.system import (
    ConfigError,
    FidelityConfig,
    FidelityTier,
    SystemConfig,
)
from repro.core import profiles
from repro.core.checkpoint import profile_cache_key
from repro.core.profiles import Profiler, make_tier_cpu
from repro.core.softwatt import SoftWatt
from repro.cpu import MipsyProcessor, MXSProcessor
from repro.cpu.atomic import AtomicProcessor, CursorMXS
from repro.cpu.sampled import SampledProcessor
from repro.isa import CodeSignature, SyntheticCodeGenerator
from repro.kernel import Kernel
from repro.mem.hierarchy import MemoryHierarchy
from repro.stats.counters import AccessCounters
from repro.workloads.specjvm98 import BENCHMARK_NAMES, benchmark

WINDOW = 4000


def _config(tier, **overrides) -> SystemConfig:
    return SystemConfig.table1().with_fidelity(tier, **overrides)


class TestFidelityConfig:
    def test_parse_accepts_names_and_instances(self):
        assert FidelityTier.parse("atomic") is FidelityTier.ATOMIC
        assert FidelityTier.parse("SAMPLED") is FidelityTier.SAMPLED
        assert FidelityTier.parse(FidelityTier.DETAILED) is FidelityTier.DETAILED

    def test_parse_rejects_unknown_tier(self):
        with pytest.raises(ConfigError, match="fidelity.tier"):
            FidelityTier.parse("cycle-accurate")

    def test_default_is_detailed(self):
        config = SystemConfig.table1()
        assert config.fidelity.tier is FidelityTier.DETAILED

    def test_with_fidelity_overrides(self):
        config = _config("sampled", sample_period=9000, warmup=500)
        assert config.fidelity.tier is FidelityTier.SAMPLED
        assert config.fidelity.sample_period == 9000
        assert config.fidelity.warmup == 500
        # untouched knob keeps its default
        assert config.fidelity.sample_window == FidelityConfig().sample_window

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"sample_window": 0}, "fidelity.sample_window"),
            ({"warmup": -1}, "fidelity.warmup"),
            ({"sample_period": 100}, "fidelity.sample_period"),
        ],
    )
    def test_validate_rejects_bad_sampling_params(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            _config("sampled", **overrides).validate()

    def test_validate_rejects_wrong_types(self):
        config = dataclasses.replace(
            SystemConfig.table1(), fidelity="atomic"
        )
        with pytest.raises(ConfigError, match="fidelity"):
            config.validate()


class TestTierPlumbing:
    @pytest.mark.parametrize("model", ["mipsy", "mxs"])
    def test_detailed_returns_unwrapped_core(self, model):
        config = SystemConfig.table1()
        hierarchy = MemoryHierarchy(config, AccessCounters())
        cpu = make_tier_cpu(model, config, hierarchy, None)
        assert type(cpu) is {"mipsy": MipsyProcessor, "mxs": MXSProcessor}[model]

    @pytest.mark.parametrize("model", ["mipsy", "mxs"])
    def test_sub_detailed_wrappers(self, model):
        for tier, kind in (("sampled", SampledProcessor),
                           ("atomic", AtomicProcessor)):
            config = _config(tier)
            hierarchy = MemoryHierarchy(config, AccessCounters())
            assert isinstance(
                make_tier_cpu(model, config, hierarchy, None), kind
            )

    @pytest.mark.parametrize(
        "model, core", [("mipsy", MipsyProcessor), ("mxs", CursorMXS)]
    )
    def test_atomic_runs_one_core_per_flavour(self, model, core):
        config = _config("atomic")
        hierarchy = MemoryHierarchy(config, AccessCounters())
        cpu = make_tier_cpu(model, config, hierarchy, None)
        assert type(cpu.cpu) is core
        assert cpu.cpu.hierarchy is hierarchy

    def test_softwatt_fidelity_kwarg(self):
        sw = SoftWatt(fidelity="atomic", use_cache=False)
        assert sw.config.fidelity.tier is FidelityTier.ATOMIC
        sw = SoftWatt(
            fidelity=FidelityConfig(
                tier=FidelityTier.SAMPLED, sample_period=5000,
                sample_window=700, warmup=200,
            ),
            use_cache=False,
        )
        assert sw.config.fidelity.sample_period == 5000


class TestDeterminism:
    @pytest.mark.parametrize("model", ["mipsy", "mxs"])
    @pytest.mark.parametrize("tier", ["atomic", "sampled"])
    def test_same_seed_same_counters(self, model, tier):
        spec = benchmark("jess")

        def profile():
            return Profiler(
                config=_config(tier), cpu_model=model,
                window_instructions=WINDOW, seed=7,
            ).profile_benchmark(spec)

        assert pickle.dumps(profile()) == pickle.dumps(profile())


def _trapping_stream(length: int) -> list:
    """A finite user stream over a large footprint: it takes TLB traps."""
    sig = CodeSignature(name="t", data_footprint_bytes=8 << 20,
                        temporal_locality=0.2)
    return list(itertools.islice(SyntheticCodeGenerator(sig, seed=2), length))


class TestStreamConsumed:
    """``stream_consumed`` counts what a rung pulls from the stream,
    never the trap-handler instructions its core runs in between."""

    LENGTH = 1000

    def _run(self, tier, model, budget):
        config = _config(tier)
        hierarchy = MemoryHierarchy(config, AccessCounters())
        kernel = Kernel(config, hierarchy)
        cpu = make_tier_cpu(model, config, hierarchy, kernel)
        stream = _trapping_stream(self.LENGTH)
        return cpu, cpu.run(iter(stream), max_instructions=budget)

    @pytest.mark.parametrize("model", ["mipsy", "mxs"])
    @pytest.mark.parametrize("tier, budget", [
        ("sampled", None), ("sampled", LENGTH), ("atomic", None),
    ])
    def test_whole_stream_counts_its_length(self, tier, model, budget):
        cpu, stats = self._run(tier, model, budget)
        assert stats.traps > 0
        assert stats.instructions > self.LENGTH
        assert cpu.stream_consumed == self.LENGTH


@pytest.mark.fidelity
class TestErrorBounds:
    """Suite-wide energy error gates, per CPU flavour and window.

    Mipsy at window 6000 keeps the sweep fast; its bounds hold with
    more margin at full-size windows.
    """

    CPU_MODEL = "mipsy"
    WINDOW = 6000
    LIMITS = {"sampled": 0.02, "atomic": 0.10}

    @pytest.fixture(scope="class")
    def suite_energies(self):
        energies = {}
        for tier in ("detailed", "sampled", "atomic"):
            sw = SoftWatt(
                cpu_model=self.CPU_MODEL, window_instructions=self.WINDOW,
                seed=1, use_cache=False, fidelity=tier,
            )
            energies[tier] = {
                name: sw.run(name).total_energy_j
                for name in BENCHMARK_NAMES
            }
        return energies

    @pytest.mark.parametrize("tier", ["sampled", "atomic"])
    def test_total_energy_error_bounded(self, suite_energies, tier):
        detailed = suite_energies["detailed"]
        for name in BENCHMARK_NAMES:
            error = abs(
                suite_energies[tier][name] - detailed[name]
            ) / detailed[name]
            assert error <= self.LIMITS[tier], (
                f"{tier} tier off by {error:.2%} on {name}"
            )


class TestMxsErrorBounds(TestErrorBounds):
    """The mxs bounds hold at window 40 000, the default of ``repro run``
    and ``repro serve``; smaller windows break them (README's fidelity
    table gives the numbers)."""

    CPU_MODEL = "mxs"
    WINDOW = 40_000
    LIMITS = {"sampled": 0.05, "atomic": 0.10}


@pytest.mark.fidelity
class TestRungWork:
    """The cheap rungs are fast because they generate fewer
    instructions than they represent, not because of host timing.

    Over a cold profile of each benchmark (a fresh profiler, so each
    also measures the idle loop) at a full-size window, every bounded
    ``run`` of a rung's CPU represents ``max_instructions`` but
    generates only ``stream_consumed``; the ratio is the rung's work
    saving, pinned here as a deterministic count.
    """

    WINDOW = 60_000
    MIN_RATIO = {"sampled": 2.5, "atomic": 10.0}

    @pytest.mark.parametrize("tier", ["sampled", "atomic"])
    def test_represented_over_generated(self, monkeypatch, tier):
        work = {"represented": 0, "generated": 0}

        def counting_tier_cpu(*args, **kwargs):
            cpu = make_tier_cpu(*args, **kwargs)
            run = cpu.run

            def bounded_run(stream, *, max_instructions=None):
                stats = run(stream, max_instructions=max_instructions)
                if max_instructions is not None:
                    work["represented"] += max_instructions
                    work["generated"] += cpu.stream_consumed
                return stats

            cpu.run = bounded_run
            return cpu

        monkeypatch.setattr(profiles, "make_tier_cpu", counting_tier_cpu)
        for name in BENCHMARK_NAMES:
            Profiler(
                config=_config(tier), cpu_model="mipsy",
                window_instructions=self.WINDOW, seed=1,
            ).profile_benchmark(benchmark(name))
        ratio = work["represented"] / work["generated"]
        assert ratio >= self.MIN_RATIO[tier], (
            f"{tier} rung represents only {ratio:.2f}x what it generates"
        )


class TestCacheKeys:
    def test_tier_and_sampling_params_enter_the_key(self):
        spec = benchmark("jess")

        def key(config):
            return profile_cache_key(
                spec, config, cpu_model="mipsy",
                window_instructions=WINDOW,
                startup_chunks=4, steady_chunks=2, seed=1,
            )

        keys = [
            key(SystemConfig.table1()),
            key(_config("atomic")),
            key(_config("sampled")),
            key(_config("sampled", sample_period=8000)),
            key(_config("sampled", sample_window=700)),
            key(_config("sampled", warmup=500)),
        ]
        assert len(set(keys)) == len(keys)


class TestCli:
    def test_run_with_atomic_fidelity(self, capsys):
        assert main([
            "run", "jess", "--cpu", "mipsy", "--window", "4000",
            "--fidelity", "atomic", "--no-cache",
        ]) == 0
        assert "total energy" in capsys.readouterr().out

    def test_invalid_sampling_params_exit_2(self, capsys):
        code = main([
            "run", "jess", "--cpu", "mipsy", "--window", "4000",
            "--fidelity", "sampled", "--sample-period", "100",
            "--no-cache",
        ])
        assert code == 2
        assert "fidelity.sample_period" in capsys.readouterr().err
