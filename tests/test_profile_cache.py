"""Tests for the persistent content-addressed profile cache."""

import dataclasses
import json

import pytest

from repro.config import SystemConfig
from repro.core import checkpoint
from repro.core.checkpoint import (
    CACHE_DIR_ENV,
    MODEL_VERSION,
    ProfileCache,
    decode_profile,
    encode_profile,
    profile_cache_key,
    service_cache_key,
)
from repro.core.softwatt import SoftWatt
from repro.workloads.specjvm98 import benchmark

WINDOW = 4000

_TABLE1 = SystemConfig.table1()


def _replace(config, part, **values):
    return dataclasses.replace(
        config, **{part: dataclasses.replace(getattr(config, part), **values)}
    )


#: Changes a kernel-service characterisation never sees: pricing and
#: clock (technology), the TLB (handlers run in KSEG) and the fidelity
#: rung (services always run on the detailed core).
SERVICE_BLIND_VARIANTS = (
    _replace(_TABLE1, "tlb", entries=48),
    _replace(_TABLE1, "tlb", entries=96),
    _TABLE1.with_hardware_tlb(),
    _replace(_TABLE1, "technology", vdd=2.5),
    _replace(_TABLE1, "technology", feature_size_um=0.25),
    _replace(_TABLE1, "technology", calibration=1.3),
    _replace(_TABLE1, "technology", clock_hz=_TABLE1.technology.clock_hz / 2),
    _TABLE1.with_fidelity("atomic"),
    _TABLE1.with_fidelity("sampled"),
)

#: Changes to what the service simulation does read.
SIMULATED_VARIANTS = (
    _replace(_TABLE1, "l1i", size_bytes=16 * 1024),
    _replace(_TABLE1, "l1d", size_bytes=16 * 1024),
    _replace(_TABLE1, "l2", size_bytes=512 * 1024),
    _replace(_TABLE1, "memory", access_latency_cycles=80),
    _replace(_TABLE1, "core", issue_width=2),
)


def make_sw(tmp_path, **overrides):
    params = dict(window_instructions=WINDOW, seed=1, cache_dir=tmp_path)
    params.update(overrides)
    return SoftWatt(**params)


class TestCacheKeys:
    def test_key_is_deterministic(self):
        config = SystemConfig.table1()
        kwargs = dict(cpu_model="mxs", window_instructions=WINDOW,
                      startup_chunks=4, steady_chunks=2, seed=1)
        spec = benchmark("jess")
        assert (profile_cache_key(spec, config, **kwargs)
                == profile_cache_key(spec, config, **kwargs))

    def test_key_depends_on_every_input(self):
        config = SystemConfig.table1()
        base = dict(cpu_model="mxs", window_instructions=WINDOW,
                    startup_chunks=4, steady_chunks=2, seed=1)
        spec = benchmark("jess")
        reference = profile_cache_key(spec, config, **base)
        assert profile_cache_key(benchmark("db"), config, **base) != reference
        for field, value in (("cpu_model", "mipsy"),
                             ("window_instructions", WINDOW * 2),
                             ("startup_chunks", 5),
                             ("steady_chunks", 3),
                             ("seed", 2)):
            assert profile_cache_key(
                spec, config, **{**base, field: value}
            ) != reference
        small_l1 = dataclasses.replace(
            config,
            l1d=dataclasses.replace(config.l1d, size_bytes=16 * 1024),
        )
        assert profile_cache_key(spec, small_l1, **base) != reference

    def test_service_key_varies(self):
        config = SystemConfig.table1()
        base = dict(cpu_model="mxs", invocations=30, warmup=6, seed=1)
        reference = service_cache_key("read", config, **base)
        assert service_cache_key("write", config, **base) != reference
        assert service_cache_key(
            "read", config, **{**base, "invocations": 60}
        ) != reference
        for field, value in (("cpu_model", "mipsy"), ("warmup", 5),
                             ("seed", 2)):
            assert service_cache_key(
                "read", config, **{**base, field: value}
            ) != reference
        # What the service simulation reads changes the key...
        for variant in SIMULATED_VARIANTS:
            assert service_cache_key("read", variant, **base) != reference
        # ...and what it never reads does not.
        for variant in SERVICE_BLIND_VARIANTS:
            assert service_cache_key("read", variant, **base) == reference

    def test_benchmark_key_ignores_only_technology(self):
        config = SystemConfig.table1()
        kwargs = dict(cpu_model="mxs", window_instructions=WINDOW,
                      startup_chunks=4, steady_chunks=2, seed=1)
        spec = benchmark("jess")
        reference = profile_cache_key(spec, config, **kwargs)
        technology = [
            variant for variant in SERVICE_BLIND_VARIANTS
            if variant.tlb == config.tlb and variant.fidelity == config.fidelity
        ]
        assert technology
        for variant in technology:
            assert profile_cache_key(spec, variant, **kwargs) == reference
        # Benchmark windows do translate and do run on the rung.
        for variant in SERVICE_BLIND_VARIANTS:
            if variant not in technology:
                assert profile_cache_key(spec, variant, **kwargs) != reference


class TestEncodeDecodeRoundTrip:
    def test_profile_round_trip_reproduces_totals(self):
        sw = SoftWatt(window_instructions=WINDOW, seed=1, use_cache=False)
        spec = benchmark("jess")
        original = sw.profile(spec)
        # Through JSON, as the on-disk cache stores it.
        payload = json.loads(json.dumps(encode_profile(original)))
        restored = decode_profile(payload, spec=spec, config=sw.config)
        for name, phase in original.phases.items():
            agg = phase.aggregate
            restored_agg = restored.phases[name].aggregate
            assert restored_agg.cycles == agg.cycles
            assert restored_agg.instructions == agg.instructions
            assert restored_agg.traps == agg.traps
            assert (restored_agg.total_counters().total_events()
                    == agg.total_counters().total_events())
            assert restored.phases[name].invocations == phase.invocations
        assert restored.idle.stats.cycles == original.idle.stats.cycles


class TestPersistentCache:
    def test_warm_cache_skips_detailed_simulation(self, tmp_path):
        cold = make_sw(tmp_path)
        result_cold = cold.run("jess", disk=2)
        assert cold.profiler.detailed_runs > 0
        assert cold.cache.stats.stores > 0

        # A fresh instance (fresh process in real use) with the same
        # parameters must serve everything from disk.
        warm = make_sw(tmp_path)
        result_warm = warm.run("jess", disk=2)
        assert warm.profiler.detailed_runs == 0
        assert warm.cache.stats.misses == 0
        assert result_warm.total_energy_j == result_cold.total_energy_j
        assert result_warm.idle_cycles == result_cold.idle_cycles
        assert (result_warm.timeline.duration_s
                == result_cold.timeline.duration_s)

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert ProfileCache.from_env() is None
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cache = ProfileCache.from_env()
        assert cache is not None and cache.directory == tmp_path

    def test_use_cache_false_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert make_sw(tmp_path, use_cache=False).cache is None

    @staticmethod
    def _assert_reprofiles(tmp_path, **other):
        """A cache warmed on another machine, CPU model, window or seed
        misses: the key hashes all four, so an entry is never served
        under the wrong label."""
        make_sw(tmp_path / "cache").run("jess")
        mismatched = make_sw(tmp_path / "cache", **other)
        mismatched.profile("jess")
        # Different key -> clean re-profile, no crash, no false hit.
        assert mismatched.profiler.detailed_runs == 1
        cold = make_sw(tmp_path / "cold", **other)
        assert (mismatched.run("jess").total_energy_j
                == cold.run("jess").total_energy_j)

    def test_mismatched_config_reprofiles(self, tmp_path):
        self._assert_reprofiles(
            tmp_path, config=_replace(_TABLE1, "l1d", size_bytes=16 * 1024)
        )

    @pytest.mark.parametrize("other", [
        {"cpu_model": "mipsy"},
        {"window_instructions": WINDOW + 1000},
        {"seed": 7},
    ], ids=["mipsy", "window", "seed"])
    def test_mismatched_settings_reprofile(self, tmp_path, other):
        self._assert_reprofiles(tmp_path, **other)

    def test_model_version_mismatch_evicts_and_reprofiles(
        self, tmp_path, monkeypatch
    ):
        make_sw(tmp_path).profile("jess")
        entries = list(tmp_path.glob("*.json"))
        assert entries
        # A model-version bump changes every cache key, so the old
        # entries can never be served again: the lookup misses, the
        # benchmark is cleanly re-profiled, and evict_stale sweeps the
        # now-unreachable old-version files.
        monkeypatch.setattr(checkpoint, "MODEL_VERSION", MODEL_VERSION + 1)
        stale = make_sw(tmp_path)
        stale.profile("jess")
        assert stale.profiler.detailed_runs == 1
        assert stale.cache.evict_stale() == len(entries)

    def test_corrupt_entry_evicted_and_reprofiled(self, tmp_path):
        sw = make_sw(tmp_path)
        sw.profile("jess")
        for path in tmp_path.glob("*.json"):
            path.write_text("{ not json")
        fresh = make_sw(tmp_path)
        fresh.profile("jess")
        assert fresh.profiler.detailed_runs == 1
        assert fresh.cache.stats.evictions >= 1

    def test_evict_stale_sweeps_old_versions(self, tmp_path):
        sw = make_sw(tmp_path)
        sw.profile("jess")
        good = len(list(tmp_path.glob("*.json")))
        (tmp_path / "deadbeef.json").write_text(
            json.dumps({"kind": "benchmark", "model_version": MODEL_VERSION - 1,
                        "profile": {}})
        )
        (tmp_path / "torn.json").write_text("{")
        assert ProfileCache(tmp_path).evict_stale() == 2
        assert len(list(tmp_path.glob("*.json"))) == good

    @pytest.mark.parametrize("version", [1, MODEL_VERSION])
    def test_old_format_service_entry_misses_and_is_quarantined(
        self, tmp_path, version
    ):
        """A priced-at-simulation service entry (the version-1 layout)
        never decodes, even when it claims the current version."""
        sw = make_sw(tmp_path)
        key = sw._service_key("read", 30)
        (tmp_path / f"{key}.json").write_text(json.dumps({
            "kind": "service", "model_version": version,
            "profile": {"service": "read", "cycles": [40.0, 40.0],
                        "energies_j": [1e-9, 1e-9], "category_energy_j": {},
                        "mean_counters": {"l1i_access": 40},
                        "instructions_per_invocation": 40.0},
        }))
        assert sw.cache.load_service(key) is None
        assert sw.cache.stats.quarantined == 1
        assert sw.service_profiles(("read",), invocations=30)["read"].energies_j

    def test_readonly_cache_dir_does_not_break_profiling(self, tmp_path):
        missing = tmp_path / "no-such" / "nested"
        sw = SoftWatt(window_instructions=WINDOW, seed=1, cache_dir=missing)
        profile = sw.profile("jess")
        assert profile.phases  # profiling itself unaffected


class TestConcurrentQuarantine:
    """Two readers hit the same corrupt entry: exactly one quarantines
    it, the other re-simulates — no crash, no double-move."""

    def _corrupt_all(self, tmp_path) -> int:
        entries = list(tmp_path.glob("*.json"))
        for path in entries:
            path.write_text("{ not json")
        return len(entries)

    def test_quarantine_race_is_single_winner(self, tmp_path):
        make_sw(tmp_path).profile("jess")
        entries = list(tmp_path.glob("*.json"))
        self._corrupt_all(tmp_path)
        # Interleave the exact race: both caches decided to quarantine
        # the same path; the second mover finds it already gone.
        cache_a, cache_b = ProfileCache(tmp_path), ProfileCache(tmp_path)
        for path in entries:
            cache_a._quarantine(path)
            cache_b._quarantine(path)
        assert cache_a.stats.quarantined == len(entries)
        assert cache_b.stats.quarantined == 0
        quarantined = list((tmp_path / "quarantine").glob("*.json"))
        assert len(quarantined) == len(entries)  # no double-move

    def test_threaded_readers_one_quarantine_both_valid(self, tmp_path):
        import threading

        reference = make_sw(tmp_path)
        expected = reference.profile("jess")
        assert self._corrupt_all(tmp_path) >= 1
        barrier = threading.Barrier(2)
        outcomes: dict[int, object] = {}

        def read(slot: int) -> None:
            sw = make_sw(tmp_path)  # own ProfileCache on the shared dir
            barrier.wait()
            try:
                outcomes[slot] = sw.profile("jess")
            except Exception as error:  # noqa: BLE001 - the test's assertion
                outcomes[slot] = error
            outcomes[f"stats{slot}"] = sw.cache.stats

        threads = [
            threading.Thread(target=read, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        for slot in (0, 1):
            assert not isinstance(outcomes[slot], Exception), outcomes[slot]
            for name, phase in expected.phases.items():
                assert (outcomes[slot].phases[name].aggregate.cycles
                        == phase.aggregate.cycles)
        total = sum(outcomes[f"stats{slot}"].quarantined for slot in (0, 1))
        quarantined = list((tmp_path / "quarantine").glob("*.json"))
        # Every quarantine file had exactly one mover across the two
        # threads: counters and files agree, nothing double-moved.
        assert total == len(quarantined) >= 1

    def test_threaded_writers_of_one_key_never_tear_an_entry(self, tmp_path):
        """Two threads of one process storing the same key (serve's
        detailed and sampled rungs share service entries) while a third
        reads it: every read decodes, nothing is quarantined."""
        import threading

        sw = make_sw(tmp_path)
        key = sw._service_key("utlb", 2)
        profile = sw.profiler.profile_service("utlb", invocations=2)
        cache = ProfileCache(tmp_path)
        cache.store_service(key, profile)
        stop = threading.Event()

        def write() -> None:
            writer = ProfileCache(tmp_path)
            while not stop.is_set():
                writer.store_service(key, profile)

        reads = 0

        def read() -> None:
            nonlocal reads
            while not stop.is_set():
                cache.load_service(key)  # a torn read would be evicted
                reads += 1

        threads = [threading.Thread(target=write) for _ in range(2)]
        threads.append(threading.Thread(target=read))
        for thread in threads:
            thread.start()
        stop.wait(1.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert reads > 0
        assert cache.stats.evictions == 0
        assert not (tmp_path / "quarantine").exists()
