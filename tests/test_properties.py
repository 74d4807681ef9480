"""Broad hypothesis property tests across the library."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    CacheConfig,
    Technology,
    disk_configuration,
)
from repro.disk import AdaptiveSpinDownDisk, PowerManagedDisk
from repro.isa import OpClass, copy_loop, spin_loop
from repro.power import ArrayEnergyModel, CacheEnergyModel, CAMEnergyModel


class TestCacheEnergyProperties:
    @given(
        size_kb=st.sampled_from([4, 8, 16, 32, 64, 128, 512, 1024]),
        line=st.sampled_from([32, 64, 128]),
        assoc=st.sampled_from([1, 2, 4]),
        output_bits=st.sampled_from([32, 64, 128, 256]),
    )
    @settings(max_examples=60, deadline=None)
    def test_energies_positive_and_bounded(self, size_kb, line, assoc,
                                           output_bits):
        config = CacheConfig(name="h", size_bytes=size_kb * 1024,
                             line_bytes=line, associativity=assoc,
                             latency_cycles=1)
        model = CacheEnergyModel(config, output_bits=output_bits)
        read = model.read_energy_j()
        write = model.write_energy_j()
        assert 0 < read < 1e-6   # sub-microjoule per access, always
        assert 0 < write < 1e-6
        breakdown = model.breakdown()
        assert breakdown.total_j == pytest.approx(read)

    @given(st.sampled_from([4, 8, 16, 32, 64, 128]))
    @settings(max_examples=20, deadline=None)
    def test_doubling_size_never_cheapens_access(self, size_kb):
        def energy(kb):
            config = CacheConfig(name="h", size_bytes=kb * 1024,
                                 line_bytes=64, associativity=2,
                                 latency_cycles=1)
            return CacheEnergyModel(config, output_bits=64).read_energy_j()

        assert energy(2 * size_kb) >= energy(size_kb)


class TestArrayProperties:
    @given(rows=st.integers(1, 4096), bits=st.integers(1, 256))
    @settings(max_examples=60, deadline=None)
    def test_array_energy_positive(self, rows, bits):
        model = ArrayEnergyModel("h", rows=rows, bits_per_row=bits)
        assert model.access_energy_j() > 0
        assert model.access_energy_j(write=True) > 0
        assert model.latch_bits == rows * bits

    @given(entries=st.integers(1, 512), tag=st.integers(1, 64),
           data=st.integers(0, 128))
    @settings(max_examples=60, deadline=None)
    def test_cam_energy_positive(self, entries, tag, data):
        model = CAMEnergyModel("h", entries=entries, tag_bits=tag,
                               data_bits=data)
        assert model.search_energy_j() > 0
        assert model.write_energy_j() > 0


class TestTechnologyProperties:
    @given(vdd=st.floats(0.5, 5.0), cap=st.floats(1e-15, 1e-9))
    @settings(max_examples=60, deadline=None)
    def test_switching_energy_quadratic_in_vdd(self, vdd, cap):
        tech = Technology(vdd=vdd)
        double = Technology(vdd=2 * vdd)
        assert double.switching_energy(cap) == pytest.approx(
            4 * tech.switching_energy(cap))


class TestDiskProperties:
    @given(
        threshold=st.floats(0.3, 20.0),
        gaps=st.lists(st.floats(0.05, 30.0), min_size=1, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_fixed_vs_adaptive_both_consistent(self, threshold, gaps):
        from repro.config import DiskPowerPolicy

        fixed = PowerManagedDisk(
            DiskPowerPolicy(name="h", spindown_threshold_s=threshold), seed=5)
        adaptive = AdaptiveSpinDownDisk(max(0.5, min(threshold, 60.0)), seed=5)
        for disk in (fixed, adaptive):
            t = 0.0
            for gap in gaps:
                result = disk.request(t, 8192)
                t = result.completion_s + gap
            disk.finish(t)
            # Energy equals the mode-time integral.
            from repro.config import MK3003MAN_POWER_W, DiskMode

            expected = sum(
                disk.energy.time_in_mode_s[mode] * MK3003MAN_POWER_W[mode]
                for mode in DiskMode)
            assert disk.energy.energy_j == pytest.approx(expected, rel=1e-9)
            # History is gapless.
            for (s0, e0, _), (s1, _e1, _m) in zip(disk.history,
                                                  disk.history[1:]):
                assert e0 == pytest.approx(s1, abs=1e-9)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_conventional_disk_energy_is_linear_in_time(self, extra_s):
        disk = PowerManagedDisk(disk_configuration(1), seed=2)
        disk.request(0.1, 4096)
        base = disk.energy.energy_j
        disk.finish(disk.clock_s + extra_s)
        assert disk.energy.energy_j == pytest.approx(base + extra_s * 3.2)


class TestStreamHelperProperties:
    @given(spins=st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_spin_loop_shape_invariants(self, spins):
        instrs = list(spin_loop(0x8000_0000, 0x8000_4000, spins))
        branches = [i for i in instrs if i.op is OpClass.BRANCH]
        assert len(branches) == spins
        assert sum(1 for b in branches if not b.taken) == 1
        assert not branches[-1].taken
        # Static PCs form one fixed loop body.
        assert len({i.pc for i in instrs}) == len(instrs) // spins

    @given(nbytes=st.integers(1, 1 << 16))
    @settings(max_examples=30, deadline=None)
    def test_copy_loop_moves_every_byte(self, nbytes):
        instrs = list(copy_loop(0x8000_0000, 0x1000, 0x9000, nbytes, word=8))
        loads = [i for i in instrs if i.op is OpClass.LOAD]
        stores = [i for i in instrs if i.op is OpClass.STORE]
        assert len(loads) == len(stores) == (nbytes + 7) // 8
        assert len(loads) * 8 >= nbytes
