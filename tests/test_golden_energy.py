"""Golden regression: the accounting pipeline is bit-identical.

``tests/data/golden_energy.json`` was recorded by
``scripts/golden_snapshot.py`` *before* the PowerComponent-registry
refactor.  Every per-benchmark, per-mode energy, every power-budget
entry, and every run total must match to the last bit — JSON floats
round-trip exactly, so plain ``==`` is the assertion.

If an *intentional* numerical change lands, regenerate with::

    PYTHONPATH=src python scripts/golden_snapshot.py
"""

import json
import pathlib

import pytest

from repro.core.softwatt import SoftWatt
from repro.power.registry import CATEGORIES

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_energy.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def results(golden):
    """One BenchmarkResult per golden entry, simulated fresh."""
    out = {}
    by_model: dict[str, list[str]] = {}
    for key in golden["benchmarks"]:
        cpu_model, name = key.split("/")
        by_model.setdefault(cpu_model, []).append(name)
    for cpu_model, names in by_model.items():
        softwatt = SoftWatt(
            cpu_model=cpu_model,
            window_instructions=golden["window_instructions"],
            seed=golden["seed"],
            use_cache=False,
        )
        for name in names:
            out[f"{cpu_model}/{name}"] = softwatt.run(
                name, disk=golden["disk"]
            )
    return out


def test_golden_covers_both_models_and_all_benchmarks(golden):
    keys = golden["benchmarks"].keys()
    assert len(keys) == 12
    assert {key.split("/")[0] for key in keys} == {"mxs", "mipsy"}


def test_mode_energies_bit_identical(golden, results):
    for key, expected in golden["benchmarks"].items():
        modes = results[key].mode_breakdown()
        actual = {mode.value: row.energy_j for mode, row in modes.items()}
        assert actual == expected["mode_energy_j"], key


def test_power_budget_bit_identical(golden, results):
    for key, expected in golden["benchmarks"].items():
        assert results[key].power_budget() == expected["budget_w"], key


def test_run_totals_bit_identical(golden, results):
    for key, expected in golden["benchmarks"].items():
        result = results[key]
        assert result.total_energy_j == expected["total_energy_j"], key
        assert result.disk_energy_j == expected["disk_energy_j"], key


def test_budget_order_follows_registry(results):
    for key, result in results.items():
        assert tuple(result.power_budget()) == CATEGORIES, key


def test_batched_prefetch_reproduces_golden_energies(golden):
    """End-to-end pin of the batched SoA engine: profiles prefetched in
    one lockstep pass must yield the exact golden run energies."""
    names = tuple(
        key.split("/")[1] for key in golden["benchmarks"]
        if key.startswith("mipsy/")
    )
    softwatt = SoftWatt(
        cpu_model="mipsy",
        window_instructions=golden["window_instructions"],
        seed=golden["seed"],
        use_cache=False,
    )
    assert SoftWatt.prefetch_profiles([softwatt], names, min_runs=2) == len(names)
    for name in names:
        result = softwatt.run(name, disk=golden["disk"])
        expected = golden["benchmarks"][f"mipsy/{name}"]
        assert result.total_energy_j == expected["total_energy_j"], name
        assert result.disk_energy_j == expected["disk_energy_j"], name
