"""Tests for the PowerComponent registry and the EnergyLedger."""

import sys
import threading

import pytest

from repro.config.system import SystemConfig
from repro.power.ledger import EnergyLedger
from repro.power.processor import ProcessorPowerModel
from repro.power.registry import (
    CATEGORIES,
    POWER_COMPONENTS,
    REGISTRY,
    PowerComponent,
    PowerRegistry,
)
from repro.stats.counters import AccessCounters, UnknownCounterError


@pytest.fixture(scope="module")
def model():
    return ProcessorPowerModel(SystemConfig.table1())


def _busy_counters(model):
    return model.max_power_counters(2_000)


class TestRegistryStructure:
    def test_category_order_is_derived_from_declarations(self):
        assert CATEGORIES == (
            "datapath", "l1d", "l2d", "l1i", "l2i", "clock", "memory", "disk",
        )
        assert REGISTRY.categories == CATEGORIES
        assert REGISTRY.counter_categories == CATEGORIES[:-1]

    def test_disk_is_a_first_class_simulation_time_component(self):
        disk = REGISTRY.component("disk")
        assert disk.simulation_time
        assert disk.category == "disk"
        assert disk.counters == ()

    def test_every_declared_counter_is_a_real_counter_field(self):
        probe = AccessCounters()
        for component in REGISTRY:
            for name in component.counters:
                probe.get(name)  # raises UnknownCounterError if not

    def test_unknown_component_lookup_is_a_clear_error(self):
        with pytest.raises(KeyError, match="unknown power component 'l3'"):
            REGISTRY.component("l3")

    def test_duplicate_component_names_rejected(self):
        tlb = REGISTRY.component("tlb")
        with pytest.raises(ValueError, match="duplicate"):
            PowerRegistry((tlb, tlb))

    def test_component_with_unknown_counter_rejected_at_declaration(self):
        with pytest.raises(UnknownCounterError, match="l3_access"):
            PowerComponent(
                "l3", "memory", ("l3_access",), lambda m, c, cy: (0.0,)
            )

    def test_simulation_time_component_cannot_declare_counters(self):
        with pytest.raises(ValueError, match="simulation-time"):
            PowerComponent("disk2", "disk", ("mem_access",), None)


class TestRegistryEvaluation:
    def test_ledger_matches_energy_by_category(self, model):
        counters = _busy_counters(model)
        ledger = model.ledger(counters, 2_000)
        assert ledger.categories == model.energy_by_category(counters, 2_000)

    def test_components_roll_up_to_their_category(self, model):
        ledger = model.ledger(_busy_counters(model), 2_000)
        datapath = [
            component.name
            for component in REGISTRY
            if component.category == "datapath"
        ]
        rollup = 0.0
        for name in datapath:
            assert ledger.category_of(name) == "datapath"
            rollup += ledger.component(name)
        assert rollup == pytest.approx(ledger.category("datapath"))

    def test_zero_cycles_rejected(self, model):
        with pytest.raises(ValueError, match="cycles must be positive"):
            REGISTRY.evaluate(model, AccessCounters(), 0)

    def test_rule_reading_undeclared_counter_raises(self):
        sneaky = PowerComponent(
            "sneaky", "datapath", ("l1i_access",),
            lambda m, c, cy: (c.l1d_access * 1.0,),
        )
        registry = PowerRegistry((sneaky,))
        with pytest.raises(UnknownCounterError, match="does not declare"):
            registry.evaluate(None, AccessCounters(l1d_access=5), 100)

    def test_undeclared_read_raises_until_an_evaluation_succeeds(self, model):
        sneaky = PowerComponent(
            "sneaky", "datapath", ("l1i_access",),
            lambda m, c, cy: (c.l1d_access * m.l1d.read_energy_j(),),
        )
        registry = PowerRegistry((sneaky,))
        counters = AccessCounters(l1i_access=5, l1d_access=5)
        for _ in range(2):
            # A failed evaluation does not mark the registry checked.
            with pytest.raises(UnknownCounterError, match="does not declare"):
                registry.evaluate(model, counters, 100)

    def test_only_the_first_evaluation_runs_through_the_view(self, model):
        seen = []
        honest = PowerComponent(
            "honest", "datapath", ("l1i_access",),
            lambda m, c, cy: (seen.append(type(c)) or c.l1i_access * 2.0,),
        )
        registry = PowerRegistry((honest,))
        counters = AccessCounters(l1i_access=3)
        first = registry.evaluate(model, counters, 100)
        second = registry.evaluate(model, counters, 100)
        assert first == second
        assert seen[0] is not AccessCounters
        assert seen[1] is AccessCounters

    def test_concurrent_first_evaluations_agree(self, model):
        """Threads racing through a fresh registry's first evaluations
        (views and raw counters interleaved) price identically."""
        registry = PowerRegistry(POWER_COMPONENTS)
        counters = _busy_counters(model)
        expected = REGISTRY.evaluate(model, counters, 2_000)
        results, errors = [], []

        def price():
            try:
                for _ in range(40):
                    results.append(registry.evaluate(model, counters, 2_000))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=price) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 8 * 40
        assert all(ledger == expected for ledger in results)

    def test_declared_counters_are_readable_through_the_view(self):
        honest = PowerComponent(
            "honest", "datapath", ("l1i_access",),
            lambda m, c, cy: (c.l1i_access * 2.0,),
        )
        registry = PowerRegistry((honest,))
        ledger = registry.evaluate(None, AccessCounters(l1i_access=3), 100)
        assert ledger.component("honest") == 6.0


class TestEnergyLedger:
    def test_rollups_and_total(self):
        ledger = EnergyLedger(
            {"a": 1.0, "b": 2.0, "c": 4.0},
            {"a": "x", "b": "x", "c": "y"},
        )
        assert ledger.categories == {"x": 3.0, "y": 4.0}
        assert ledger.total_j == 7.0
        assert ledger.component("b") == 2.0
        assert ledger.category_of("c") == "y"

    def test_component_without_category_rejected(self):
        with pytest.raises(ValueError, match="no category mapping"):
            EnergyLedger({"a": 1.0}, {})

    def test_unknown_lookups_are_clear_errors(self):
        ledger = EnergyLedger({"a": 1.0}, {"a": "x"})
        with pytest.raises(KeyError, match="unknown power component"):
            ledger.component("zz")
        with pytest.raises(KeyError, match="unknown report category"):
            ledger.category("zz")
        with pytest.raises(KeyError, match="unknown power component"):
            ledger.category_of("zz")

    def test_addition_merges_components_and_categories(self):
        first = EnergyLedger({"a": 1.0, "b": 2.0}, {"a": "x", "b": "y"})
        second = EnergyLedger({"a": 0.5, "c": 3.0}, {"a": "x", "c": "y"})
        merged = first + second
        assert merged.components == {"a": 1.5, "b": 2.0, "c": 3.0}
        assert merged.categories == {"x": 1.5, "y": 5.0}

    def test_scaling(self):
        ledger = EnergyLedger({"a": 1.0, "b": 2.0}, {"a": "x", "b": "y"})
        for scaled in (ledger.scaled(2.0), ledger * 2.0, 2.0 * ledger):
            assert scaled.components == {"a": 2.0, "b": 4.0}
            assert scaled.categories == {"x": 2.0, "y": 4.0}

    def test_with_component_appends_new_category_last(self, model):
        ledger = model.ledger(_busy_counters(model), 2_000)
        full = ledger.with_component("disk", "disk", 1.25)
        assert tuple(full.categories) == CATEGORIES
        assert full.component("disk") == 1.25
        assert full.total_j == ledger.total_j + 1.25

    def test_with_component_rejects_duplicates(self):
        ledger = EnergyLedger({"a": 1.0}, {"a": "x"})
        with pytest.raises(ValueError, match="already in ledger"):
            ledger.with_component("a", "x", 2.0)

    def test_category_power_requires_positive_seconds(self):
        ledger = EnergyLedger({"a": 1.0}, {"a": "x"})
        with pytest.raises(ValueError, match="seconds must be positive"):
            ledger.category_power_w(0.0)
        assert ledger.category_power_w(0.5) == {"x": 2.0}

    def test_equality(self):
        first = EnergyLedger({"a": 1.0}, {"a": "x"})
        second = EnergyLedger({"a": 1.0}, {"a": "x"})
        third = EnergyLedger({"a": 2.0}, {"a": "x"})
        assert first == second
        assert first != third

    def test_equality_compares_category_rollups(self):
        components = {"a": 0.1, "b": 0.2, "c": 0.3}
        categories = {"a": "x", "b": "x", "c": "x"}
        forward = EnergyLedger._raw(dict(components), {"x": (0.1 + 0.2) + 0.3},
                                    dict(categories))
        reverse = EnergyLedger._raw(dict(components), {"x": 0.1 + (0.2 + 0.3)},
                                    dict(categories))
        # Same components, rolled up in a different order: not equal.
        assert forward.categories != reverse.categories
        assert forward != reverse


class TestAccessCounterValidation:
    def test_get_unknown_counter_is_a_clear_error(self):
        counters = AccessCounters()
        with pytest.raises(UnknownCounterError, match="l3_access"):
            counters.get("l3_access")
        with pytest.raises(UnknownCounterError, match="valid counters"):
            counters["l3_access"]

    def test_get_known_counter(self):
        counters = AccessCounters(l1i_access=7)
        assert counters.get("l1i_access") == 7
        assert counters["l1i_access"] == 7

    def test_unknown_counter_error_is_keyerror_and_attributeerror(self):
        counters = AccessCounters()
        with pytest.raises(KeyError):
            counters.get("nope")
        with pytest.raises(AttributeError):
            counters.get("nope")

    def test_constructor_rejects_unknown_counter_with_clear_message(self):
        with pytest.raises(UnknownCounterError, match="bogus"):
            AccessCounters(bogus=1)

    def test_error_message_is_not_quoted_like_keyerror(self):
        try:
            AccessCounters().get("nope")
        except UnknownCounterError as error:
            assert str(error).startswith("unknown counter 'nope'")
        else:  # pragma: no cover
            pytest.fail("expected UnknownCounterError")
