"""The declarative :class:`PowerComponent` registry.

SoftWatt's architecture is "instrument the simulators to count
accesses, then turn counts into energy after the fact".  The second
half used to be a hand-written arithmetic block in
``ProcessorPowerModel.energy_by_category`` whose category list leaked
into every report layer.  This module replaces it with data: each
modelled unit is a :class:`PowerComponent` declaring

* the :class:`~repro.stats.counters.AccessCounters` fields it consumes,
* an energy rule turning those counters into joules, and
* the report category it rolls up to.

The registry evaluates all components over an interval and returns a
:class:`~repro.power.ledger.EnergyLedger`; report-category order is
*derived* from component declaration order, so adding a unit, a
category, or a backend is a registry entry — not an edit to five
files.  Simulation-time components (the disk, whose energy is
integrated event-exactly during the run rather than post-processed
from counters) are declared with ``rule=None`` and attached to ledgers
by the timeline layer.

Numerical contract: a rule returns a *tuple of terms*, and category
rollups accumulate those terms one by one in declaration order — the
exact floating-point evaluation order of the historical hand-written
expressions, pinned bit-for-bit by ``tests/test_golden_energy.py``.

To add a component, declare it in :data:`POWER_COMPONENTS` (see
DESIGN.md §7 for a worked L3 example); every report surface picks it
up automatically.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Iterator

from repro.power.conditional import gating_factor
from repro.power.ledger import EnergyLedger
from repro.stats.counters import COUNTER_FIELDS, UnknownCounterError

if TYPE_CHECKING:
    from repro.power.processor import ProcessorPowerModel
    from repro.stats.counters import AccessCounters
    from repro.stats.source import CounterSource

#: An energy rule: ``(model, counters, cycles) -> terms``.  The terms
#: are joule contributions summed in order into both the component and
#: its category (keeping the historical evaluation order bit-exact).
EnergyRule = Callable[
    ["ProcessorPowerModel", "AccessCounters", int], tuple[float, ...]
]


class _DeclaredCounters:
    """A counter view restricted to one component's declaration.

    On a registry's first evaluation rules receive this instead of the
    raw :class:`~repro.stats.counters.AccessCounters`, so reading a
    counter the component did not declare raises a clear
    :class:`~repro.stats.counters.UnknownCounterError` instead of
    silently succeeding (or, worse, reading 0 through a permissive
    consumer).
    """

    __slots__ = ("_counters", "_declared", "_component")

    def __init__(
        self, counters: "AccessCounters", declared: frozenset, component: str
    ) -> None:
        self._counters = counters
        self._declared = declared
        self._component = component

    def __getattr__(self, name: str):
        # Only reached for names outside __slots__, i.e. counter reads.
        if name in self._declared:
            return getattr(self._counters, name)
        raise UnknownCounterError(
            f"power component {self._component!r} reads counter {name!r} "
            f"it does not declare; declared counters: "
            f"{', '.join(sorted(self._declared))}"
        )


@dataclasses.dataclass(frozen=True)
class PowerComponent:
    """One modelled unit: counters in, joules out, one report category."""

    name: str
    category: str
    counters: tuple[str, ...]
    """The :data:`~repro.stats.counters.COUNTER_FIELDS` this component
    consumes (validated at declaration time)."""
    rule: EnergyRule | None
    """``counters -> joules`` terms; ``None`` marks a simulation-time
    component whose energy is integrated during the run (the disk)."""
    description: str = ""

    def __post_init__(self) -> None:
        unknown = [name for name in self.counters if name not in COUNTER_FIELDS]
        if unknown:
            raise UnknownCounterError(
                f"power component {self.name!r} declares unknown counters "
                f"{unknown}; valid counters: {', '.join(COUNTER_FIELDS)}"
            )
        if self.rule is None and self.counters:
            raise ValueError(
                f"simulation-time component {self.name!r} cannot declare "
                f"counters (its energy is not post-processed)"
            )
        object.__setattr__(self, "_declared", frozenset(self.counters))

    @property
    def simulation_time(self) -> bool:
        """True when the component's energy is integrated during the
        run rather than evaluated from counters."""
        return self.rule is None


class PowerRegistry:
    """An ordered collection of :class:`PowerComponent` declarations."""

    def __init__(self, components: tuple[PowerComponent, ...]) -> None:
        names = [component.name for component in components]
        if len(names) != len(set(names)):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate power components: {duplicates}")
        self._components = tuple(components)
        self._by_name = {component.name: component for component in components}
        categories: list[str] = []
        counter_categories: list[str] = []
        for component in components:
            if component.category not in categories:
                categories.append(component.category)
            if not component.simulation_time and (
                component.category not in counter_categories
            ):
                counter_categories.append(component.category)
        self._categories = tuple(categories)
        self._counter_categories = tuple(counter_categories)
        self._checked = False
        """Set once an evaluation through the declared-counter views
        succeeds; later evaluations hand rules the raw counters."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def components(self) -> tuple[PowerComponent, ...]:
        return self._components

    @property
    def categories(self) -> tuple[str, ...]:
        """All report categories, in declaration (legend) order."""
        return self._categories

    @property
    def counter_categories(self) -> tuple[str, ...]:
        """Categories produced by counter evaluation (no disk)."""
        return self._counter_categories

    def required_counters(self) -> tuple[str, ...]:
        """Counters some counter-driven component consumes, in
        :data:`~repro.stats.counters.COUNTER_FIELDS` order.

        This is the pricing layer's declared input contract: an
        external counter source (see :mod:`repro.ingest`) must supply
        exactly these counters or some component prices zeros.
        Counters outside this set (miss counts kept for reporting)
        are optional.
        """
        consumed = set()
        for component in self._components:
            consumed.update(component.counters)
        return tuple(name for name in COUNTER_FIELDS if name in consumed)

    def counter_requirements(self) -> dict[str, tuple[str, ...]]:
        """Per counter-driven component: the counters its rule reads.

        Simulation-time components (the disk) consume no counters and
        are omitted — they cannot be starved by a mapping file.
        """
        return {
            component.name: component.counters
            for component in self._components
            if not component.simulation_time
        }

    def schema(self) -> list[dict]:
        """The registry as plain data (for ``repro components --json``
        and mapping-file validation tooling): one dict per component
        with its name, category, rule inputs, and kind."""
        return [
            {
                "name": component.name,
                "category": component.category,
                "counters": list(component.counters),
                "simulation_time": component.simulation_time,
                "description": component.description,
            }
            for component in self._components
        ]

    def component(self, name: str) -> PowerComponent:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown power component {name!r}; registry has "
                f"{', '.join(self._by_name)}"
            ) from None

    def __iter__(self) -> Iterator[PowerComponent]:
        return iter(self._components)

    def __len__(self) -> int:
        return len(self._components)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self,
        model: "ProcessorPowerModel",
        counters: "AccessCounters",
        cycles: int,
    ) -> EnergyLedger:
        """Evaluate every counter-driven component over an interval.

        Category values accumulate term by term in declaration order —
        bit-identical to the historical inline arithmetic.

        The registry's first evaluation that succeeds runs every rule
        through a :class:`_DeclaredCounters` view, so a rule reading a
        counter its component does not declare raises
        :class:`~repro.stats.counters.UnknownCounterError`.  Rules read
        the same counters on every call, so later evaluations pass the
        raw counters.
        """
        if cycles <= 0:
            raise ValueError(f"cycles must be positive, got {cycles}")
        checked = self._checked
        component_j: dict[str, float] = {}
        category_j: dict[str, float] = {
            name: 0.0 for name in self._counter_categories
        }
        component_category: dict[str, str] = {}
        for component in self._components:
            rule = component.rule
            if rule is None:
                continue
            if checked:
                terms = rule(model, counters, cycles)
            else:
                view = _DeclaredCounters(
                    counters, component._declared, component.name
                )
                terms = rule(model, view, cycles)
            category = component.category
            subtotal = 0.0
            rollup = category_j[category]
            for term in terms:
                subtotal += term
                rollup += term
            category_j[category] = rollup
            component_j[component.name] = subtotal
            component_category[component.name] = category
        self._checked = True
        return EnergyLedger._raw(component_j, category_j, component_category)

    def evaluate_source(
        self, model: "ProcessorPowerModel", source: "CounterSource"
    ) -> EnergyLedger:
        """Evaluate every counter-driven component over a source.

        ``source`` is anything satisfying the
        :class:`~repro.stats.source.CounterSource` protocol — a
        :class:`~repro.stats.simlog.SimulationLog`, one of its records,
        a :class:`~repro.stats.source.CounterBundle`, or an
        :class:`~repro.ingest.pricing.IngestedRun` of externally
        measured counters.  The pricing arithmetic is identical
        regardless of who produced the counters.
        """
        cycles = max(1, int(source.total_cycles()))
        return self.evaluate(model, source.total_counters(), cycles)

    def reevaluate(
        self, model: "ProcessorPowerModel", log: "CounterSource"
    ) -> EnergyLedger:
        """Re-price a finished run's counters under a different model.

        ``log`` is any :class:`~repro.stats.source.CounterSource`.
        This is the ledger-tier sweep entry point: a power-only
        parameter change (supply voltage, calibration) re-evaluates the
        registry over cached counters instead of re-simulating, and the
        result is bit-identical to a full re-run because the counters
        are unchanged by construction.
        """
        return self.evaluate_source(model, log)


# ----------------------------------------------------------------------
# Energy rules (term order matches the paper-era inline expressions)
# ----------------------------------------------------------------------


def _tlb_terms(model, c, cycles):
    return (
        c.tlb_access * model.tlb.search_energy_j(),
        c.tlb_miss * model.tlb.write_energy_j(),
    )


def _regfile_terms(model, c, cycles):
    return (
        c.regfile_read * model.regfile.access_energy_j(),
        c.regfile_write * model.regfile.access_energy_j(write=True),
    )


def _window_terms(model, c, cycles):
    return (
        c.window_dispatch * model.window_array.access_energy_j(write=True),
        c.window_issue * model.window_array.access_energy_j(),
        c.window_wakeup * model.wakeup_cam.search_energy_j(),
    )


def _lsq_terms(model, c, cycles):
    return (c.lsq_access * model.lsq.search_energy_j(),)


def _rename_terms(model, c, cycles):
    # Renames are a balanced read/write mix of the map table.
    return (
        c.rename_access
        * (
            model.rename.access_energy_j()
            + model.rename.access_energy_j(write=True)
        )
        / 2.0,
    )


def _rob_terms(model, c, cycles):
    return (c.rob_access * model.rob.access_energy_j(write=True) * 0.6,)


def _bht_terms(model, c, cycles):
    return (c.bpred_access * model.bht.access_energy_j(),)


def _btb_terms(model, c, cycles):
    return (c.btb_access * model.btb.access_energy_j(),)


def _ras_terms(model, c, cycles):
    return (c.ras_access * model.ras.access_energy_j(),)


def _fu_terms(model, c, cycles):
    return (
        c.ialu_access * model.fus.ialu_energy_j(),
        c.imul_access * model.fus.imul_energy_j(),
        c.falu_access * model.fus.falu_energy_j(),
        c.fmul_access * model.fus.fmul_energy_j(),
        c.resultbus_access * model.fus.result_bus_energy_j(),
    )


def _l1d_terms(model, c, cycles):
    # Reads and writes blended from the observed mix.
    data_writes = min(c.stores, c.l1d_access)
    return (
        (c.l1d_access - data_writes) * model.l1d.read_energy_j(),
        data_writes * model.l1d.write_energy_j(),
    )


def _l2d_terms(model, c, cycles):
    return (c.l2d_access * model.l2.access_energy_j(write_fraction=0.3),)


def _l1i_terms(model, c, cycles):
    return (c.l1i_access * model.l1i.read_energy_j(),)


def _l2i_terms(model, c, cycles):
    return (c.l2i_access * model.l2.read_energy_j(),)


def _clock_terms(model, c, cycles):
    gate = gating_factor(c, cycles, model.clocked_units)
    return (cycles * model.clock.energy_per_cycle_j(gating_factor=gate),)


def _dram_terms(model, c, cycles):
    return (model.memory.energy_j(c.mem_access, cycles),)


#: The machine, declared.  Order matters twice: components of one
#: category accumulate in this order (bit-exactness), and report
#: category order is first-appearance order (the paper's legend:
#: datapath, l1d, l2d, l1i, l2i, clock, memory, then the disk).
POWER_COMPONENTS: tuple[PowerComponent, ...] = (
    PowerComponent(
        "tlb", "datapath", ("tlb_access", "tlb_miss"), _tlb_terms,
        "unified TLB CAM: searches plus miss refills",
    ),
    PowerComponent(
        "regfile", "datapath", ("regfile_read", "regfile_write"),
        _regfile_terms, "integer + FP register file ports",
    ),
    PowerComponent(
        "window", "datapath",
        ("window_dispatch", "window_issue", "window_wakeup"),
        _window_terms, "issue window array and wakeup CAM",
    ),
    PowerComponent(
        "lsq", "datapath", ("lsq_access",), _lsq_terms,
        "load/store queue address CAM",
    ),
    PowerComponent(
        "rename", "datapath", ("rename_access",), _rename_terms,
        "register rename map table",
    ),
    PowerComponent(
        "rob", "datapath", ("rob_access",), _rob_terms,
        "reorder buffer",
    ),
    PowerComponent(
        "bht", "datapath", ("bpred_access",), _bht_terms,
        "branch history table",
    ),
    PowerComponent(
        "btb", "datapath", ("btb_access",), _btb_terms,
        "branch target buffer",
    ),
    PowerComponent(
        "ras", "datapath", ("ras_access",), _ras_terms,
        "return address stack",
    ),
    PowerComponent(
        "fus", "datapath",
        ("ialu_access", "imul_access", "falu_access", "fmul_access",
         "resultbus_access"),
        _fu_terms, "functional units and the result bus",
    ),
    PowerComponent(
        "l1d", "l1d", ("l1d_access", "stores"), _l1d_terms,
        "L1 data cache (read/write mix from the store count)",
    ),
    PowerComponent(
        "l2d", "l2d", ("l2d_access",), _l2d_terms,
        "L2 data-side references",
    ),
    PowerComponent(
        "l1i", "l1i", ("l1i_access",), _l1i_terms,
        "L1 instruction cache",
    ),
    PowerComponent(
        "l2i", "l2i", ("l2i_access",), _l2i_terms,
        "L2 instruction-side references",
    ),
    PowerComponent(
        "clock", "clock",
        ("window_dispatch", "l1i_access", "l1d_access", "window_issue",
         "lsq_access", "regfile_read", "rob_access", "ialu_access"),
        _clock_terms,
        "clock tree under the Section 2 conditional-clocking model",
    ),
    PowerComponent(
        "dram", "memory", ("mem_access",), _dram_terms,
        "main memory: accesses plus standing refresh",
    ),
    PowerComponent(
        "disk", "disk", (), None,
        "power-managed disk, integrated event-exactly during the run",
    ),
)

#: The process-wide registry every pipeline layer evaluates against.
REGISTRY = PowerRegistry(POWER_COMPONENTS)

#: Report categories in legend order, disk included — the single
#: definition site; every layer derives its order from the registry.
CATEGORIES: tuple[str, ...] = REGISTRY.categories
