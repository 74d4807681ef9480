"""Typed energy accounting: the :class:`EnergyLedger`.

Every layer of the simulate→count→account→report pipeline used to
re-invent its own ``dict[str, float]`` of joules (per category, per
mode, per service, with or without the disk bolted on).  The ledger is
the one shape they all share now: per-component joules with category
rollups, plus the ``+`` / scale operators that window sampling and
service aggregation need.

Ledgers are produced by evaluating the
:mod:`~repro.power.registry` over an interval's
:class:`~repro.stats.counters.AccessCounters`; simulation-time
components (the disk, whose energy is integrated event-exactly during
the run) are attached afterwards with :meth:`EnergyLedger.with_component`.

Numerical contract: category values are accumulated term by term in
registry declaration order, so they are bit-identical to the historical
hand-written arithmetic (pinned by ``tests/test_golden_energy.py``).
:attr:`EnergyLedger.total_j` likewise accumulates categories in rollup
order.
"""

from __future__ import annotations

from typing import Iterator, Mapping


class EnergyLedger:
    """Per-component energies of one interval, with category rollups."""

    __slots__ = ("_component_j", "_category_j", "_component_category")

    def __init__(
        self,
        component_j: Mapping[str, float],
        component_category: Mapping[str, str],
    ) -> None:
        unknown = set(component_j) - set(component_category)
        if unknown:
            raise ValueError(
                f"components {sorted(unknown)} have no category mapping"
            )
        self._component_j = dict(component_j)
        self._component_category = dict(component_category)
        category_j: dict[str, float] = {}
        for name, energy in self._component_j.items():
            category = self._component_category[name]
            category_j[category] = category_j.get(category, 0.0) + energy
        self._category_j = category_j

    @classmethod
    def _raw(
        cls,
        component_j: dict[str, float],
        category_j: dict[str, float],
        component_category: dict[str, str],
    ) -> "EnergyLedger":
        """Build without re-deriving rollups (registry evaluation uses
        this to control the category accumulation order exactly)."""
        ledger = cls.__new__(cls)
        ledger._component_j = component_j
        ledger._category_j = category_j
        ledger._component_category = component_category
        return ledger

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def components(self) -> dict[str, float]:
        """Per-component joules, in registry declaration order."""
        return dict(self._component_j)

    @property
    def categories(self) -> dict[str, float]:
        """Per-category joules, in report rollup order."""
        return dict(self._category_j)

    def component(self, name: str) -> float:
        """Energy of one component, with a clear error when unknown."""
        try:
            return self._component_j[name]
        except KeyError:
            raise KeyError(
                f"unknown power component {name!r}; ledger has "
                f"{sorted(self._component_j)}"
            ) from None

    def category(self, name: str) -> float:
        """Energy of one report category, with a clear error when unknown."""
        try:
            return self._category_j[name]
        except KeyError:
            raise KeyError(
                f"unknown report category {name!r}; ledger has "
                f"{list(self._category_j)}"
            ) from None

    def category_of(self, component: str) -> str:
        """The report category a component rolls up to."""
        try:
            return self._component_category[component]
        except KeyError:
            raise KeyError(f"unknown power component {component!r}") from None

    def items(self) -> Iterator[tuple[str, float]]:
        """Iterate (component, joules) pairs in declaration order."""
        return iter(self._component_j.items())

    @property
    def total_j(self) -> float:
        """Total energy, accumulated in category rollup order."""
        total = 0.0
        for value in self._category_j.values():
            total += value
        return total

    def category_power_w(self, seconds: float) -> dict[str, float]:
        """Average watts per category over ``seconds``."""
        if seconds <= 0:
            raise ValueError(f"seconds must be positive, got {seconds}")
        return {name: value / seconds for name, value in self._category_j.items()}

    # ------------------------------------------------------------------
    # Aggregation algebra (window and service accumulation)
    # ------------------------------------------------------------------

    def __add__(self, other: "EnergyLedger") -> "EnergyLedger":
        if not isinstance(other, EnergyLedger):
            return NotImplemented
        component_category = dict(self._component_category)
        component_category.update(other._component_category)
        component_j = dict(self._component_j)
        for name, value in other._component_j.items():
            component_j[name] = component_j.get(name, 0.0) + value
        category_j = dict(self._category_j)
        for name, value in other._category_j.items():
            category_j[name] = category_j.get(name, 0.0) + value
        return EnergyLedger._raw(component_j, category_j, component_category)

    def scaled(self, factor: float) -> "EnergyLedger":
        """Every energy multiplied by ``factor`` (e.g. window weights)."""
        return EnergyLedger._raw(
            {name: value * factor for name, value in self._component_j.items()},
            {name: value * factor for name, value in self._category_j.items()},
            dict(self._component_category),
        )

    def __mul__(self, factor: float) -> "EnergyLedger":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return self.scaled(factor)

    __rmul__ = __mul__

    def with_component(
        self, name: str, category: str, energy_j: float
    ) -> "EnergyLedger":
        """A new ledger with one simulation-time component attached.

        Used for units whose energy is integrated during simulation
        rather than post-processed from counters (the disk).  The
        component must not already be present.
        """
        if name in self._component_j:
            raise ValueError(f"component {name!r} already in ledger")
        component_j = dict(self._component_j)
        component_j[name] = energy_j
        component_category = dict(self._component_category)
        component_category[name] = category
        category_j = dict(self._category_j)
        category_j[category] = category_j.get(category, 0.0) + energy_j
        return EnergyLedger._raw(component_j, category_j, component_category)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EnergyLedger):
            return NotImplemented
        return (
            self._component_j == other._component_j
            and self._category_j == other._category_j
            and self._component_category == other._component_category
        )

    def __repr__(self) -> str:
        budget = ", ".join(
            f"{name}={value:.3g}" for name, value in self._category_j.items()
        )
        return f"EnergyLedger({budget})"
