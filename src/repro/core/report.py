"""Result containers shaped like the paper's tables and figures.

A :class:`BenchmarkResult` wraps one full-run simulation and exposes
the exact quantities the evaluation section reports: the Table 2 mode
breakdown, the Table 3 cache-reference rates, the Table 4 kernel
service decomposition, the Figure 5/7 power budget, and the Figure 3/4
time profiles (via the power trace).
"""

from __future__ import annotations

import dataclasses

from repro.core.timeline import TimelineResult
from repro.kernel.modes import ExecutionMode
from repro.power.ledger import EnergyLedger
from repro.power.processor import ProcessorPowerModel
from repro.power.registry import REGISTRY
from repro.stats.postprocess import PowerTrace
from repro.stats.source import CounterBundle

MODE_ORDER = (
    ExecutionMode.USER,
    ExecutionMode.KERNEL,
    ExecutionMode.SYNC,
    ExecutionMode.IDLE,
)


@dataclasses.dataclass(frozen=True)
class ModeRow:
    """One mode's share of the run (a Table 2 cell pair)."""

    mode: ExecutionMode
    cycles: float
    energy_j: float
    cycles_pct: float
    energy_pct: float


@dataclasses.dataclass(frozen=True)
class ServiceRow:
    """One kernel service's contribution (a Table 4 row)."""

    service: str
    invocations: float
    cycles: float
    energy_j: float
    kernel_cycles_pct: float
    kernel_energy_pct: float


@dataclasses.dataclass(frozen=True)
class CacheRates:
    """L1 references per cycle for one mode (a Table 3 cell pair)."""

    il1_per_cycle: float
    dl1_per_cycle: float


@dataclasses.dataclass
class BenchmarkResult:
    """Full results of one benchmark run under one configuration.

    The whole-run ledger is priced once, on first use, and kept: the
    totals, the power budget and its shares all read that one ledger.
    """

    name: str
    cpu_model: str
    disk_policy_name: str
    timeline: TimelineResult
    trace: PowerTrace
    model: ProcessorPowerModel
    _ledger: EnergyLedger | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Table 2: mode breakdown
    # ------------------------------------------------------------------

    def mode_breakdown(self) -> dict[ExecutionMode, ModeRow]:
        """Percentage of cycles and energy per software mode."""
        timeline = self.timeline
        total_cycles = timeline.total_cycles or 1.0
        energies: dict[ExecutionMode, float] = {}
        for mode in MODE_ORDER:
            cycles = timeline.mode_cycles.get(mode, 0.0)
            counters = timeline.mode_counters[mode]
            if cycles >= 1.0:
                bundle = CounterBundle(counters=counters, cycles=cycles)
                energy = self.model.price(bundle).total_j
            else:
                energy = 0.0
            energies[mode] = energy
        total_energy = sum(energies.values()) or 1.0
        return {
            mode: ModeRow(
                mode=mode,
                cycles=timeline.mode_cycles.get(mode, 0.0),
                energy_j=energies[mode],
                cycles_pct=timeline.mode_cycles.get(mode, 0.0) / total_cycles * 100.0,
                energy_pct=energies[mode] / total_energy * 100.0,
            )
            for mode in MODE_ORDER
        }

    def mode_average_power(self) -> dict[ExecutionMode, dict[str, float]]:
        """Average power per mode, split by category (Figure 6)."""
        result: dict[ExecutionMode, dict[str, float]] = {}
        cycle_time = self.model.technology.cycle_time_s
        for mode in MODE_ORDER:
            cycles = self.timeline.mode_cycles.get(mode, 0.0)
            if cycles < 1.0:
                result[mode] = {
                    name: 0.0 for name in REGISTRY.counter_categories
                }
                continue
            counters = self.timeline.mode_counters[mode]
            ledger = self.model.price(
                CounterBundle(counters=counters, cycles=cycles)
            )
            result[mode] = ledger.category_power_w(cycles * cycle_time)
        return result

    # ------------------------------------------------------------------
    # Table 3: cache references per cycle
    # ------------------------------------------------------------------

    def cache_rates(self) -> dict[ExecutionMode, CacheRates]:
        """L1 I/D references per cycle in each mode."""
        result = {}
        for mode in MODE_ORDER:
            cycles = self.timeline.mode_cycles.get(mode, 0.0)
            counters = self.timeline.mode_counters[mode]
            if cycles < 1.0:
                result[mode] = CacheRates(0.0, 0.0)
                continue
            result[mode] = CacheRates(
                il1_per_cycle=counters.l1i_access / cycles,
                dl1_per_cycle=counters.l1d_access / cycles,
            )
        return result

    # ------------------------------------------------------------------
    # Table 4: kernel services
    # ------------------------------------------------------------------

    def service_breakdown(self) -> list[ServiceRow]:
        """Kernel computation by service, cycles vs energy (Table 4)."""
        timeline = self.timeline
        rows: list[ServiceRow] = []
        kernel_cycles = 0.0
        energies: dict[str, float] = {}
        service_cycles: dict[str, float] = {}
        for label, cycles in timeline.label_cycles.items():
            if label is None or label in ("idle", "kernel_sync"):
                continue
            counters = timeline.label_counters[label]
            energy = (
                self.model.price(
                    CounterBundle(counters=counters, cycles=cycles)
                ).total_j
                if cycles >= 1.0
                else 0.0
            )
            energies[label] = energy
            service_cycles[label] = cycles
            kernel_cycles += cycles
        kernel_energy = sum(energies.values()) or 1.0
        kernel_cycles = kernel_cycles or 1.0
        for service, cycles in sorted(
            service_cycles.items(), key=lambda item: -item[1]
        ):
            rows.append(
                ServiceRow(
                    service=service,
                    invocations=timeline.invocations.get(service, 0.0),
                    cycles=cycles,
                    energy_j=energies[service],
                    kernel_cycles_pct=cycles / kernel_cycles * 100.0,
                    kernel_energy_pct=energies[service] / kernel_energy * 100.0,
                )
            )
        return rows

    # ------------------------------------------------------------------
    # Figures 5 and 7: the overall power budget
    # ------------------------------------------------------------------

    def energy_ledger(self) -> EnergyLedger:
        """The full-run ledger: every registry component plus the disk.

        Priced on the first call and kept; later calls return the kept
        ledger."""
        if self._ledger is None:
            self._ledger = self.timeline.energy_ledger(self.model)
        return self._ledger

    @property
    def ledger(self) -> EnergyLedger:
        """The kept full-run ledger, priced through
        :meth:`energy_ledger` if no one has asked for it yet."""
        ledger = self._ledger
        return ledger if ledger is not None else self.energy_ledger()

    def power_budget(self) -> dict[str, float]:
        """Average system power by category, *including the disk*."""
        seconds = self.timeline.duration_s or 1.0
        return self.ledger.category_power_w(seconds)

    def power_budget_shares(self) -> dict[str, float]:
        """The Figure 5/7 pie: percentage share per category."""
        budget = self.power_budget()
        total = sum(budget.values()) or 1.0
        return {name: value / total * 100.0 for name, value in budget.items()}

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------

    @property
    def total_energy_j(self) -> float:
        """CPU + memory + disk energy of the run."""
        return self.ledger.total_j

    @property
    def disk_energy_j(self) -> float:
        """Disk-only energy (the Figure 9 bars)."""
        return self.timeline.disk.energy.energy_j

    @property
    def idle_cycles(self) -> float:
        """Cycles spent in the idle process (Figure 9, right chart)."""
        return self.timeline.mode_cycles.get(ExecutionMode.IDLE, 0.0)

    @property
    def energy_delay_product(self) -> float:
        """Energy-delay product in joule-seconds (Section 3.1's metric
        for energy-vs-performance design tradeoffs)."""
        return self.total_energy_j * self.timeline.duration_s

    @property
    def peak_power_w(self) -> float:
        """Peak sampled system power including the disk (Section 3.1:
        "Our tool can also be used to obtain the peak power consumption
        from the profiles")."""
        totals = self.trace.total_with_disk_w
        return max(totals) if totals else 0.0

    @property
    def average_power_w(self) -> float:
        """Average system power over the run, including the disk."""
        duration = self.timeline.duration_s
        return self.total_energy_j / duration if duration > 0 else 0.0

    def format_summary(self) -> str:
        """A compact human-readable run summary."""
        lines = [
            f"benchmark {self.name} on {self.cpu_model}, "
            f"disk={self.disk_policy_name}",
            f"  duration {self.timeline.duration_s:.2f} s "
            f"({self.timeline.idle_wait_s:.2f} s blocked on I/O)",
            f"  total energy {self.total_energy_j:.1f} J "
            f"(disk {self.disk_energy_j:.1f} J)",
        ]
        for mode, row in self.mode_breakdown().items():
            lines.append(
                f"  {mode.value:6s} cycles {row.cycles_pct:5.1f}%  "
                f"energy {row.energy_pct:5.1f}%"
            )
        return "\n".join(lines)
