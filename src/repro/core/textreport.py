"""Paper-style text report generation.

Renders one run or a whole suite into the document structure of the
paper's evaluation section: validation, mode breakdown (Table 2), cache
rates (Table 3), kernel services (Table 4), the power budget (Figures
5/7), and the time profile (Figures 3/4) — each annotated with the
paper's published value where one exists.

Used by ``repro report`` and handy for regression review: two reports
generated from the same seed are byte-identical.
"""

from __future__ import annotations

import io

from repro.core.report import MODE_ORDER, BenchmarkResult
from repro.kernel.modes import ExecutionMode
from repro.workloads import paper_data

_RULE = "-" * 70


def _heading(out: io.StringIO, title: str) -> None:
    out.write(f"\n{title}\n{_RULE}\n")


def render_run(result: BenchmarkResult) -> str:
    """The full report for one benchmark run."""
    out = io.StringIO()
    out.write(f"SoftWatt report: {result.name} "
              f"(cpu={result.cpu_model}, disk={result.disk_policy_name})\n")
    out.write(_RULE + "\n")
    timeline = result.timeline
    out.write(f"profiled period  : {timeline.duration_s:.2f} s "
              f"({timeline.idle_wait_s:.2f} s blocked on I/O)\n")
    out.write(f"total energy     : {result.total_energy_j:.1f} J "
              f"(disk {result.disk_energy_j:.1f} J)\n")
    out.write(f"average power    : {result.average_power_w:.2f} W  "
              f"peak {result.peak_power_w:.2f} W  "
              f"EDP {result.energy_delay_product:.1f} Js\n")

    _heading(out, "Mode breakdown (Table 2)")
    paper2 = paper_data.TABLE2.get(result.name)
    out.write(f"{'mode':8s} {'%cycles':>9s} {'%energy':>9s}"
              + (f" {'paper c/e':>14s}\n" if paper2 else "\n"))
    paper_cells = {}
    if paper2:
        paper_cells = {
            ExecutionMode.USER: (paper2.user_cycles, paper2.user_energy),
            ExecutionMode.KERNEL: (paper2.kernel_cycles, paper2.kernel_energy),
            ExecutionMode.SYNC: (paper2.sync_cycles, paper2.sync_energy),
            ExecutionMode.IDLE: (paper2.idle_cycles, paper2.idle_energy),
        }
    for mode in MODE_ORDER:
        row = result.mode_breakdown()[mode]
        line = f"{mode.value:8s} {row.cycles_pct:9.2f} {row.energy_pct:9.2f}"
        if paper2:
            cycles, energy = paper_cells[mode]
            line += f" {cycles:6.1f}/{energy:6.1f}"
        out.write(line + "\n")

    _heading(out, "Cache references per cycle (Table 3)")
    paper3 = paper_data.TABLE3.get(result.name)
    rates = result.cache_rates()
    out.write(f"{'mode':8s} {'iL1/cyc':>8s} {'dL1/cyc':>8s}"
              + (f" {'paper i/d':>12s}\n" if paper3 else "\n"))
    paper_rate = {}
    if paper3:
        paper_rate = {
            ExecutionMode.USER: paper3.user,
            ExecutionMode.KERNEL: paper3.kernel,
            ExecutionMode.SYNC: paper3.sync,
            ExecutionMode.IDLE: paper3.idle,
        }
    for mode in MODE_ORDER:
        rate = rates[mode]
        line = f"{mode.value:8s} {rate.il1_per_cycle:8.2f} {rate.dl1_per_cycle:8.2f}"
        if paper3:
            i_rate, d_rate = paper_rate[mode]
            line += f" {i_rate:5.2f}/{d_rate:4.2f}"
        out.write(line + "\n")

    _heading(out, "Kernel services (Table 4)")
    shares4 = paper_data.TABLE4_SHARES.get(result.name, {})
    out.write(f"{'service':12s} {'invocations':>12s} {'%kern cyc':>10s} "
              f"{'%kern en':>9s} {'paper cyc/en':>14s}\n")
    for row in result.service_breakdown():
        paper_cell = shares4.get(row.service)
        reference = (
            f"{paper_cell[0]:6.2f}/{paper_cell[1]:6.2f}" if paper_cell else "-"
        )
        out.write(f"{row.service:12s} {row.invocations:12.0f} "
                  f"{row.kernel_cycles_pct:10.2f} {row.kernel_energy_pct:9.2f} "
                  f"{reference:>14s}\n")

    _heading(out, "Power budget (Figures 5/7)")
    budget = result.power_budget()
    shares = result.power_budget_shares()
    reference_shares = (
        paper_data.FIGURE5_SHARES
        if result.disk_policy_name == "baseline"
        else paper_data.FIGURE7_SHARES
    )
    out.write(f"{'category':10s} {'watts':>7s} {'share %':>8s} {'paper %':>8s}\n")
    for name in budget:  # registry legend order, disk included
        paper_share = reference_shares.get(name)
        reference = f"{paper_share:.0f}" if paper_share else "-"
        out.write(f"{name:10s} {budget[name]:7.2f} {shares[name]:8.1f} "
                  f"{reference:>8s}\n")

    _heading(out, "Power over time (Figures 3/4)")
    trace = result.trace
    step = max(1, len(trace.times_s) // 20)
    totals = trace.total_with_disk_w
    scale = 60.0 / max(totals) if totals and max(totals) > 0 else 1.0
    for index in range(0, len(trace.times_s), step):
        bar = "#" * int(totals[index] * scale)
        out.write(f"t={trace.times_s[index]:6.2f}s {totals[index]:6.2f} W |{bar}\n")
    return out.getvalue()


def render_suite(results: dict[str, BenchmarkResult]) -> str:
    """A cross-benchmark summary plus the suite-average budget."""
    out = io.StringIO()
    out.write("SoftWatt suite report\n")
    out.write(_RULE + "\n")
    out.write(f"{'benchmark':10s} {'dur s':>7s} {'energy J':>9s} "
              f"{'disk J':>7s} {'avg W':>6s} {'peak W':>7s} {'EDP Js':>8s}\n")
    for name, result in results.items():
        out.write(f"{name:10s} {result.timeline.duration_s:7.2f} "
                  f"{result.total_energy_j:9.1f} {result.disk_energy_j:7.1f} "
                  f"{result.average_power_w:6.2f} {result.peak_power_w:7.2f} "
                  f"{result.energy_delay_product:8.1f}\n")
    if not results:  # every benchmark failed under best effort
        return out.getvalue()

    _heading(out, "Suite-average power budget")
    budgets = [result.power_budget() for result in results.values()]
    average = {
        key: sum(b[key] for b in budgets) / len(budgets) for key in budgets[0]
    }
    total = sum(average.values())
    out.write(f"{'category':10s} {'watts':>7s} {'share %':>8s}\n")
    for name in average:  # registry legend order, disk included
        out.write(f"{name:10s} {average[name]:7.2f} "
                  f"{average[name] / total * 100:8.1f}\n")
    return out.getvalue()
