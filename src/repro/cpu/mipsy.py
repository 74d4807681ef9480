"""Mipsy: the R4000-like single-issue in-order timing model.

SimOS's Mipsy "consists of a simple pipeline with blocking caches"
(Section 2) and is what the paper uses to collect memory-subsystem
statistics (the fast first pass of every benchmark, and the left two
profiles of Figure 3).  This model is an in-order, one-instruction-
per-cycle pipeline:

* every instruction pays one fetch (I-cache reference); an I-cache
  miss blocks the pipeline for the full miss latency,
* loads and synchronising operations block until the data returns
  (blocking caches — no overlap, no MLP),
* taken control transfers pay a fixed refill bubble (no dynamic
  prediction; the R4000 exposes branches architecturally),
* TLB misses trap to the kernel ``utlb`` handler exactly as on MXS.

Like MXS, all activity is recorded per service label.
"""

from __future__ import annotations

from repro.config.system import SystemConfig
from repro.cpu.interfaces import InlineRefillClient, TrapClient
from repro.cpu.runstats import LabelStats, RunStats
from repro.isa.instruction import Instruction, OpClass
from repro.mem.hierarchy import MemoryHierarchy
from repro.stats.counters import AccessCounters

TAKEN_BRANCH_BUBBLE = 1
"""Pipeline refill cycles after a taken control transfer."""

TRAP_ENTRY_PENALTY = 4
"""Cycles to enter the exception vector."""


class MipsyProcessor:
    """Single-issue in-order CPU model with blocking caches."""

    def __init__(
        self,
        config: SystemConfig,
        hierarchy: MemoryHierarchy | None = None,
        trap_client: TrapClient | None = None,
    ) -> None:
        self.config = config
        self.hierarchy = (
            hierarchy
            if hierarchy is not None
            else MemoryHierarchy(config, AccessCounters())
        )
        self.trap_client: TrapClient = (
            trap_client if trap_client is not None else InlineRefillClient()
        )
        self.stream_consumed = 0
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        self._cycle = 0
        self._in_trap = False
        self._stats = RunStats()
        self._current_label: str | None = None
        self._label_stats: LabelStats = self._stats.label(None)
        self.hierarchy.counters = self._label_stats.counters

    def _switch_label(self, label: str | None) -> LabelStats:
        if label != self._current_label:
            self._current_label = label
            self._label_stats = self._stats.label(label)
            self.hierarchy.counters = self._label_stats.counters
        return self._label_stats

    def _take_utlb_trap(self, faulting_address: int) -> None:
        if self._in_trap:
            raise RuntimeError(
                "nested TLB miss inside a trap handler: kernel-space code "
                "must not take TLB misses"
            )
        self._stats.traps += 1
        self._cycle += TRAP_ENTRY_PENALTY
        self._in_trap = True
        outer_label = self._current_label
        try:
            for handler_instr in self.trap_client.utlb_handler(faulting_address):
                self._process(handler_instr)
        finally:
            self._in_trap = False
            self._switch_label(outer_label)
        self.hierarchy.tlb_refill(faulting_address)

    def _process(self, instr: Instruction) -> None:
        if instr.service != self._current_label:
            self._switch_label(instr.service)
        label_stats = self._label_stats
        counters = label_stats.counters
        start_cycle = self._cycle

        # --- Fetch (blocking) -------------------------------------------
        fetch_result = self.hierarchy.fetch(instr.pc)
        if fetch_result.tlb_miss:
            self._take_utlb_trap(instr.pc)
            label_stats = self._switch_label(instr.service)
            counters = label_stats.counters
            start_cycle = self._cycle
            fetch_result = self.hierarchy.fetch(instr.pc)
            if fetch_result.tlb_miss:
                raise RuntimeError(f"TLB refill for pc {instr.pc:#x} did not stick")
        self._cycle += 1 + fetch_result.latency

        op = instr.op

        # --- Execute / memory (blocking) ----------------------------------
        extra = op.extra_latency
        if extra > 0:
            self._cycle += extra
        if op.is_mem:
            write = op is OpClass.STORE
            access = self.hierarchy.data_access(instr.address, write=write)
            if access.tlb_miss:
                self._take_utlb_trap(instr.address)
                label_stats = self._switch_label(instr.service)
                counters = label_stats.counters
                access = self.hierarchy.data_access(instr.address, write=write)
                if access.tlb_miss:
                    raise RuntimeError(
                        f"TLB refill for address {instr.address:#x} did not stick"
                    )
            if op is not OpClass.STORE:
                # Blocking load: wait for the data (plus the pipelined
                # L1 hit latency).
                self._cycle += access.latency + self.config.l1d.latency_cycles
            if op is OpClass.LOAD:
                counters.loads += 1
            elif op is OpClass.STORE:
                counters.stores += 1

        if op is OpClass.BRANCH:
            counters.branches += 1
        if op.is_ctrl and instr.taken:
            self._cycle += TAKEN_BRANCH_BUBBLE

        # --- Per-unit activity --------------------------------------------
        counters.regfile_read += len(instr.srcs)
        if op is OpClass.IMUL:
            counters.imul_access += 1
        elif op is OpClass.FMUL:
            counters.fmul_access += 1
        elif op.is_float:
            counters.falu_access += 1
        else:
            counters.ialu_access += 1
        if instr.dest:
            counters.regfile_write += 1
            counters.resultbus_access += 1

        # --- Accounting ------------------------------------------------------
        gap = self._cycle - start_cycle
        label_stats.cycles += gap
        label_stats.instructions += 1
        label_stats.instr_cycles += 1.0
        label_stats.stall_cycles += gap - 1.0
        self._stats.instructions += 1

    def run(
        self,
        stream,
        *,
        max_instructions: int | None = None,
    ) -> RunStats:
        """Execute ``stream`` and return the run statistics.

        Stops when ``stream`` is exhausted or after ``max_instructions``
        of its instructions; :attr:`stream_consumed` then counts them
        (trap-handler instructions excluded).
        """
        self._reset_run_state()
        process = self._process
        consumed = 0
        if max_instructions is None:
            for consumed, instr in enumerate(stream, 1):
                process(instr)
        else:
            remaining = max_instructions
            for instr in stream:
                if remaining <= 0:
                    break
                process(instr)
                remaining -= 1
            consumed = max_instructions - remaining
        self.stream_consumed = consumed
        self._stats.cycles = self._cycle
        return self._stats

    @property
    def stats(self) -> RunStats:
        """Statistics of the current/most recent run."""
        return self._stats
