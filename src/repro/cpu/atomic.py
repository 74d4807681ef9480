"""Atomic/functional execution tier (gem5's AtomicSimpleCPU analogue).

The detailed mipsy/mxs cores pay per-cycle (mxs) or closed-form
per-instruction (mipsy) pipeline accounting for every instruction of
every profiling chunk.  Measurement shows the *instruction generation*
itself — the synthetic-code generator plus kernel interleaving — costs
almost as much as detailed mipsy execution, so a tier that streams the
whole chunk functionally can never be much faster than detailed.  The
atomic tier therefore samples: it executes only a leading *slice* of
each chunk (``max(ATOMIC_MIN_SLICE, chunk // ATOMIC_SLICE_DIVISOR)``
instructions), then extrapolates every counter and cycle total to the
full chunk budget via :meth:`RunStats.scaled`.  The remaining
instructions are never generated at all, which is where the speedup
comes from.

The slice runs on one core per flavour:

* the mipsy flavour runs :class:`MipsyProcessor` itself — its
  single-issue blocking-cache latency is already a closed form, so the
  rung's only error against detailed mipsy is slicing error;
* the mxs flavour runs :class:`CursorMXS`, the one model this tier
  owns: the real memory hierarchy, utlb handler and
  :class:`BranchPredictor`, MXS's per-instruction counter-bump rules,
  and float-valued cursors for fetch/issue/commit bandwidth,
  functional-unit contention, register dependences and window
  occupancy in place of MXS's per-cycle tables — one pass, no
  pipeline walk.
"""

from __future__ import annotations

import itertools

from repro.config.system import SystemConfig
from repro.cpu.branch import BranchPredictor
from repro.cpu.interfaces import InlineRefillClient, TrapClient
from repro.cpu.mipsy import MipsyProcessor
from repro.cpu.mxs import FRONT_END_DEPTH, TRAP_ENTRY_PENALTY
from repro.cpu.runstats import LabelStats, RunStats
from repro.isa.instruction import Instruction, OpClass
from repro.mem.hierarchy import MemoryHierarchy
from repro.stats.counters import AccessCounters

ATOMIC_SLICE_DIVISOR = 16
"""Fraction of each chunk that is functionally executed (1/16)."""

ATOMIC_MIN_SLICE = 150
"""Floor on the executed slice so tiny chunks keep a usable sample."""

ATOMIC_MXS_CYCLE_CALIBRATION = 0.58
"""Deflator applied to the mxs-flavour analytic cycle totals.

Sparse slicing trains the branch predictor and TLB on only 1/16 of the
stream, so the slice sees structurally colder predictors than a
detailed run — mispredict-driven fetch bubbles inflate the raw cursor
model's cycle count by a stable ~1.7x across the whole suite.  This
constant was calibrated against detailed mxs on the six SPEC JVM98
benchmarks (seed 1); the useful-commit share (``instr_cycles``) is
exact and left untouched, so only the stall share is deflated.
"""


class CursorMXS:
    """One-pass analytic out-of-order model of the MXS flavour.

    Same constructor shape and counter-bump rules as
    :class:`MXSProcessor`, but bandwidth and contention are fractional-
    cycle cursors instead of per-cycle reservation tables.  ``run``
    executes the whole stream it is given; the atomic rung hands it the
    slice.
    """

    def __init__(
        self,
        config: SystemConfig,
        hierarchy: MemoryHierarchy | None = None,
        trap_client: TrapClient | None = None,
    ) -> None:
        self.config = config
        self.core = config.core
        self.hierarchy = (
            hierarchy
            if hierarchy is not None
            else MemoryHierarchy(config, AccessCounters())
        )
        self.trap_client: TrapClient = (
            trap_client if trap_client is not None else InlineRefillClient()
        )
        self.predictor = BranchPredictor(config.core)
        self.stream_consumed = 0
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        core = self.core
        # Analytic cursors, all in fractional cycles.
        self._fetch_time = 0.0
        self._issue_free = 0.0
        self._int_free = 0.0
        self._fp_free = 0.0
        self._mem_free = 0.0
        self._imul_free = 0.0
        self._commit_free = 0.0
        self._last_commit = 0.0
        self._reg_ready: dict[int, float] = {}
        self._rob: list[float] = []
        self._rob_head = 0
        self._lsq: list[float] = []
        self._lsq_head = 0
        self._inv_fetch = 1.0 / core.fetch_width
        self._inv_issue = 1.0 / core.issue_width
        self._inv_commit = 1.0 / core.commit_width
        self._inv_int = 1.0 / core.int_alus
        self._inv_fp = 1.0 / core.fp_alus
        self._in_trap = False
        self._stats = RunStats()
        self._current_label: str | None = None
        self._label_stats: LabelStats = self._stats.label(None)
        self.hierarchy.counters = self._label_stats.counters
        self._branch_snapshot = self.predictor.stats.snapshot()

    def _switch_label(self, label: str | None) -> LabelStats:
        if label != self._current_label:
            self._current_label = label
            self._label_stats = self._stats.label(label)
            self.hierarchy.counters = self._label_stats.counters
        return self._label_stats

    def _take_utlb_trap(self, faulting_address: int) -> None:
        """Run the kernel utlb handler functionally, then refill."""
        if self._in_trap:
            raise RuntimeError(
                "nested TLB miss inside a trap handler: kernel-space code "
                "must not take TLB misses"
            )
        self._stats.traps += 1
        drain = self._last_commit + TRAP_ENTRY_PENALTY
        if drain > self._fetch_time:
            self._fetch_time = drain
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
        # Same counter-bump rules and structural constraints as
        # MXSProcessor._process, but bandwidth and contention are
        # approximated by fractional-cycle cursors instead of per-cycle
        # reservation tables — no window walk, no issue-table scan.
        core = self.core
        if instr.service != self._current_label:
            self._switch_label(instr.service)
        label_stats = self._label_stats
        counters = label_stats.counters
        pc = instr.pc

        fetch_result = self.hierarchy.fetch(pc)
        if fetch_result.tlb_miss:
            self._take_utlb_trap(pc)
            label_stats = self._switch_label(instr.service)
            counters = label_stats.counters
            fetch_result = self.hierarchy.fetch(pc)
            if fetch_result.tlb_miss:
                raise RuntimeError(f"TLB refill for pc {pc:#x} did not stick")
        fetch_time = self._fetch_time
        if fetch_result.latency:
            # Blocking I-cache miss: the whole front end waits.
            fetch_time += fetch_result.latency
        fetch_time += self._inv_fetch

        op = instr.op

        mispredicted = False
        if op.is_ctrl:
            counters.bpred_access += 1
            if op is OpClass.CALL or op is OpClass.RETURN:
                counters.ras_access += 1
            if op is not OpClass.BRANCH or instr.taken:
                counters.btb_access += 1
            correct = self.predictor.predict(instr)
            if op is OpClass.BRANCH:
                counters.branches += 1
                if not correct:
                    counters.branch_mispredicts += 1
            mispredicted = not correct
            if correct and instr.taken:
                # Correctly-predicted taken branch still ends the group.
                fetch_time = float(int(fetch_time)) + 1.0

        dispatch = fetch_time + FRONT_END_DEPTH
        rob = self._rob
        if len(rob) - self._rob_head >= core.window_size:
            oldest = rob[self._rob_head]
            self._rob_head += 1
            if self._rob_head > 4096:
                del rob[: self._rob_head]
                self._rob_head = 0
            if oldest + 1.0 > dispatch:
                dispatch = oldest + 1.0
        is_mem = op.is_mem
        if is_mem:
            lsq = self._lsq
            if len(lsq) - self._lsq_head >= core.lsq_size:
                oldest_mem = lsq[self._lsq_head]
                self._lsq_head += 1
                if self._lsq_head > 4096:
                    del lsq[: self._lsq_head]
                    self._lsq_head = 0
                if oldest_mem + 1.0 > dispatch:
                    dispatch = oldest_mem + 1.0
        srcs = instr.srcs
        counters.rename_access += 1
        counters.window_dispatch += 1
        counters.rob_access += 1
        counters.regfile_read += len(srcs)

        ready = dispatch
        reg_ready = self._reg_ready
        for src in srcs:
            if src:
                producer = reg_ready.get(src, 0.0)
                if producer > ready:
                    ready = producer

        # Issue: shared issue bandwidth plus per-class unit throughput,
        # both modelled as next-free-time cursors.
        if is_mem:
            unit_free, unit_step = self._mem_free, 1.0
        elif op is OpClass.IMUL:
            unit_free, unit_step = self._imul_free, 1.0
        elif op.is_float:
            unit_free, unit_step = self._fp_free, self._inv_fp
        else:
            unit_free, unit_step = self._int_free, self._inv_int
        issue = ready
        if unit_free > issue:
            issue = unit_free
        if self._issue_free > issue:
            issue = self._issue_free
        next_unit_free = issue + unit_step
        if is_mem:
            self._mem_free = next_unit_free
        elif op is OpClass.IMUL:
            self._imul_free = next_unit_free
        elif op.is_float:
            self._fp_free = next_unit_free
        else:
            self._int_free = next_unit_free
        self._issue_free = issue + self._inv_issue

        counters.window_issue += 1
        latency = op.latency
        complete = issue + latency
        if is_mem:
            counters.lsq_access += 1
            address = instr.address
            write = op is OpClass.STORE
            access = self.hierarchy.data_access(address, write=write)
            if access.tlb_miss:
                self._fetch_time = fetch_time
                self._take_utlb_trap(address)
                label_stats = self._switch_label(instr.service)
                counters = label_stats.counters
                access = self.hierarchy.data_access(address, write=write)
                if access.tlb_miss:
                    raise RuntimeError(
                        f"TLB refill for address {address:#x} did not stick"
                    )
                complete = (
                    self._last_commit
                    + latency
                    + access.latency
                    + self.config.l1d.latency_cycles
                )
                fetch_time = self._fetch_time
            elif not write:
                # Loads see the pipelined L1 latency even on a hit.
                complete = (
                    issue + latency + access.latency + self.config.l1d.latency_cycles
                )
            if op is OpClass.LOAD:
                counters.loads += 1
            elif write:
                counters.stores += 1

        if op is OpClass.IMUL:
            counters.imul_access += 1
        elif op is OpClass.FMUL:
            counters.fmul_access += 1
        elif op.is_float:
            counters.falu_access += 1
        elif not is_mem:
            counters.ialu_access += 1

        dest = instr.dest
        if dest:
            reg_ready[dest] = complete
            counters.regfile_write += 1
            counters.resultbus_access += 1
            counters.window_wakeup += 1

        # In-order commit at commit_width per cycle.
        commit = self._commit_free + self._inv_commit
        earliest = complete + 1.0
        if earliest > commit:
            commit = earliest
        self._commit_free = commit
        counters.rob_access += 1
        rob.append(commit)
        if is_mem:
            self._lsq.append(commit)

        if mispredicted:
            redirect = complete + core.branch_mispredict_penalty
            if redirect > fetch_time:
                wrong_path_cycles = redirect - fetch_time - 1.0
                if wrong_path_cycles < 0.0:
                    wrong_path_cycles = 0.0
                counters.l1i_access += min(
                    int(wrong_path_cycles * core.fetch_width * 0.9),
                    4 * core.fetch_width,
                )
                fetch_time = redirect
        elif op is OpClass.SYSCALL or op is OpClass.ERET:
            # Serialising instructions restart fetch after they commit.
            if commit + 1.0 > fetch_time:
                fetch_time = commit + 1.0

        self._fetch_time = fetch_time

        gap = commit - self._last_commit
        self._last_commit = commit
        useful = self._inv_commit
        label_stats.cycles += gap
        label_stats.instructions += 1
        if gap >= useful:
            label_stats.instr_cycles += useful
            label_stats.stall_cycles += gap - useful
        else:
            label_stats.instr_cycles += gap
        self._stats.instructions += 1

    def run(self, stream) -> RunStats:
        """Execute all of ``stream``; cycle totals are calibrated."""
        self._reset_run_state()
        process = self._process
        consumed = 0
        for consumed, instr in enumerate(stream, 1):
            process(instr)
        self.stream_consumed = consumed
        stats = self._stats
        calibration = ATOMIC_MXS_CYCLE_CALIBRATION
        stats.cycles = round(self._last_commit * calibration)
        for bucket in stats.labels.values():
            bucket.cycles *= calibration
            stall = bucket.cycles - bucket.instr_cycles
            bucket.stall_cycles = stall if stall > 0.0 else 0.0
        stats.branch = self.predictor.stats.since(self._branch_snapshot)
        return stats


class AtomicProcessor:
    """Slice-and-scale wrapper around the atomic core of one flavour.

    Drop-in replacement for :class:`MipsyProcessor`/:class:`MXSProcessor`
    in the profiler: same ``run(stream, *, max_instructions)`` contract,
    same :class:`RunStats` result.  After each run
    :attr:`stream_consumed` reports how many instructions were pulled
    from the stream (the slice), which the profiler uses to rescale
    kernel-invocation deltas.
    """

    def __init__(
        self,
        cpu_model: str,
        config: SystemConfig,
        hierarchy: MemoryHierarchy | None = None,
        trap_client: TrapClient | None = None,
    ) -> None:
        if cpu_model == "mipsy":
            self.cpu = MipsyProcessor(config, hierarchy, trap_client)
        elif cpu_model == "mxs":
            self.cpu = CursorMXS(config, hierarchy, trap_client)
        else:
            raise ValueError(f"unknown CPU model flavour {cpu_model!r}")
        self.stream_consumed = 0
        self._stats = RunStats()

    def run(
        self,
        stream,
        *,
        max_instructions: int | None = None,
    ) -> RunStats:
        """Execute a slice of ``stream`` and extrapolate to the budget.

        Without ``max_instructions`` the entire stream is executed (no
        extrapolation).  With a budget, only the leading slice is pulled
        from the stream; the returned RunStats is scaled so cycle
        totals, counters, and trap counts represent the full budget.
        Handler instructions injected by traps do not count against the
        slice, mirroring the detailed cores.
        """
        if max_instructions is not None:
            slice_n = min(
                max_instructions,
                max(ATOMIC_MIN_SLICE, max_instructions // ATOMIC_SLICE_DIVISOR),
            )
            stream = itertools.islice(stream, slice_n)
        stats = self.cpu.run(stream)
        executed = self.stream_consumed = self.cpu.stream_consumed
        if executed and max_instructions is not None and max_instructions > executed:
            stats = stats.scaled(max_instructions / executed)
        self._stats = stats
        return stats

    @property
    def stats(self) -> RunStats:
        """Statistics of the current/most recent run."""
        return self._stats
