"""MXS: the R10000-like out-of-order superscalar timing model.

SimOS's MXS emulates a MIPS R10000: multi-issue, out-of-order, with an
instruction window, load/store queue, and branch prediction.  This
module implements the same microarchitecture as a constraint-based
timing model: each dynamic instruction's fetch, dispatch, issue,
completion, and commit cycles are computed in program order subject to

* fetch bandwidth (``fetch_width``/cycle, fetch group broken by a
  taken branch), I-cache miss and I-TLB stalls,
* the instruction-window occupancy limit (fetch stalls when the window
  holds ``window_size`` uncommitted instructions) and LSQ occupancy,
* true data dependences through the (renamed) register file,
* issue bandwidth and functional-unit contention (2 INT, 2 FP, one
  data-cache port),
* in-order commit at ``commit_width``/cycle,
* branch mispredictions (front end re-steered when the branch
  resolves, plus the fixed redirect penalty), and
* precise TLB-miss traps: the pipeline drains, the kernel's ``utlb``
  handler runs inline in kernel space, the TLB is refilled, and the
  faulting access retries (Section 3.3's dominant kernel service).

This formulation reproduces the structural behaviour MXS gives the
paper — user/kernel IPC and branch-accuracy differences, cache
reference rates per cycle — while remaining fast enough for pure
Python.  All port activity is recorded per service label so the power
post-processor can attribute energy to software modes.

Issue bandwidth and functional-unit contention are booked in per-cycle
dict tables, pruned behind the commit horizon every ``_PRUNE_INTERVAL``
instructions.
"""

from __future__ import annotations

from collections import deque

from repro.config.system import SystemConfig
from repro.cpu.branch import BranchPredictor
from repro.cpu.interfaces import InlineRefillClient, TrapClient
from repro.cpu.runstats import LabelStats, RunStats
from repro.isa.instruction import Instruction, OpClass
from repro.mem.hierarchy import MemoryHierarchy
from repro.stats.counters import AccessCounters

FRONT_END_DEPTH = 3
"""Cycles between fetch and dispatch (decode + rename stages)."""

TRAP_ENTRY_PENALTY = 3
"""Cycles to redirect fetch to the exception vector after a drain."""

_PRUNE_INTERVAL = 1 << 15


class MXSProcessor:
    """Out-of-order superscalar CPU model (see module docstring)."""

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
        self.predictor = BranchPredictor(config.core)
        self.trap_client: TrapClient = (
            trap_client if trap_client is not None else InlineRefillClient()
        )
        self._reset_run_state()

    # ------------------------------------------------------------------
    # Run state
    # ------------------------------------------------------------------

    def _reset_run_state(self) -> None:
        self._reg_ready: dict[int, int] = {}
        self._fetch_cycle = 0
        self._fetched_this_cycle = 0
        self._fetch_block_until = 0
        self._commit_cycle = 0
        self._committed_this_cycle = 0
        self._last_commit = 0
        self._rob_commits: deque[int] = deque()
        self._lsq_commits: deque[int] = deque()
        self._issue_used: dict[int, int] = {}
        self._int_used: dict[int, int] = {}
        self._fp_used: dict[int, int] = {}
        self._mem_used: dict[int, int] = {}
        self._imul_used: dict[int, int] = {}
        self._since_prune = 0
        self._in_trap = False
        self._stats = RunStats()
        self._current_label: str | None = None
        self._label_stats: LabelStats = self._stats.label(None)
        self.hierarchy.counters = self._label_stats.counters

    def _prune(self) -> None:
        """Drop bandwidth bookkeeping older than the commit horizon."""
        horizon = self._last_commit - 4
        for used in (
            self._issue_used,
            self._int_used,
            self._fp_used,
            self._mem_used,
            self._imul_used,
        ):
            stale = [cycle for cycle in used if cycle < horizon]
            for cycle in stale:
                del used[cycle]

    def _switch_label(self, label: str | None) -> LabelStats:
        if label != self._current_label:
            self._current_label = label
            self._label_stats = self._stats.label(label)
            self.hierarchy.counters = self._label_stats.counters
        return self._label_stats

    # ------------------------------------------------------------------
    # Pipeline-stage helpers
    # ------------------------------------------------------------------

    def _next_fetch_slot(self) -> int:
        """Advance the fetch cursor to the cycle of the next fetch slot."""
        if self._fetch_block_until > self._fetch_cycle:
            self._fetch_cycle = self._fetch_block_until
            self._fetched_this_cycle = 0
        if self._fetched_this_cycle >= self.core.fetch_width:
            self._fetch_cycle += 1
            self._fetched_this_cycle = 0
        return self._fetch_cycle

    def _find_issue_cycle(self, ready: int, op: OpClass) -> int:
        """Earliest cycle >= ready with an issue slot and a free unit."""
        issue_width = self.core.issue_width
        if op.is_mem:
            unit_used, unit_count = self._mem_used, 1
        elif op is OpClass.IMUL:
            unit_used, unit_count = self._imul_used, 1
        elif op.is_float:
            unit_used, unit_count = self._fp_used, self.core.fp_alus
        else:
            unit_used, unit_count = self._int_used, self.core.int_alus
        cycle = ready
        issue_used = self._issue_used
        issue_get = issue_used.get
        unit_get = unit_used.get
        while (
            issue_get(cycle, 0) >= issue_width
            or unit_get(cycle, 0) >= unit_count
        ):
            cycle += 1
        issue_used[cycle] = issue_get(cycle, 0) + 1
        unit_used[cycle] = unit_get(cycle, 0) + 1
        return cycle

    def _commit_slot(self, earliest: int) -> int:
        """In-order commit respecting commit bandwidth."""
        cycle = max(earliest, self._commit_cycle)
        if cycle > self._commit_cycle:
            self._commit_cycle = cycle
            self._committed_this_cycle = 0
        if self._committed_this_cycle >= self.core.commit_width:
            self._commit_cycle += 1
            self._committed_this_cycle = 0
            cycle = self._commit_cycle
        self._committed_this_cycle += 1
        return cycle

    # ------------------------------------------------------------------
    # Trap handling
    # ------------------------------------------------------------------

    def _take_utlb_trap(self, faulting_address: int) -> int:
        """Drain, run the utlb handler inline, refill; returns end cycle."""
        if self._in_trap:
            raise RuntimeError(
                "nested TLB miss inside a trap handler: kernel-space code "
                "must not take TLB misses"
            )
        self._stats.traps += 1
        drain = self._last_commit + TRAP_ENTRY_PENALTY
        self._fetch_block_until = max(self._fetch_block_until, drain)
        self._in_trap = True
        outer_label = self._current_label
        try:
            for handler_instr in self.trap_client.utlb_handler(faulting_address):
                self._process(handler_instr)
        finally:
            self._in_trap = False
            self._switch_label(outer_label)
        self.hierarchy.tlb_refill(faulting_address)
        return self._last_commit

    # ------------------------------------------------------------------
    # Per-instruction timing
    # ------------------------------------------------------------------

    def _process(self, instr: Instruction) -> None:
        # Per-instruction pipeline state is carried in locals and only
        # written back at trap boundaries (the utlb handler re-enters
        # _process) and at the end — the single biggest win in the hot
        # loop.  _next_fetch_slot, _find_issue_cycle, and _commit_slot
        # remain the readable definitions of the logic inlined here.
        core = self.core
        if instr.service != self._current_label:
            self._switch_label(instr.service)
        label_stats = self._label_stats
        counters = label_stats.counters
        pc = instr.pc

        # --- Fetch (inline of _next_fetch_slot) ------------------------
        fetch_cycle = self._fetch_cycle
        fetched = self._fetched_this_cycle
        block_until = self._fetch_block_until
        if block_until > fetch_cycle:
            fetch_cycle = block_until
            fetched = 0
        if fetched >= core.fetch_width:
            fetch_cycle += 1
            fetched = 0
        fetch_result = self.hierarchy.fetch(pc)
        if fetch_result.tlb_miss:
            self._fetch_cycle = fetch_cycle
            self._fetched_this_cycle = fetched
            self._take_utlb_trap(pc)
            label_stats = self._switch_label(instr.service)
            counters = label_stats.counters
            fetch_cycle = self._next_fetch_slot()
            fetched = self._fetched_this_cycle
            fetch_result = self.hierarchy.fetch(pc)
            if fetch_result.tlb_miss:
                raise RuntimeError(f"TLB refill for pc {pc:#x} did not stick")
        if fetch_result.latency:
            # Blocking I-cache miss: the whole front end waits.
            fetch_cycle += fetch_result.latency
            fetched = 0
        fetched += 1

        op = instr.op

        # --- Branch prediction -----------------------------------------
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
                fetched = core.fetch_width

        # --- Dispatch (window/ROB/LSQ occupancy) -----------------------
        dispatch = fetch_cycle + FRONT_END_DEPTH
        rob = self._rob_commits
        if len(rob) >= core.window_size:
            oldest_commit = rob.popleft()
            if oldest_commit + 1 > dispatch:
                # Window full: fetch is back-pressured.
                dispatch = oldest_commit + 1
        is_mem = op.is_mem
        if is_mem:
            lsq = self._lsq_commits
            if len(lsq) >= core.lsq_size:
                oldest_mem = lsq.popleft()
                if oldest_mem + 1 > dispatch:
                    dispatch = oldest_mem + 1
        srcs = instr.srcs
        counters.rename_access += 1
        counters.window_dispatch += 1
        counters.rob_access += 1
        counters.regfile_read += len(srcs)

        # --- Ready (register dependences) -------------------------------
        ready = dispatch
        reg_ready = self._reg_ready
        for src in srcs:
            if src:
                producer = reg_ready.get(src, 0)
                if producer > ready:
                    ready = producer

        # --- Issue / execute (inline of _find_issue_cycle) --------------
        if is_mem:
            unit_used, unit_count = self._mem_used, 1
        elif op is OpClass.IMUL:
            unit_used, unit_count = self._imul_used, 1
        elif op.is_float:
            unit_used, unit_count = self._fp_used, core.fp_alus
        else:
            unit_used, unit_count = self._int_used, core.int_alus
        issue_width = core.issue_width
        issue_used = self._issue_used
        issue_get = issue_used.get
        unit_get = unit_used.get
        issue = ready
        while (
            issue_get(issue, 0) >= issue_width
            or unit_get(issue, 0) >= unit_count
        ):
            issue += 1
        issue_used[issue] = issue_get(issue, 0) + 1
        unit_used[issue] = unit_get(issue, 0) + 1

        counters.window_issue += 1
        latency = op.latency
        complete = issue + latency
        if is_mem:
            counters.lsq_access += 1
            address = instr.address
            write = op is OpClass.STORE
            access = self.hierarchy.data_access(address, write=write)
            if access.tlb_miss:
                # Precise data trap: drain, handle, retry the access.
                self._fetch_cycle = fetch_cycle
                self._fetched_this_cycle = fetched
                trap_end = self._take_utlb_trap(address)
                label_stats = self._switch_label(instr.service)
                counters = label_stats.counters
                access = self.hierarchy.data_access(address, write=write)
                if access.tlb_miss:
                    raise RuntimeError(
                        f"TLB refill for address {address:#x} did not stick"
                    )
                complete = trap_end + latency + access.latency + self.config.l1d.latency_cycles
                # The handler advanced the front end; pick up its state
                # so the write-back below does not roll it back.
                fetch_cycle = self._fetch_cycle
                fetched = self._fetched_this_cycle
            elif write:
                # Stores drain through the write buffer; the miss does
                # not hold up completion.
                complete = issue + latency
            else:
                # Loads see the pipelined L1 latency even on a hit
                # (2-cycle load-use on the R10000).
                complete = issue + latency + access.latency + self.config.l1d.latency_cycles
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
            # Everything that is neither FP nor a memory op executes on
            # the integer units (the _INT_OPS set).
            counters.ialu_access += 1

        # --- Writeback ---------------------------------------------------
        dest = instr.dest
        if dest:
            reg_ready[dest] = complete
            counters.regfile_write += 1
            counters.resultbus_access += 1
            counters.window_wakeup += 1

        # --- Commit (inline of _commit_slot) ------------------------------
        earliest = complete + 1
        commit = self._commit_cycle
        if earliest > commit:
            commit = earliest
            self._commit_cycle = earliest
            self._committed_this_cycle = 1
        elif self._committed_this_cycle >= core.commit_width:
            commit += 1
            self._commit_cycle = commit
            self._committed_this_cycle = 1
        else:
            self._committed_this_cycle += 1
        counters.rob_access += 1
        rob.append(commit)
        if is_mem:
            self._lsq_commits.append(commit)

        # --- Front-end redirects -------------------------------------------
        if mispredicted:
            redirect = complete + core.branch_mispredict_penalty
            if redirect > self._fetch_block_until:
                # Until the branch resolves, the front end fetches down
                # the wrong path: those are real I-cache references
                # (this is why kernel code, with its worse prediction
                # accuracy, shows proportionally more L1I activity --
                # Section 3.2 / Table 3).
                wrong_path_cycles = redirect - fetch_cycle - 1
                if wrong_path_cycles < 0:
                    wrong_path_cycles = 0
                wrong_path_fetches = min(
                    int(wrong_path_cycles * core.fetch_width * 0.9),
                    4 * core.fetch_width,
                )
                counters.l1i_access += wrong_path_fetches
                self._fetch_block_until = redirect
        elif op is OpClass.SYSCALL or op is OpClass.ERET:
            # Serialising instructions restart fetch after they commit.
            if commit + 1 > self._fetch_block_until:
                self._fetch_block_until = commit + 1

        self._fetch_cycle = fetch_cycle
        self._fetched_this_cycle = fetched

        # --- Accounting ------------------------------------------------------
        gap = commit - self._last_commit
        self._last_commit = commit
        useful = 1.0 / core.commit_width
        label_stats.cycles += gap
        label_stats.instructions += 1
        if gap >= useful:
            label_stats.instr_cycles += useful
            label_stats.stall_cycles += gap - useful
        else:
            label_stats.instr_cycles += gap
        self._stats.instructions += 1

        since = self._since_prune + 1
        if since >= _PRUNE_INTERVAL:
            self._since_prune = 0
            self._prune()
        else:
            self._since_prune = since

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        stream,
        *,
        max_instructions: int | None = None,
    ) -> RunStats:
        """Execute ``stream`` and return the run statistics.

        ``stream`` is any iterable of instructions; execution stops when
        it is exhausted or after ``max_instructions`` instructions
        (handler instructions injected by traps do not count against
        the limit, mirroring how SimOS attributes them to the kernel).
        """
        self._reset_run_state()
        process = self._process
        if max_instructions is None:
            for instr in stream:
                process(instr)
        else:
            remaining = max_instructions
            for instr in stream:
                if remaining <= 0:
                    break
                process(instr)
                remaining -= 1
        self._stats.cycles = self._last_commit
        self._stats.branch = self.predictor.stats
        return self._stats

    @property
    def stats(self) -> RunStats:
        """Statistics of the current/most recent run."""
        return self._stats
