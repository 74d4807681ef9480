"""Batched structure-of-arrays execution engine for Mipsy.

Advances many independent Mipsy runs in lockstep: one batch axis over
(benchmark, seed, structural configuration), instruction streams
pre-decoded into fixed-order SoA numpy arrays, per-label counters as
2-D float64 arrays, and per-run active masks so runs that finish or
trap drop out of the fused operations without breaking lockstep
(DESIGN.md §10).

The engine is bit-identical to the scalar
:class:`~repro.cpu.mipsy.MipsyProcessor` driven by
:meth:`~repro.core.profiles.Profiler.profile_benchmark`:

* **Decode** replays the exact generation protocol (kernel, file-cache
  warming, per-phase generators and workload interleavers, per-chunk
  pull-and-drop) *without* a CPU, recording every executed instruction
  into SoA arrays plus the side-band events that depend only on
  generation order (service first-invocation pulls, cacheflush
  events).  Generation is configuration-independent except for the
  cacheflush sweep length, so lanes that share L1 geometry share one
  decoded stream.
* **Execute** advances every lane one instruction per step.  Cache and
  TLB state live in stamp-LRU arrays (``[lanes, sets, ways]``); the
  monotone stamp order reproduces the ordered-dict recency order of the
  scalar models exactly.  TLB-miss traps redirect a lane into a 48-row
  ``utlb`` handler template appended to the instruction arena, with the
  precise abort/redo (fetch trap) and partial-gap/resume (data trap)
  semantics of the scalar model.
* **Materialise** rebuilds per-chunk :class:`RunStats` with the exact
  label-dict insertion order (first-appearance order, with ``utlb``
  entering immediately after the first faulting instruction's label)
  and per-phase invocation dicts in the kernel's first-count order —
  the timeline aggregation is order-sensitive, so dict order is part of
  bit-identity.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Sequence

import numpy as _np

from repro.config.system import SystemConfig
from repro.core.profiles import (
    BenchmarkProfile,
    IdleProfile,
    PhaseProfile,
    Profiler,
)
from repro.cpu.mipsy import TAKEN_BRANCH_BUBBLE, TRAP_ENTRY_PENALTY
from repro.cpu.runstats import LabelStats, RunStats
from repro.isa.generators import SyntheticCodeGenerator
from repro.isa.instruction import OpClass
from repro.kernel.kernel import Kernel
from repro.kernel.scheduler import InterleavedWorkload
from repro.kernel.services import KernelServices, PTE_TABLE_BASE
from repro.mem.hierarchy import KSEG_BASE
from repro.stats.counters import COUNTER_FIELDS, COUNTER_INDEX
from repro.workloads.specjvm98 import BenchmarkSpec

BATCH_MIN_RUNS = 24
"""Fallback lockstep breakeven: below this many uncached runs the
per-step numpy call overhead outweighs the batching win and callers
keep the scalar path (measured ~1.1x at 24 lanes, 1.7x at 48, 4x at
144 on a 1-core host; see ``scripts/bench.py`` ``batched_suite``).
Callers should prefer :func:`batch_min_runs`, which substitutes the
machine's own measured breakeven when bench data is available."""

BENCH_FILE_ENV = "REPRO_BENCH_FILE"
MIN_RUNS_ENV = "REPRO_BATCH_MIN_RUNS"
_MIN_RUNS_FLOOR = 4
_MIN_RUNS_CEIL = 512
_calibrated_min_runs: int | None = None


def _bench_candidates() -> list[str]:
    explicit = os.environ.get(BENCH_FILE_ENV)
    if explicit:
        return [explicit]
    here = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return [
        os.path.join(os.getcwd(), "BENCH_profiling.json"),
        os.path.join(repo_root, "BENCH_profiling.json"),
    ]


def batch_min_runs(*, refresh: bool = False) -> int:
    """Serial-vs-batched breakeven lane count.

    Resolution order: the ``REPRO_BATCH_MIN_RUNS`` environment variable,
    then the ``calibrated_min_runs`` figure the ``batched_suite`` bench
    stage fits from this machine's own measurements (two batched arms at
    different lane counts give the fixed per-step overhead and the
    per-lane cost; the breakeven is where the serial line crosses that
    fit), then :data:`BATCH_MIN_RUNS`.  The choice only selects serial
    vs lockstep execution — outputs are bit-identical either way.
    """
    global _calibrated_min_runs
    env = os.environ.get(MIN_RUNS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    if _calibrated_min_runs is not None and not refresh:
        return _calibrated_min_runs
    value = BATCH_MIN_RUNS
    for path in _bench_candidates():
        try:
            with open(path) as handle:
                stage = json.load(handle).get("batched_suite", {})
            fitted = stage.get("calibrated_min_runs")
            if isinstance(fitted, int) and fitted > 0:
                value = min(max(fitted, _MIN_RUNS_FLOOR), _MIN_RUNS_CEIL)
                break
        except (OSError, ValueError):
            continue
    _calibrated_min_runs = value
    return value

_NCOUNTERS = len(COUNTER_FIELDS)
_COL_CYC = _NCOUNTERS
_COL_INS = _NCOUNTERS + 1
_NCOLS = _NCOUNTERS + 2

_C_L1I_ACC = COUNTER_INDEX["l1i_access"]
_C_L1I_MISS = COUNTER_INDEX["l1i_miss"]
_C_L1D_ACC = COUNTER_INDEX["l1d_access"]
_C_L1D_MISS = COUNTER_INDEX["l1d_miss"]
_C_L2I = COUNTER_INDEX["l2i_access"]
_C_L2D = COUNTER_INDEX["l2d_access"]
_C_L2_MISS = COUNTER_INDEX["l2_miss"]
_C_MEM = COUNTER_INDEX["mem_access"]
_C_TLB_ACC = COUNTER_INDEX["tlb_access"]
_C_TLB_MISS = COUNTER_INDEX["tlb_miss"]

_HANDLER_LEN = 48
_HANDLER_LOAD_OFFSET = 22


@dataclasses.dataclass(frozen=True)
class BatchTask:
    """One lane of a batched profile: a (spec, config) pair plus the
    profiling parameters of the :class:`Profiler` it replaces."""

    spec: BenchmarkSpec
    config: SystemConfig
    window_instructions: int = 60_000
    startup_chunks: int = 4
    steady_chunks: int = 2
    seed: int = 0


# ---------------------------------------------------------------------------
# Decode: replay the generation protocol, pack SoA arrays
# ---------------------------------------------------------------------------


class _FlushRecorder:
    """Stands in for the MemoryHierarchy during decode.

    The kernel only touches the hierarchy through
    ``services.cacheflush``, which calls ``flush_caches()`` while the
    consumer pulls the sweep's final ERET — so a flush event's position
    in the pull order fully determines when the architectural flush
    applies.
    """

    def __init__(self) -> None:
        self.fired = 0

    def flush_caches(self) -> int:
        self.fired += 1
        return 0


@dataclasses.dataclass
class _PhaseMeta:
    phase: object
    chunk_ids: list[int]
    chunk_lengths: list[int]
    end_pull: int
    snapshot: dict[str, int]


class _DecodedStream:
    """One benchmark's executed-instruction arena plus side-band events.

    Shared by every lane whose generation is identical: same spec,
    profiler parameters, and L1 cache geometry (the cacheflush sweep is
    the only configuration-dependent part of generation).
    """

    def __init__(self, task: BatchTask) -> None:
        spec = task.spec
        self.spec = spec
        self.window_instructions = task.window_instructions
        self.startup_chunks = task.startup_chunks
        self.steady_chunks = task.steady_chunks
        self.seed = task.seed
        cfg = task.config
        self.geometry_key = (
            cfg.l1i.num_lines,
            cfg.l1d.num_lines,
            cfg.l1i.line_bytes,
        )

        self._labels: dict[str | None, int] = {None: 0}
        self.label_names: list[str | None] = [None]
        self._classes: dict[tuple, int] = {}
        self._class_rows: list[tuple] = []

        cls_l: list[int] = []
        pc_l: list[int] = []
        addr_l: list[int] = []
        label_l: list[int] = []
        chunk_l: list[int] = []
        pull_l: list[int] = []

        recorder = _FlushRecorder()
        kernel = Kernel(cfg, recorder, seed=spec.seed ^ task.seed)
        for file_id in range(8):
            kernel.file_cache.warm(file_id, 512 * 1024)

        self.svc_events: list[tuple[int, str]] = []
        self.flush_events: list[int] = []
        self.phase_meta: list[_PhaseMeta] = []

        known_services = 0
        invocations = kernel.invocations
        pull = 0
        chunk_id = 0
        # Per-chunk first-appearance order of labels, as (local executed
        # index, label id) pairs — the scalar label-dict insertion order.
        self.chunk_first: list[list[tuple[int, int]]] = []

        classes = self._classes
        class_of = self._class_of
        label_of = self._label_of

        for phase in spec.phases.phases:
            chunk_count = (
                task.startup_chunks if phase.cold_caches else task.steady_chunks
            )
            instructions = max(
                2000, int(task.window_instructions * phase.compute_fraction)
            )
            generator = SyntheticCodeGenerator(
                phase.signature, seed=spec.seed ^ task.seed
            )
            workload = InterleavedWorkload(
                generator,
                kernel,
                service_rates=phase.service_rates,
                syscalls=phase.syscalls,
                sync_mean_gap=phase.sync_mean_gap,
                seed=spec.seed ^ task.seed ^ 0xF00D,
            )
            stream = iter(workload)
            per_chunk = max(500, instructions // chunk_count)
            chunk_ids: list[int] = []
            chunk_lengths: list[int] = []
            for _ in range(chunk_count):
                first_seen: dict[int, int] = {}
                executed = 0
                for i in range(per_chunk + 1):
                    pull += 1
                    try:
                        instr = next(stream)
                    except StopIteration:  # pragma: no cover - streams are infinite
                        pull -= 1
                        break
                    if len(invocations) != known_services:
                        known_services = self._note_new_services(
                            invocations, known_services, pull
                        )
                    if recorder.fired:
                        for _f in range(recorder.fired):
                            self.flush_events.append(len(cls_l))
                        recorder.fired = 0
                    if i >= per_chunk:
                        break
                    op = instr.op
                    key = (
                        instr.pc < KSEG_BASE,
                        op.is_mem,
                        op is OpClass.STORE,
                        op is OpClass.LOAD,
                        op is OpClass.BRANCH,
                        op.is_ctrl and instr.taken,
                        len(instr.srcs),
                        bool(instr.dest),
                        op,
                        op.is_mem and instr.address < KSEG_BASE,
                    )
                    cid = classes.get(key)
                    if cid is None:
                        cid = class_of(key)
                    lid = label_of(instr.service)
                    local = executed
                    if lid not in first_seen:
                        first_seen[lid] = local
                    cls_l.append(cid)
                    pc_l.append(instr.pc)
                    addr_l.append(instr.address)
                    label_l.append(lid)
                    chunk_l.append(chunk_id)
                    pull_l.append(pull)
                    executed += 1
                order = sorted((pos, lid) for lid, pos in first_seen.items())
                self.chunk_first.append(order)
                chunk_ids.append(chunk_id)
                chunk_lengths.append(executed)
                chunk_id += 1
            self.phase_meta.append(
                _PhaseMeta(
                    phase=phase,
                    chunk_ids=chunk_ids,
                    chunk_lengths=chunk_lengths,
                    end_pull=pull,
                    snapshot=dict(invocations),
                )
            )

        self.n_executed = len(cls_l)
        self.n_chunks = chunk_id
        self.utlb_label = label_of("utlb")
        # Starting executed index of each chunk (for chunk-local label
        # positions during materialisation).
        self.chunk_start: list[int] = []
        total = 0
        for meta in self.phase_meta:
            for length in meta.chunk_lengths:
                self.chunk_start.append(total)
                total += length

        # Append the 48-row utlb handler template.  Only the PTE load's
        # address varies per trap; it is overridden per-lane at runtime.
        for hi, instr in enumerate(KernelServices._build_utlb(PTE_TABLE_BASE)):
            op = instr.op
            key = (
                instr.pc < KSEG_BASE,
                op.is_mem,
                op is OpClass.STORE,
                op is OpClass.LOAD,
                op is OpClass.BRANCH,
                op.is_ctrl and instr.taken,
                len(instr.srcs),
                bool(instr.dest),
                op,
                op.is_mem and instr.address < KSEG_BASE,
            )
            cid = classes.get(key)
            if cid is None:
                cid = class_of(key)
            cls_l.append(cid)
            pc_l.append(instr.pc)
            addr_l.append(instr.address)
            label_l.append(self.utlb_label)
            chunk_l.append(-1)
            pull_l.append(-1)
        if len(cls_l) - self.n_executed != _HANDLER_LEN:  # pragma: no cover
            raise RuntimeError("unexpected utlb handler length")

        self.cls = _np.asarray(cls_l, dtype=_np.int64)
        self.pc = _np.asarray(pc_l, dtype=_np.int64)
        self.addr = _np.asarray(addr_l, dtype=_np.int64)
        self.label = _np.asarray(label_l, dtype=_np.int64)
        self.chunk_of = _np.asarray(chunk_l, dtype=_np.int64)
        self.pull_of = _np.asarray(pull_l, dtype=_np.int64)
        self.n_labels = len(self.label_names)

        # Per-class static vectors (see module docstring): the fetch
        # part applies on every (re)fetch, the post part at completion;
        # cycle components are kept separate because resume semantics
        # rebuild the gap from the saved partial value.
        nk = len(self._class_rows)
        self.tab_fetch = _np.zeros((nk, _NCOLS), dtype=_np.float64)
        self.tab_post = _np.zeros((nk, _NCOLS), dtype=_np.float64)
        self.static_cycles = _np.zeros(nk, dtype=_np.int64)
        self.base_cycles = _np.zeros(nk, dtype=_np.int64)
        self.is_mem_cls = _np.zeros(nk, dtype=bool)
        self.is_store_cls = _np.zeros(nk, dtype=bool)
        for cid, key in enumerate(self._class_rows):
            (pc_user, is_mem, is_store, is_load, is_branch,
             taken_ctrl, n_srcs, has_dest, op, addr_user) = key
            fetch = self.tab_fetch[cid]
            post = self.tab_post[cid]
            if pc_user:
                fetch[_C_TLB_ACC] = 1
            fetch[_C_L1I_ACC] = 1
            if is_mem:
                post[_C_L1D_ACC] = 1
                if addr_user:
                    post[_C_TLB_ACC] = 1
            if is_load:
                post[COUNTER_INDEX["loads"]] = 1
            elif is_store:
                post[COUNTER_INDEX["stores"]] = 1
            if is_branch:
                post[COUNTER_INDEX["branches"]] = 1
            post[COUNTER_INDEX["regfile_read"]] = n_srcs
            if op is OpClass.IMUL:
                post[COUNTER_INDEX["imul_access"]] = 1
            elif op is OpClass.FMUL:
                post[COUNTER_INDEX["fmul_access"]] = 1
            elif op.is_float:
                post[COUNTER_INDEX["falu_access"]] = 1
            else:
                post[COUNTER_INDEX["ialu_access"]] = 1
            if has_dest:
                post[COUNTER_INDEX["regfile_write"]] = 1
                post[COUNTER_INDEX["resultbus_access"]] = 1
            post[_COL_INS] = 1
            extra = op.extra_latency
            self.base_cycles[cid] = 1 + extra
            self.static_cycles[cid] = (
                1 + extra + (TAKEN_BRANCH_BUBBLE if taken_ctrl else 0)
            )
            self.is_mem_cls[cid] = is_mem
            self.is_store_cls[cid] = is_store
        self.tab_full = self.tab_fetch + self.tab_post

    def _note_new_services(
        self, invocations: dict[str, int], known: int, pull: int
    ) -> int:
        names = list(invocations)
        for name in names[known:]:
            self.svc_events.append((pull, name))
        return len(names)

    def _label_of(self, name: str | None) -> int:
        lid = self._labels.get(name)
        if lid is None:
            lid = len(self.label_names)
            self._labels[name] = lid
            self.label_names.append(name)
        return lid

    def _class_of(self, key: tuple) -> int:
        cid = len(self._class_rows)
        self._classes[key] = cid
        self._class_rows.append(key)
        return cid

    def matches(self, task: BatchTask) -> bool:
        cfg = task.config
        return (
            self.spec == task.spec
            and self.window_instructions == task.window_instructions
            and self.startup_chunks == task.startup_chunks
            and self.steady_chunks == task.steady_chunks
            and self.seed == task.seed
            and self.geometry_key
            == (cfg.l1i.num_lines, cfg.l1d.num_lines, cfg.l1i.line_bytes)
        )


# ---------------------------------------------------------------------------
# Batched stamp-LRU cache and TLB state
# ---------------------------------------------------------------------------


class _BatchedCaches:
    """Set-associative caches for all lanes of one level.

    ``tags`` is -1 for an invalid way and -2 for a way beyond a lane's
    associativity (never free, never a victim).  Monotone stamps
    reproduce the ordered-dict LRU order of :class:`repro.mem.cache.Cache`
    exactly: a hit re-stamps (recency move), the victim is the
    minimum-stamp valid way, eviction happens only when no way is free.
    """

    def __init__(self, configs) -> None:
        lanes = len(configs)
        self.offset_bits = _np.array(
            [c.line_bytes.bit_length() - 1 for c in configs], dtype=_np.int64
        )
        self.index_mask = _np.array(
            [c.num_sets - 1 for c in configs], dtype=_np.int64
        )
        self.tag_shift = _np.array(
            [(c.num_sets - 1).bit_length() for c in configs], dtype=_np.int64
        )
        self.write_back = _np.array([c.write_back for c in configs], dtype=bool)
        smax = max(c.num_sets for c in configs)
        wmax = max(c.associativity for c in configs)
        self.tags = _np.full((lanes, smax, wmax), -1, dtype=_np.int64)
        self.dirty = _np.zeros((lanes, smax, wmax), dtype=bool)
        self.stamp = _np.zeros((lanes, smax, wmax), dtype=_np.int64)
        for lane, c in enumerate(configs):
            self.tags[lane, :, c.associativity:] = -2
            self.stamp[lane, :, c.associativity:] = _np.iinfo(_np.int64).max
            self.tags[lane, c.num_sets:, :] = -2
            self.stamp[lane, c.num_sets:, :] = _np.iinfo(_np.int64).max

    def access(self, lanes, addrs, write, tick):
        """Vector access; returns (hit, victim_dirty) bool arrays.

        ``tick`` may be a scalar or a per-element array; arrays let one
        call carry probes of disjoint per-lane structures (the merged
        L1I+L1D virtual-lane call) at distinct logical times.  Within a
        call every (lane, set) pair must be unique.
        """
        scalar_tick = not isinstance(tick, _np.ndarray)
        block = addrs >> self.offset_bits[lanes]
        sidx = block & self.index_mask[lanes]
        tag = block >> self.tag_shift[lanes]
        rows = self.tags[lanes, sidx]
        match = rows == tag[:, None]
        hit = match.any(axis=1)
        all_hit = hit.all()
        if all_hit:
            way = match.argmax(axis=1)
            self.stamp[lanes, sidx, way] = tick
            if write is not None:
                mark = write & self.write_back[lanes]
                if mark.any():
                    self.dirty[lanes[mark], sidx[mark], way[mark]] = True
            return hit, _np.zeros(len(lanes), dtype=bool)
        if hit.any():
            hl = lanes[hit]
            hs = sidx[hit]
            way = match[hit].argmax(axis=1)
            self.stamp[hl, hs, way] = tick if scalar_tick else tick[hit]
            if write is not None:
                mark = write[hit] & self.write_back[hl]
                if mark.any():
                    self.dirty[hl[mark], hs[mark], way[mark]] = True
        miss = ~hit
        victim_dirty = _np.zeros(len(lanes), dtype=bool)
        if miss.any():
            ml = lanes[miss]
            ms = sidx[miss]
            free = rows[miss] == -1
            has_free = free.any(axis=1)
            victim_way = _np.where(
                has_free,
                free.argmax(axis=1),
                self.stamp[ml, ms].argmin(axis=1),
            )
            victim_dirty[miss] = self.dirty[ml, ms, victim_way] & ~has_free
            self.tags[ml, ms, victim_way] = tag[miss]
            if write is None:
                self.dirty[ml, ms, victim_way] = False
            else:
                self.dirty[ml, ms, victim_way] = (
                    write[miss] & self.write_back[ml]
                )
            self.stamp[ml, ms, victim_way] = tick if scalar_tick else tick[miss]
        return hit, victim_dirty

    def invalidate_lane(self, lane: int) -> None:
        real = self.tags[lane] != -2
        self.tags[lane][real] = -1
        self.dirty[lane][real] = False


class _BatchedTLB:
    """Fully-associative software-managed TLBs, one per lane."""

    def __init__(self, configs) -> None:
        lanes = len(configs)
        self.page_shift = _np.array(
            [c.page_bytes.bit_length() - 1 for c in configs], dtype=_np.int64
        )
        emax = max(c.entries for c in configs)
        self.pages = _np.full((lanes, emax), -1, dtype=_np.int64)
        self.stamp = _np.zeros((lanes, emax), dtype=_np.int64)
        for lane, c in enumerate(configs):
            self.pages[lane, c.entries:] = -2
            self.stamp[lane, c.entries:] = _np.iinfo(_np.int64).max

    def access(self, lanes, addrs, tick: int):
        page = addrs >> self.page_shift[lanes]
        match = self.pages[lanes] == page[:, None]
        hit = match.any(axis=1)
        if hit.any():
            hl = lanes[hit]
            slot = match[hit].argmax(axis=1)
            self.stamp[hl, slot] = tick
        return hit

    def lookup(self, lanes, addrs):
        """Match-only probe: ``(hit, slot)`` without restamping.

        The caller restamps hits itself, in scalar program order (fetch
        probes before data probes), so one merged lookup can serve both
        probe points of a step and still keep the per-lane recency order
        exact — including the case where a lane's fetch and data probes
        hit the same entry, and the case where a fetch trap means the
        data probe must never touch the TLB at all.
        """
        page = addrs >> self.page_shift[lanes]
        match = self.pages[lanes] == page[:, None]
        hit = match.any(axis=1)
        if hit.all():
            return hit, match.argmax(axis=1)
        slot = _np.zeros(len(lanes), dtype=_np.int64)
        if hit.any():
            slot[hit] = match[hit].argmax(axis=1)
        return hit, slot

    def refill(self, lanes, addrs, tick: int) -> None:
        page = addrs >> self.page_shift[lanes]
        rows = self.pages[lanes]
        match = rows == page[:, None]
        present = match.any(axis=1)
        if present.any():
            pl = lanes[present]
            slot = match[present].argmax(axis=1)
            self.stamp[pl, slot] = tick
        absent = ~present
        if absent.any():
            al = lanes[absent]
            free = rows[absent] == -1
            has_free = free.any(axis=1)
            slot = _np.where(
                has_free,
                free.argmax(axis=1),
                self.stamp[al].argmin(axis=1),
            )
            self.pages[al, slot] = page[absent]
            self.stamp[al, slot] = tick


# ---------------------------------------------------------------------------
# Lockstep execution
# ---------------------------------------------------------------------------


class _BatchedMipsyEngine:
    """Executes decoded lanes in lockstep and materialises profiles."""

    def __init__(self, tasks: Sequence[BatchTask]) -> None:
        self.tasks = list(tasks)
        self.streams: list[_DecodedStream] = []
        self.stream_of: list[int] = []
        for task in self.tasks:
            for si, stream in enumerate(self.streams):
                if stream.matches(task):
                    self.stream_of.append(si)
                    break
            else:
                self.stream_of.append(len(self.streams))
                self.streams.append(_DecodedStream(task))
        self._build_arena()
        self._build_lanes()

    def _build_arena(self) -> None:
        # Concatenate each stream's rows (executed + handler template)
        # into one global arena; lanes address it by global position.
        self.stream_base: list[int] = []
        base = 0
        for stream in self.streams:
            self.stream_base.append(base)
            base += stream.n_executed + _HANDLER_LEN
        self.a_cls = _np.concatenate([s.cls for s in self.streams])
        self.a_pc = _np.concatenate([s.pc for s in self.streams])
        self.a_addr = _np.concatenate([s.addr for s in self.streams])
        self.a_label = _np.concatenate([s.label for s in self.streams])
        self.a_chunk = _np.concatenate([s.chunk_of for s in self.streams])
        # Static class tables are per-stream; remap class ids into one
        # global table (streams are few, classes are few dozen).
        offsets = []
        total = 0
        for s in self.streams:
            offsets.append(total)
            total += len(s._class_rows)
        self.tab_fetch = _np.concatenate([s.tab_fetch for s in self.streams])
        self.tab_post = _np.concatenate([s.tab_post for s in self.streams])
        self.tab_full = _np.concatenate([s.tab_full for s in self.streams])
        self.static_cycles = _np.concatenate(
            [s.static_cycles for s in self.streams]
        )
        self.base_cycles = _np.concatenate([s.base_cycles for s in self.streams])
        self.is_mem_cls = _np.concatenate([s.is_mem_cls for s in self.streams])
        self.is_store_cls = _np.concatenate(
            [s.is_store_cls for s in self.streams]
        )
        cursor = 0
        for s, off in zip(self.streams, offsets):
            rows = s.n_executed + _HANDLER_LEN
            if off:
                self.a_cls[cursor:cursor + rows] += off
            cursor += rows

    def _build_lanes(self) -> None:
        lanes = len(self.tasks)
        sb = self.stream_base
        si = self.stream_of
        streams = self.streams
        self.run_start = _np.array(
            [sb[si[r]] for r in range(lanes)], dtype=_np.int64
        )
        self.run_end = _np.array(
            [sb[si[r]] + streams[si[r]].n_executed for r in range(lanes)],
            dtype=_np.int64,
        )
        self.h_start = self.run_end
        self.h_load = self.h_start + _HANDLER_LOAD_OFFSET
        self.h_eret = self.h_start + _HANDLER_LEN - 1
        self.utlb_label = _np.array(
            [streams[si[r]].utlb_label for r in range(lanes)], dtype=_np.int64
        )

        configs = [task.config for task in self.tasks]
        # L1I and L1D share one structure over 2*lanes virtual lanes
        # (vlane r = lane r's L1I, vlane lanes+r = its L1D) so the fast
        # path probes both levels in a single fused call; the halves are
        # disjoint, so stamp order within each lane's cache is preserved.
        self.nlanes = lanes
        self.l1x = _BatchedCaches(
            [c.l1i for c in configs] + [c.l1d for c in configs]
        )
        self.l2 = _BatchedCaches([c.l2 for c in configs])
        self.tlb = _BatchedTLB([c.tlb for c in configs])
        self.sw_tlb = _np.array(
            [c.tlb.software_managed for c in configs], dtype=bool
        )
        self.l2_lat = _np.array(
            [c.l2.latency_cycles for c in configs], dtype=_np.int64
        )
        self.l1d_lat = _np.array(
            [c.l1d.latency_cycles for c in configs], dtype=_np.int64
        )
        self.mem_lat = _np.array(
            [c.memory.access_latency_cycles for c in configs], dtype=_np.int64
        )

        # Accumulators: one [n_labels] stripe per (lane, chunk).
        self.acc_base = _np.zeros(lanes, dtype=_np.int64)
        self.mc_base = _np.zeros(lanes, dtype=_np.int64)
        acc_rows = 0
        mc_rows = 0
        for r in range(lanes):
            s = streams[si[r]]
            self.acc_base[r] = acc_rows
            self.mc_base[r] = mc_rows
            acc_rows += s.n_chunks * s.n_labels
            mc_rows += s.n_chunks
        self.n_labels = _np.array(
            [streams[si[r]].n_labels for r in range(lanes)], dtype=_np.int64
        )
        self.acc = _np.zeros((acc_rows, _NCOLS), dtype=_np.float64)
        self.mc = _np.zeros(mc_rows, dtype=_np.int64)
        self.trapc = _np.zeros(mc_rows, dtype=_np.int64)

        self.pos = self.run_start.copy()
        self.active = self.run_end > self.run_start
        self.cur_chunk = _np.zeros(lanes, dtype=_np.int64)
        self.saved_pos = _np.zeros(lanes, dtype=_np.int64)
        self.fault_addr = _np.zeros(lanes, dtype=_np.int64)
        self.pte_addr = _np.zeros(lanes, dtype=_np.int64)
        self.partial_gap = _np.zeros(lanes, dtype=_np.int64)
        self.in_data_trap = _np.zeros(lanes, dtype=bool)
        self.data_resume = _np.zeros(lanes, dtype=bool)
        self.first_trap_pull = _np.full(lanes, -1, dtype=_np.int64)
        self.first_trap_pos = [
            _np.full(streams[si[r]].n_chunks, -1, dtype=_np.int64)
            for r in range(lanes)
        ]
        self.next_flush = [0] * lanes
        # Local executed index of each lane's next pending cacheflush
        # (sentinel when none remain) — lets the advance path test for
        # due flushes with one vector compare instead of a python loop.
        sentinel = _np.iinfo(_np.int64).max
        self.flush_pos = _np.full(lanes, sentinel, dtype=_np.int64)
        for r in range(lanes):
            events = streams[si[r]].flush_events
            if events:
                self.flush_pos[r] = events[0]
        self._tick = 0
        # Fast-path state: lanes currently inside the utlb handler (so
        # trap-free steps skip handler checks) and the cached active-set
        # gathers, refreshed only when a lane finishes.
        self._n_trapped = 0
        self._act_dirty = True
        self._act = None

    def _refresh_act(self) -> None:
        act = _np.nonzero(self.active)[0]
        self._act = act
        self._acc_base_a = self.acc_base[act]
        self._mc_base_a = self.mc_base[act]
        self._nl_a = self.n_labels[act]
        self._h_start_a = self.h_start[act]
        self._h_load_a = self.h_load[act]
        self._flush_live = bool(
            (self.flush_pos[act] != _np.iinfo(_np.int64).max).any()
        )
        self._act_dirty = False

    def _next_tick(self) -> int:
        self._tick += 1
        return self._tick

    def run(self) -> None:
        if bool(self.sw_tlb.all()):
            # Software-managed TLBs everywhere: the fused-probe fast
            # path applies (hardware refill would have to interleave
            # between the fetch and data halves of the merged probe).
            step = self._step_fast
            self._act_dirty = True
            while True:
                if self._act_dirty:
                    self._refresh_act()
                    if not len(self._act):
                        return
                step()
        else:
            step = self._step
            while self.active.any():
                step()

    def _step(self) -> None:
        np = _np
        act = np.nonzero(self.active)[0]
        p = self.pos[act]
        cl = self.a_cls[p]
        resume = self.data_resume[act]
        not_resume = ~resume
        m = len(act)
        fetch_lat = np.zeros(m, dtype=np.int64)
        data_lat = np.zeros(m, dtype=np.int64)
        trapped = np.zeros(m, dtype=bool)
        incs = self.tab_full[cl].copy()
        if resume.any():
            incs[resume] = self.tab_post[cl[resume]]

        pcs = self.a_pc[p]

        # --- Fetch: TLB ------------------------------------------------
        ft = not_resume & (pcs < KSEG_BASE)
        if ft.any():
            fl = act[ft]
            hit = self.tlb.access(fl, pcs[ft], self._next_tick())
            if not hit.all():
                miss = ~hit
                miss_lanes = fl[miss]
                sw = self.sw_tlb[miss_lanes]
                if not sw.all():
                    # Hardware-refill lanes: install invisibly, carry on.
                    hw = miss_lanes[~sw]
                    self.tlb.refill(hw, pcs[ft][miss][~sw], self._next_tick())
                    idx = np.nonzero(ft)[0][miss][~sw]
                    incs[idx, _C_TLB_MISS] += 1.0
                if sw.any():
                    # Fetch trap: abort before any cycle accrues; only
                    # the TLB probe was counted.  The instruction redoes
                    # from scratch after the handler (REDO).
                    idx = np.nonzero(ft)[0][miss][sw]
                    trapped[idx] = True
                    tl = act[idx]
                    tvec = np.zeros((len(tl), _NCOLS), dtype=np.float64)
                    tvec[:, _C_TLB_ACC] = 1.0
                    tvec[:, _C_TLB_MISS] = 1.0
                    incs[idx] = tvec
                    self._enter_trap(
                        tl, self.pos[tl], self.a_pc[self.pos[tl]],
                        data_trap=False,
                    )

        # --- Fetch: L1I / L2 -------------------------------------------
        fi = not_resume & ~trapped
        if fi.any():
            il = act[fi]
            hit, _vd = self.l1x.access(il, pcs[fi], None, self._next_tick())
            if not hit.all():
                miss = ~hit
                idx = np.nonzero(fi)[0][miss]
                ml = il[miss]
                incs[idx, _C_L1I_MISS] += 1.0
                incs[idx, _C_L2I] += 1.0
                l2hit, l2vd = self.l2.access(
                    ml, pcs[fi][miss], np.zeros(len(ml), dtype=bool),
                    self._next_tick(),
                )
                lat = self.l2_lat[ml].copy()
                if not l2hit.all():
                    l2m = ~l2hit
                    incs[idx[l2m], _C_L2_MISS] += 1.0
                    incs[idx[l2m], _C_MEM] += 1.0
                    lat[l2m] += self.mem_lat[ml[l2m]]
                if l2vd.any():
                    incs[idx[l2vd], _C_MEM] += 1.0
                fetch_lat[idx] = lat

        # --- Data access ------------------------------------------------
        dm = self.is_mem_cls[cl] & ~trapped
        if dm.any():
            dl = act[dm]
            dp = p[dm]
            addrs = self.a_addr[dp].copy()
            on_load = dp == self.h_load[dl]
            if on_load.any():
                addrs[on_load] = self.pte_addr[dl[on_load]]
            du = addrs < KSEG_BASE
            dmiss = np.zeros(len(dl), dtype=bool)
            if du.any():
                ul = dl[du]
                hit = self.tlb.access(ul, addrs[du], self._next_tick())
                if not hit.all():
                    tmiss = ~hit
                    miss_lanes = ul[tmiss]
                    sw = self.sw_tlb[miss_lanes]
                    if not sw.all():
                        hw = miss_lanes[~sw]
                        self.tlb.refill(hw, addrs[du][tmiss][~sw],
                                        self._next_tick())
                        idx = np.nonzero(dm)[0][np.nonzero(du)[0][tmiss][~sw]]
                        incs[idx, _C_TLB_MISS] += 1.0
                    if sw.any():
                        # Data trap: fetch and extra latency already
                        # accrued; the faulting access retries after the
                        # handler with the gap resumed, not restarted.
                        sub = np.nonzero(du)[0][tmiss][sw]
                        idx = np.nonzero(dm)[0][sub]
                        trapped[idx] = True
                        dmiss[sub] = True
                        tl = dl[sub]
                        # Roll the not-yet-earned completion part back
                        # off the scatter row: keep the fetch increments
                        # (they already happened, including any L2
                        # victim writeback) plus the faulting TLB probe.
                        # All values are small integers in float64, so
                        # the subtraction is exact.
                        incs[idx] -= self.tab_post[cl[idx]]
                        incs[idx, _C_TLB_ACC] += 1.0
                        incs[idx, _C_TLB_MISS] += 1.0
                        self.partial_gap[tl] = (
                            self.base_cycles[cl[idx]]
                            + fetch_lat[idx]
                            + TRAP_ENTRY_PENALTY
                        )
                        self._enter_trap(
                            tl, self.pos[tl], addrs[sub], data_trap=True
                        )
            dok = ~dmiss
            if dok.any():
                ok_lanes = dl[dok]
                ok_addrs = addrs[dok]
                write = self.is_store_cls[cl[dm]][dok]
                idx = np.nonzero(dm)[0][dok]
                hit, vd = self.l1x.access(
                    ok_lanes + self.nlanes, ok_addrs, write, self._next_tick()
                )
                if not hit.all():
                    miss = ~hit
                    midx = idx[miss]
                    ml = ok_lanes[miss]
                    incs[midx, _C_L1D_MISS] += 1.0
                    incs[midx, _C_L2D] += 1.0
                    l2hit, l2vd = self.l2.access(
                        ml, ok_addrs[miss], np.zeros(len(ml), dtype=bool),
                        self._next_tick(),
                    )
                    lat = self.l2_lat[ml].copy()
                    if not l2hit.all():
                        l2m = ~l2hit
                        incs[midx[l2m], _C_L2_MISS] += 1.0
                        incs[midx[l2m], _C_MEM] += 1.0
                        lat[l2m] += self.mem_lat[ml[l2m]]
                    if l2vd.any():
                        incs[midx[l2vd], _C_MEM] += 1.0
                    data_lat[midx] = lat
                    if vd[miss].any():
                        # Dirty L1D victim drains to L2: counted as one
                        # L2D access; the L2 state mutates but the
                        # drain's own miss/writeback is not counted.
                        dvm = vd[miss]
                        incs[midx[dvm], _C_L2D] += 1.0
                        drain_lanes = ml[dvm]
                        self.l2.access(
                            drain_lanes,
                            ok_addrs[miss][dvm] ^ (1 << 20),
                            np.ones(len(drain_lanes), dtype=bool),
                            self._next_tick(),
                        )
                # Stores complete without waiting for the data.
                st = self.is_store_cls[cl[idx]]
                data_lat[idx] = np.where(
                    st, 0, data_lat[idx] + self.l1d_lat[ok_lanes]
                )

        # --- Completion -------------------------------------------------
        done = ~trapped
        if done.any():
            didx = np.nonzero(done)[0]
            lanes = act[didx]
            gap = np.where(
                resume[didx],
                self.partial_gap[lanes] + data_lat[didx],
                self.static_cycles[cl[didx]] + fetch_lat[didx] + data_lat[didx],
            )
            incs[didx, _COL_CYC] = gap.astype(np.float64)
            rows = (
                self.acc_base[lanes]
                + self.cur_chunk[lanes] * self.n_labels[lanes]
                + self.a_label[p[didx]]
            )
            self.acc[rows] += incs[didx]
            mcd = np.where(resume[didx], data_lat[didx], gap)
            self.mc[self.mc_base[lanes] + self.cur_chunk[lanes]] += mcd
            # A handler instruction completing inside a data trap grows
            # the outer instruction's pending gap too (the scalar gap
            # spans the whole trap).
            in_handler = p[didx] >= self.h_start[lanes]
            hd = in_handler & self.in_data_trap[lanes]
            if hd.any():
                self.partial_gap[lanes[hd]] += gap[hd]
            self._advance(lanes, p[didx], resume[didx])

        # Trap lanes: scatter their trap-step increments.
        if trapped.any():
            tidx = np.nonzero(trapped)[0]
            lanes = act[tidx]
            rows = (
                self.acc_base[lanes]
                + self.cur_chunk[lanes] * self.n_labels[lanes]
                + self.a_label[p[tidx]]
            )
            self.acc[rows] += incs[tidx]
            mcd = np.where(
                self.in_data_trap[lanes],
                self.partial_gap[lanes],
                TRAP_ENTRY_PENALTY,
            )
            self.mc[self.mc_base[lanes] + self.cur_chunk[lanes]] += mcd

    def _step_fast(self) -> None:
        """Hot path for all-software-managed TLBs.

        Semantics are identical to :meth:`_step`; the numpy call count
        per step is roughly halved by fusing probes and scattering
        increments straight into ``acc`` (no per-step increment matrix):

        * one merged TLB probe carries the fetch probes (tick ``t1``)
          and data probes (tick ``t2``) together; a fetch trap undoes
          its lane's speculative data restamp exactly.
        * one merged L1I+L1D access over the virtual-lane structure.
        * static per-class counter rows scatter once for the fetch part
          and once at completion; rare events (misses, traps, victim
          writebacks) scatter single columns.
        """
        np = _np
        act = self._act
        n = self.nlanes
        p = self.pos[act]
        cl = self.a_cls[p]
        m = len(act)
        resume = self.data_resume[act]
        has_resume = bool(resume.any())
        pcs = self.a_pc[p]
        cc = self.cur_chunk[act]
        rows = self._acc_base_a + cc * self._nl_a + self.a_label[p]
        mcrow = self._mc_base_a + cc
        any_handler = self._n_trapped > 0
        in_handler = (p >= self._h_start_a) if any_handler else None
        is_mem = self.is_mem_cls[cl]

        # --- Merged TLB lookup -----------------------------------------
        ft = pcs < KSEG_BASE
        if has_resume:
            ft &= ~resume
        addrs = None
        if is_mem.any():
            addrs = self.a_addr[p]
            if any_handler:
                on_load = p == self._h_load_a
                if on_load.any():
                    addrs = addrs.copy()
                    addrs[on_load] = self.pte_addr[act[on_load]]
            du = is_mem & (addrs < KSEG_BASE)
            didx = np.nonzero(du)[0]
        else:
            didx = np.zeros(0, dtype=np.int64)
        fidx = np.nonzero(ft)[0]
        nf = len(fidx)
        nd_probe = len(didx)
        t1 = self._next_tick()
        t2 = self._next_tick()
        fetch_trap = np.zeros(m, dtype=bool)
        data_trap = np.zeros(m, dtype=bool)
        any_fetch_trap = False
        if nf or nd_probe:
            if nd_probe:
                probe_idx = np.concatenate((fidx, didx))
                probe_addr = np.concatenate((pcs[fidx], addrs[didx]))
            else:
                probe_idx = fidx
                probe_addr = pcs[fidx]
            hit, slot = self.tlb.lookup(act[probe_idx], probe_addr)
            f_hit = hit[:nf]
            if nf:
                # Restamp fetch hits first (scalar probe order: fetch
                # before data, so a duplicate entry keeps the data tick).
                if f_hit.all():
                    self.tlb.stamp[act[fidx], slot[:nf]] = t1
                else:
                    fetch_trap[fidx[~f_hit]] = True
                    any_fetch_trap = True
                    fh = np.nonzero(f_hit)[0]
                    self.tlb.stamp[act[fidx[fh]], slot[fh]] = t1
            if nd_probe:
                d_hit = hit[nf:]
                dok = d_hit
                if any_fetch_trap:
                    # A fetch-trapped instruction never reaches its data
                    # access: neither restamp nor data trap for it.
                    ok = ~fetch_trap[didx]
                    dok = d_hit & ok
                    dmiss = ~d_hit & ok
                else:
                    dmiss = ~d_hit
                if dok.all():
                    self.tlb.stamp[act[didx], slot[nf:]] = t2
                elif dok.any():
                    dh = np.nonzero(dok)[0]
                    self.tlb.stamp[act[didx[dh]], slot[nf:][dh]] = t2
                if dmiss.any():
                    data_trap[didx[dmiss]] = True

        if any_fetch_trap:
            tr = rows[fetch_trap]
            self.acc[tr, _C_TLB_ACC] += 1.0
            self.acc[tr, _C_TLB_MISS] += 1.0
            self.mc[mcrow[fetch_trap]] += TRAP_ENTRY_PENALTY
            self._enter_trap(
                act[fetch_trap], p[fetch_trap], pcs[fetch_trap],
                data_trap=False,
            )

        # --- Merged L1I + L1D access -----------------------------------
        if any_fetch_trap or has_resume:
            fet = ~fetch_trap
            if has_resume:
                fet &= ~resume
            fl_idx = np.nonzero(fet)[0]
            ivl = act[fl_idx]
            iva = pcs[fl_idx]
        else:
            fet = None
            fl_idx = None
            ivl = act
            iva = pcs
        nfi = len(ivl)
        any_data_trap = bool(data_trap.any())
        if any_fetch_trap or any_data_trap:
            dacc = is_mem & ~fetch_trap & ~data_trap
        else:
            dacc = is_mem
        dl_idx = np.nonzero(dacc)[0]
        nd = len(dl_idx)
        if nd:
            st = self.is_store_cls[cl[dl_idx]]
            vl = np.concatenate((ivl, act[dl_idx] + n))
            va = np.concatenate((iva, addrs[dl_idx]))
            vw = np.concatenate((np.zeros(nfi, dtype=bool), st))
        else:
            st = None
            vl = ivl
            va = iva
            vw = np.zeros(nfi, dtype=bool)
        chit, cvd = self.l1x.access(vl, va, vw, self._next_tick())

        fetch_lat = np.zeros(m, dtype=np.int64)
        ihit = chit[:nfi]
        if not ihit.all():
            mi = np.nonzero(~ihit)[0]
            if fl_idx is not None:
                mi = fl_idx[mi]
            ml = act[mi]
            r = rows[mi]
            self.acc[r, _C_L1I_MISS] += 1.0
            self.acc[r, _C_L2I] += 1.0
            l2hit, l2vd = self.l2.access(
                ml, pcs[mi], np.zeros(len(ml), dtype=bool),
                self._next_tick(),
            )
            lat = self.l2_lat[ml].copy()
            if not l2hit.all():
                l2m = ~l2hit
                rr = rows[mi[l2m]]
                self.acc[rr, _C_L2_MISS] += 1.0
                self.acc[rr, _C_MEM] += 1.0
                lat[l2m] += self.mem_lat[ml[l2m]]
            if l2vd.any():
                self.acc[rows[mi[l2vd]], _C_MEM] += 1.0
            fetch_lat[mi] = lat

        data_lat = np.zeros(m, dtype=np.int64)
        if nd:
            dhit = chit[nfi:]
            if not dhit.all():
                dmi = dl_idx[~dhit]
                ml = act[dmi]
                r = rows[dmi]
                self.acc[r, _C_L1D_MISS] += 1.0
                self.acc[r, _C_L2D] += 1.0
                l2hit, l2vd = self.l2.access(
                    ml, addrs[dmi], np.zeros(len(ml), dtype=bool),
                    self._next_tick(),
                )
                lat = self.l2_lat[ml].copy()
                if not l2hit.all():
                    l2m = ~l2hit
                    rr = rows[dmi[l2m]]
                    self.acc[rr, _C_L2_MISS] += 1.0
                    self.acc[rr, _C_MEM] += 1.0
                    lat[l2m] += self.mem_lat[ml[l2m]]
                if l2vd.any():
                    self.acc[rows[dmi[l2vd]], _C_MEM] += 1.0
                data_lat[dmi] = lat
                dvm = cvd[nfi:][~dhit]
                if dvm.any():
                    self.acc[rows[dmi[dvm]], _C_L2D] += 1.0
                    drain_lanes = ml[dvm]
                    self.l2.access(
                        drain_lanes,
                        addrs[dmi[dvm]] ^ (1 << 20),
                        np.ones(len(drain_lanes), dtype=bool),
                        self._next_tick(),
                    )
            data_lat[dl_idx] = np.where(
                st, 0, data_lat[dl_idx] + self.l1d_lat[act[dl_idx]]
            )

        # --- Data traps (fetch side already earned and kept) -----------
        if any_data_trap:
            dti = np.nonzero(data_trap)[0]
            tl = act[dti]
            r = rows[dti]
            self.acc[r] += self.tab_fetch[cl[dti]]
            self.acc[r, _C_TLB_ACC] += 1.0
            self.acc[r, _C_TLB_MISS] += 1.0
            pg = (
                self.base_cycles[cl[dti]]
                + fetch_lat[dti]
                + TRAP_ENTRY_PENALTY
            )
            self.partial_gap[tl] = pg
            self.mc[mcrow[dti]] += pg
            self._enter_trap(tl, p[dti], addrs[dti], data_trap=True)

        # --- Completion -------------------------------------------------
        if any_fetch_trap or any_data_trap:
            done = ~(fetch_trap | data_trap)
            di = np.nonzero(done)[0]
            if not len(di):
                return
            lanes = act[di]
            cld = cl[di]
            rd = rows[di]
            if has_resume:
                rs = resume[di]
                gap = np.where(
                    rs,
                    self.partial_gap[lanes] + data_lat[di],
                    self.static_cycles[cld] + fetch_lat[di] + data_lat[di],
                )
                nr = ~rs
                self.acc[rd[nr]] += self.tab_full[cld[nr]]
                self.acc[rd[rs]] += self.tab_post[cld[rs]]
                self.mc[mcrow[di]] += np.where(rs, data_lat[di], gap)
            else:
                gap = self.static_cycles[cld] + fetch_lat[di] + data_lat[di]
                self.acc[rd] += self.tab_full[cld]
                self.mc[mcrow[di]] += gap
            self.acc[rd, _COL_CYC] += gap
            if any_handler:
                hd = in_handler[di] & self.in_data_trap[lanes]
                if hd.any():
                    self.partial_gap[lanes[hd]] += gap[hd]
            self._advance_fast(lanes, p[di], resume[di], has_resume,
                               any_handler)
        else:
            if has_resume:
                gap = np.where(
                    resume,
                    self.partial_gap[act] + data_lat,
                    self.static_cycles[cl] + fetch_lat + data_lat,
                )
                self.mc[mcrow] += np.where(resume, data_lat, gap)
                nr = ~resume
                self.acc[rows[nr]] += self.tab_full[cl[nr]]
                self.acc[rows[resume]] += self.tab_post[cl[resume]]
            else:
                gap = self.static_cycles[cl] + fetch_lat + data_lat
                self.mc[mcrow] += gap
                self.acc[rows] += self.tab_full[cl]
            self.acc[rows, _COL_CYC] += gap
            if any_handler:
                hd = in_handler & self.in_data_trap[act]
                if hd.any():
                    self.partial_gap[act[hd]] += gap[hd]
            self._advance_fast(act, p, resume, has_resume, any_handler)

    def _advance_fast(self, lanes, p, resume, has_resume, any_handler):
        """Advance completing lanes; handler-free steps skip the ERET
        and chunk-boundary special cases entirely."""
        np = _np
        if has_resume and resume.any():
            rl = lanes[resume]
            self.data_resume[rl] = False
            self.in_data_trap[rl] = False
        new_pos = p + 1
        if any_handler:
            on_eret = p == self.h_eret[lanes]
            if on_eret.any():
                el = lanes[on_eret]
                self._n_trapped -= len(el)
                self.tlb.refill(el, self.fault_addr[el], self._next_tick())
                self.data_resume[el] = self.in_data_trap[el]
                new_pos[on_eret] = self.saved_pos[el]
            self.pos[lanes] = new_pos
            in_main = (new_pos < self.run_end[lanes]) & ~on_eret
            if in_main.any():
                il = lanes[in_main]
                ip = new_pos[in_main]
                self.cur_chunk[il] = self.a_chunk[ip]
                if self._flush_live:
                    self._check_flush(il, ip)
            finished = new_pos == self.run_end[lanes]
            if finished.any():
                self.active[lanes[finished]] = False
                self._act_dirty = True
            return
        self.pos[lanes] = new_pos
        finished = new_pos == self.run_end[lanes]
        if not finished.any():
            self.cur_chunk[lanes] = self.a_chunk[new_pos]
            if self._flush_live:
                self._check_flush(lanes, new_pos)
            return
        in_main = ~finished
        il = lanes[in_main]
        ip = new_pos[in_main]
        self.cur_chunk[il] = self.a_chunk[ip]
        if self._flush_live:
            self._check_flush(il, ip)
        self.active[lanes[finished]] = False
        self._act_dirty = True

    def _check_flush(self, il, ip):
        """Apply any cacheflush events the advancing lanes just crossed."""
        np = _np
        local = ip - self.run_start[il]
        due = local >= self.flush_pos[il]
        if due.any():
            for lane, loc in zip(il[due], local[due]):
                lane = int(lane)
                stream = self.streams[self.stream_of[lane]]
                events = stream.flush_events
                nf = self.next_flush[lane]
                while nf < len(events) and events[nf] <= loc:
                    self.l1x.invalidate_lane(lane)
                    self.l1x.invalidate_lane(lane + self.nlanes)
                    nf += 1
                self.next_flush[lane] = nf
                self.flush_pos[lane] = (
                    events[nf] if nf < len(events)
                    else np.iinfo(np.int64).max
                )
            self._flush_live = bool(
                (self.flush_pos[self._act] != np.iinfo(np.int64).max).any()
            )

    def _enter_trap(self, lanes, fault_pos, fault_addrs, *, data_trap: bool):
        np = _np
        self.saved_pos[lanes] = fault_pos
        self.fault_addr[lanes] = fault_addrs
        self.pte_addr[lanes] = (
            PTE_TABLE_BASE + ((fault_addrs >> 12) & 0x3FF) * 8
        )
        self.in_data_trap[lanes] = data_trap
        self.pos[lanes] = self.h_start[lanes]
        self._n_trapped += len(lanes)
        mrows = self.mc_base[lanes] + self.cur_chunk[lanes]
        self.trapc[mrows] += 1
        # First-trap bookkeeping (rare; a short python loop is fine).
        for i, lane in enumerate(lanes):
            lane = int(lane)
            stream = self.streams[self.stream_of[lane]]
            local = int(fault_pos[i]) - int(self.run_start[lane])
            pull = int(stream.pull_of[local])
            if self.first_trap_pull[lane] < 0:
                self.first_trap_pull[lane] = pull
            chunk = int(self.cur_chunk[lane])
            if self.first_trap_pos[lane][chunk] < 0:
                self.first_trap_pos[lane][chunk] = local

    def _advance(self, lanes, p, resume) -> None:
        np = _np
        if resume.any():
            rl = lanes[resume]
            self.data_resume[rl] = False
            self.in_data_trap[rl] = False
        on_eret = p == self.h_eret[lanes]
        new_pos = p + 1
        if on_eret.any():
            el = lanes[on_eret]
            self._n_trapped -= len(el)
            self.tlb.refill(el, self.fault_addr[el], self._next_tick())
            self.data_resume[el] = self.in_data_trap[el]
            new_pos[on_eret] = self.saved_pos[el]
        self.pos[lanes] = new_pos
        # ERET returns to the saved (already-entered) position: chunk
        # and flush state were updated when it was first reached.
        in_main = (new_pos < self.run_end[lanes]) & ~on_eret
        if in_main.any():
            il = lanes[in_main]
            ip = new_pos[in_main]
            self.cur_chunk[il] = self.a_chunk[ip]
            local = ip - self.run_start[il]
            due = local >= self.flush_pos[il]
            if due.any():
                for lane, loc in zip(il[due], local[due]):
                    lane = int(lane)
                    stream = self.streams[self.stream_of[lane]]
                    events = stream.flush_events
                    nf = self.next_flush[lane]
                    while nf < len(events) and events[nf] <= loc:
                        self.l1x.invalidate_lane(lane)
                        self.l1x.invalidate_lane(lane + self.nlanes)
                        nf += 1
                    self.next_flush[lane] = nf
                    self.flush_pos[lane] = (
                        events[nf] if nf < len(events)
                        else np.iinfo(np.int64).max
                    )
        finished = new_pos == self.run_end[lanes]
        if finished.any():
            self.active[lanes[finished]] = False
            self._act_dirty = True

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------

    def profiles(self) -> list[BenchmarkProfile]:
        """Rebuild one scalar-identical BenchmarkProfile per lane."""
        idle_cache: list[tuple[SystemConfig, int, IdleProfile]] = []
        return [
            self._materialize(lane, idle_cache)
            for lane in range(len(self.tasks))
        ]

    def _materialize(
        self, lane: int, idle_cache: list
    ) -> BenchmarkProfile:
        task = self.tasks[lane]
        stream = self.streams[self.stream_of[lane]]
        # Global first-count order of kernel.invocations: services count
        # during generation of their pull (q, 0); the emergent utlb
        # service counts during *processing* of the first faulting pull
        # (p, 1) — generation of pull p precedes its processing, which
        # precedes generation of pull p+1.
        events: list[tuple[int, int, str]] = [
            (pull, 0, name) for pull, name in stream.svc_events
        ]
        first_trap_pull = int(self.first_trap_pull[lane])
        if first_trap_pull >= 0:
            events.append((first_trap_pull, 1, "utlb"))
            events.sort()
        phases: dict[str, PhaseProfile] = {}
        prev_snapshot: dict[str, int] = {}
        names_so_far: list[str] = []
        event_index = 0
        for meta in stream.phase_meta:
            while (
                event_index < len(events)
                and events[event_index][0] <= meta.end_pull
            ):
                names_so_far.append(events[event_index][2])
                event_index += 1
            phase_traps = sum(
                int(self.trapc[self.mc_base[lane] + chunk])
                for chunk in meta.chunk_ids
            )
            delta: dict[str, int] = {}
            for name in names_so_far:
                if name == "utlb":
                    delta["utlb"] = phase_traps
                else:
                    delta[name] = meta.snapshot.get(name, 0) - prev_snapshot.get(
                        name, 0
                    )
            if "utlb" not in delta:
                delta["utlb"] = phase_traps
            prev_snapshot = meta.snapshot
            chunks = [
                self._chunk_stats(lane, stream, chunk)
                for chunk in meta.chunk_ids
            ]
            phases[meta.phase.name] = PhaseProfile(
                phase=meta.phase,
                chunks=chunks,
                invocations={k: v for k, v in delta.items() if v > 0},
            )
        return BenchmarkProfile(
            spec=task.spec,
            cpu_model="mipsy",
            phases=phases,
            idle=self._idle_for(task, idle_cache),
            config=task.config,
        )

    def _chunk_stats(
        self, lane: int, stream: _DecodedStream, chunk: int
    ) -> RunStats:
        acc = self.acc
        base = int(self.acc_base[lane]) + chunk * stream.n_labels
        mrow = int(self.mc_base[lane]) + chunk
        stats = RunStats(
            cycles=int(self.mc[mrow]), traps=int(self.trapc[mrow])
        )
        # Scalar label-dict insertion order: the None bucket first (made
        # at reset), then first appearance within the chunk, with utlb
        # entering while the first faulting instruction is in flight —
        # after that instruction's own label, before any later first
        # appearance.
        entries = [
            (pos, 0, lid)
            for pos, lid in stream.chunk_first[chunk]
            if lid != 0
        ]
        first_trap = int(self.first_trap_pos[lane][chunk])
        if first_trap >= 0:
            entries.append(
                (first_trap - stream.chunk_start[chunk], 1, stream.utlb_label)
            )
            entries.sort()
        instructions = 0
        for lid in [0] + [entry[2] for entry in entries]:
            row = acc[base + lid]
            cycles = float(row[_COL_CYC])
            instr_cycles = float(row[_COL_INS])
            label_stats = LabelStats(
                cycles=cycles,
                instr_cycles=instr_cycles,
                stall_cycles=cycles - instr_cycles,
                instructions=int(row[_COL_INS]),
            )
            counters = label_stats.counters
            for index, field in enumerate(COUNTER_FIELDS):
                value = row[index]
                if value:
                    setattr(counters, field, int(value))
            stats.labels[stream.label_names[lid]] = label_stats
            instructions += label_stats.instructions
        stats.instructions = instructions
        return stats

    def _idle_for(self, task: BatchTask, idle_cache: list) -> IdleProfile:
        for config, window, profile in idle_cache:
            if window == task.window_instructions and config == task.config:
                return profile
        profiler = Profiler(
            task.config,
            cpu_model="mipsy",
            window_instructions=task.window_instructions,
            startup_chunks=task.startup_chunks,
            steady_chunks=task.steady_chunks,
            seed=task.seed,
        )
        profile = profiler.profile_idle()
        idle_cache.append((task.config, task.window_instructions, profile))
        return profile


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def profile_benchmarks_batched(
    tasks: Sequence[BatchTask],
) -> list[BenchmarkProfile]:
    """Profile many (benchmark, config) lanes in one lockstep pass.

    Returns one :class:`BenchmarkProfile` per task, in task order, each
    bit-identical to ``Profiler(task.config, cpu_model="mipsy",
    ...).profile_benchmark(task.spec)``.  Callers gate on having at
    least :func:`batch_min_runs` uncached runs.
    """
    if not tasks:
        return []
    engine = _BatchedMipsyEngine(tasks)
    engine.run()
    return engine.profiles()

