"""Sampled execution tier: SMARTS-style periodic detailed sampling.

Out of every ``sample_period`` instructions of budget, the sampled tier
runs ``warmup + sample_window`` instructions on the *wrapped detailed
core* and fast-forwards the rest of the period by simply not consuming
them from the instruction stream — skipped instructions are never
generated, which is what makes the tier fast (instruction generation is
the dominant cost of a detailed mipsy run).

Semantics per period:

* **warmup** instructions run detailed but are discarded from the
  measurement.  Because the wrapped core's :class:`MemoryHierarchy` and
  :class:`BranchPredictor` persist across ``run()`` calls, the warmup
  re-trains that state after the fast-forward gap before measurement
  starts.
* **sample_window** instructions run detailed and are measured.
* the remaining ``period - warmup - window`` instructions are skipped.

The measured windows are merged and extrapolated to the full budget
with :meth:`RunStats.scaled`; a leftover budget smaller than ``warmup +
window`` is simply run detailed in full (small chunks degenerate to the
detailed tier, which keeps the error, not the speedup).
"""

from __future__ import annotations

from repro.config.system import FidelityConfig
from repro.cpu.runstats import RunStats


class SampledProcessor:
    """Periodic-sampling wrapper around a detailed CPU model.

    Same ``run(stream, *, max_instructions)`` contract as the cores it
    wraps; :attr:`stream_consumed` reports how many instructions were
    pulled from the stream (warmup + measured, trap-handler instructions
    excluded), which the profiler uses to rescale kernel-invocation
    deltas.
    """

    def __init__(self, cpu, fidelity: FidelityConfig) -> None:
        self.cpu = cpu
        self.fidelity = fidelity
        self.stream_consumed = 0

    @property
    def hierarchy(self):
        return self.cpu.hierarchy

    @property
    def predictor(self):
        return getattr(self.cpu, "predictor", None)

    def _measured(self, stats: RunStats, snapshot: dict[str, int] | None) -> RunStats:
        """Replace cumulative predictor stats with this run's delta."""
        predictor = self.predictor
        if predictor is not None and snapshot is not None:
            stats.branch = predictor.stats.since(snapshot)
        return stats

    def run(
        self,
        stream,
        *,
        max_instructions: int | None = None,
    ) -> RunStats:
        cpu = self.cpu
        if max_instructions is None:
            # Unbounded streams (idle warm passes, service bodies) run
            # fully detailed: there is no budget to extrapolate to.
            stats = cpu.run(stream)
            self.stream_consumed = cpu.stream_consumed
            return stats

        fidelity = self.fidelity
        period = fidelity.sample_period
        warmup = fidelity.warmup
        window = fidelity.sample_window
        detailed_quota = warmup + window

        predictor = self.predictor
        consumed = 0
        measured_instructions = 0
        merged: RunStats | None = None
        remaining = max_instructions
        exhausted = False
        while remaining > 0 and not exhausted:
            budget = min(period, remaining)
            if budget <= detailed_quota:
                # Tail (or small chunk): no room to skip, run it all.
                snapshot = predictor.stats.snapshot() if predictor else None
                stats = self._measured(
                    cpu.run(stream, max_instructions=budget), snapshot
                )
                exhausted = cpu.stream_consumed < budget
            else:
                if warmup:
                    cpu.run(stream, max_instructions=warmup)
                    consumed += cpu.stream_consumed
                    if cpu.stream_consumed < warmup:
                        break
                snapshot = predictor.stats.snapshot() if predictor else None
                stats = self._measured(
                    cpu.run(stream, max_instructions=window), snapshot
                )
                exhausted = cpu.stream_consumed < window
            consumed += cpu.stream_consumed
            measured_instructions += stats.instructions
            merged = stats if merged is None else merged.merged(stats)
            remaining -= budget
        self.stream_consumed = consumed
        if merged is None:
            return RunStats()
        represented = max_instructions - max(0, remaining)
        if exhausted:
            # The stream ended inside a measured window: nothing was
            # skipped after that point, so represent only what ran.
            represented = consumed
        if measured_instructions and represented > measured_instructions:
            return merged.scaled(represented / measured_instructions)
        return merged

    @property
    def stats(self) -> RunStats:
        """Statistics of the wrapped core's most recent run."""
        return self.cpu.stats
