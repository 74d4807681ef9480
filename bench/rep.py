"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that each one pays
what a user's process pays: interpreter start, imports and, for the
simulating workloads, cold in-process state.  A repetition sets up,
times its operations, records what the checks need, and writes one JSON
document to ``--out``::

    PYTHONPATH=src python bench/rep.py WORKLOAD --seed N --out FILE \\
        [--seconds S] [--trace] [--check] [--smoke]

``--seconds`` is how much measured operation time the repetition runs
(``suite_cold`` and ``sweep_structural`` always run exactly one
operation).  ``--check`` also re-derives one SEED-chosen output offline,
outside the timed phase.  ``serve_offline`` is not a workload: it prices
the request bodies in ``--keys`` offline for the ``serve_warm`` check.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time

import common
import tracer as tracing
from repro.config.system import SystemConfig
from repro.core.campaign import (
    PARAMETERS,
    SweepCampaign,
    point_from_result,
    sweep_source,
)
from repro.core.softwatt import SoftWatt
from repro.ingest.mapping import CounterMapping
from repro.ingest.pricing import ingest_log
from repro.ingest.readers import read_counter_log, write_counter_log_json
from repro.kernel.modes import ExecutionMode
from repro.power.processor import ProcessorPowerModel
from repro.workloads.paper_data import TABLE2

clock = tracing.clock


# ---------------------------------------------------------------------------
# Output fingerprints: JSON-ready and exact (floats survive json)
# ---------------------------------------------------------------------------


def point_record(point) -> dict:
    value = point.value
    return {
        "value": list(value) if isinstance(value, tuple) else value,
        "energy_j": point.energy_j,
        "duration_s": point.duration_s,
        "average_power_w": point.average_power_w,
        "peak_power_w": point.peak_power_w,
        "kernel_share_pct": point.kernel_share_pct,
        "budget_shares": point.budget_shares,
        "component_energy_j": point.component_energy_j,
    }


def sweep_record(result) -> dict:
    return {
        "tiers": list(result.tiers),
        "points": [point_record(point) for point in result.points],
    }


def on_tier(result, tier: str) -> int:
    """Points of a sweep that came back, counting none evaluated on
    another tier than the workload exists to measure."""
    return min(len(result.points), result.tiers.count(tier))


def serve_payload(result) -> dict:
    """The fields of a served ``result`` that an offline run reproduces."""
    return {
        "benchmark": result.name,
        "cpu_model": result.cpu_model,
        "disk_policy": result.disk_policy_name,
        "total_energy_j": result.total_energy_j,
        "disk_energy_j": result.disk_energy_j,
        "duration_s": result.timeline.duration_s,
        "average_power_w": result.average_power_w,
        "peak_power_w": result.peak_power_w,
        "energy_delay_product": result.energy_delay_product,
        "budget_w": result.power_budget(),
        "budget_shares": result.power_budget_shares(),
    }


def model_statistics(softwatt: SoftWatt, names) -> dict:
    """Simulated statistics summed over the suite's profiles; a pure
    speed-up must leave every one identical."""
    totals = dict.fromkeys(
        ("instructions", "cycles", "l1d_misses", "l2_misses", "tlb_misses"), 0
    )
    for name in names:
        profile = softwatt.profile(name)
        runs = [chunk for phase in profile.phases.values() for chunk in phase.chunks]
        runs.append(profile.idle.stats)
        for stats in runs:
            counters = stats.total_counters()
            totals["instructions"] += stats.instructions
            totals["cycles"] += stats.cycles
            totals["l1d_misses"] += counters.l1d_miss
            totals["l2_misses"] += counters.l2_miss
            totals["tlb_misses"] += counters.tlb_miss
    return totals


MODE_FIELDS = {
    ExecutionMode.USER: "user_energy",
    ExecutionMode.KERNEL: "kernel_energy",
    ExecutionMode.SYNC: "sync_energy",
    ExecutionMode.IDLE: "idle_energy",
}


def table2_energy_error_pp(results) -> float:
    """Mean |model - paper| over the four mode energy shares of every
    benchmark (Table 2), in percentage points."""
    errors = []
    for name, result in results.items():
        rows = result.mode_breakdown()
        for mode, field in MODE_FIELDS.items():
            errors.append(abs(rows[mode].energy_pct - getattr(TABLE2[name], field)))
    return sum(errors) / len(errors)


# ---------------------------------------------------------------------------
# Workloads: setup() -> state; op(state, k) -> output;
# fingerprint(output) -> JSON; record(state, first output) -> check data
# ---------------------------------------------------------------------------


class SuiteCold:
    """A cold ``repro suite``: all benchmarks, no persistent cache."""

    single_op = True

    def __init__(self, args, size):
        self.args, self.size = args, size

    def setup(self):
        return None

    def op(self, state, k):
        softwatt = SoftWatt(
            cpu_model="mxs",
            window_instructions=self.size["window"],
            seed=self.args.seed,
            use_cache=False,
        )
        return softwatt, softwatt.run_suite(workers=1, names=self.size["benchmarks"])

    def items(self, output):
        return len(output[1]), len(self.size["benchmarks"])

    def fingerprint(self, output):
        return {
            name: [result.total_energy_j, result.disk_energy_j,
                   result.timeline.duration_s]
            for name, result in output[1].items()
        }

    def record(self, state, first):
        softwatt, results = first
        return {
            "invariants": {
                "model": model_statistics(softwatt, list(results)),
                "table2_energy_error_pp": table2_energy_error_pp(results),
            },
        }


class SweepStructural:
    """A structural grid fanned out over a fork pool with a fresh cache."""

    single_op = True

    def __init__(self, args, size):
        self.args, self.size = args, size

    def setup(self):
        cache = os.path.join(self.args.work, "cache")
        os.makedirs(cache)
        return cache

    def campaign(self, cache):
        return SweepCampaign(
            benchmark="jess",
            window_instructions=self.size["window"],
            seed=self.args.seed,
            workers=self.size["workers"],
            cache_dir=cache,
        )

    def op(self, cache, k):
        return self.campaign(cache).run_grid(self.size["grid"])

    def items(self, result):
        planned = 1
        for values in self.size["grid"].values():
            planned *= len(values)
        return on_tier(result, "STRUCTURAL"), planned

    fingerprint = staticmethod(sweep_record)

    def record(self, cache, first):
        record = {}
        if self.args.check:
            campaign = self.campaign(cache)
            index = common.check_rng(self.args.seed, "sweep_structural").randrange(
                len(first.points)
            )
            planned = campaign.plan_grid(self.size["grid"])[index]
            offline = SoftWatt(
                config=planned.config,
                cpu_model=campaign.cpu_model,
                window_instructions=self.size["window"],
                seed=self.args.seed,
                use_cache=False,
            ).run("jess", disk=planned.policy, idle_policy=campaign.idle_policy)
            record["reference"] = {
                "index": index,
                "point": point_record(point_from_result(planned.value, offline)),
            }
        return record


class SweepLedger:
    """Ledger-tier grids re-pricing one warm base run."""

    single_op = False

    def __init__(self, args, size):
        self.args, self.size = args, size

    def campaign(self, **options):
        return SweepCampaign(
            benchmark="jess",
            window_instructions=self.size["window"],
            seed=self.args.seed,
            use_cache=False,
            **options,
        )

    def setup(self):
        campaign = self.campaign()
        campaign.run_grid({"vdd": [3.3]})  # warms the base run
        return campaign

    def op(self, campaign, k):
        return campaign.run_grid(common.ledger_axes(self.args.seed, k, self.size))

    def items(self, result):
        planned = self.size["vdd_values"] * self.size["calibration_values"]
        return on_tier(result, "LEDGER"), planned

    fingerprint = staticmethod(sweep_record)

    def record(self, campaign, first):
        record = {}
        if self.args.check:
            index = common.check_rng(self.args.seed, "sweep_ledger").randrange(
                len(first.points)
            )
            vdd, calibration = first.points[index].value
            full = self.campaign(tier="full").run_grid(
                {"vdd": [vdd], "calibration": [calibration]}
            )
            record["reference"] = {
                "index": index,
                "point": point_record(full.points[0]),
            }
        return record


class Reprice:
    """``repro ingest`` re-pricing: exported counters swept over vdd."""

    single_op = False

    def __init__(self, args, size):
        self.args, self.size = args, size

    def setup(self):
        softwatt = SoftWatt(
            window_instructions=self.size["window"], seed=self.args.seed,
            use_cache=False,
        )
        log = softwatt.run("jess").timeline.log
        path = os.path.join(self.args.work, "counters.json")
        write_counter_log_json(log, path)
        ingested = ingest_log(read_counter_log(path), CounterMapping.identity())
        return softwatt, log, ingested

    def op(self, state, k):
        _softwatt, _log, ingested = state
        values = common.reprice_values(self.args.seed, k, self.size)
        return sweep_source(ingested, "vdd", values)

    def items(self, points):
        return len(points), self.size["values"]

    def fingerprint(self, points):
        return [[value, ledger.components] for value, ledger in points]

    def record(self, state, first):
        softwatt, log, ingested = state
        record = {}
        if self.args.check:
            index = common.check_rng(self.args.seed, "reprice").randrange(len(first))
            vdd = first[index][0]
            config = PARAMETERS["vdd"](SystemConfig.table1(), vdd).validate()
            record["reference"] = {
                "index": index,
                "point": [vdd, ProcessorPowerModel(config).price(log).components],
                "direct": softwatt.model.price(log).components,
                "ingested": softwatt.model.price(ingested).components,
            }
        return record


WORKLOADS = {
    "suite_cold": SuiteCold,
    "sweep_structural": SweepStructural,
    "sweep_ledger": SweepLedger,
    "reprice": Reprice,
}


# ---------------------------------------------------------------------------
# Running a repetition
# ---------------------------------------------------------------------------


def peak_rss_mib() -> float:
    """Peak RSS of this process and of its reaped children (fork-pool
    workers), in MiB."""
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def run_workload(args) -> dict:
    size = common.sizes(args.workload, args.smoke)
    workload = WORKLOADS[args.workload](args, size)
    state = workload.setup()
    setup_end_ns = clock()
    tracer = None
    op = workload.op
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload} repetition")
        tracer.spans_dir = args.work
        tracer.calibrate()
        op = tracer.wrap(tracing.ROOT, workload.op)
    budget_ns = 0 if workload.single_op else int(args.seconds * 1e9)
    ops, digests, measured, k = [], [], 0, 0
    while True:
        if tracer is not None:
            # Wrappers are in place only inside the timed operations.
            tracing.install(tracer)
            tracer.op = k
        start = clock()
        output = op(state, k)
        end = clock()
        if tracer is not None:
            tracer.uninstall()
        done, attempted = workload.items(output)
        ops.append([start, end, done, attempted])
        fingerprint = workload.fingerprint(output)
        digests.append(common.digest(fingerprint))
        if k == 0:
            first, first_fingerprint = output, fingerprint
        measured += end - start
        k += 1
        if measured >= budget_ns:
            break
    trace = None
    if tracer is not None:
        trace = [tracer.snapshot(), *tracing.read_spans(args.work)]
    record = workload.record(state, first)
    record.update(
        digests=digests,
        first=first_fingerprint,
        setup_end_ns=setup_end_ns,
        ops=ops,
        rss_mib=peak_rss_mib(),
        trace=trace,
    )
    return record


def serve_offline(args) -> dict:
    """Offline answers for the request bodies the serve check samples."""
    size = common.sizes("serve_warm", args.smoke)
    instances: dict[str, SoftWatt] = {}
    payloads = []
    for key in json.loads(args.keys):
        model = key["cpu_model"]
        if model not in instances:
            instances[model] = SoftWatt(
                cpu_model=model, window_instructions=size["window"],
                seed=args.seed, use_cache=False,
            )
        result = instances[model].run(
            key["benchmark"], disk=key["disk"], idle_policy=key["idle_policy"]
        )
        payloads.append(serve_payload(result))
    return {"payloads": payloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=(*WORKLOADS, "serve_offline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--work", required=True,
                        help="empty scratch directory of this repetition")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--keys", help="serve_offline: JSON list of request bodies")
    args = parser.parse_args(argv)
    if args.workload == "serve_offline":
        record = serve_offline(args)
    else:
        record = run_workload(args)
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
