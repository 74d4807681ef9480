#!/usr/bin/env python
"""Benchmark the profiling pipeline and emit ``BENCH_profiling.json``.

Times the three layers the performance work targets:

* the per-instruction hot loop (one cold ``profile_benchmark`` on a
  fresh profiler, MXS and Mipsy),
* a cold ``run_suite`` serially and with a process-pool fan-out
  (verifying the fan-out is bit-identical to the serial run), and
* a warm-cache ``run_suite`` in a fresh instance (verifying the
  persistent cache skips detailed simulation entirely),
* timeline replay and sampling of one benchmark from its detailed
  profile (``timeline_sample``),
* the tiered sweep campaign engine against legacy point-by-point full
  re-simulation (``sweep_serial_vs_campaign``): a Tier-L vdd sweep
  cold and warm, plus a structural l1_size sweep fanned out over
  workers against a warm profile cache, and
* the fidelity ladder (``fidelity_tiers``): the atomic and sampled
  execution tiers against detailed Mipsy over the whole suite,
  reporting represented instructions/sec and per-benchmark /
  per-component energy error against the detailed runs.  Error bounds
  (atomic <= 10%, sampled <= 2% total energy) are enforced always;
  the speedup gates (atomic >= 10x, sampled >= 2.5x) only in full mode —
  at quick-mode windows the fixed sampling floors leave too little to
  skip for the asymptotic ratios to show,
* the estimation service (``serve``): an in-process ``repro serve``
  instance answering ``POST /run`` over loopback HTTP.  The cold
  figure is the first request on a fresh engine (profiles computed
  in-process); the warm figures (requests/sec, p50/p99 latency) come
  from the resident instance answering from memory.  The served
  answer must be bit-identical to the serial pipeline's run,
* single-flight serving (``serve_batch``): 32 concurrent identical
  warm ``POST /run`` requests against 32 direct warm
  ``engine.estimate`` calls; every response must be bit-identical to
  the direct reply and the served path must clear a 2x requests/sec
  gate.

Every comparison asserts bit-identical results (bounded error for the
fidelity tiers) and exits non-zero on divergence.  ``--quick`` shrinks
the window and repeats for CI smoke runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config.system import SystemConfig  # noqa: E402
from repro.core.campaign import SweepCampaign, sweep_source  # noqa: E402
from repro.core.profiles import Profiler  # noqa: E402
from repro.core.softwatt import SoftWatt  # noqa: E402
from repro.core.timeline import TimelineSimulator  # noqa: E402
from repro.stats.postprocess import total_energy_j  # noqa: E402
from repro.workloads.specjvm98 import BENCHMARK_NAMES, benchmark  # noqa: E402

SEED_BASELINE = {
    "commit": "1c2e9c5",
    "window_instructions": 20_000,
    "seed": 1,
    "suite_serial_cold_s": 11.895,
}
"""Cold serial ``run_suite`` wall time measured at the growth-seed
commit (pre-optimization) on the reference machine, for the speedup
figure below.  Only comparable when run with the same window and seed
on similar hardware."""


def _time(fn, repeats: int) -> dict:
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return {"best_s": min(times), "times_s": times, "_result": result}


def _profile_instructions(profile) -> int:
    """Detailed-simulation instructions recorded in one profile."""
    total = profile.idle.stats.instructions
    for phase in profile.phases.values():
        total += sum(chunk.instructions for chunk in phase.chunks)
    return total


def _suite_fingerprint(results) -> list:
    return [
        (name, r.total_energy_j, r.disk_energy_j, r.timeline.duration_s)
        for name, r in sorted(results.items())
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--window", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats for the hot-loop timings")
    parser.add_argument("--out", default="BENCH_profiling.json")
    parser.add_argument("--quick", action="store_true",
                        help="small window, single repeats (CI smoke)")
    args = parser.parse_args()
    if args.quick:
        args.window = min(args.window, 6000)
        args.repeats = 1
    args.repeats = max(1, args.repeats)
    cpu_count = os.cpu_count() or 1

    window, seed = args.window, args.seed
    report: dict = {
        "metadata": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "window_instructions": window,
            "seed": seed,
            "workers": args.workers,
            "quick": args.quick,
        },
        "seed_baseline": SEED_BASELINE,
    }

    # Layer 3: the per-instruction hot loop, cold, per CPU model.
    spec = benchmark("jess")
    for model in ("mxs", "mipsy"):
        timing = _time(
            lambda m=model: Profiler(
                cpu_model=m, window_instructions=window, seed=seed
            ).profile_benchmark(spec),
            args.repeats,
        )
        instructions = _profile_instructions(timing.pop("_result"))
        timing["instructions"] = instructions
        timing["instructions_per_sec"] = round(
            instructions / timing["best_s"], 1
        )
        report[f"hot_loop_{model}"] = timing
        print(f"hot loop ({model}, jess, window {window}): "
              f"{timing['best_s']:.3f} s best of {args.repeats} "
              f"({timing['instructions_per_sec']:,.0f} instr/s)")

    # Layer 1: cold suite, serial vs process-pool fan-out.
    serial = _time(
        lambda: SoftWatt(
            window_instructions=window, seed=seed, use_cache=False
        ).run_suite(workers=1),
        1,
    )
    results = serial.pop("_result")
    fingerprint = _suite_fingerprint(results)
    serial["cpu_count"] = cpu_count
    serial["effective_workers"] = 1
    report["suite_serial_cold"] = serial
    print(f"suite cold serial: {serial['best_s']:.3f} s")

    # Accounting stage in isolation: registry evaluation + ledger
    # rollups over the already-recorded logs (the simulate->count half
    # is excluded).  Tracks the PowerComponent-registry overhead.
    def _account():
        return [
            (result.energy_ledger().total_j,
             total_energy_j(result.timeline.log, result.model))
            for result in results.values()
        ]

    accounting = _time(_account, max(3, args.repeats))
    accounting.pop("_result")
    accounting["log_records"] = sum(
        len(result.timeline.log) for result in results.values()
    )
    report["accounting_stage"] = accounting
    print(f"accounting stage (ledger evaluation over "
          f"{accounting['log_records']} log records + 6 run ledgers): "
          f"{accounting['best_s']:.3f} s")

    # A process-pool fan-out on a single core only measures pool
    # overhead; skip the stage (annotated) rather than publish a
    # misleading "speedup" figure.
    parallel = None
    if cpu_count <= 1:
        report["suite_parallel_cold"] = {
            "skipped": True,
            "reason": "os.cpu_count() == 1: process-pool fan-out is not "
                      "representative on a single core",
            "cpu_count": cpu_count,
            "workers_requested": args.workers,
        }
        print(f"suite cold workers={args.workers}: skipped "
              f"(single-core host)")
    else:
        parallel_sw = SoftWatt(
            window_instructions=window, seed=seed, use_cache=False
        )
        parallel = _time(
            lambda: parallel_sw.run_suite(workers=args.workers), 1
        )
        identical = _suite_fingerprint(parallel.pop("_result")) == fingerprint
        parallel["bit_identical_to_serial"] = identical
        parallel["cpu_count"] = cpu_count
        parallel["workers_requested"] = args.workers
        parallel["effective_workers"] = (
            parallel_sw.run_report.effective_workers
        )
        report["suite_parallel_cold"] = parallel
        print(f"suite cold workers={args.workers} "
              f"(effective {parallel['effective_workers']}): "
              f"{parallel['best_s']:.3f} s "
              f"(bit-identical to serial: {identical})")
        if not identical:
            print("ERROR: parallel suite diverged from serial",
                  file=sys.stderr)
            return 1

    # Layer 2: warm persistent cache in a fresh instance.
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        SoftWatt(
            window_instructions=window, seed=seed, cache_dir=cache_dir
        ).run_suite(workers=1)
        warm_sw = SoftWatt(
            window_instructions=window, seed=seed, cache_dir=cache_dir
        )
        warm = _time(lambda: warm_sw.run_suite(workers=1), 1)
        identical = _suite_fingerprint(warm.pop("_result")) == fingerprint
        warm["bit_identical_to_serial"] = identical
        warm["detailed_runs"] = warm_sw.profiler.detailed_runs
        report["suite_warm_cache"] = warm
        print(f"suite warm cache: {warm['best_s']:.3f} s "
              f"(detailed simulations: {warm_sw.profiler.detailed_runs}, "
              f"bit-identical: {identical})")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    # Layer 4: timeline sampling.  Replay one benchmark's timeline from
    # its (already computed) detailed profile and price the log.
    replay_sw = SoftWatt(window_instructions=window, seed=seed, use_cache=False)
    replay_profile = replay_sw.profile("jess")
    replay_services = replay_sw._cached_service_profiles()

    def _replay():
        timeline = TimelineSimulator(
            replay_profile, disk_policy=1, service_profiles=replay_services
        ).run()
        return total_energy_j(timeline.log, replay_sw.model)

    sample_timing = _time(_replay, max(3, args.repeats))
    sample_timing.pop("_result")
    report["timeline_sample"] = sample_timing
    print(f"timeline replay (jess): {sample_timing['best_s']:.3f} s best of "
          f"{len(sample_timing['times_s'])}")

    # Sweep campaign: the tiered engine vs legacy full re-simulation.
    # Tier L (vdd): every point re-prices the cached base timeline; the
    # full arm re-simulates detailed profiling at every point.
    base_vdd = SystemConfig.table1().technology.vdd
    sweep_points = 8 if args.quick else 12
    vdd_values = [
        round(base_vdd * (0.80 + 0.03 * index), 6)
        for index in range(sweep_points)
    ]

    def _point_key(result):
        return [
            (p.value, p.energy_j, p.duration_s, p.average_power_w,
             p.peak_power_w)
            for p in result.points
        ]

    def _campaign(**kwargs):
        return SweepCampaign(
            benchmark="jess", window_instructions=window, seed=seed, **kwargs
        )

    full_arm = _time(
        lambda: _campaign(tier="full", use_cache=False).run("vdd", vdd_values),
        1,
    )
    full_key = _point_key(full_arm.pop("_result"))
    cold_campaign = _campaign(use_cache=False)
    cold_arm = _time(lambda: cold_campaign.run("vdd", vdd_values), 1)
    cold_key = _point_key(cold_arm.pop("_result"))
    warm_arm = _time(lambda: cold_campaign.run("vdd", vdd_values), 1)
    warm_key = _point_key(warm_arm.pop("_result"))
    identical = cold_key == full_key and warm_key == full_key
    tier_l = {
        "parameter": "vdd",
        "points": sweep_points,
        "serial_full_s": full_arm["best_s"],
        "campaign_cold_s": cold_arm["best_s"],
        "campaign_warm_s": warm_arm["best_s"],
        "speedup_cold": round(full_arm["best_s"] / cold_arm["best_s"], 2),
        "speedup_warm": round(full_arm["best_s"] / warm_arm["best_s"], 2),
        "bit_identical": identical,
    }
    print(f"sweep vdd x{sweep_points}: full {tier_l['serial_full_s']:.3f} s, "
          f"campaign cold {tier_l['campaign_cold_s']:.3f} s "
          f"({tier_l['speedup_cold']}x), warm "
          f"{tier_l['campaign_warm_s']:.3f} s ({tier_l['speedup_warm']}x, "
          f"bit-identical: {identical})")
    if not identical:
        print("ERROR: tiered vdd sweep diverged from full re-simulation",
              file=sys.stderr)
        return 1

    # Tier S (l1_size): structural points need full re-simulation; the
    # engine wins by fanning them out over workers against a warm
    # persistent profile cache.
    l1_sizes = [8192, 16384, 65536]
    serial_arm = _time(
        lambda: _campaign(use_cache=False).run("l1_size", l1_sizes), 1
    )
    serial_key = _point_key(serial_arm.pop("_result"))
    sweep_cache = tempfile.mkdtemp(prefix="repro-bench-sweep-cache-")
    try:
        _campaign(cache_dir=sweep_cache, workers=args.workers).run(
            "l1_size", l1_sizes
        )
        warm_parallel_arm = _time(
            lambda: _campaign(cache_dir=sweep_cache, workers=args.workers).run(
                "l1_size", l1_sizes
            ),
            1,
        )
        warm_parallel_key = _point_key(warm_parallel_arm.pop("_result"))
    finally:
        shutil.rmtree(sweep_cache, ignore_errors=True)
    identical = warm_parallel_key == serial_key
    tier_s = {
        "parameter": "l1_size",
        "points": len(l1_sizes),
        "workers": args.workers,
        "cpu_count": cpu_count,
        "serial_cold_s": serial_arm["best_s"],
        "parallel_warm_s": warm_parallel_arm["best_s"],
        "speedup": round(
            serial_arm["best_s"] / warm_parallel_arm["best_s"], 2
        ),
        "bit_identical": identical,
    }
    print(f"sweep l1_size x{len(l1_sizes)}: serial cold "
          f"{tier_s['serial_cold_s']:.3f} s, workers={args.workers} warm "
          f"cache {tier_s['parallel_warm_s']:.3f} s "
          f"({tier_s['speedup']}x, bit-identical: {identical})")
    if not identical:
        print("ERROR: parallel warm-cache sweep diverged from serial",
              file=sys.stderr)
        return 1
    report["sweep_serial_vs_campaign"] = {"tier_l": tier_l, "tier_s": tier_s}

    # Counter ingestion: export the suite's jess log in the external
    # schema, re-ingest it through the identity mapping, verify the
    # re-priced ledger is bit-identical to pricing the simulated log
    # directly, then time a ledger-only vdd sweep over the ingested
    # bundle (sweep_source) — the re-pricing path an external perf log
    # takes, with the tier-L warm campaign as the reference.
    from repro.ingest import (  # noqa: PLC0415
        CounterMapping,
        ingest_log,
        read_counter_log,
        write_counter_log_json,
    )

    jess_result = results["jess"]
    ingest_dir = tempfile.mkdtemp(prefix="repro-bench-ingest-")
    try:
        counters_path = os.path.join(ingest_dir, "jess_counters.json")
        write_counter_log_json(jess_result.timeline.log, counters_path)
        ingest_timing = _time(
            lambda: ingest_log(
                read_counter_log(counters_path), CounterMapping.identity()
            ),
            max(3, args.repeats),
        )
        ingested_run = ingest_timing.pop("_result")
    finally:
        shutil.rmtree(ingest_dir, ignore_errors=True)
    direct_ledger = jess_result.model.price(jess_result.timeline.log)
    ingested_ledger = jess_result.model.price(ingested_run)
    round_trip_identical = (
        ingested_ledger.components == direct_ledger.components
    )
    ingest_points = 50 if args.quick else 200
    ingest_vdd_values = [
        round(base_vdd * (0.80 + 0.002 * index), 6)
        for index in range(ingest_points)
    ]
    reprice_timing = _time(
        lambda: sweep_source(ingested_run, "vdd", ingest_vdd_values),
        max(3, args.repeats),
    )
    reprice_timing.pop("_result")
    reprice_pps = ingest_points / reprice_timing["best_s"]
    tier_l_pps = tier_l["points"] / tier_l["campaign_warm_s"]
    ingest_stage = {
        "log_records": len(jess_result.timeline.log),
        "ingest": ingest_timing,
        "round_trip_bit_identical": round_trip_identical,
        "reprice_points": ingest_points,
        "reprice": reprice_timing,
        "reprice_points_per_sec": round(reprice_pps, 1),
        "tier_l_warm_points_per_sec": round(tier_l_pps, 1),
    }
    report["ingest"] = ingest_stage
    print(f"ingest (jess, {ingest_stage['log_records']} records): parse+map "
          f"{ingest_timing['best_s']:.3f} s, vdd x{ingest_points} re-price "
          f"{reprice_timing['best_s']:.3f} s ({reprice_pps:,.0f} points/s "
          f"vs tier-L warm {tier_l_pps:,.0f}; round-trip bit-identical: "
          f"{round_trip_identical})")
    if not round_trip_identical:
        print("ERROR: ingested round-trip diverged from direct pricing",
              file=sys.stderr)
        return 1

    # Fidelity ladder: atomic and sampled execution vs detailed Mipsy
    # over the whole suite.  Profiling wall time is the figure of merit
    # (that is the layer the tiers accelerate); instr/s is *represented*
    # instructions — every tier accounts for the same budget, the cheap
    # tiers just execute less of it.  Energies come from full
    # (untimed) runs on the already-computed profiles.  The tiers are
    # approximations, so the check is bounded error, not bit-identity;
    # the speedup gates need full-size windows (the detailed warmup /
    # measured-window floors and the atomic slice floor are fixed
    # costs, so short windows skip proportionally less) and are
    # enforced only in full mode.
    fid_window = window if args.quick else max(window, 60_000)
    fid_tiers = ("detailed", "sampled", "atomic")
    fid_runs: dict = {}
    for tier in fid_tiers:
        tier_sw = SoftWatt(
            cpu_model="mipsy", window_instructions=fid_window, seed=seed,
            use_cache=False, fidelity=tier,
        )
        timing = _time(
            lambda sw=tier_sw: [sw.profile(name) for name in BENCHMARK_NAMES],
            1,
        )
        profiles = timing.pop("_result")
        instructions = sum(_profile_instructions(p) for p in profiles)
        timing["instructions_represented"] = instructions
        timing["instructions_per_sec"] = round(
            instructions / timing["best_s"], 1
        )
        fid_runs[tier] = {
            "timing": timing,
            "results": {
                name: tier_sw.run(name) for name in BENCHMARK_NAMES
            },
        }
    fid_detailed = fid_runs["detailed"]
    detailed_ips = fid_detailed["timing"]["instructions_per_sec"]
    fid_stage: dict = {
        "cpu_model": "mipsy",
        "window_instructions": fid_window,
        "quick": args.quick,
        "speedup_gates_enforced": not args.quick,
        "detailed": fid_detailed["timing"],
    }
    error_limits = {"sampled": 0.02, "atomic": 0.10}
    # The sampled gate carries real margin: the reference host has
    # measured the same build anywhere from 2.75x to 3.05x across
    # runs, so a 3.0x gate was flaky by construction.  The error
    # bounds above are the contract; the speedup gates only catch
    # order-of-magnitude regressions.
    speedup_gates = {"sampled": 2.5, "atomic": 10.0}
    failures = []
    for tier in ("sampled", "atomic"):
        timing = fid_runs[tier]["timing"]
        speedup = timing["instructions_per_sec"] / detailed_ips
        energy_errors = {}
        component_errors: dict[str, float] = {}
        for name in BENCHMARK_NAMES:
            got = fid_runs[tier]["results"][name]
            want = fid_detailed["results"][name]
            energy_errors[name] = round(
                abs(got.total_energy_j - want.total_energy_j)
                / want.total_energy_j,
                5,
            )
            got_components = got.energy_ledger().components
            want_components = want.energy_ledger().components
            for component, want_j in want_components.items():
                # Per-component error as a share of the run's total
                # detailed energy: relative-to-itself error on a
                # microjoule component is noise, not fidelity.
                error = abs(
                    got_components.get(component, 0.0) - want_j
                ) / want.total_energy_j
                component_errors[component] = max(
                    component_errors.get(component, 0.0), round(error, 5)
                )
        max_error = max(energy_errors.values())
        entry = {
            **timing,
            "speedup_vs_detailed": round(speedup, 2),
            "energy_error_by_benchmark": energy_errors,
            "max_energy_error": max_error,
            "max_component_error_of_total": component_errors,
            "error_limit": error_limits[tier],
            "speedup_gate": speedup_gates[tier],
        }
        fid_stage[tier] = entry
        print(f"fidelity {tier} (mipsy, window {fid_window}): "
              f"{timing['best_s']:.3f} s, "
              f"{timing['instructions_per_sec']:,.0f} instr/s "
              f"({speedup:.2f}x detailed), max energy error "
              f"{max_error * 100:.2f}%")
        if max_error > error_limits[tier]:
            failures.append(
                f"{tier} tier max energy error {max_error * 100:.2f}% "
                f"exceeds {error_limits[tier] * 100:.0f}%"
            )
        if not args.quick and speedup < speedup_gates[tier]:
            failures.append(
                f"{tier} tier speedup {speedup:.2f}x below "
                f"{speedup_gates[tier]:.0f}x gate"
            )
    report["fidelity_tiers"] = fid_stage
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    if failures:
        return 1

    # Estimation service: an in-process `repro serve` answering
    # `POST /run` over loopback HTTP.  Cold = the first request on a
    # fresh engine (detailed profiling happens inside the request);
    # warm = the resident instance pricing from memory.  Both answers
    # must match the serial pipeline's jess run to the last bit.
    from repro.serve import (  # noqa: PLC0415
        EstimationEngine,
        EstimationHTTPServer,
        ServeClient,
        serve_forever,
    )

    def _percentile_ms(sorted_s: list, q: float) -> float:
        pos = (len(sorted_s) - 1) * q
        lo = int(pos)
        hi = min(lo + 1, len(sorted_s) - 1)
        value = sorted_s[lo] + (sorted_s[hi] - sorted_s[lo]) * (pos - lo)
        return round(value * 1000, 3)

    serve_engine = EstimationEngine(
        window_instructions=window, seed=seed, use_cache=False
    )
    serve_server = EstimationHTTPServer(("127.0.0.1", 0), serve_engine)
    serve_thread = threading.Thread(
        target=serve_forever, args=(serve_server,), daemon=True
    )
    serve_thread.start()
    try:
        with ServeClient(port=serve_server.server_address[1]) as client:
            start = time.perf_counter()
            cold_reply = client.run("jess")
            serve_cold_s = time.perf_counter() - start
            warm_requests = 40 if args.quick else 200
            latencies = []
            warm_reply = cold_reply
            warm_start = time.perf_counter()
            for _ in range(warm_requests):
                begin = time.perf_counter()
                warm_reply = client.run("jess")
                latencies.append(time.perf_counter() - begin)
            warm_wall_s = time.perf_counter() - warm_start
    finally:
        serve_server.begin_drain()
        serve_thread.join(timeout=120)
    pipeline_energy = results["jess"].total_energy_j
    identical = (
        cold_reply.ok
        and warm_reply.ok
        and not cold_reply.payload["degraded"]
        and not warm_reply.payload["degraded"]
        and cold_reply.payload["result"]["total_energy_j"] == pipeline_energy
        and warm_reply.payload["result"]["total_energy_j"] == pipeline_energy
    )
    latencies.sort()
    serve_stage = {
        "cold": {"first_request_s": round(serve_cold_s, 4)},
        "warm": {
            "requests": warm_requests,
            "p50_ms": _percentile_ms(latencies, 0.50),
            "p99_ms": _percentile_ms(latencies, 0.99),
            "requests_per_sec": round(warm_requests / warm_wall_s, 1),
        },
        "bit_identical_to_pipeline": identical,
    }
    report["serve"] = serve_stage
    print(f"serve (jess over HTTP): cold {serve_cold_s:.3f} s, warm "
          f"x{warm_requests} {serve_stage['warm']['requests_per_sec']:,.0f} "
          f"req/s (p50 {serve_stage['warm']['p50_ms']:.1f} ms, p99 "
          f"{serve_stage['warm']['p99_ms']:.1f} ms, bit-identical: "
          f"{identical})")
    if not identical:
        print("ERROR: served answer diverged from the serial pipeline",
              file=sys.stderr)
        return 1

    # Single-flight serving: 32 concurrent identical warm requests over
    # HTTP against 32 direct warm engine.estimate calls.  Every served
    # response must be bit-identical to the direct reply; deduplication
    # must make the served path >= 2x requests/sec.
    concurrency = 32
    batch_payload = {"benchmark": "jess"}

    direct_engine = EstimationEngine(
        window_instructions=window, seed=seed, use_cache=False
    )
    solo_result = direct_engine.estimate(batch_payload)["result"]
    start = time.perf_counter()
    direct_replies = [
        direct_engine.estimate(batch_payload) for _ in range(concurrency)
    ]
    direct_s = time.perf_counter() - start
    direct = {
        "wall_s": round(direct_s, 4),
        "requests_per_sec": round(concurrency / direct_s, 1),
        "bit_identical_to_solo": all(
            reply["status"] == 200 and reply["result"] == solo_result
            for reply in direct_replies
        ),
    }

    def _fire_concurrent(port, payload, count):
        replies = [None] * count
        barrier = threading.Barrier(count + 1)

        def worker(i):
            with ServeClient(port=port, timeout_s=600) as worker_client:
                worker_client.healthz()  # connect before the clock starts
                barrier.wait()
                replies[i] = worker_client.post("/run", payload)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(count)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()  # all connections up: the clock starts here
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        return replies, time.perf_counter() - start

    served_engine = EstimationEngine(
        window_instructions=window, seed=seed, use_cache=False
    )
    served_server = EstimationHTTPServer(
        ("127.0.0.1", 0), served_engine, queue_depth=concurrency * 2
    )
    served_thread = threading.Thread(
        target=serve_forever, args=(served_server,), daemon=True
    )
    served_thread.start()
    try:
        with ServeClient(port=served_server.server_address[1]) as client:
            warm_reply = client.post("/run", batch_payload)
        replies, served_s = _fire_concurrent(
            served_server.server_address[1], batch_payload, concurrency
        )
        scheduler_snapshot = served_server.scheduler.snapshot()
    finally:
        served_server.begin_drain()
        served_thread.join(timeout=300)
    single_flight = {
        "wall_s": round(served_s, 4),
        "requests_per_sec": round(concurrency / served_s, 1),
        "bit_identical_to_solo": warm_reply.payload["result"] == solo_result
        and all(
            reply.status == 200 and reply.payload["result"] == solo_result
            for reply in replies
        ),
        "coalesced_replies": sum(
            1 for reply in replies if reply.payload.get("coalesced")
        ),
    }
    for name, arm in (("direct", direct), ("single_flight", single_flight)):
        if not arm["bit_identical_to_solo"]:
            print(f"ERROR: serve_batch {name} arm diverged from the "
                  f"solo reply", file=sys.stderr)
            return 1
    if solo_result["total_energy_j"] != pipeline_energy:
        print("ERROR: serve_batch solo reference diverged from the "
              "serial pipeline", file=sys.stderr)
        return 1
    batch_speedup = round(
        single_flight["requests_per_sec"] / direct["requests_per_sec"], 2
    )
    report["serve_batch"] = {
        "concurrency": concurrency,
        "direct": direct,
        "single_flight": single_flight,
        "speedup": batch_speedup,
        "scheduler": scheduler_snapshot,
    }
    print(f"serve batch (jess x{concurrency}): direct "
          f"{direct['requests_per_sec']:,.0f} req/s, single-flight "
          f"{single_flight['requests_per_sec']:,.0f} req/s "
          f"({batch_speedup}x, {single_flight['coalesced_replies']} "
          f"coalesced, bit-identical: true)")
    if batch_speedup < 2.0:
        print(f"ERROR: single-flight serving speedup {batch_speedup}x "
              f"below 2x gate", file=sys.stderr)
        return 1

    if (
        window == SEED_BASELINE["window_instructions"]
        and seed == SEED_BASELINE["seed"]
    ):
        baseline = SEED_BASELINE["suite_serial_cold_s"]
        report["speedup_vs_seed_serial"] = round(baseline / serial["best_s"], 2)
        line = (f"cold-suite speedup vs seed commit (serial baseline "
                f"{baseline} s): serial {baseline / serial['best_s']:.2f}x")
        if parallel is not None:
            best_cold = min(serial["best_s"], parallel["best_s"])
            report["speedup_parallel_vs_seed_serial"] = round(
                baseline / parallel["best_s"], 2
            )
            report["speedup_best_cold_vs_seed_serial"] = round(
                baseline / best_cold, 2
            )
            line += f", workers={args.workers} {baseline / parallel['best_s']:.2f}x"
        print(line)

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
