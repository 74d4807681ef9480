"""Command-line interface to the SoftWatt simulator.

Usage (after ``pip install -e .``)::

    repro validate
    repro run jess --disk 3 --export-trace jess.csv
    repro suite --disk 1
    repro services
    repro disk-study compress
    repro checkpoint --out profiles.json jess db

or equivalently ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from repro.config.diskcfg import DiskPowerPolicy
from repro.config.system import ConfigError, FidelityConfig, FidelityTier
from repro.core.campaign import TIER_NAMES, SweepCampaign
from repro.core.checkpoint import CheckpointError
from repro.core.report import MODE_ORDER, BenchmarkResult
from repro.core.softwatt import SoftWatt
from repro.kernel.modes import KERNEL_SERVICES
from repro.resilience.faults import HANG, FaultPlan
from repro.resilience.supervisor import TaskExecutionError
from repro.workloads.specjvm98 import BENCHMARK_NAMES

_ACTIVE_SOFTWATT: SoftWatt | None = None
"""The command's SoftWatt instance, kept so a Ctrl-C handler can
summarise the partial run report even when the interrupt escaped the
supervisor (e.g. between supervised stages)."""


class UsageError(ValueError):
    """Options that cannot work together; exits 2 before any simulation."""


def _add_resilience(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per profiling task; only "
                             "a worker pool can stop a task, so it needs "
                             "--workers 2 or more (default: none)")
    parser.add_argument("--retries", type=int, default=2,
                        help="retries per profiling task after its first "
                             "attempt (default: 2)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true",
                      help="exit non-zero when anything degraded (retry, "
                           "pool rebuild, serial fallback, cache quarantine)")
    mode.add_argument("--best-effort", action="store_true",
                      help="tolerate tasks that exhaust their retries: skip "
                           "them, report them, keep going")
    parser.add_argument("--fault-plan", metavar="SPEC",
                        help="inject deterministic faults into the profiling "
                             "stage, e.g. 'crash@1,hang@2x2' "
                             "(KIND@INDEX[xATTEMPTS]; exercises recovery)")


def _add_fidelity(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fidelity",
                        choices=[tier.value for tier in FidelityTier],
                        default=FidelityTier.DETAILED.value,
                        help="execution tier for the profiling stage: "
                             "detailed cycle-level cores, SMARTS-style "
                             "periodic sampling, or the atomic functional "
                             "tier (default: detailed)")
    parser.add_argument("--sample-period", type=int, default=None,
                        metavar="N",
                        help="sampled tier: instructions per sampling "
                             "period (default: 7000)")
    parser.add_argument("--sample-window", type=int, default=None,
                        metavar="N",
                        help="sampled tier: detailed measured instructions "
                             "per period (default: 900)")
    parser.add_argument("--warmup", type=int, default=None, metavar="N",
                        help="sampled tier: detailed warmup instructions "
                             "before each measured window (default: 300)")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cpu", choices=("mxs", "mipsy"), default="mxs",
                        help="CPU timing model (default: mxs)")
    parser.add_argument("--window", type=int, default=40_000,
                        help="detailed-window instructions (default: 40000)")
    parser.add_argument("--seed", type=int, default=1)
    _add_fidelity(parser)
    parser.add_argument("--checkpoint", metavar="FILE",
                        help="load profiles from / save profiles to FILE")
    parser.add_argument("--workers", type=int, default=1,
                        help="processes for the profiling stage (default: 1)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="persistent profile cache directory "
                             "(default: $REPRO_CACHE_DIR, or disabled)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore the persistent profile cache")
    _add_resilience(parser)


def _resilience_kwargs(args: argparse.Namespace) -> dict:
    """Supervision options; every fan-out stage honours them at any
    worker count, except what only a worker pool can interrupt."""
    fault_plan = None
    if getattr(args, "fault_plan", None):
        try:
            fault_plan = FaultPlan.parse(args.fault_plan, hang_seconds=3600.0)
        except ValueError as error:
            raise UsageError(str(error)) from None
    if getattr(args, "workers", 1) <= 1:
        # An in-process task cannot be stopped: a hang would block for
        # an hour and a timeout would never fire.
        if fault_plan is not None and any(
            spec.kind == HANG for spec in fault_plan.specs
        ):
            raise UsageError("a 'hang' fault needs --workers 2 or more")
        if getattr(args, "task_timeout", None) is not None:
            raise UsageError("--task-timeout needs --workers 2 or more")
    return dict(
        task_timeout=getattr(args, "task_timeout", None),
        retries=getattr(args, "retries", 2),
        best_effort=getattr(args, "best_effort", False),
        fault_plan=fault_plan,
    )


def _finish(softwatt: SoftWatt, args: argparse.Namespace) -> int:
    """Surface the run report; the command's exit code under --strict."""
    report = softwatt.run_report
    cache = softwatt.cache
    if cache is not None and cache.stats.quarantined:
        report.add_degradation(
            "cache-quarantine",
            f"{cache.stats.quarantined} corrupt/stale cache entries moved "
            f"to {cache.quarantine_dir}",
        )
    if report.degraded:
        print()
        print(report.summary())
        if getattr(args, "strict", False):
            print("strict mode: degraded run, exiting non-zero")
            return 1
    return 0


def _fidelity_kwarg(args: argparse.Namespace) -> FidelityConfig:
    """The ``fidelity`` argument for SoftWatt."""
    overrides = {
        name: value
        for name in ("sample_period", "sample_window", "warmup")
        if (value := getattr(args, name, None)) is not None
    }
    return FidelityConfig(tier=FidelityTier.parse(args.fidelity), **overrides)


def _make_softwatt(args: argparse.Namespace) -> SoftWatt:
    global _ACTIVE_SOFTWATT
    softwatt = SoftWatt(cpu_model=args.cpu, window_instructions=args.window,
                        seed=args.seed,
                        fidelity=_fidelity_kwarg(args),
                        workers=getattr(args, "workers", 1),
                        cache_dir=getattr(args, "cache_dir", None),
                        use_cache=not getattr(args, "no_cache", False),
                        **_resilience_kwargs(args))
    _ACTIVE_SOFTWATT = softwatt
    if args.checkpoint:
        try:
            softwatt.load_checkpoint(args.checkpoint)
            print(f"(profiles loaded from {args.checkpoint})")
        except CheckpointError as error:
            if "cannot read" not in str(error):
                raise
            print(f"(no checkpoint at {args.checkpoint} yet; will create it)")
    return softwatt


def _maybe_save(softwatt: SoftWatt, args: argparse.Namespace) -> None:
    if args.checkpoint:
        softwatt.save_checkpoint(args.checkpoint)
        print(f"(profiles saved to {args.checkpoint})")


def _print_report(result: BenchmarkResult) -> None:
    print(result.format_summary())
    print(f"  peak power {result.peak_power_w:.2f} W, "
          f"average {result.average_power_w:.2f} W, "
          f"EDP {result.energy_delay_product:.1f} Js")
    print("\nmode breakdown:")
    for mode in MODE_ORDER:
        row = result.mode_breakdown()[mode]
        print(f"  {mode.value:8s} {row.cycles_pct:6.2f}% cycles  "
              f"{row.energy_pct:6.2f}% energy  ({row.energy_j:.2f} J)")
    print("\nkernel services:")
    for row in result.service_breakdown()[:8]:
        print(f"  {row.service:12s} num={row.invocations:12.0f}  "
              f"{row.kernel_cycles_pct:6.2f}% kernel cycles  "
              f"{row.kernel_energy_pct:6.2f}% kernel energy")
    print("\npower budget:")
    budget = result.power_budget()
    shares = result.power_budget_shares()
    for name in budget:  # registry legend order, disk included
        print(f"  {name:10s} {budget[name]:6.2f} W  {shares[name]:5.1f}%")


def cmd_validate(args: argparse.Namespace) -> int:
    softwatt = _make_softwatt(args)
    power = softwatt.validate_max_power()
    print(f"R10000 maximum power estimate: {power:.1f} W")
    print("paper SoftWatt: 25.3 W; R10000 datasheet: 30 W")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    softwatt = _make_softwatt(args)
    result = softwatt.run(args.benchmark, disk=args.disk,
                          idle_policy=args.idle_policy)
    _print_report(result)
    if args.export_log:
        from repro.stats.export import write_log_csv  # noqa: PLC0415

        write_log_csv(result.timeline.log, args.export_log)
        print(f"\nlog written to {args.export_log}")
    if args.export_trace:
        from repro.stats.export import write_trace_csv  # noqa: PLC0415

        write_trace_csv(result.trace, args.export_trace)
        print(f"trace written to {args.export_trace}")
    if args.export_budget:
        from repro.stats.export import write_ledger_json  # noqa: PLC0415

        write_ledger_json(result.energy_ledger(), args.export_budget,
                          seconds=result.timeline.duration_s)
        print(f"energy ledger written to {args.export_budget}")
    if args.export_counters:
        from repro.ingest import write_counter_log_json  # noqa: PLC0415

        write_counter_log_json(result.timeline.log, args.export_counters)
        print(f"counter log written to {args.export_counters} "
              f"(re-price with: repro ingest {args.export_counters} "
              f"--mapping identity)")
    _maybe_save(softwatt, args)
    return _finish(softwatt, args)


def cmd_components(args: argparse.Namespace) -> int:
    """List the PowerComponent registry (the accounting schema)."""
    from repro.power.registry import REGISTRY  # noqa: PLC0415

    if getattr(args, "json", False):
        import json  # noqa: PLC0415

        document = {
            "components": REGISTRY.schema(),
            "categories": list(REGISTRY.categories),
            "required_counters": list(REGISTRY.required_counters()),
        }
        print(json.dumps(document, indent=2))
        return 0
    print(f"{'component':10s} {'category':10s} counters")
    for component in REGISTRY:
        counters = (
            ", ".join(component.counters)
            if component.counters
            else "(integrated during simulation)"
        )
        print(f"{component.name:10s} {component.category:10s} {counters}")
    print(f"\ncategories (report order): {', '.join(REGISTRY.categories)}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """Price an external counter log through a mapping file."""
    # Deliberately lazy: ingest pulls in the power registry.
    from repro.config.system import SystemConfig  # noqa: PLC0415
    from repro.ingest import (  # noqa: PLC0415
        CounterMapping,
        ingest_log,
        read_counter_log,
    )
    from repro.power.processor import ProcessorPowerModel  # noqa: PLC0415

    log = read_counter_log(args.log)
    if args.mapping == "identity":
        mapping = CounterMapping.identity()
    else:
        mapping = CounterMapping.load(args.mapping)
    run = ingest_log(log, mapping)
    model = ProcessorPowerModel(SystemConfig.table1())
    ledger = model.price(run)
    seconds = run.duration_s
    if args.json:
        import json  # noqa: PLC0415

        document = {
            "source": run.source,
            "mapping": mapping.source,
            "records": len(run),
            "duration_s": seconds,
            "cycles": run.total_cycles(),
            "total_j": ledger.total_j,
            "category_j": ledger.categories,
        }
        if seconds > 0:
            document["category_w"] = ledger.category_power_w(seconds)
        print(json.dumps(document, indent=2))
    else:
        print(f"ingested {run.source} through {mapping.source}: "
              f"{len(run)} interval(s), {run.total_cycles():.3g} cycles "
              f"over {seconds:.2f} s")
        print(f"counter-driven energy: {ledger.total_j:.2f} J "
              f"(no disk: simulation-time components need a timeline)")
        watts = ledger.category_power_w(seconds) if seconds > 0 else {}
        print(f"\n{'category':10s} {'energy J':>9s}" +
              (f" {'avg W':>7s}" if watts else ""))
        for name, joules in ledger.categories.items():
            line = f"{name:10s} {joules:9.2f}"
            if watts:
                line += f" {watts[name]:7.2f}"
            print(line)
    if args.export_budget:
        from repro.stats.export import write_ledger_json  # noqa: PLC0415

        write_ledger_json(ledger, args.export_budget,
                          seconds=seconds if seconds > 0 else None)
        print(f"\nenergy ledger written to {args.export_budget}")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    softwatt = _make_softwatt(args)
    results = softwatt.run_suite(disk=args.disk, names=BENCHMARK_NAMES)
    print(f"{'benchmark':10s} {'dur s':>6s} {'energy J':>9s} {'disk J':>7s} "
          f"{'user%':>6s} {'kern%':>6s} {'idle%':>6s} {'disk%':>6s}")
    for name in BENCHMARK_NAMES:
        if name not in results:  # best-effort casualty, see run report
            print(f"{name:10s} {'SKIPPED':>6s}")
            continue
        result = results[name]
        modes = result.mode_breakdown()
        shares = result.power_budget_shares()
        user, kern, _sync, idle = (modes[m] for m in MODE_ORDER)
        print(f"{name:10s} {result.timeline.duration_s:6.2f} "
              f"{result.total_energy_j:9.1f} {result.disk_energy_j:7.1f} "
              f"{user.cycles_pct:6.1f} {kern.cycles_pct:6.1f} "
              f"{idle.cycles_pct:6.1f} {shares['disk']:6.1f}")
    _maybe_save(softwatt, args)
    return _finish(softwatt, args)


def cmd_services(args: argparse.Namespace) -> int:
    softwatt = _make_softwatt(args)
    cycle_time = softwatt.config.technology.cycle_time_s
    profiles = softwatt.service_profiles(invocations=args.invocations)
    print(f"{'service':12s} {'cycles':>8s} {'energy J':>11s} {'CoD %':>7s} "
          f"{'power W':>8s}")
    for name in KERNEL_SERVICES:
        if name not in profiles:  # best-effort casualty, see run report
            print(f"{name:12s} {'SKIPPED':>8s}")
            continue
        profile = profiles[name]
        print(f"{name:12s} {profile.mean_cycles:8.0f} "
              f"{profile.mean_energy_j:11.4g} "
              f"{profile.coefficient_of_deviation:7.2f} "
              f"{profile.average_power_w(cycle_time):8.2f}")
    return _finish(softwatt, args)


def cmd_disk_study(args: argparse.Namespace) -> int:
    softwatt = _make_softwatt(args)
    print(f"{'policy':16s} {'disk J':>8s} {'total J':>8s} {'idle cyc':>10s} "
          f"{'spindowns':>10s} {'dur s':>7s}")
    for disk in (1, 2, 3, 4):
        result = softwatt.run(args.benchmark, disk=disk)
        print(f"{result.disk_policy_name:16s} {result.disk_energy_j:8.1f} "
              f"{result.total_energy_j:8.1f} {result.idle_cycles:10.3g} "
              f"{result.timeline.disk.state.spindowns:10d} "
              f"{result.timeline.duration_s:7.2f}")
    if args.threshold:
        for threshold in args.threshold:
            policy = DiskPowerPolicy(name=f"custom-{threshold:g}s",
                                     spindown_threshold_s=threshold)
            result = softwatt.run(args.benchmark, disk=policy)
            print(f"{policy.name:16s} {result.disk_energy_j:8.1f} "
                  f"{result.total_energy_j:8.1f} {result.idle_cycles:10.3g} "
                  f"{result.timeline.disk.state.spindowns:10d} "
                  f"{result.timeline.duration_s:7.2f}")
    _maybe_save(softwatt, args)
    return _finish(softwatt, args)


def cmd_report(args: argparse.Namespace) -> int:
    from repro.core.textreport import render_run, render_suite  # noqa: PLC0415

    softwatt = _make_softwatt(args)
    if args.benchmark == "suite":
        results = {
            name: softwatt.run(name, disk=args.disk)
            for name in BENCHMARK_NAMES
        }
        text = render_suite(results)
    else:
        text = render_run(softwatt.run(args.benchmark, disk=args.disk))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    _maybe_save(softwatt, args)
    return _finish(softwatt, args)


def _parse_sweep_value(text: str, parameter: str):
    """Sweep values are ints when integral, floats otherwise.

    The historical parser forced ``int()`` on everything but the
    spin-down threshold, so ``vdd 3.3`` crashed with a raw ValueError;
    junk now gets a message naming the offending parameter.
    """
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"invalid value {text!r} for parameter {parameter!r}; "
            f"expected an integer or a float"
        ) from None


def cmd_sensitivity(args: argparse.Namespace) -> int:
    try:
        values = [_parse_sweep_value(v, args.parameter) for v in args.values]
        axes = {args.parameter: values}
        for spec in args.grid or []:
            name, _, raw = spec.partition("=")
            if not name or not raw:
                raise ValueError(
                    f"invalid --grid spec {spec!r}; expected PARAM=V1,V2,...")
            axes[name] = [_parse_sweep_value(v, name) for v in raw.split(",")]
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    campaign = SweepCampaign(
        benchmark=args.benchmark,
        disk=args.disk,
        window_instructions=args.window,
        seed=args.seed,
        workers=getattr(args, "workers", 1),
        cache_dir=getattr(args, "cache_dir", None),
        use_cache=not getattr(args, "no_cache", False),
        tier=None if args.tier == "auto" else args.tier,
        **_resilience_kwargs(args),
    )
    try:
        if len(axes) > 1:
            result = campaign.run_grid(axes)
        else:
            result = campaign.run(args.parameter, values)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.format())
    if result.tiers:
        counts = Counter(result.tiers)
        summary = ", ".join(
            f"{tier.lower()} x{count}" for tier, count in counts.items()
        )
        print(f"tiers: {summary}")
    if any(fidelity != FidelityTier.DETAILED for fidelity in result.fidelities):
        counts = Counter(result.fidelities)
        summary = ", ".join(
            f"{fidelity} x{count}" for fidelity, count in counts.items()
        )
        print(f"fidelity: {summary}")
    best = result.best_by_edp()
    print(f"best EDP at {result.parameter}={best.value}: "
          f"{best.energy_delay_product:.1f} Js")
    if result.report is not None and result.report.degraded:
        print()
        print(result.report.summary())
        if getattr(args, "strict", False):
            print("strict mode: degraded run, exiting non-zero")
            return 1
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    global _ACTIVE_SOFTWATT
    softwatt = SoftWatt(cpu_model=args.cpu, window_instructions=args.window,
                        seed=args.seed, workers=args.workers,
                        fidelity=_fidelity_kwarg(args),
                        cache_dir=args.cache_dir,
                        use_cache=not args.no_cache,
                        **_resilience_kwargs(args))
    _ACTIVE_SOFTWATT = softwatt
    names = tuple(args.benchmarks or BENCHMARK_NAMES)
    print(f"profiling {', '.join(names)}...")
    profiles = softwatt.profile_many(names)
    for name in names:
        if name not in profiles:
            print(f"  {name}: profiling FAILED, omitted from checkpoint")
    softwatt._cached_service_profiles()
    softwatt.save_checkpoint(args.out)
    print(f"checkpoint written to {args.out}")
    return _finish(softwatt, args)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the estimation server until drained (SIGTERM/SIGINT)."""
    # Deliberately lazy: no other command needs the serving stack.
    import logging  # noqa: PLC0415
    import os  # noqa: PLC0415
    import signal  # noqa: PLC0415

    from repro.resilience.faults import ServeFaultPlan  # noqa: PLC0415
    from repro.serve import (  # noqa: PLC0415
        CircuitBreaker,
        EstimationEngine,
        EstimationHTTPServer,
        UnixEstimationHTTPServer,
        serve_forever,
    )

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
    )
    fault_plan = None
    if args.serve_fault_plan:
        try:
            fault_plan = ServeFaultPlan.parse(
                args.serve_fault_plan, slow_seconds=args.slow_seconds
            )
        except ValueError as error:
            raise UsageError(str(error)) from None
    engine = EstimationEngine(
        window_instructions=args.window,
        seed=args.seed,
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        breaker=CircuitBreaker(
            failure_threshold=args.breaker_failures,
            cooldown_s=args.breaker_cooldown,
        ),
        default_deadline_s=args.default_deadline,
        retries=args.retries,
        fault_plan=fault_plan,
    )
    if args.socket:
        if os.path.exists(args.socket):
            os.unlink(args.socket)  # a previous run's stale socket
        server = UnixEstimationHTTPServer(
            args.socket, engine,
            queue_depth=args.queue_depth, retry_after_s=args.retry_after,
        )
        location = f"unix:{args.socket}"
    else:
        server = EstimationHTTPServer(
            (args.host, args.port), engine,
            queue_depth=args.queue_depth, retry_after_s=args.retry_after,
        )
        location = f"http://{args.host}:{server.server_address[1]}"

    def _drain(signum, frame):
        print(f"(received {signal.Signals(signum).name}; draining)",
              flush=True)
        server.begin_drain()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    if args.warm:
        primed = engine.warm(args.warm.split(","))
        print(f"(warmed {primed} benchmark(s))", flush=True)
    print(f"listening on {location}", flush=True)
    summary = serve_forever(server)
    if args.socket and os.path.exists(args.socket):
        os.unlink(args.socket)
    counters = summary["counters"]
    admission = summary["admission"]
    print(f"drained: {counters['requests']} request(s) "
          f"({counters['ok']} ok, {counters['degraded']} degraded, "
          f"{admission['rejected']} rejected at admission)")
    batching = summary["batching"]
    print(f"batching: {batching['coalesced']} coalesced request(s), "
          f"single-flight hit rate "
          f"{batching['single_flight']['hit_rate']:.0%}")
    if summary["cache"] is not None:
        cache = summary["cache"]
        print(f"cache: {cache['hits']} hit(s), {cache['misses']} miss(es), "
              f"{cache['stores']} store(s), "
              f"{cache['quarantined']} quarantined")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SoftWatt: complete-machine software power estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="R10000 maximum-power validation")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="simulate one benchmark")
    p.add_argument("benchmark", choices=BENCHMARK_NAMES)
    p.add_argument("--disk", type=int, choices=(1, 2, 3, 4), default=1,
                   help="disk configuration (Section 4; default: 1)")
    p.add_argument("--idle-policy", choices=("busywait", "halt"),
                   default="busywait",
                   help="busy-wait idle (IRIX) or halt the CPU (Section 5)")
    p.add_argument("--export-log", metavar="CSV",
                   help="write the simulation log as CSV")
    p.add_argument("--export-trace", metavar="CSV",
                   help="write the power trace as CSV")
    p.add_argument("--export-budget", metavar="JSON",
                   help="write the full-run energy ledger as JSON")
    p.add_argument("--export-counters", metavar="JSON",
                   help="write the run's counter log in the external "
                        "ingestion schema (repro ingest)")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("components",
                       help="list the power-component registry")
    p.add_argument("--json", action="store_true",
                   help="machine-readable schema: per-component "
                        "required counters, categories")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("ingest",
                       help="price an external counter log (no simulation)")
    p.add_argument("log", metavar="LOG",
                   help="counter log: .json (export schema) or .csv "
                        "(perf-stat interval style: time_s,value,event)")
    p.add_argument("--mapping", required=True, metavar="FILE",
                   help="mapping file translating external event names "
                        "onto our counters, or the literal 'identity'")
    p.add_argument("--export-budget", metavar="JSON",
                   help="write the priced energy ledger as JSON")
    p.add_argument("--json", action="store_true",
                   help="machine-readable summary on stdout")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("suite", help="run all six benchmarks")
    p.add_argument("--disk", type=int, choices=(1, 2, 3, 4), default=1)
    _add_common(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("services", help="kernel-service characterisation")
    p.add_argument("--invocations", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=cmd_services)

    p = sub.add_parser("disk-study", help="sweep the disk configurations")
    p.add_argument("benchmark", choices=BENCHMARK_NAMES)
    p.add_argument("--threshold", type=float, action="append",
                   help="additional custom spin-down thresholds (repeatable)")
    _add_common(p)
    p.set_defaults(func=cmd_disk_study)

    p = sub.add_parser("report", help="paper-style text report")
    p.add_argument("benchmark", choices=(*BENCHMARK_NAMES, "suite"))
    p.add_argument("--disk", type=int, choices=(1, 2, 3, 4), default=1)
    p.add_argument("--out", metavar="FILE", help="write to FILE (default: stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sensitivity", help="sweep one design parameter")
    p.add_argument("parameter",
                   help="l1_size | l2_size | window_size | issue_width | "
                        "tlb_entries | vdd | calibration | clock_hz | "
                        "spindown_threshold_s")
    p.add_argument("values", nargs="+", help="values to sweep")
    p.add_argument("--benchmark", choices=BENCHMARK_NAMES, default="jess")
    p.add_argument("--disk", type=int, choices=(1, 2, 3, 4), default=2)
    p.add_argument("--window", type=int, default=15_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--grid", metavar="PARAM=V1,V2,...", action="append",
                   help="additional axis for a multi-parameter grid sweep "
                        "(repeatable; points are the cartesian product)")
    p.add_argument("--tier",
                   choices=("auto", *TIER_NAMES),
                   default="auto",
                   help="force every point through one tier (default: "
                        "classify each point by what it invalidates); "
                        "'sampled'/'atomic' re-simulate every point on "
                        "that cheaper execution tier")
    p.add_argument("--workers", type=int, default=1,
                   help="processes for structural points (default: 1)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="persistent profile cache directory "
                        "(default: $REPRO_CACHE_DIR, or disabled)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore the persistent profile cache")
    _add_resilience(p)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("serve",
                       help="long-running estimation server (HTTP)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8437,
                   help="TCP port (0 picks a free one; default: 8437)")
    p.add_argument("--socket", metavar="PATH",
                   help="serve on a Unix domain socket instead of TCP")
    p.add_argument("--queue-depth", type=int, default=4,
                   help="max in-flight requests before 429 (default: 4)")
    p.add_argument("--retry-after", type=float, default=2.0,
                   metavar="SECONDS",
                   help="Retry-After hint on 429 responses (default: 2)")
    p.add_argument("--breaker-failures", type=int, default=3,
                   help="consecutive detailed-tier failures before the "
                        "circuit breaker opens (default: 3)")
    p.add_argument("--breaker-cooldown", type=float, default=30.0,
                   metavar="SECONDS",
                   help="open time before a half-open probe (default: 30)")
    p.add_argument("--default-deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="deadline for requests that carry none "
                        "(default: unlimited)")
    p.add_argument("--warm", metavar="BENCH1,BENCH2",
                   help="pre-simulate benchmarks before accepting traffic")
    p.add_argument("--window", type=int, default=40_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-dir", metavar="DIR",
                   help="persistent profile cache directory "
                        "(default: $REPRO_CACHE_DIR, or disabled)")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--retries", type=int, default=2)
    p.add_argument("--serve-fault-plan", metavar="SPEC",
                   help="inject deterministic server faults, e.g. "
                        "'slow@2x2,kill@5' (KIND@INDEX[xSPAN]; kinds: "
                        "slow, kill, flood)")
    p.add_argument("--slow-seconds", type=float, default=2.0,
                   help="duration of injected slow-request faults "
                        "(default: 2)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("checkpoint", help="profile benchmarks and save")
    p.add_argument("benchmarks", nargs="*",
                   help="benchmarks to profile (default: all six)")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--cpu", choices=("mxs", "mipsy"), default="mxs")
    p.add_argument("--window", type=int, default=40_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-dir", metavar="DIR")
    p.add_argument("--no-cache", action="store_true")
    _add_fidelity(p)
    _add_resilience(p)
    p.set_defaults(func=cmd_checkpoint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Exit codes: 0 clean (or tolerated degradations without ``--strict``),
    1 degraded under ``--strict`` or a task failed after retries,
    2 invalid system configuration, option combination, fault-plan
    spec or checkpoint,
    130 interrupted (with a partial run-report summary, not a traceback).
    """
    global _ACTIVE_SOFTWATT
    _ACTIVE_SOFTWATT = None
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as error:
        print(f"configuration error: {error}", file=sys.stderr)
        return 2
    except (UsageError, CheckpointError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except TaskExecutionError as error:
        print(f"error: {error}", file=sys.stderr)
        print(error.report.summary(), file=sys.stderr)
        return 1
    except KeyboardInterrupt as error:
        print("interrupted", file=sys.stderr)
        report = getattr(error, "report", None)
        if report is None and _ACTIVE_SOFTWATT is not None:
            report = _ACTIVE_SOFTWATT.run_report
        if report is not None and (report.tasks or report.degraded):
            print(report.summary(), file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
