"""Run one benchmark workload, check its outputs, and print its metrics.

    python3 bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
                         [--out FILE] [--trace-dir DIR] [--smoke]

Workloads (see README.md for why each exists): ``suite_cold``,
``sweep_structural``, ``sweep_ledger``, ``reprice`` and ``serve_warm``.
Inputs are drawn from ``--seed``; ``--seconds`` is the measured time.
The program under test is the checkout's ``src/repro``; every
repetition runs it in a fresh interpreter (``rep.py``), and
``serve_warm`` starts ``repro serve`` as a subprocess.

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json;
with ``--trace 1`` it traces the layers from outside (``tracer.py``),
prints every per-layer metric and writes a Chrome trace (Perfetto opens
it) to ``--trace-dir``.  Each metric is printed as ``name value unit``;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, with provenance, goes to
``--out``.  Exit status: 0 when every check passed, 1 when a check
failed, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import itertools
import json
import math
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from typing import NamedTuple

import common
import tracer as tracing

clock = tracing.clock

WORK = common.WORK_DIR / str(os.getpid())
"""This run's scratch space (runs in one checkout do not share it)."""
REP_TIMEOUT_S = 150
SERVER_START_TIMEOUT_S = 60
SERVER_STOP_TIMEOUT_S = 60
SERVE_KEYS = 4096
"""Length of the seeded request sequence (cycled if a run outpaces it)."""


class BenchError(RuntimeError):
    """The run could not produce measurements at all."""


class Sample(NamedTuple):
    """One ``POST /run`` round trip of the closed loop."""

    index: int
    start: int
    end: int
    status: int
    payload: dict
    caller: int


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ---------------------------------------------------------------------------
# Repetitions in fresh interpreters
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(common.SRC), env.get("PYTHONPATH")])
    )
    env["TMPDIR"] = str(WORK / "tmp")
    env.pop("REPRO_CACHE_DIR", None)  # a persistent cache would warm "cold" runs
    return env


def spawn_rep(workload: str, index: int, args, *, seconds: float, traced: bool,
              check: bool) -> dict:
    work = WORK / f"{workload}-{index}"
    work.mkdir()
    out = work / "rep.json"
    command = [
        sys.executable, str(common.BENCH_DIR / "rep.py"), workload,
        "--seed", str(args.seed), "--out", str(out), "--work", str(work),
        "--seconds", repr(seconds),
    ]
    command += ["--trace"] * traced + ["--check"] * check + ["--smoke"] * args.smoke
    spawn_ns = clock()
    try:
        subprocess.run(
            command, env=child_env(), cwd=common.ROOT, stdout=subprocess.DEVNULL,
            timeout=REP_TIMEOUT_S, check=True,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        raise BenchError(f"{workload} repetition {index} failed: {error}") from None
    record = json.loads(out.read_text())
    record["spawn_ns"] = spawn_ns
    record["traced"] = traced
    return record


def run_repetitions(workload: str, args, size: dict) -> list[dict]:
    """Repetitions until the measured time is reached, and at least two
    (one operation each for the single-operation workloads).  With
    tracing, repetition 0 stays untraced: it is the overhead baseline."""
    reps: list[dict] = []
    if "reps" in size:
        for index in range(size["reps"]):
            reps.append(spawn_rep(
                workload, index, args, seconds=args.seconds / size["reps"],
                traced=args.trace and index > 0, check=index == 0,
            ))
        return reps
    measured = 0.0
    while measured < args.seconds or len(reps) < 2:
        index = len(reps)
        rep = spawn_rep(workload, index, args, seconds=0.0,
                        traced=args.trace and index > 0, check=index == 0)
        reps.append(rep)
        measured += sum(end - start for start, end, *_ in rep["ops"]) / 1e9
    return reps


# ---------------------------------------------------------------------------
# Checks: each returns the list of failures (empty when correct)
# ---------------------------------------------------------------------------


def check_repeats(reps: list[dict]) -> list[str]:
    """Operation ``k`` gets the same inputs in every repetition, so its
    output must be identical in each."""
    failures = []
    first: dict[int, str] = {}
    for index, rep in enumerate(reps):
        for op, output in enumerate(rep["digests"]):
            if first.setdefault(op, output) != output:
                failures.append(
                    f"repetition {index} op {op} differs from its first run"
                )
    return failures


def check_suite(reps: list[dict], size: dict) -> list[str]:
    failures = check_repeats(reps)
    for index, rep in enumerate(reps):
        energies = rep["first"]
        missing = sorted(set(size["benchmarks"]) - set(energies))
        if missing:
            failures.append(f"repetition {index} is missing {', '.join(missing)}")
        for name, values in energies.items():
            if not all(math.isfinite(value) and value > 0 for value in values):
                failures.append(f"repetition {index} {name}: non-positive {values}")
        if rep["invariants"] != reps[0]["invariants"]:
            failures.append(f"repetition {index} simulated statistics differ")
    return failures


def check_reference(reps: list[dict], point_of) -> list[str]:
    """The SEED-chosen point of a repetition's first operation must equal
    its offline re-derivation."""
    checked = [rep for rep in reps if "reference" in rep]
    if not checked:
        return ["no offline reference was computed"]
    failures = []
    for rep in checked:
        reference = rep["reference"]
        if point_of(rep["first"], reference["index"]) != reference["point"]:
            failures.append(
                f"point {reference['index']} differs from its offline re-derivation"
            )
    return failures


def check_sweep(reps: list[dict], tier: str) -> list[str]:
    failures = check_repeats(reps)
    for index, rep in enumerate(reps):
        tiers = set(rep["first"]["tiers"])
        if tiers != {tier}:
            failures.append(
                f"repetition {index} ran tiers {sorted(tiers)}, expected {tier}"
            )
    return failures + check_reference(
        reps, lambda output, index: output["points"][index]
    )


def check_reprice(reps: list[dict]) -> list[str]:
    failures = check_repeats(reps)
    failures += check_reference(reps, lambda output, index: output[index])
    for rep in reps:
        reference = rep.get("reference")
        if reference is not None and reference["direct"] != reference["ingested"]:
            failures.append("ingested counters price differently from the direct log")
    return failures


def served_ok(sample: Sample) -> bool:
    """A 200 that is neither degraded nor stale."""
    payload = sample.payload
    return sample.status == 200 and not payload.get("degraded") and not payload.get(
        "stale"
    )


def request_key(sample: Sample) -> str:
    return json.dumps(sample.payload["request"], sort_keys=True)


def check_serve(samples: list[Sample], warm_failures: list[str],
                offline: list[tuple[dict, dict]]) -> list[str]:
    failures = list(warm_failures)
    results: dict[str, dict] = {}
    for sample in samples:
        if not served_ok(sample):
            failures.append(
                f"request {sample.index}: status {sample.status}, degraded "
                f"{sample.payload.get('degraded')}, stale {sample.payload.get('stale')}"
            )
            continue
        key = request_key(sample)
        result = sample.payload["result"]
        if results.setdefault(key, result) != result:
            failures.append(f"request {sample.index}: reply differs from earlier {key}")
    for served, expected in offline:
        for field, value in expected.items():
            if served.get(field) != value:
                failures.append(
                    f"{served.get('benchmark')}/{served.get('cpu_model')}: served "
                    f"{field} differs from the offline run"
                )
                break
    return failures


# ---------------------------------------------------------------------------
# The fresh-process workloads
# ---------------------------------------------------------------------------


def ops_of(reps: list[dict], traced: bool) -> list[list]:
    return [op for rep in reps if rep["traced"] == traced for op in rep["ops"]]


def measure_repetitions(workload: str, args, size: dict) -> dict:
    reps = run_repetitions(workload, args, size)
    if workload == "suite_cold":
        failures = check_suite(reps, size)
    elif workload == "sweep_structural":
        failures = check_sweep(reps, "STRUCTURAL")
    elif workload == "sweep_ledger":
        failures = check_sweep(reps, "LEDGER")
    else:
        failures = check_reprice(reps)
    ops = ops_of(reps, traced=False)
    durations = [(end - start) / 1e9 for start, end, *_ in ops]
    done = sum(op[2] for op in ops)
    attempted = sum(op[3] for op in ops)
    measurement = {
        "failures": failures,
        "attempted": attempted,
        "failed": attempted - done,
        "samples": {"repetitions": len(reps), "ops": len(ops)},
        "end_to_end": {
            "setup_s": statistics.median(
                (rep["setup_end_ns"] - rep["spawn_ns"]) / 1e9 for rep in reps
            ),
            "op_p50_ms": percentile(durations, 0.50) * 1e3,
            "items_per_s": done / sum(durations),
            "peak_rss_mib": max(rep["rss_mib"] for rep in reps),
        },
        "invariants": {
            "outputs_sha256": reps[0]["digests"][0],
            **reps[0].get("invariants", {}),
        },
    }
    if args.trace:
        traced = [rep for rep in reps if rep["traced"]]
        dumps = [dump for rep in traced for dump in rep["trace"]]
        layers = tracing.merge_layers(dumps)
        traced_ops = ops_of(reps, traced=True)
        metrics = tracing.layer_metrics(
            layers, ops=len(traced_ops), root=tracing.ROOT,
            workers=size.get("workers", 1),
        )
        metrics["trace_overhead"] = tracing.trace_overhead(
            durations, [(end - start) / 1e9 for start, end, *_ in traced_ops]
        )
        invariants = reps[0].get("invariants", {})
        for name, value in invariants.get("model", {}).items():
            metrics[f"model.{name}"] = value
        if "table2_energy_error_pp" in invariants:
            metrics["model.table2_error_pp"] = invariants["table2_energy_error_pp"]
        measurement["per_layer"] = metrics
        measurement["dumps"] = dumps
    return measurement


# ---------------------------------------------------------------------------
# serve_warm: repro serve over loopback, closed loop
# ---------------------------------------------------------------------------


def read_lines(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


def wait_for_line(lines: queue.Queue, prefix: str, timeout_s: float) -> str:
    deadline = clock() + timeout_s * 1e9
    while True:
        remaining = (deadline - clock()) / 1e9
        try:
            line = lines.get(timeout=max(0.0, remaining))
        except queue.Empty:
            raise BenchError(f"server did not print {prefix!r}") from None
        if line is None:
            raise BenchError(f"server exited before printing {prefix!r}")
        if line.startswith(prefix):
            return line.strip()


def peak_rss_of(pid: int) -> float:
    """VmHWM of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError(f"no VmHWM for process {pid}")


def closed_loop(client_class, port: int, keys: list[dict], counter,
                seconds: float, connections: int) -> list[Sample]:
    """``connections`` callers, each sending its next request only after
    the previous reply, for ``seconds``."""
    samples: list[Sample] = []
    ready = threading.Barrier(connections + 1, timeout=SERVER_START_TIMEOUT_S)
    stop = [0]

    def caller(number):
        with client_class(port=port, timeout_s=60) as client:
            client.healthz()  # connect before the clock starts
            ready.wait()
            while clock() < stop[0]:
                index = next(counter)
                start = clock()
                try:
                    reply = client.post("/run", keys[index % len(keys)])
                    status, payload = reply.status, reply.payload
                except (OSError, http.client.HTTPException) as error:
                    status, payload = 0, {"error": str(error)}
                samples.append(Sample(index, start, clock(), status, payload, number))

    threads = [
        threading.Thread(target=caller, args=(number,))
        for number in range(connections)
    ]
    for thread in threads:
        thread.start()
    stop[0] = clock() + int(seconds * 1e9)
    try:
        ready.wait()
    except threading.BrokenBarrierError:
        raise BenchError("a client could not connect to the server") from None
    finally:
        for thread in threads:
            thread.join()
    return samples


def offline_answers(args, samples: list[Sample]) -> list[tuple[dict, dict]]:
    """One SEED-chosen mxs key and one mipsy key, priced offline."""
    served: dict[str, dict] = {}
    for sample in samples:
        if served_ok(sample):
            served.setdefault(request_key(sample), sample.payload["result"])
    rng = common.check_rng(args.seed, "serve_warm")
    chosen = []
    for model in common.CPU_MODELS:
        candidates = sorted(key for key in served if json.loads(key)["cpu_model"] == model)
        if candidates:
            chosen.append(rng.choice(candidates))
    if not chosen:
        return []
    work = WORK / "serve-offline"
    work.mkdir()
    out = work / "rep.json"
    bodies = [
        {name: json.loads(key)[name] for name in ("benchmark", "disk", "idle_policy",
                                                  "cpu_model")}
        for key in chosen
    ]
    command = [
        sys.executable, str(common.BENCH_DIR / "rep.py"), "serve_offline",
        "--seed", str(args.seed), "--out", str(out), "--work", str(work),
        "--keys", json.dumps(bodies),
    ] + ["--smoke"] * args.smoke
    try:
        subprocess.run(command, env=child_env(), cwd=common.ROOT,
                       stdout=subprocess.DEVNULL, timeout=REP_TIMEOUT_S, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        raise BenchError(f"offline serve check failed: {error}") from None
    payloads = json.loads(out.read_text())["payloads"]
    return [(served[key], expected) for key, expected in zip(chosen, payloads)]


def stop_server(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)  # graceful drain
        try:
            process.wait(timeout=SERVER_STOP_TIMEOUT_S)
            return
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()


def warm_up(client, size: dict) -> tuple[dict[str, dict], list[str]]:
    """One request per (benchmark, CPU model), so every profile is
    resident; returns the replies' results and any failures."""
    results, failures = {}, []
    for benchmark in size["benchmarks"]:
        for model in common.CPU_MODELS:
            reply = client.run(benchmark, cpu_model=model)
            if reply.status == 200:
                results[f"{benchmark}/{model}"] = reply.payload["result"]
            else:
                failures.append(f"warm-up {benchmark}/{model}: status {reply.status}")
    return results, failures


def serve_layer_metrics(server: dict, traced: list[Sample],
                        untraced_s: list[float]) -> dict:
    """Per-request layer metrics from the server's spans and the traced
    phase's round trips."""
    layers = tracing.merge_layers([server])
    handler = layers.get("serve.handler", [0, 0, 0, 0])
    requests = handler[2]
    metrics = tracing.layer_metrics(layers, ops=requests, root="serve.handler")
    handler_ms = handler[1] / max(1, requests) / 1e6
    traced_s = [(sample.end - sample.start) / 1e9 for sample in traced]
    metrics["serve.handler_ms"] = handler_ms
    metrics["serve.wire_ms"] = statistics.fmean(traced_s) * 1e3 - handler_ms
    metrics["serve.coalesced_share"] = sum(
        bool(sample.payload.get("coalesced")) for sample in traced
    ) / len(traced)
    metrics["trace_overhead"] = tracing.trace_overhead(untraced_s, traced_s)
    return metrics


def measure_serve(args, size: dict) -> dict:
    sys.path.insert(0, str(common.SRC))
    from repro.serve.client import ServeClient  # noqa: PLC0415 - src is checked first

    spans = WORK / "serve-spans.json"
    command = [
        sys.executable, str(common.BENCH_DIR / "serve_launcher.py"),
        *(["--spans", str(spans)] if args.trace else []),
        "--", "--port", "0", "--no-cache", "--window", str(size["window"]),
        "--seed", str(args.seed),
    ]
    lines: queue.Queue = queue.Queue()
    keys = common.serve_keys(args.seed, size, SERVE_KEYS)
    counter = itertools.count()
    phases: list[list[Sample]] = []
    with open(WORK / "serve.stderr", "w") as stderr:
        spawn_ns = clock()
        process = subprocess.Popen(
            command, env=child_env(), cwd=common.ROOT, stdout=subprocess.PIPE,
            stderr=stderr, text=True,
        )
        reader = threading.Thread(target=read_lines, args=(process.stdout, lines))
        reader.start()
        try:
            listening = wait_for_line(lines, "listening on http://",
                                      SERVER_START_TIMEOUT_S)
            port = int(listening.rsplit(":", 1)[1])
            with ServeClient(port=port, timeout_s=120) as client:
                warm_results, warm_failures = warm_up(client, size)
            setup_s = (clock() - spawn_ns) / 1e9
            connections = size["connections"]
            if args.trace:
                phases.append(closed_loop(ServeClient, port, keys, counter,
                                          args.seconds / 3, connections))
                process.send_signal(signal.SIGUSR1)
                wait_for_line(lines, "tracing on", SERVER_START_TIMEOUT_S)
                phases.append(closed_loop(ServeClient, port, keys, counter,
                                          args.seconds * 2 / 3, connections))
            else:
                phases.append(closed_loop(ServeClient, port, keys, counter,
                                          args.seconds, connections))
            rss_mib = peak_rss_of(process.pid)
        finally:
            stop_server(process)
            reader.join()
            process.stdout.close()
    samples = [sample for phase in phases for sample in phase]
    failures = check_serve(samples, warm_failures, offline_answers(args, samples))
    untraced = phases[0]
    durations = [(sample.end - sample.start) / 1e9 for sample in untraced]
    wall_s = (
        max(sample.end for sample in untraced) - min(sample.start for sample in untraced)
    ) / 1e9
    keys_served = {request_key(sample) for sample in samples if served_ok(sample)}
    measurement = {
        "failures": failures,
        "attempted": len(samples) + len(size["benchmarks"]) * len(common.CPU_MODELS),
        "failed": sum(not served_ok(sample) for sample in samples)
        + len(warm_failures),
        # The tail is reported, not gated: on a shared host it swings with
        # other tenants' load more than any bound could absorb.
        "samples": {
            "requests": len(untraced),
            "keys": len(keys_served),
            "p90_ms": percentile(durations, 0.90) * 1e3,
        },
        "end_to_end": {
            "setup_s": setup_s,
            "op_p50_ms": percentile(durations, 0.50) * 1e3,
            "items_per_s": sum(map(served_ok, untraced)) / wall_s,
            "peak_rss_mib": rss_mib,
        },
        "invariants": {"outputs_sha256": common.digest(warm_results)},
    }
    if args.trace:
        traced = phases[1]
        server = json.loads(spans.read_text())
        measurement["per_layer"] = serve_layer_metrics(server, traced, durations)
        client = {
            "pid": os.getpid(), "label": "serve_warm client", "layers": {},
            "events": [
                ["client.request", sample.start, sample.end, None, sample.index,
                 sample.caller]
                for sample in traced
            ],
        }
        measurement["dumps"] = [server, client]
    return measurement


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read without running git; "unknown" when
    the checkout is not a git repository."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, size: dict) -> dict:
    return {
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def load_spec() -> dict:
    with open(common.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def report(args, size: dict, measurement: dict) -> dict:
    spec = load_spec()
    section, values = (
        ("per_layer", measurement.get("per_layer", {})) if args.trace
        else ("end_to_end", measurement["end_to_end"])
    )
    metrics = {}
    for entry in spec[section]:
        value = values.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    failures = list(measurement["failures"])
    if measurement["failed"]:
        failures.append(
            f"{measurement['failed']} of {measurement['attempted']} items failed"
        )
    if args.trace and values.get("coverage", 0.0) < tracing.COVERAGE_FLOOR:
        failures.append(
            f"trace coverage {values.get('coverage', 0.0):.3f} is below "
            f"{tracing.COVERAGE_FLOOR}"
        )
    return {
        "workload": args.workload,
        "provenance": provenance(args, size),
        "correct": not failures,
        "attempted": measurement["attempted"],
        "failed": measurement["failed"],
        "failures": failures,
        "samples": measurement["samples"],
        "metrics": metrics,
        "invariants": measurement["invariants"],
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time per run (default: 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: trace the layers and report per-layer metrics")
    parser.add_argument("--out", help="result JSON (default: bench/out/"
                                      "<workload>-seed<N>-trace<T>.json)")
    parser.add_argument("--trace-dir", default=str(common.OUT_DIR),
                        help="where --trace 1 writes <workload>.trace.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({common.SRC / 'repro'})",
              file=sys.stderr)
        return 2
    size = common.sizes(args.workload, args.smoke)
    (WORK / "tmp").mkdir(parents=True)
    common.OUT_DIR.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    try:
        if args.workload == "serve_warm":
            measurement = measure_serve(args, size)
        else:
            measurement = measure_repetitions(args.workload, args, size)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            common.WORK_DIR.rmdir()  # unless another run is using it
    result = report(args, size, measurement)
    if args.trace:
        trace_path = os.path.join(args.trace_dir, f"{args.workload}.trace.json")
        os.makedirs(args.trace_dir, exist_ok=True)
        with open(trace_path, "w") as handle:
            json.dump(tracing.chrome_trace(measurement["dumps"]), handle)
        print(f"trace: {trace_path}")
    out = args.out or str(
        common.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    )
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1)
    print(f"provenance: {json.dumps(result['provenance'], sort_keys=True)}")
    print("samples: " + ", ".join(f"{k} {v}" for k, v in result["samples"].items()))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
