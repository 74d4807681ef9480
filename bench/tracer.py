"""Outside-in span tracer for the benchmark's traced runs.

The program under test carries no instrumentation, so a traced run
attributes host time by wrapping the public entry points of each layer
from here (:func:`install`), in every process that does the work: the
repetition processes, the fork-pool workers they start (which inherit
the wrappers and flush their spans to a per-pid file after each task),
and the ``repro serve`` subprocess (through ``serve_launcher.py``).

Each wrapped call is a span: name, start, end, parent and op id.  Self
time is a span's duration minus the part its child spans cover.  The
wrapper's own cost is calibrated before the wrappers go in and
subtracted for every wrapped call, so the split describes the untraced
program.  Coarse spans are also kept as Chrome trace events; the
per-instruction boundaries (instruction stream, memory hierarchy) are
only counted, which keeps the trace file small.

Timestamps come from ``time.perf_counter_ns``, which is
``CLOCK_MONOTONIC`` on Linux, so spans from different processes share
one time axis.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import statistics
import threading
import time

clock = time.perf_counter_ns

ROOT = "op"
"""Layer name of the span around one timed operation (the root)."""

STAGE_LAYERS = {
    # metric name: profiling stage whose inclusive time it reports (the
    # isa, cpu and mem time inside a stage is also in those layers)
    "profiles.benchmark_ms": "profiles.benchmark",
    "profiles.service_ms": "profiles.service",
    "profiles.idle_ms": "profiles.idle",
}

TIME_LAYERS = {
    # metric name: layer whose self time it reports
    "isa.stream_ms": "isa.stream",
    "cpu.self_ms": "cpu",
    "mem.self_ms": "mem",
    "checkpoint.store_ms": "checkpoint.store",
    "campaign.plan_ms": "campaign.plan",
    "campaign.fanout_ms": "campaign.fanout",
    "timeline.run_ms": "timeline.run",
    "timeline.disk_series_ms": "timeline.disk_series",
    "pricing.trace_ms": "pricing.trace",
    "pricing.model_build_ms": "pricing.model_build",
    "pricing.price_ms": "pricing.price",
    "pricing.ledger_ms": "pricing.ledger",
    "serve.queue_ms": "serve.queue",
    "serve.estimate_ms": "serve.estimate",
    "serve.payload_ms": "serve.payload",
    "serve.encode_ms": "serve.encode",
}

COVERAGE_FLOOR = 0.9


class _Thread:
    """One thread's open-span stack, accumulators and events."""

    __slots__ = ("stack", "layers", "events", "op", "tid")

    def __init__(self, tid: int) -> None:
        self.stack: list[list] = []
        self.layers: dict[str, list[int]] = {}
        self.events: list[tuple] = []
        self.op = None
        self.tid = tid


class _Probe:
    """Stands in for a wrapped method during calibration."""

    def access(self, address, *, write=False):
        return None


class _TimedIterator:
    """An iterator whose every ``next`` is a wrapped call."""

    __slots__ = ("_next",)

    def __init__(self, next_fn) -> None:
        self._next = next_fn

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


class Tracer:
    """Spans in memory, per thread; written out with :meth:`dump`.

    Accumulators per layer: ``[self_ns, inclusive_ns, calls, extra]``,
    already corrected for the wrapper cost; ``extra`` is a layer's own
    count (instructions executed, batch lanes).
    """

    def __init__(self, label: str = "bench") -> None:
        self.label = label
        self.op = None
        self.cost = {"call": (0, 0), "iter": (0, 0)}
        """Per-call wrapper cost (inside, outside) the span window, ns."""
        self.flush_path: str | None = None
        self.spans_dir: str | None = None
        self._patches: list[tuple] = []
        self._adopted: dict = {}
        self._reset()
        os.register_at_fork(after_in_child=self._forked)

    def _reset(self) -> None:
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._lock = threading.Lock()

    def _forked(self) -> None:
        # A fork-pool worker starts with an empty record of its own and
        # flushes it to a per-pid file the parent merges.
        self._reset()
        if self.spans_dir is not None:
            self.flush_path = os.path.join(
                self.spans_dir, f"spans-{os.getpid()}.json"
            )

    def thread(self) -> _Thread:
        try:
            return self._local.state
        except AttributeError:
            state = _Thread(threading.get_ident())
            with self._lock:
                self._threads.append(state)
            self._local.state = state
            return state

    # -- spans ------------------------------------------------------------

    def _finish(self, state, frame, start, end, c_in, c_out, events) -> tuple:
        """Close ``frame``; returns what it adds to a parent span:
        (covered ns, wrapper overhead ns inside the parent)."""
        stack = state.stack
        stack.pop()
        duration = end - start
        layer = frame[2]
        acc = state.layers.get(layer)
        if acc is None:
            acc = state.layers[layer] = [0, 0, 0, 0]
        acc[0] += duration - frame[0] - c_in
        acc[1] += duration - c_in - frame[1]
        acc[2] += 1
        as_child = (duration + c_out, frame[1] + c_in + c_out)
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[0] += as_child[0]
            parent[1] += as_child[1]
        if events:
            op = state.op if state.op is not None else self.op
            state.events.append(
                (layer, start, end, parent[2] if parent else None, op)
            )
        return as_child

    def wrap(self, layer: str, fn, *, kind: str = "call", events: bool = True,
             count=None):
        """``fn`` timed as a span of ``layer``; ``count(args, result)``
        adds to the layer's ``extra`` counter."""
        c_in, c_out = self.cost[kind]
        thread = self.thread
        finish = self._finish

        def wrapper(*args, **kwargs):
            state = thread()
            frame = [0, 0, layer]
            state.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(state, frame, start, clock(), c_in, c_out, events)
            if count is not None:
                state.layers[layer][3] += count(args, result)
            return result

        try:
            functools.update_wrapper(wrapper, fn)
        except AttributeError:
            pass  # a method-wrapper has no __dict__ to copy
        return wrapper

    def publish(self, key, layer: str, fn):
        """``fn`` timed as a span whose cost another thread adopts
        (:meth:`adopting`) under ``key(args, kwargs)``."""
        c_in, c_out = self.cost["call"]
        thread = self.thread
        finish = self._finish
        adopted = self._adopted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = thread()
            state.op = key(args, kwargs)
            frame = [0, 0, layer]
            state.stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                adopted[state.op] = finish(
                    state, frame, start, clock(), c_in, c_out, True
                )

        return wrapper

    def adopting(self, key, layer: str, fn):
        """``fn`` timed as a span that waits for a span published on
        another thread under ``key(args, kwargs)`` and counts it as its
        child (a request's queue wait minus its estimate)."""
        c_in, c_out = self.cost["call"]
        thread = self.thread
        finish = self._finish
        adopted = self._adopted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = thread()
            frame = [0, 0, layer]
            state.stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                child = adopted.pop(key(args, kwargs), None)
                if child is not None:
                    frame[0] += child[0]
                    frame[1] += child[1]
                finish(state, frame, start, end, c_in, c_out, True)

        return wrapper

    def timed_iterator(self, layer: str, iterator):
        return _TimedIterator(
            self.wrap(layer, iterator.__next__, kind="iter", events=False)
        )

    # -- calibration ----------------------------------------------------

    def calibrate(self, calls: int = 20_000, rounds: int = 7) -> dict:
        """Measure the wrapper's per-call cost inside and outside the
        span window (minimum over ``rounds``), for both wrapper kinds.
        Calls are method calls with and without a keyword argument, the
        shapes of the most frequent wrapped calls (memory accesses)."""
        state = self.thread()
        best: dict[str, list[float]] = {"call": [], "iter": []}
        for _ in range(rounds):
            self.cost = {"call": (0, 0), "iter": (0, 0)}
            wrapped_probe = type("_WrappedProbe", (), {
                "access": self.wrap("_calibrate", _Probe.access, events=False),
            })()
            timed = self.timed_iterator("_calibrate_iter", iter(range(calls)))
            # Bare costs: the loop itself, plain method calls, plain next().
            probe = _Probe()
            start = clock()
            for index in range(calls):
                pass
            empty = clock() - start
            start = clock()
            for index in range(calls):
                probe.access(index)
                probe.access(index, write=True)
            bare_call = clock() - start
            items = iter(range(calls))
            start = clock()
            for _ in items:
                pass
            bare_next = clock() - start
            # Wrapped costs, measured under a parent span as in real use.
            state.stack.append([0, 0, "_calibrate_parent"])
            start = clock()
            for index in range(calls):
                wrapped_probe.access(index)
                wrapped_probe.access(index, write=True)
            wrapped_call = clock() - start
            start = clock()
            for _ in timed:
                pass
            wrapped_next = clock() - start
            state.stack.pop()
            inside_call = state.layers.pop("_calibrate")[1] / (2 * calls)
            inside_next = state.layers.pop("_calibrate_iter")[1] / calls
            best["call"].append((
                (wrapped_call - bare_call) / (2 * calls),
                inside_call - (bare_call - empty) / (2 * calls),
            ))
            best["iter"].append((
                (wrapped_next - bare_next) / calls,
                inside_next - bare_next / calls,
            ))
        cost = {}
        for kind, samples in best.items():
            total, inside = min(samples)
            inside = max(0.0, min(inside, total))
            cost[kind] = (round(inside), round(total - inside))
        self.cost = cost
        return cost

    # -- installation ---------------------------------------------------

    def patch(self, owner, name: str, replacement) -> None:
        original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def flush(self) -> None:
        if self.flush_path is not None:
            self.dump(self.flush_path)

    # -- output ---------------------------------------------------------

    def snapshot(self) -> dict:
        layers: dict[str, list[int]] = {}
        events = []
        for state in list(self._threads):
            for name, acc in state.layers.items():
                total = layers.setdefault(name, [0, 0, 0, 0])
                for index, value in enumerate(acc):
                    total[index] += value
            events.extend([*event, state.tid] for event in state.events)
        return {
            "pid": os.getpid(),
            "label": self.label,
            "cost": self.cost,
            "layers": layers,
            "events": events,
        }

    def dump(self, path: str) -> None:
        partial = f"{path}.partial"
        with open(partial, "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(partial, path)


def read_spans(directory: str) -> list[dict]:
    """Every per-pid span file a fork pool left in ``directory``."""
    dumps = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.json"))):
        with open(path) as handle:
            dumps.append(json.load(handle))
    return dumps


# ---------------------------------------------------------------------------
# The layer boundaries, wrapped from outside
# ---------------------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap the simulator, sweep and pricing layers' public entry points."""
    from repro.core import campaign, softwatt  # noqa: PLC0415 - needs src on the path
    from repro.core.checkpoint import ProfileCache  # noqa: PLC0415
    from repro.core.profiles import Profiler  # noqa: PLC0415
    from repro.core.report import BenchmarkResult  # noqa: PLC0415
    from repro.core.timeline import TimelineSimulator  # noqa: PLC0415
    from repro.cpu import batch  # noqa: PLC0415
    from repro.cpu.mipsy import MipsyProcessor  # noqa: PLC0415
    from repro.cpu.mxs import MXSProcessor  # noqa: PLC0415
    from repro.kernel.scheduler import InterleavedWorkload  # noqa: PLC0415
    from repro.mem.hierarchy import MemoryHierarchy  # noqa: PLC0415
    from repro.power.processor import ProcessorPowerModel  # noqa: PLC0415
    from repro import parallel  # noqa: PLC0415
    from repro.resilience import supervisor  # noqa: PLC0415

    def method(owner, name, layer, **options):
        tracer.patch(owner, name, tracer.wrap(layer, vars(owner)[name], **options))

    def function(modules, name, layer, **options):
        # Patched where each caller looks the name up.
        wrapped = tracer.wrap(layer, getattr(modules[0], name), **options)
        for module in modules:
            tracer.patch(module, name, wrapped)

    method(Profiler, "profile_benchmark", "profiles.benchmark")
    method(Profiler, "profile_service", "profiles.service")
    method(Profiler, "profile_idle", "profiles.idle")
    instructions = {"count": lambda args, stats: stats.instructions}
    method(MXSProcessor, "run", "cpu", **instructions)
    method(MipsyProcessor, "run", "cpu", **instructions)
    for name in ("fetch", "data_access", "tlb_refill"):
        method(MemoryHierarchy, name, "mem", events=False)
    workload_iter = vars(InterleavedWorkload)["__iter__"]
    tracer.patch(
        InterleavedWorkload,
        "__iter__",
        lambda self: tracer.timed_iterator("isa.stream", workload_iter(self)),
    )
    tracer.patch(
        batch,
        "profile_benchmarks_batched",
        tracer.wrap(
            "cpu.batch",
            batch.profile_benchmarks_batched,
            count=lambda args, result: len(args[0]),
        ),
    )
    method(ProfileCache, "store_profile", "checkpoint.store")
    method(ProfileCache, "store_service", "checkpoint.store")
    method(campaign.SweepCampaign, "plan_grid", "campaign.plan")
    function((campaign,), "classify", "campaign.plan", events=False)
    tracer.patch(
        parallel,
        "supervised_map",
        tracer.wrap("campaign.fanout", parallel.supervised_map),
    )
    task = tracer.wrap("campaign.task", supervisor._invoke)

    @functools.wraps(supervisor._invoke)
    def invoke(*args):
        # Runs in a fork-pool worker, which the pool terminates rather
        # than lets exit, so spans are flushed after every task.
        try:
            return task(*args)
        finally:
            tracer.flush()

    tracer.patch(supervisor, "_invoke", invoke)
    method(TimelineSimulator, "run", "timeline.run")
    function((softwatt, campaign), "disk_power_series", "timeline.disk_series")
    function((softwatt, campaign), "compute_power_trace", "pricing.trace")
    method(ProcessorPowerModel, "__init__", "pricing.model_build")
    method(ProcessorPowerModel, "price", "pricing.price", events=False)
    method(BenchmarkResult, "energy_ledger", "pricing.ledger")


def install_serve(tracer: Tracer) -> None:
    """:func:`install` plus the estimation server's request path."""
    from repro.serve import engine  # noqa: PLC0415 - needs src on the path
    from repro.serve.batching import BatchScheduler  # noqa: PLC0415
    from repro.serve.server import (  # noqa: PLC0415
        EstimationHandler,
        EstimationHTTPServer,
    )

    install(tracer)
    next_ordinal = vars(EstimationHTTPServer)["next_ordinal"]

    def ordinal(server):
        # The request id every span of this handler thread carries.
        index = next_ordinal(server)
        tracer.thread().op = index
        return index

    tracer.patch(EstimationHTTPServer, "next_ordinal", ordinal)
    tracer.patch(
        EstimationHandler, "do_POST",
        tracer.wrap("serve.handler", vars(EstimationHandler)["do_POST"]),
    )
    tracer.patch(
        EstimationHandler, "_send_json",
        tracer.wrap("serve.encode", vars(EstimationHandler)["_send_json"]),
    )

    def request_index(args, kwargs):
        return kwargs.get("index", -1)

    # The scheduler's dispatcher thread runs a request's estimate while
    # the handler thread waits in submit(); the handler adopts it.
    tracer.patch(
        BatchScheduler, "submit",
        tracer.adopting(request_index, "serve.queue", vars(BatchScheduler)["submit"]),
    )
    tracer.patch(
        engine.EstimationEngine, "estimate",
        tracer.publish(
            request_index, "serve.estimate",
            vars(engine.EstimationEngine)["estimate"],
        ),
    )
    tracer.patch(
        engine, "_result_payload",
        tracer.wrap("serve.payload", engine._result_payload),
    )


# ---------------------------------------------------------------------------
# From merged spans to per-layer metrics
# ---------------------------------------------------------------------------


def merge_layers(dumps: list[dict]) -> dict[str, list[int]]:
    """Accumulators summed over processes."""
    layers: dict[str, list[int]] = {}
    for dump in dumps:
        for name, acc in dump["layers"].items():
            total = layers.setdefault(name, [0, 0, 0, 0])
            for index, value in enumerate(acc):
                total[index] += value
    return layers


def coverage(layers: dict[str, list[int]], root: str) -> float:
    """Share of the root spans' time that named layers' self time covers
    (1 minus the root's own self time over its inclusive time)."""
    acc = layers.get(root)
    if acc is None or acc[1] <= 0:
        return 0.0
    return 1.0 - max(0, acc[0]) / acc[1]


def layer_metrics(layers: dict[str, list[int]], *, ops: int, root: str,
                  workers: int = 2) -> dict[str, float]:
    """Per-op layer metrics from merged accumulators."""

    def self_ns(name):
        return max(0, layers.get(name, [0, 0, 0, 0])[0])

    def acc(name, index):
        return layers.get(name, [0, 0, 0, 0])[index]

    per_op = max(1, ops)
    metrics = {
        metric: max(0, acc(layer, 1)) / per_op / 1e6
        for metric, layer in STAGE_LAYERS.items()
    }
    for metric, layer in TIME_LAYERS.items():
        metrics[metric] = self_ns(layer) / per_op / 1e6
    simulated_ns = self_ns("isa.stream") + self_ns("cpu") + self_ns("mem")
    metrics["cpu.sim_ips"] = (
        acc("cpu", 3) / (simulated_ns / 1e9) if simulated_ns else 0.0
    )
    metrics["mem.calls"] = acc("mem", 2) / per_op
    metrics["cpu.batch_lanes"] = acc("cpu.batch", 3) / per_op
    fanout_ns = acc("campaign.fanout", 1)
    metrics["campaign.worker_busy_share"] = (
        acc("campaign.task", 1) / (workers * fanout_ns) if fanout_ns else 0.0
    )
    metrics["pricing.ledger_calls_per_op"] = acc("pricing.ledger", 2) / per_op
    metrics["coverage"] = coverage(layers, root)
    return metrics


def trace_overhead(untraced_s: list[float], traced_s: list[float]) -> float:
    """Traced over untraced median operation time, minus one."""
    if not untraced_s or not traced_s:
        return 0.0
    return statistics.median(traced_s) / statistics.median(untraced_s) - 1.0


def chrome_trace(dumps: list[dict]) -> dict:
    """Chrome trace-event JSON (Perfetto opens it) of every process."""
    starts = [event[1] for dump in dumps for event in dump["events"]]
    origin = min(starts) if starts else 0
    events = []
    for dump in dumps:
        events.append({
            "ph": "M", "name": "process_name", "pid": dump["pid"],
            "args": {"name": dump["label"]},
        })
        for layer, start, end, parent, op, tid in dump["events"]:
            events.append({
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1000,
                "dur": (end - start) / 1000,
                "pid": dump["pid"],
                "tid": tid,
                "args": {"parent": parent, "op": op},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
