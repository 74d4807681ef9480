"""Compare two sets of benchmark results against the benchmark's bounds.

    python3 bench/compare.py A.json [A.json ...] -- B.json [B.json ...]

Each file is a result written by ``run.py --out`` (default
``bench/out/<workload>-seed<N>-trace<T>.json``); side A is the baseline.
For every workload on both sides and every end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, the relative
change of the median and the metric's bound.  Results of the same
workload and seed must also agree exactly on their deterministic values:
the first operation's output digest, the simulated statistics
(``model.*``) and the Table 2 energy error.

Exit status 1 when a metric is worse beyond its bound, a deterministic
value differs, a run failed its checks, or B fails more operations than
A; otherwise 0.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def load(paths: list[str]) -> dict[str, list[dict]]:
    """Results grouped by workload."""
    grouped: dict[str, list[dict]] = {}
    for path in paths:
        with open(path) as handle:
            result = json.load(handle)
        result["path"] = path
        grouped.setdefault(result["workload"], []).append(result)
    return grouped


def deterministic(result: dict) -> dict:
    """The values a pure speed-up must leave identical."""
    values = dict(result["invariants"])
    for name, metric in result["metrics"].items():
        if name.startswith("model."):
            values[name] = metric["value"]
    return values


def compare_workload(name: str, side_a: list[dict], side_b: list[dict],
                     spec: dict) -> list[str]:
    problems = []
    for result in side_a + side_b:
        if not result["correct"]:
            problems.append(f"{name}: {result['path']} failed its checks")
    timed_a = [r for r in side_a if not r["provenance"]["trace"]]
    timed_b = [r for r in side_b if not r["provenance"]["trace"]]
    print(f"{name}: A {len(timed_a)} run(s), B {len(timed_b)} run(s)")
    if timed_a and timed_b:
        print(f"  {'metric':<14} {'A q1':>11} {'A median':>11} {'A q3':>11} "
              f"{'B q1':>11} {'B median':>11} {'B q3':>11} {'delta':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            metric_name = metric["name"]
            a = quartiles([r["metrics"][metric_name]["value"] for r in timed_a])
            b = quartiles([r["metrics"][metric_name]["value"] for r in timed_b])
            delta = (b[1] - a[1]) / a[1] if a[1] else 0.0
            worse = delta if metric["better"] == "lower" else -delta
            verdict = "WORSE" if worse > metric["bound"] else ""
            print(f"  {metric_name:<14} {a[0]:11.4g} {a[1]:11.4g} {a[2]:11.4g} "
                  f"{b[0]:11.4g} {b[1]:11.4g} {b[2]:11.4g} {delta:+8.1%} "
                  f"{metric['bound']:6.0%} {verdict}")
            if verdict:
                problems.append(
                    f"{name}: {metric_name} median {delta:+.1%} is worse than "
                    f"its bound {metric['bound']:.0%}"
                )

    def error_share(results):
        attempted = sum(r["attempted"] for r in results)
        return sum(r["failed"] for r in results) / attempted if attempted else 0.0

    share_a, share_b = error_share(side_a), error_share(side_b)
    print(f"  error share: A {share_a:.4g}, B {share_b:.4g}")
    if share_b > share_a:
        problems.append(f"{name}: error share rose from {share_a:.4g} to {share_b:.4g}")
    by_seed: dict[tuple, dict] = {}
    for result in side_a:
        key = (result["provenance"]["seed"], result["provenance"]["smoke"])
        by_seed.setdefault(key, deterministic(result))
    for result in side_b:
        key = (result["provenance"]["seed"], result["provenance"]["smoke"])
        expected = by_seed.get(key)
        if expected is None:
            continue
        values = deterministic(result)
        for field in sorted(set(expected) & set(values)):
            if expected[field] != values[field]:
                problems.append(
                    f"{name} seed {key[0]}: {field} differs "
                    f"({expected[field]} vs {values[field]})"
                )
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    side_a, side_b = load(argv[:split]), load(argv[split + 1:])
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    problems = []
    for name in sorted(set(side_a) & set(side_b)):
        problems += compare_workload(name, side_a[name], side_b[name], spec)
    for name in sorted(set(side_a) ^ set(side_b)):
        print(f"{name}: only on one side, not compared")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
