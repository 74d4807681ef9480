"""Workload sizes and seeded inputs shared by the benchmark's scripts.

Pure stdlib: ``run.py`` imports this before it knows whether the
program under test (``src/repro``) is present at all.

Every input the program sees is drawn here from the workload seed, so
the same ``--seed`` gives the same inputs in every process that asks.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
"""Scratch space of runs (temp caches, counter logs, span files), one
subdirectory per run, removed when the run ends; ignored by git."""
OUT_DIR = BENCH_DIR / "out"
"""Result JSON and Chrome traces; ignored by git."""

BENCHMARKS = ("compress", "jess", "db", "javac", "mtrt", "jack")
CPU_MODELS = ("mxs", "mipsy")
DISKS = (1, 2, 3, 4)
IDLE_POLICIES = ("busywait", "halt")

WORKLOADS = ("suite_cold", "sweep_structural", "sweep_ledger", "reprice", "serve_warm")

# A workload with "reps" runs that many repetitions, each setting up and
# then running operations for seconds/reps; the others run one operation
# (a cold suite, a structural grid) per repetition, at least two of them.
FULL = {
    "suite_cold": {"window": 40_000, "benchmarks": BENCHMARKS},
    "sweep_structural": {
        "window": 15_000,
        "grid": {"l1_size": [8192, 16384, 65536], "tlb_entries": [48, 96]},
        "workers": 2,
    },
    "sweep_ledger": {"window": 15_000, "vdd_values": 20, "calibration_values": 5,
                     "reps": 3},
    "reprice": {"window": 15_000, "values": 1000, "reps": 3},
    "serve_warm": {"window": 40_000, "benchmarks": BENCHMARKS, "connections": 2},
}

SMOKE = {
    "suite_cold": {"window": 2_000, "benchmarks": ("jess", "db")},
    "sweep_structural": {
        "window": 2_000,
        "grid": {"l1_size": [8192, 65536], "tlb_entries": [64]},
        "workers": 2,
    },
    "sweep_ledger": {"window": 2_000, "vdd_values": 4, "calibration_values": 2,
                     "reps": 2},
    "reprice": {"window": 2_000, "values": 20, "reps": 2},
    "serve_warm": {"window": 2_000, "benchmarks": ("jess", "db"), "connections": 2},
}


def sizes(workload: str, smoke: bool) -> dict:
    """The size parameters of one workload."""
    return (SMOKE if smoke else FULL)[workload]


def ledger_axes(seed: int, op: int, size: dict) -> dict:
    """Grid axes of ledger-tier op ``op``: distinct supply voltages and
    calibration factors around Table 1 (3.3 V, 2.267)."""
    rng = random.Random(f"ledger:{seed}:{op}")
    vdd = sorted(v / 1000 for v in rng.sample(range(2800, 3801), size["vdd_values"]))
    calibration = sorted(
        c / 1000 for c in rng.sample(range(1800, 2701), size["calibration_values"])
    )
    return {"vdd": vdd, "calibration": calibration}


def reprice_values(seed: int, op: int, size: dict) -> list[float]:
    """Supply voltages of re-pricing op ``op``."""
    rng = random.Random(f"reprice:{seed}:{op}")
    return [v / 1000 for v in rng.sample(range(2500, 4001), size["values"])]


def serve_keys(seed: int, size: dict, count: int) -> list[dict]:
    """``count`` request bodies drawn uniformly from every
    (benchmark, disk, idle policy, CPU model) combination."""
    rng = random.Random(f"serve:{seed}")
    return [
        {
            "benchmark": rng.choice(size["benchmarks"]),
            "disk": rng.choice(DISKS),
            "idle_policy": rng.choice(IDLE_POLICIES),
            "cpu_model": rng.choice(CPU_MODELS),
        }
        for _ in range(count)
    ]


def check_rng(seed: int, workload: str) -> random.Random:
    """The generator that picks which output a workload re-derives offline."""
    return random.Random(f"check:{workload}:{seed}")


def digest(value) -> str:
    """SHA-256 of a JSON-ready value (exact: floats survive json)."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
