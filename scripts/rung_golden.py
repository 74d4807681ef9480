#!/usr/bin/env python
"""Record the rung golden: sub-detailed benchmark profiles, bit for bit.

``tests/data/golden_energy.json`` pins the detailed rung only; the
fidelity error bounds check the atomic and sampled rungs loosely.  This
file pins their exact output: for every (rung, CPU model, benchmark) it
stores the SHA-256 of the profile's ``encode_profile`` output plus the
total cycles and instructions over all phases, at a small window so
the replay stays fast.

``tests/test_rung_golden.py`` replays the file and asserts identical
digests.  Regenerate only when an *intentional* numerical change to a
rung lands::

    PYTHONPATH=src python scripts/rung_golden.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.config.system import SystemConfig  # noqa: E402
from repro.core.checkpoint import encode_profile  # noqa: E402
from repro.core.profiles import Profiler  # noqa: E402
from repro.workloads.specjvm98 import BENCHMARK_NAMES, benchmark  # noqa: E402

SEED = 1
WINDOW = 4000
TIERS = ("atomic", "sampled")
CPU_MODELS = ("mipsy", "mxs")

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / (
    "tests/data/rung_golden.json"
)


def rung_record(tier: str, cpu_model: str, name: str) -> dict:
    """One rung profile's digest and totals, JSON-ready."""
    profile = Profiler(
        SystemConfig.table1().with_fidelity(tier),
        cpu_model=cpu_model,
        window_instructions=WINDOW,
        seed=SEED,
    ).profile_benchmark(benchmark(name))
    encoded = json.dumps(encode_profile(profile), sort_keys=True)
    chunks = [
        chunk for phase in profile.phases.values() for chunk in phase.chunks
    ]
    return {
        "sha256": hashlib.sha256(encoded.encode()).hexdigest(),
        "cycles": sum(chunk.cycles for chunk in chunks),
        "instructions": sum(chunk.instructions for chunk in chunks),
    }


def entry_id(tier: str, cpu_model: str, name: str) -> str:
    return f"{tier}/{cpu_model}/{name}"


def snapshot() -> dict:
    entries = {
        entry_id(tier, cpu_model, name): rung_record(tier, cpu_model, name)
        for tier in TIERS
        for cpu_model in CPU_MODELS
        for name in BENCHMARK_NAMES
    }
    return {"seed": SEED, "window_instructions": WINDOW, "entries": entries}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    args.out.write_text(json.dumps(snapshot(), indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
