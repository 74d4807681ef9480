#!/usr/bin/env python
"""Record the service golden: per-invocation kernel-service profiles.

``tests/data/golden_energy.json`` pins whole runs, which read only each
service's mean counters.  This file pins the Table 5 / Figure 8 side as
well: for every kernel service, the per-invocation cycles and energies,
the per-category mean energy, the mean counters and the instructions
per invocation, as returned by ``SoftWatt.service_profiles``.  It covers
Table 1, a supply-voltage / feature-size / calibration variant and a
16 KiB L1D variant, each on both CPU models, at a small invocation
count so the replay stays fast.

Floats are stored as ``float.hex`` (counters are integers), so
``tests/test_service_golden.py`` replays the file and asserts
bit-identical results.

Regenerate only when an *intentional* numerical change lands::

    PYTHONPATH=src python scripts/service_golden.py
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.core.softwatt import SoftWatt  # noqa: E402
from repro.kernel.modes import KERNEL_SERVICES  # noqa: E402
from scripts.pricing_golden import build_config, hex_values  # noqa: E402

SEED = 5
INVOCATIONS = 4
CPU_MODELS = ("mxs", "mipsy")

#: Config overrides, one dict per SystemConfig field to ``replace``.
CONFIGS: tuple[dict, ...] = (
    {},
    {"technology": {"vdd": 2.5, "feature_size_um": 0.25, "calibration": 1.3}},
    {"l1d": {"size_bytes": 16 * 1024}},
)

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / (
    "tests/data/service_golden.json"
)


def service_record(profile) -> dict:
    """One service profile in its exact, JSON-ready form."""
    return {
        "cycles": [float.hex(value) for value in profile.cycles],
        "energies_j": [float.hex(value) for value in profile.energies_j],
        "category_energy_j": hex_values(profile.category_energy_j),
        "mean_counters": dict(profile.mean_counters.items()),
        "instructions_per_invocation": float.hex(
            profile.instructions_per_invocation
        ),
    }


def measure(overrides: dict, cpu_model: str) -> dict:
    """Every kernel service's record under one (config, CPU model)."""
    softwatt = SoftWatt(
        config=build_config(overrides), cpu_model=cpu_model, seed=SEED,
        use_cache=False,
    )
    profiles = softwatt.service_profiles(invocations=INVOCATIONS)
    return {name: service_record(profiles[name]) for name in KERNEL_SERVICES}


def snapshot() -> dict:
    cases = [
        {
            "config": overrides,
            "cpu_model": cpu_model,
            "services": measure(overrides, cpu_model),
        }
        for overrides in CONFIGS
        for cpu_model in CPU_MODELS
    ]
    return {"seed": SEED, "invocations": INVOCATIONS, "cases": cases}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    args.out.write_text(json.dumps(snapshot(), indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
