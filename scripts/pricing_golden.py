#!/usr/bin/env python
"""Record the pricing golden: registry evaluation beyond Table 1.

``tests/data/golden_energy.json`` pins the whole pipeline at the Table 1
design point.  This file pins the pricing layer alone over a spread of
inputs it never sees there: seeded random counters (all-zero counters,
``stores > l1d_access``, float-valued slices, counts up to ~1e12) priced
under supply-voltage, calibration and feature-size changes and under the
structural changes that alter the geometry-derived per-access energies
(L1/L2 size and associativity, TLB entries, issue width).

Each case stores its inputs next to every component and category energy
as ``float.hex``, so ``tests/test_pricing_golden.py`` replays the file
without regenerating anything and asserts bit-identical results.

Regenerate only when an *intentional* numerical change lands::

    PYTHONPATH=src python scripts/pricing_golden.py
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config.system import SystemConfig  # noqa: E402
from repro.power.processor import ProcessorPowerModel  # noqa: E402
from repro.stats.counters import COUNTER_FIELDS, AccessCounters  # noqa: E402

SEED = 2002

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / (
    "tests/data/pricing_golden.json"
)

#: Config overrides, one dict per SystemConfig field to ``replace``.
CONFIGS: tuple[dict, ...] = (
    {},
    {"technology": {"vdd": 2.5}},
    {"technology": {"vdd": 1.8, "calibration": 0.7}},
    {"technology": {"calibration": 1.3}},
    {"technology": {"feature_size_um": 0.25}},
    {"l1d": {"size_bytes": 64 * 1024, "associativity": 4}},
    {"l1i": {"size_bytes": 16 * 1024, "associativity": 1}},
    {"l2": {"size_bytes": 2 * 1024 * 1024, "associativity": 8}},
    {"l2": {"size_bytes": 256 * 1024}},
    {"tlb": {"entries": 128}},
    {"core": {"issue_width": 8}},
    {"core": {"issue_width": 2}, "technology": {"vdd": 2.0}},
)


def build_config(overrides: dict) -> SystemConfig:
    """Table 1 with ``{field: {attr: value}}`` overrides applied."""
    config = SystemConfig.table1()
    for field, values in overrides.items():
        config = dataclasses.replace(
            config, **{field: dataclasses.replace(getattr(config, field), **values)}
        )
    return config.validate()


def counter_cases(rng: random.Random) -> list[tuple[dict, int]]:
    """(counters, cycles) pairs covering the rules' edge cases."""
    cases: list[tuple[dict, int]] = [({}, rng.randint(1, 10_000))]
    moderate = {name: rng.randint(0, 50_000) for name in COUNTER_FIELDS}
    cases.append((moderate, rng.randint(10_000, 100_000)))
    # More stores than data-cache accesses: the min() branch of l1d.
    starved = {name: rng.randint(0, 5_000) for name in COUNTER_FIELDS}
    starved["l1d_access"] = rng.randint(1, 1_000)
    starved["stores"] = starved["l1d_access"] + rng.randint(1, 1_000)
    cases.append((starved, rng.randint(1_000, 20_000)))
    huge = {name: rng.randint(10**9, 10**12) for name in COUNTER_FIELDS}
    cases.append((huge, rng.randint(10**11, 10**12)))
    # Timeline mode and label slices carry scaled, float-valued counts.
    scaled = {name: rng.uniform(0.0, 1e7) for name in COUNTER_FIELDS}
    cases.append((scaled, rng.randint(10**6, 10**8)))
    # A sparse interval: a few units busy, the rest idle.
    sparse = {
        name: rng.randint(1, 10**6)
        for name in rng.sample(COUNTER_FIELDS, 6)
    }
    cases.append((sparse, rng.randint(1, 10**6)))
    return cases


def hex_values(values: dict[str, float]) -> dict[str, str]:
    """Energies as exact ``float.hex`` strings."""
    return {name: float.hex(value) for name, value in values.items()}


def snapshot() -> dict:
    rng = random.Random(SEED)
    cases = []
    for overrides in CONFIGS:
        model = ProcessorPowerModel(build_config(overrides))
        for counters, cycles in counter_cases(rng):
            ledger = model.ledger(AccessCounters(**counters), cycles)
            cases.append({
                "config": overrides,
                "counters": counters,
                "cycles": cycles,
                "components": hex_values(ledger.components),
                "categories": hex_values(ledger.categories),
            })
    return {"seed": SEED, "cases": cases}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    args.out.write_text(json.dumps(snapshot(), indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
