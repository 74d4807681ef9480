"""Rung golden: atomic and sampled benchmark profiles are bit-identical.

``tests/data/rung_golden.json`` was recorded by
``scripts/rung_golden.py``.  Every (rung, CPU model, benchmark) entry
replays through ``Profiler.profile_benchmark`` and must reproduce the
SHA-256 of its checkpoint encoding, its total cycles and its total
instructions.
"""

import json
import pathlib

import pytest

from repro.workloads.specjvm98 import BENCHMARK_NAMES
from scripts.rung_golden import CPU_MODELS, TIERS, entry_id, rung_record

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "rung_golden.json"

GOLDEN = json.loads(GOLDEN_PATH.read_text())
ENTRIES = GOLDEN["entries"]
CASES = [
    (tier, cpu_model, name)
    for tier in TIERS
    for cpu_model in CPU_MODELS
    for name in BENCHMARK_NAMES
]


def test_golden_covers_every_rung_model_and_benchmark():
    assert sorted(ENTRIES) == sorted(entry_id(*case) for case in CASES)
    assert len(ENTRIES) == 24


@pytest.mark.parametrize("case", CASES, ids=[entry_id(*case) for case in CASES])
def test_rung_profile_reproduces_golden(case):
    assert rung_record(*case) == ENTRIES[entry_id(*case)]
