"""Pricing golden: the registry is bit-identical beyond Table 1.

``tests/data/pricing_golden.json`` was recorded by
``scripts/pricing_golden.py`` before the power models kept their
per-access energies as per-model constants.  Every case carries its
inputs (config overrides, counters, cycles) and every component and
category energy as ``float.hex``; both pricing entry points must
reproduce them to the last bit.
"""

import json
import pathlib

import pytest

from repro.power.processor import ProcessorPowerModel
from repro.stats.counters import AccessCounters
from repro.stats.source import CounterBundle
from scripts.pricing_golden import build_config, hex_values

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "pricing_golden.json"

CASES = json.loads(GOLDEN_PATH.read_text())["cases"]


@pytest.fixture(scope="module")
def models():
    """One model per distinct config, shared by its cases."""
    out = {}
    for case in CASES:
        key = json.dumps(case["config"], sort_keys=True)
        if key not in out:
            out[key] = ProcessorPowerModel(build_config(case["config"]))
    return out


def _model(models, case):
    return models[json.dumps(case["config"], sort_keys=True)]


def test_golden_covers_the_edge_cases():
    configs = {json.dumps(case["config"], sort_keys=True) for case in CASES}
    assert len(configs) >= 10
    assert any(not case["counters"] for case in CASES)
    assert any(
        case["counters"].get("stores", 0) > case["counters"].get("l1d_access", 0)
        for case in CASES
    )
    assert max(max(case["counters"].values(), default=0) for case in CASES) > 1e11


@pytest.mark.parametrize("index", range(len(CASES)))
def test_ledger_reproduces_golden(models, index):
    case = CASES[index]
    ledger = _model(models, case).ledger(
        AccessCounters(**case["counters"]), case["cycles"]
    )
    assert hex_values(ledger.components) == case["components"]
    assert hex_values(ledger.categories) == case["categories"]
    assert list(ledger.categories) == list(case["categories"])


@pytest.mark.parametrize("index", range(len(CASES)))
def test_price_reproduces_golden(models, index):
    case = CASES[index]
    bundle = CounterBundle(
        counters=AccessCounters(**case["counters"]), cycles=case["cycles"]
    )
    ledger = _model(models, case).price(bundle)
    assert hex_values(ledger.components) == case["components"]
    assert hex_values(ledger.categories) == case["categories"]

