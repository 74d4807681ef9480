"""Service golden: Table 5 / Figure 8 profiles are bit-identical.

``tests/data/service_golden.json`` was recorded by
``scripts/service_golden.py`` while service profiles were still priced
during simulation.  They are now priced when read; every case replays
through ``SoftWatt.service_profiles`` and must reproduce each service's
per-invocation cycles and energies, per-category mean energy, mean
counters and instructions per invocation to the last bit.
"""

import json
import pathlib

import pytest

from repro.kernel.modes import KERNEL_SERVICES
from scripts.service_golden import measure

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "service_golden.json"

GOLDEN = json.loads(GOLDEN_PATH.read_text())
CASES = GOLDEN["cases"]


def test_golden_covers_configs_and_models():
    assert {case["cpu_model"] for case in CASES} == {"mxs", "mipsy"}
    assert len({json.dumps(case["config"]) for case in CASES}) == 3
    for case in CASES:
        assert set(case["services"]) == set(KERNEL_SERVICES)
        for record in case["services"].values():
            assert len(record["cycles"]) == GOLDEN["invocations"]


@pytest.mark.parametrize(
    "index", range(len(CASES)),
    ids=[f"{case['cpu_model']}-{json.dumps(case['config'])}" for case in CASES],
)
def test_service_profiles_reproduce_golden(index):
    case = CASES[index]
    assert measure(case["config"], case["cpu_model"]) == case["services"]
