"""External counter ingestion: readers, mapping validation, round-trip.

The load-bearing test is the round-trip invariant: ``repro run
--export-counters`` followed by ``repro ingest`` with the identity
mapping must reproduce the simulated run's EnergyLedger *bit-for-bit*
(pinned against ``tests/data/golden_energy.json``), proving the
external pricing path shares the simulated path's arithmetic exactly.
Around it: every mapping failure mode must fail loudly with a typed
error naming the offending key, and exit 2 through the CLI.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.config.system import ConfigError, SystemConfig
from repro.core.campaign import sweep_source
from repro.core.softwatt import SoftWatt
from repro.ingest import (
    CounterMapping,
    DuplicateTargetError,
    ExternalRecord,
    IngestError,
    MappingError,
    MappingFormatError,
    UnknownEventError,
    UnknownTargetCounterError,
    UnmappedCounterError,
    ingest_log,
    read_counter_log,
    write_counter_log_json,
)
from repro.power.processor import ProcessorPowerModel
from repro.power.registry import REGISTRY
from repro.stats.counters import COUNTER_FIELDS
from repro.stats.source import CounterSource

pytestmark = pytest.mark.ingest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
SAMPLE_CSV = EXAMPLES / "data" / "perf_sample.csv"
GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_energy.json"


def identity_document() -> dict:
    """A fully valid mapping document to perturb in failure tests."""
    return {
        "version": 1,
        "cycles": "cycles",
        "counters": {name: name for name in COUNTER_FIELDS},
    }


def write_mapping(tmp_path, document, name="mapping.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


class TestReaders:
    def test_reads_sample_perf_csv(self):
        log = read_counter_log(SAMPLE_CSV)
        assert len(log) == 3
        assert log.records[0].start_s == 0.0
        assert log.records[0].end_s == 0.5
        assert log.records[2].end_s == 1.5
        assert log.duration_s == 1.5
        assert "cycles" in log.event_names()
        assert log.records[1].events["instructions"] == 1050000000

    def test_json_reader_round_trips_values(self, tmp_path):
        path = tmp_path / "log.json"
        path.write_text(json.dumps({
            "version": 1,
            "records": [
                {"start_s": 0.0, "end_s": 1.0,
                 "events": {"cycles": 100.0, "x": 3}},
                {"start_s": 1.0, "end_s": 2.0, "events": {"cycles": 50.0}},
            ],
        }))
        log = read_counter_log(path)
        assert len(log) == 2
        assert log.records[0].events == {"cycles": 100.0, "x": 3}
        assert log.event_names() == ("cycles", "x")

    def test_unsupported_extension_rejected(self, tmp_path):
        path = tmp_path / "log.xml"
        path.write_text("<counters/>")
        with pytest.raises(IngestError, match="unsupported extension"):
            read_counter_log(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            read_counter_log(tmp_path / "absent.json")

    def test_wrong_schema_version_rejected(self, tmp_path):
        path = tmp_path / "log.json"
        path.write_text(json.dumps({"version": 99, "records": []}))
        with pytest.raises(IngestError, match="schema version"):
            read_counter_log(path)

    def test_overlapping_intervals_rejected(self, tmp_path):
        path = tmp_path / "log.json"
        path.write_text(json.dumps({
            "version": 1,
            "records": [
                {"start_s": 0.0, "end_s": 1.0, "events": {"cycles": 1}},
                {"start_s": 0.5, "end_s": 2.0, "events": {"cycles": 1}},
            ],
        }))
        with pytest.raises(IngestError, match="overlaps"):
            read_counter_log(path)

    def test_negative_event_value_rejected(self, tmp_path):
        path = tmp_path / "log.json"
        path.write_text(json.dumps({
            "version": 1,
            "records": [
                {"start_s": 0.0, "end_s": 1.0, "events": {"cycles": -5}},
            ],
        }))
        with pytest.raises(IngestError, match="negative"):
            read_counter_log(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_csv_event_value_rejected(self, tmp_path, value):
        path = tmp_path / "log.csv"
        path.write_text(f"time_s,value,event\n0.5,{value},cycles\n")
        with pytest.raises(IngestError, match="not finite"):
            read_counter_log(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_json_event_value_rejected(self, tmp_path, value):
        # Python's json module parses the bare NaN/Infinity literals.
        path = tmp_path / "log.json"
        path.write_text(
            '{"version": 1, "records": [{"start_s": 0.0, "end_s": 1.0, '
            f'"events": {{"cycles": {value}}}}}]}}'
        )
        with pytest.raises(IngestError, match="not finite"):
            read_counter_log(path)

    @pytest.mark.parametrize("time_s", ["nan", "inf"])
    def test_non_finite_csv_timestamp_rejected(self, tmp_path, time_s):
        path = tmp_path / "log.csv"
        path.write_text(f"time_s,value,event\n{time_s},5,cycles\n")
        with pytest.raises(IngestError, match="finite"):
            read_counter_log(path)

    @pytest.mark.parametrize(
        "bounds",
        [(float("nan"), 1.0), (0.0, float("nan")), (0.0, float("inf")),
         (float("-inf"), 1.0)],
    )
    def test_record_rejects_non_finite_bounds(self, bounds):
        with pytest.raises(IngestError, match="finite"):
            ExternalRecord(start_s=bounds[0], end_s=bounds[1], events={})

    def test_csv_header_enforced(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("when,count,name\n0.5,1,cycles\n")
        with pytest.raises(IngestError, match="header"):
            read_counter_log(path)

    def test_csv_duplicate_event_in_interval_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "time_s,value,event\n0.5,1,cycles\n0.5,2,cycles\n"
        )
        with pytest.raises(IngestError, match="twice"):
            read_counter_log(path)


# ---------------------------------------------------------------------------
# Mapping validation — every failure mode is typed, loud, and names the
# offending key.
# ---------------------------------------------------------------------------


class TestMappingValidation:
    def test_identity_mapping_covers_registry(self):
        mapping = CounterMapping.identity()
        assert set(REGISTRY.required_counters()) <= set(mapping.counters)
        assert mapping.events()[0] == "cycles"

    def test_example_mappings_load(self):
        for name in ("identity.json", "perf_generic.json"):
            mapping = CounterMapping.load(EXAMPLES / "mappings" / name)
            assert mapping.cycles, name

    def test_unmapped_required_counter_names_component(self, tmp_path):
        document = identity_document()
        del document["counters"]["tlb_access"]
        with pytest.raises(UnmappedCounterError) as excinfo:
            CounterMapping.load(write_mapping(tmp_path, document))
        assert excinfo.value.component == "tlb"
        assert "tlb_access" in excinfo.value.missing
        assert "tlb" in str(excinfo.value)
        assert "tlb_access" in str(excinfo.value)

    def test_optional_counter_may_be_omitted(self, tmp_path):
        # branch_mispredicts is reporting-only: no component reads it.
        document = identity_document()
        del document["counters"]["branch_mispredicts"]
        mapping = CounterMapping.load(write_mapping(tmp_path, document))
        assert "branch_mispredicts" not in mapping.counters

    def test_unknown_target_counter_named(self, tmp_path):
        document = identity_document()
        document["counters"]["l3_access"] = "LLC-loads"
        with pytest.raises(UnknownTargetCounterError, match="l3_access"):
            CounterMapping.load(write_mapping(tmp_path, document))

    def test_duplicate_target_counter_rejected(self, tmp_path):
        document = identity_document()
        text = json.dumps(document)
        # Inject a second "l1d_access" key into the counters object.
        text = text.replace(
            '"l1d_access": "l1d_access"',
            '"l1d_access": "l1d_access", "l1d_access": "loads"',
        )
        path = tmp_path / "dup.json"
        path.write_text(text)
        with pytest.raises(DuplicateTargetError, match="l1d_access"):
            CounterMapping.load(path)

    def test_malformed_scale_names_counter(self, tmp_path):
        document = identity_document()
        document["counters"]["falu_access"] = {
            "event": "fp-arith", "scale": "three-quarters",
        }
        with pytest.raises(MappingFormatError, match="falu_access"):
            CounterMapping.load(write_mapping(tmp_path, document))

    def test_negative_scale_rejected(self, tmp_path):
        document = identity_document()
        document["counters"]["ialu_access"] = {
            "event": "instructions", "scale": -0.5,
        }
        with pytest.raises(MappingFormatError, match="ialu_access"):
            CounterMapping.load(write_mapping(tmp_path, document))

    def test_missing_cycles_formula_rejected(self, tmp_path):
        document = identity_document()
        del document["cycles"]
        with pytest.raises(MappingFormatError, match="cycles"):
            CounterMapping.load(write_mapping(tmp_path, document))

    def test_unknown_top_level_key_rejected(self, tmp_path):
        document = identity_document()
        document["scale_factors"] = {}
        with pytest.raises(MappingFormatError, match="scale_factors"):
            CounterMapping.load(write_mapping(tmp_path, document))

    def test_event_and_sum_mutually_exclusive(self, tmp_path):
        document = identity_document()
        document["counters"]["loads"] = {"event": "a", "sum": ["b"]}
        with pytest.raises(MappingFormatError, match="mutually exclusive"):
            CounterMapping.load(write_mapping(tmp_path, document))

    def test_unknown_event_names_event_and_referers(self):
        log = read_counter_log(SAMPLE_CSV)
        document = json.loads(
            (EXAMPLES / "mappings" / "perf_generic.json").read_text()
        )
        document["counters"]["l1d_access"] = "no-such-event"
        mapping = CounterMapping.from_dict(document)
        with pytest.raises(UnknownEventError) as excinfo:
            ingest_log(log, mapping)
        assert "no-such-event" in str(excinfo.value)
        assert "l1d_access" in str(excinfo.value)

    def test_every_error_is_a_config_error(self):
        for error_type in (
            IngestError, MappingError, MappingFormatError,
            DuplicateTargetError, UnknownTargetCounterError,
            UnknownEventError, UnmappedCounterError,
        ):
            assert issubclass(error_type, ConfigError)

    def test_sum_formula_evaluates_left_to_right_with_scales(self):
        mapping = CounterMapping.from_dict({
            "version": 1,
            "cycles": "cycles",
            "counters": {
                **{name: name for name in COUNTER_FIELDS},
                "l1d_access": {
                    "sum": ["loads", {"event": "stores", "scale": 2.0}],
                    "scale": 3.0,
                },
            },
        })
        counters, cycles = mapping.apply(
            {"cycles": 10.0, "loads": 5.0, "stores": 7.0}
        )
        # Outer scale distributes over the terms: (5*3) + (7*2*3).
        assert counters.l1d_access == 5.0 * 3.0 + 7.0 * 6.0
        assert cycles == 10.0

    def test_sparse_records_read_zero(self):
        mapping = CounterMapping.identity()
        counters, cycles = mapping.apply({"cycles": 4.0, "loads": 2.0})
        assert cycles == 4.0
        assert counters.loads == 2.0
        assert counters.l1d_access == 0.0


# ---------------------------------------------------------------------------
# Registry schema (what mapping validation is checked against)
# ---------------------------------------------------------------------------


class TestRegistrySchema:
    def test_required_counters_follow_field_order(self):
        required = REGISTRY.required_counters()
        order = {name: index for index, name in enumerate(COUNTER_FIELDS)}
        assert list(required) == sorted(required, key=order.__getitem__)
        assert set(required) <= set(COUNTER_FIELDS)

    def test_counter_requirements_cover_counter_driven_components(self):
        requirements = REGISTRY.counter_requirements()
        assert "disk" not in requirements  # simulation-time: unmappable
        for component in REGISTRY:
            if not component.simulation_time:
                assert requirements[component.name] == component.counters

    def test_schema_is_plain_data(self):
        schema = REGISTRY.schema()
        assert json.loads(json.dumps(schema)) == schema
        by_name = {entry["name"]: entry for entry in schema}
        assert by_name["disk"]["simulation_time"] is True
        assert by_name["disk"]["counters"] == []
        assert by_name["tlb"]["counters"] == ["tlb_access", "tlb_miss"]


# ---------------------------------------------------------------------------
# Pricing and the round-trip invariant (golden-pinned)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden_run(golden):
    """The golden mxs/jess run, fresh, at the golden parameters."""
    softwatt = SoftWatt(
        window_instructions=golden["window_instructions"],
        seed=golden["seed"],
        use_cache=False,
    )
    return softwatt, softwatt.run("jess", disk=golden["disk"])


class TestRoundTrip:
    def test_identity_round_trip_is_bit_identical(self, tmp_path, golden_run):
        softwatt, result = golden_run
        log = result.timeline.log
        path = tmp_path / "counters.json"
        write_counter_log_json(log, path)
        run = ingest_log(read_counter_log(path), CounterMapping.identity())
        assert isinstance(run, CounterSource)
        assert run.total_cycles() == log.total_cycles()
        assert run.total_counters() == log.total_counters()
        assert run.duration_s == log.duration_s
        direct = softwatt.model.price(log)
        ingested = softwatt.price_counters(run)
        assert ingested.components == direct.components

    def test_round_trip_reproduces_golden_budget(
        self, tmp_path, golden, golden_run
    ):
        """Ingested counters + the run's disk energy must rebuild the
        golden power budget bit-for-bit."""
        softwatt, result = golden_run
        path = tmp_path / "counters.json"
        write_counter_log_json(result.timeline.log, path)
        run = ingest_log(read_counter_log(path), CounterMapping.identity())
        ledger = softwatt.model.price(run).with_component(
            "disk", "disk", result.disk_energy_j
        )
        expected = golden["benchmarks"]["mxs/jess"]
        assert ledger.total_j == expected["total_energy_j"]
        seconds = result.timeline.duration_s or 1.0
        assert ledger.category_power_w(seconds) == expected["budget_w"]

    def test_provenance_is_carried(self, tmp_path, golden_run):
        _softwatt, result = golden_run
        path = tmp_path / "counters.json"
        write_counter_log_json(result.timeline.log, path)
        run = ingest_log(read_counter_log(path), CounterMapping.identity())
        assert run.provenance == f"ingested:{path}"
        assert run.source == str(path)
        assert all(bundle.ingested for bundle in run)

    def test_perf_sample_prices_under_table1(self):
        log = read_counter_log(SAMPLE_CSV)
        mapping = CounterMapping.load(
            EXAMPLES / "mappings" / "perf_generic.json"
        )
        run = ingest_log(log, mapping)
        model = ProcessorPowerModel(SystemConfig.table1())
        ledger = model.price(run)
        assert ledger.total_j > 0
        assert run.total_cycles() == 3 * 1250000000


# ---------------------------------------------------------------------------
# Ledger-tier sweeps over ingested counters
# ---------------------------------------------------------------------------


class TestSweepSource:
    @pytest.fixture()
    def run(self):
        log = read_counter_log(SAMPLE_CSV)
        mapping = CounterMapping.load(
            EXAMPLES / "mappings" / "perf_generic.json"
        )
        return ingest_log(log, mapping)

    def test_vdd_sweep_reprices_without_simulation(self, run):
        points = sweep_source(run, "vdd", [2.5, 3.3, 4.0])
        assert [value for value, _ledger in points] == [2.5, 3.3, 4.0]
        energies = [ledger.total_j for _value, ledger in points]
        assert energies[0] < energies[1] < energies[2]  # E scales with Vdd^2

    def test_base_vdd_matches_direct_pricing(self, run):
        base = SystemConfig.table1()
        (_, swept), = sweep_source(
            run, "vdd", [base.technology.vdd], base_config=base
        )
        direct = ProcessorPowerModel(base).price(run)
        assert swept.components == direct.components

    def test_structural_parameter_rejected(self, run):
        with pytest.raises(ValueError, match="STRUCTURAL"):
            sweep_source(run, "l1_size", [65536])

    def test_unknown_parameter_rejected(self, run):
        with pytest.raises(ValueError, match="unknown parameter"):
            sweep_source(run, "warp_factor", [9])


# ---------------------------------------------------------------------------
# CLI: exit codes and end-to-end behaviour
# ---------------------------------------------------------------------------


class TestIngestCLI:
    def test_ingest_sample_log(self, capsys):
        mapping = str(EXAMPLES / "mappings" / "perf_generic.json")
        assert main(["ingest", str(SAMPLE_CSV), "--mapping", mapping]) == 0
        out = capsys.readouterr().out
        assert "3 interval(s)" in out
        assert "datapath" in out

    def test_ingest_json_summary(self, capsys):
        mapping = str(EXAMPLES / "mappings" / "perf_generic.json")
        assert main(
            ["ingest", str(SAMPLE_CSV), "--mapping", mapping, "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["records"] == 3
        assert document["total_j"] > 0
        assert set(document["category_w"]) == set(document["category_j"])

    def test_ingest_export_budget(self, tmp_path, capsys):
        from repro.stats.export import read_ledger_json

        mapping = str(EXAMPLES / "mappings" / "perf_generic.json")
        out = tmp_path / "budget.json"
        assert main(
            ["ingest", str(SAMPLE_CSV), "--mapping", mapping,
             "--export-budget", str(out)]
        ) == 0
        ledger = read_ledger_json(out)
        assert ledger.total_j > 0

    def test_missing_log_exits_2(self, tmp_path, capsys):
        assert main(
            ["ingest", str(tmp_path / "absent.csv"), "--mapping", "identity"]
        ) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_nan_cycles_exits_2(self, tmp_path, capsys):
        lines = SAMPLE_CSV.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.endswith(",cycles"))
        time_s = lines[row].split(",")[0]
        lines[row] = f"{time_s},nan,cycles"
        log = tmp_path / "nan.csv"
        log.write_text("\n".join(lines) + "\n")
        mapping = str(EXAMPLES / "mappings" / "perf_generic.json")
        assert main(["ingest", str(log), "--mapping", mapping]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_starved_component_exits_2(self, tmp_path, capsys):
        document = identity_document()
        del document["counters"]["tlb_access"]
        mapping = write_mapping(tmp_path, document)
        assert main(
            ["ingest", str(SAMPLE_CSV), "--mapping", mapping]
        ) == 2
        err = capsys.readouterr().err
        assert "tlb" in err
        assert "tlb_access" in err

    def test_unknown_event_exits_2(self, tmp_path, capsys):
        # Identity mapping references our counter names, which the
        # perf-style sample log never records.
        assert main(
            ["ingest", str(SAMPLE_CSV), "--mapping", "identity"]
        ) == 2
        assert "never records" in capsys.readouterr().err

    def test_duplicate_target_exits_2(self, tmp_path, capsys):
        text = json.dumps(identity_document()).replace(
            '"stores": "stores"',
            '"stores": "stores", "stores": "loads"',
        )
        path = tmp_path / "dup.json"
        path.write_text(text)
        assert main(
            ["ingest", str(SAMPLE_CSV), "--mapping", str(path)]
        ) == 2
        assert "stores" in capsys.readouterr().err

    def test_malformed_scale_exits_2(self, tmp_path, capsys):
        document = identity_document()
        document["counters"]["loads"] = {"event": "loads", "scale": []}
        mapping = write_mapping(tmp_path, document)
        assert main(
            ["ingest", str(SAMPLE_CSV), "--mapping", mapping]
        ) == 2
        assert "loads" in capsys.readouterr().err

    def test_components_json_schema(self, capsys):
        assert main(["components", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in document["components"]]
        assert "disk" in names
        assert set(document["required_counters"]) <= set(COUNTER_FIELDS)
        assert document["categories"]

    def test_run_export_counters_round_trips(self, tmp_path, capsys):
        counters_path = tmp_path / "counters.json"
        assert main(
            ["run", "jess", "--export-counters", str(counters_path),
             "--window", "8000", "--seed", "1"]
        ) == 0
        assert "counter log written" in capsys.readouterr().out
        assert main(
            ["ingest", str(counters_path), "--mapping", "identity"]
        ) == 0
        assert "counter-driven energy" in capsys.readouterr().out
