import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import pytest

from sdlb import simkernel
from sdlb.cli import main
from sdlb.config import (
    MAX_CAPACITY,
    MEMORY_BUDGET,
    ConfigError,
    ScenarioConfig,
    default_config,
    load_config,
)
from sdlb.topology import AccessNetworkKind

MEMORY_NOTE = "so that the cell kernel's 2 * 64 * (m + 1) float64 tallies fit in 256 MiB"


@pytest.fixture
def doc():
    return default_config().to_dict()


class TestDefaultConfig:
    def test_loads(self):
        cfg = default_config()
        assert cfg.seed == 42
        assert cfg.overhead.T == 0.1
        assert cfg.types[AccessNetworkKind.WIMAX].ap_count == 900
        assert cfg.reliability.r_lmm == 0.92
        assert cfg.notes["assumptions"]

    def test_overhead_params_assemble(self):
        ov = default_config().overhead_params()
        assert [t.ap_count for t in ov.types] == [600, 900, 600]

    def test_topology_builds(self):
        topo = default_config().topology.build()
        assert topo.lmm_count == 3
        assert topo.cell_count == 21


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self, doc):
        cfg = ScenarioConfig.from_dict(doc)
        again = ScenarioConfig.from_dict(cfg.to_dict())
        assert cfg == again

    def test_file_round_trip(self, tmp_path, doc):
        cfg = ScenarioConfig.from_dict(doc)
        path = tmp_path / "scenario.json"
        cfg.save(path)
        assert load_config(path) == cfg

    def test_serialised_form_is_stable(self, doc):
        cfg = ScenarioConfig.from_dict(doc)
        a = json.dumps(cfg.to_dict(), sort_keys=True)
        b = json.dumps(ScenarioConfig.from_dict(cfg.to_dict()).to_dict(), sort_keys=True)
        assert a == b


class TestValidation:
    def test_path_qualified_type_error(self, doc):
        doc["types"]["umts"]["mu"] = -1.0
        with pytest.raises(ConfigError, match=r"^types\.umts\.mu: must be > 0, got -1\.0$"):
            ScenarioConfig.from_dict(doc)

    def test_path_qualified_threshold_error(self, doc):
        # a rule on several fields is filed under their section
        doc["types"]["wlan"]["k1"] = 70
        with pytest.raises(ConfigError, match=r"^types\.wlan: thresholds must satisfy"):
            ScenarioConfig.from_dict(doc)

    def test_unknown_key_rejected(self, doc):
        doc["types"]["umts"]["lambda"] = 1.0
        with pytest.raises(ConfigError, match="types.umts.*unknown keys"):
            ScenarioConfig.from_dict(doc)

    def test_unknown_section_rejected(self, doc):
        doc["extra_section"] = {}
        with pytest.raises(ConfigError, match="config.*unknown keys"):
            ScenarioConfig.from_dict(doc)

    def test_missing_type_rejected(self, doc):
        del doc["types"]["wimax"]
        with pytest.raises(ConfigError, match="types.wimax: required"):
            ScenarioConfig.from_dict(doc)

    def test_bad_overhead_T(self, doc):
        doc["overhead"]["T"] = 0.0
        with pytest.raises(ConfigError, match="overhead.T"):
            ScenarioConfig.from_dict(doc)

    def test_bad_timing_utilisation(self, doc):
        doc["timing"]["lambda_report"] = 2000.0
        with pytest.raises(ConfigError, match="timing"):
            ScenarioConfig.from_dict(doc)

    def test_bad_reliability_range(self, doc):
        doc["reliability"]["r_c"] = 1.5
        with pytest.raises(ConfigError, match="reliability"):
            ScenarioConfig.from_dict(doc)

    def test_empty_sweep_rejected(self, doc):
        doc["sweeps"]["lmm_counts"] = []
        with pytest.raises(ConfigError, match="sweeps.lmm_counts"):
            ScenarioConfig.from_dict(doc)

    def test_non_integer_sweep_value(self, doc):
        doc["sweeps"]["lmm_counts"] = [1, 2.5]
        with pytest.raises(ConfigError, match=r"sweeps.lmm_counts\[1\]"):
            ScenarioConfig.from_dict(doc)

    def test_fault_entry_validated(self, doc):
        doc["sim"]["faults"] = [{"time": 1.0}]
        with pytest.raises(ConfigError, match=r"sim.faults\[0\]"):
            ScenarioConfig.from_dict(doc)

    def test_bool_not_accepted_as_number(self, doc):
        doc["overhead"]["d"] = True
        with pytest.raises(ConfigError, match="overhead.d"):
            ScenarioConfig.from_dict(doc)

    @pytest.mark.parametrize("section,key,value", [
        ("overhead", "d", float("-inf")),
        ("types", "umts", {"lam": float("nan")}),
        ("sweeps", "arrival_rates", [100.0, float("inf")]),
        ("sweeps", "arrival_rates", [100.0, 10**400]),
    ])
    def test_non_finite_number_rejected(self, doc, section, key, value):
        if isinstance(value, dict):
            doc[section][key].update(value)
        else:
            doc[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}.*finite"):
            ScenarioConfig.from_dict(doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)


def _leaves(value, path=""):
    """(dotted path, value) of every leaf of a document; an empty list or
    object is a leaf."""
    if isinstance(value, dict) and value:
        for key, v in value.items():
            yield from _leaves(v, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value:
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def _set(doc, path, value):
    *parents, last = [int(p) if p.isdigit() else p for p in re.findall(r"[^.\[\]]+", path)]
    for part in parents:
        doc = doc[part]
    doc[last] = value


LEAVES = [(path, value) for path, value in _leaves(default_config().to_dict())
          if path.split(".")[0] not in ("notes", "output_dir")]


class TestSchemaWalk:
    @pytest.mark.parametrize("path,leaf", LEAVES, ids=[p for p, _ in LEAVES])
    def test_wrong_type_names_the_leaf(self, doc, path, leaf):
        wrong = ["x", True, math.nan, [1], None]
        if isinstance(leaf, bool):
            wrong.remove(True)
        if isinstance(leaf, list):
            wrong.remove([1])
        for value in wrong:
            _set(doc, path, value)
            with pytest.raises(ConfigError) as err:
                ScenarioConfig.from_dict(doc)
            assert str(err.value).startswith(f"{path}: "), (value, str(err.value))

    def test_left_out_keys_take_the_field_defaults(self, doc):
        del doc["sim"]
        cfg = ScenarioConfig.from_dict(doc)
        assert cfg.sim == default_config().sim


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWorkloadRoundTrip:
    @pytest.mark.parametrize("name", ["validate", "protocol_ticks", "protocol_events", "sweep"])
    def test_round_trip(self, doc, name):
        workloads = _workloads()
        assert name in workloads.NAMES
        for wl_doc in workloads.build(name, 1, "tiny", doc).docs:
            cfg = ScenarioConfig.from_dict(wl_doc)
            assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    # the parse-time rules, the protocol memory bound among them, refuse no benchmark document
    @pytest.mark.parametrize("name", ["validate", "protocol_ticks", "protocol_events", "sweep"])
    def test_full_documents_accepted(self, doc, name):
        workloads = _workloads()
        for seed in (1, 2, 3):
            for wl_doc in workloads.build(name, seed, "full", doc).docs:
                ScenarioConfig.from_dict(wl_doc)


def _run(tmp_path, command, doc):
    doc["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return main([command, "--config", str(path)])


class TestIntegerRange:
    @pytest.mark.parametrize("path,value", [
        ("seed", 2**63),
        ("types.umts.m", 2**63),
        ("topology.grid_count", 10**400),
        ("sim.target_events", -2**63 - 1),
        ("sweeps.lmm_counts[1]", 10**400),
        ("sweeps.reliability_lmm_counts[0]", 2**63),
    ], ids=["seed", "m", "grid_count", "target_events", "lmm_counts", "reliability_lmm_counts"])
    def test_beyond_int64_refused(self, doc, path, value):
        _set(doc, path, value)
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: .*int64"):
            ScenarioConfig.from_dict(doc)

    def test_int64_bounds_accepted(self, doc):
        doc["seed"] = 2**63 - 1
        doc["sweeps"]["lmm_counts"] = [1, 2**63 - 1]
        assert ScenarioConfig.from_dict(doc).seed == 2**63 - 1

    def test_lmm_count_below_one_refused(self, doc):
        doc["sweeps"]["lmm_counts"] = [1, -5]
        with pytest.raises(ConfigError, match=r"^sweeps\.lmm_counts\[1\]: must be >= 1, got -5"):
            ScenarioConfig.from_dict(doc)

    @pytest.mark.parametrize("counts", [[1, 10**400], [1, -5]], ids=["huge", "negative"])
    def test_figures_exits_2(self, tmp_path, doc, capsys, counts):
        doc["sweeps"]["lmm_counts"] = counts
        assert _run(tmp_path, "figures", doc) == 2
        assert "sweeps.lmm_counts[1]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestTopologyRules:
    @pytest.mark.parametrize("command", ["figures", "validate", "scenario"])
    @pytest.mark.parametrize("path,value,error", [
        ("topology.grid_count", 2,
         "topology.grid_count: must be >= 3 (the bulletin board needs two backups), got 2"),
        # AP counts come from types.<kind>.ap_count alone
        ("topology.ap_counts", {"umts": 1, "wimax": 1, "wlan": 1},
         "topology: unknown keys ['ap_counts']"),
        # the paper's formulas take a = types[0].report_cost and the literal n
        ("overhead.a_common", 2.0, "overhead: unknown keys ['a_common']"),
        ("reliability.redundancy_exponent", 2,
         "reliability: unknown keys ['redundancy_exponent']"),
        # kept, the last time listed would win and LMM 1 would beat until 5.0
        ("sim.faults", [{"time": 2.0, "lmm_id": 1}, {"time": 5.0, "lmm_id": 1}],
         "sim.faults[1].lmm_id: must not repeat faults[0].lmm_id, got 1"),
        # every command exited 3 on a MemoryError, NumPy's or a list's
        ("types.umts.m", 2**53 + 1,
         f"types.umts.m: must be <= 262143, {MEMORY_NOTE}, got {2**53 + 1}"),
        # one session per stream past the protocol simulator's budget on 21 cells
        ("types.wlan.m", 53166,
         "topology: must keep the protocol simulator's cells * sum over types of "
         "(1280 + 240 * m) bytes <= 256 MiB, got 21 * 12782880 = 2.68e+08"),
    ], ids=["two_grids", "ap_counts_key", "a_common_key", "redundancy_exponent_key",
            "repeated_fault_id", "capacity_past_float", "protocol_memory"])
    def test_every_command_exits_2(self, tmp_path, doc, capsys, command, path, value, error):
        _set(doc, path, value)
        assert _run(tmp_path, command, doc) == 2
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not (tmp_path / "out").exists()


class TestScheduleShape:
    @pytest.mark.parametrize("key", ["faults", "borders"])
    @pytest.mark.parametrize("value", [1, {"time": 1.0, "lmm_id": 0}])
    def test_non_list_refused(self, doc, key, value):
        doc["sim"][key] = value
        with pytest.raises(ConfigError, match=rf"^sim\.{key}: expected a list"):
            ScenarioConfig.from_dict(doc)

    def test_figures_exits_2(self, tmp_path, doc, capsys):
        doc["sim"]["faults"] = 1
        assert _run(tmp_path, "figures", doc) == 2
        assert "sim.faults: expected a list" in capsys.readouterr().err


class TestRangeRulesAtParse:
    @pytest.mark.parametrize("path,value,error", [
        ("seed", -1, "seed: must be >= 0, got -1"),
        ("sim.target_events", 0, "sim.target_events: must be >= 1, got 0"),
        ("sim.faults", [{"time": -1.0, "lmm_id": 0}],
         "sim.faults[0].time: must be >= 0, got -1.0"),
        ("sim.borders", [{"time": -0.5, "cell_id": 0}],
         "sim.borders[0].time: must be >= 0, got -0.5"),
        ("sim.faults", [{"time": 1.0, "lmm_id": 3}],
         "sim.faults[0].lmm_id: must be in [0, 3), got 3"),
        ("sim.faults", [{"time": 1.0, "lmm_id": -1}],
         "sim.faults[0].lmm_id: must be in [0, 3), got -1"),
        ("sim.borders", [{"time": 1.0, "cell_id": 21}],
         "sim.borders[0].cell_id: must be in [0, 21), got 21"),
        ("sim.faults", [{"time": 5.0, "lmm_id": 1}, {"time": 2.0, "lmm_id": 0},
                        {"time": 2.0, "lmm_id": 1}],
         "sim.faults[2].lmm_id: must not repeat faults[0].lmm_id, got 1"),
        ("types.umts.lam", 1e300,
         "sim.horizon: must keep scenario work <= 1e+09 units, got 4.2e+304"),
        ("types.umts.lam", 2**63,
         "sim.horizon: must keep scenario work <= 1e+09 units, got 3.87e+23"),
        ("sim.heartbeat_period", 1e-12,
         "sim.horizon: must keep scenario work <= 1e+09 units, got 3e+15"),
        ("sim.target_events", 2**63 - 1,
         "sim.target_events: must keep validate work <= 1e+09 units, got 2.77e+19"),
        ("reliability.c_uniform", -1.0, "reliability.c_uniform: must be >= 0, got -1.0"),
        ("reliability.b_uniform", -0.5, "reliability.b_uniform: must be >= 0, got -0.5"),
        # validate asked the cell kernel for 4.77 GiB per batch-time array
        ("types.umts.m", 10**7, f"types.umts.m: must be <= 262143, {MEMORY_NOTE}, got 10000000"),
        ("types.wlan.m", 262144, f"types.wlan.m: must be <= 262143, {MEMORY_NOTE}, got 262144"),
    ], ids=["seed", "target_events", "fault_time", "border_time", "fault_id_high",
            "fault_id_negative", "border_id_high", "fault_id_repeated", "lam_huge", "lam_int64",
            "heartbeat_period_tiny", "target_events_int64", "c_uniform", "b_uniform",
            "capacity_huge", "capacity_past_budget"])
    def test_refused_at_parse(self, doc, path, value, error):
        _set(doc, path, value)
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert str(err.value) == error

    def test_ids_in_range_accepted(self, doc):
        doc["sim"]["faults"] = [{"time": 0.0, "lmm_id": 2}]
        doc["sim"]["borders"] = [{"time": 0.0, "cell_id": 20}]
        assert ScenarioConfig.from_dict(doc).sim.faults[0].lmm_id == 2

    def test_capacity_at_budget_accepted(self, doc):
        # on 3 cells, so that the protocol simulator's sessions fit the budget too
        doc["topology"]["cells_per_grid"] = 1
        doc["types"]["wlan"]["m"] = MAX_CAPACITY
        assert ScenarioConfig.from_dict(doc).types[AccessNetworkKind.WLAN].m == 262143
        # config may not import the kernel at set-up, so its 64 is checked here
        assert 2 * simkernel._BATCHES * (MAX_CAPACITY + 1) * 8 == MEMORY_BUDGET

    # Neither document may be run: each asks run_system_sim for gigabytes
    @pytest.mark.parametrize("changes,got", [
        # a tiny horizon keeps the work down at any cell count
        ({"topology.grid_count": 10**9, "sim.horizon": 1e-8}, "7000000000 * 42240 = 2.96e+14"),
        # every stream fills to m
        ({**{f"types.{kind}.{key}": value for kind in ("umts", "wimax", "wlan")
             for key, value in (("lam", 1e5), ("mu", 1e-6), ("m", MAX_CAPACITY))},
          "sim.horizon": 3.0}, "21 * 188746800 = 3.96e+09"),
    ], ids=["cells", "sessions"])
    def test_protocol_memory_refused_at_parse(self, doc, changes, got):
        for path, value in changes.items():
            _set(doc, path, value)
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert str(err.value) == (
            "topology: must keep the protocol simulator's cells * sum over types of "
            f"(1280 + 240 * m) bytes <= 256 MiB, got {got}"
        )

    @pytest.mark.parametrize("path,value", [
        # 6349 cells * 42240 B, one cell short of 6356 * 42240 B > 256 MiB
        ("topology.grid_count", 907),
        # 21 cells * 12782640 B is 16 B under 256 MiB
        ("types.wlan.m", 53165),
    ], ids=["cells", "sessions"])
    def test_protocol_memory_at_budget_accepted(self, doc, path, value):
        _set(doc, path, value)
        ScenarioConfig.from_dict(doc)
        _set(doc, path, value + 1)
        with pytest.raises(ConfigError, match=r"^topology: must keep the protocol simulator's"):
            ScenarioConfig.from_dict(doc)

    def test_repeated_border_cell_accepted(self, doc):
        # a cell may ask twice; only a fault id must be unique
        doc["sim"]["borders"] = [{"time": 1.0, "cell_id": 9}, {"time": 1.0, "cell_id": 9}]
        assert len(ScenarioConfig.from_dict(doc).sim.borders) == 2

    @pytest.mark.parametrize("command,path,value", [
        ("scenario", "seed", -1),
        ("validate", "seed", -5),
        ("validate", "sim.target_events", -3),
        ("scenario", "sim.faults", [{"time": 1.0, "lmm_id": 9}]),
        ("scenario", "sim.faults", [{"time": -1.0, "lmm_id": 0}]),
        ("validate", "sim.target_events", 2**63 - 1),
        ("scenario", "sim.horizon", 1e300),
        ("figures", "reliability.c_uniform", -1.0),
    ], ids=["scenario-seed", "validate-seed", "validate-target_events", "scenario-fault_id",
            "scenario-fault_time", "validate-work", "scenario-work", "figures-c_uniform"])
    def test_cli_exits_2_with_path(self, tmp_path, doc, capsys, command, path, value):
        _set(doc, path, value)
        assert _run(tmp_path, command, doc) == 2
        assert f"config error: {path}" in capsys.readouterr().err
