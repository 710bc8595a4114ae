import json

import pytest

from sdlb.config import ConfigError, ScenarioConfig, default_config, load_config
from sdlb.topology import AccessNetworkKind


@pytest.fixture
def doc():
    return default_config().to_dict()


class TestDefaultConfig:
    def test_loads(self):
        cfg = default_config()
        assert cfg.seed == 42
        assert cfg.T == 0.1
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
        with pytest.raises(ConfigError, match="types.umts"):
            ScenarioConfig.from_dict(doc)

    def test_path_qualified_threshold_error(self, doc):
        doc["types"]["wlan"]["k1"] = 70
        with pytest.raises(ConfigError, match="types.wlan"):
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
