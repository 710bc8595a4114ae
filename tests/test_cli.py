import csv
import json

import pytest

from sdlb.cli import main
from sdlb.config import default_config


def read_series(path):
    """Parse one emitted CSV back into (header, rows)."""
    comments = []
    with open(path, newline="") as fh:
        rows = []
        header = None
        for line in fh:
            if line.startswith("#"):
                comments.append(line)
                continue
            if header is None:
                header = line.strip().split(",")
                continue
            rows.append(line.strip().split(","))
    return comments, header, rows


@pytest.fixture
def config_path(tmp_path):
    cfg = default_config()
    path = tmp_path / "scenario.json"
    cfg.save(path)
    return path


@pytest.fixture
def short_config_path(tmp_path):
    doc = default_config().to_dict()
    doc["sim"]["horizon"] = 150.0
    path = tmp_path / "short_scenario.json"
    path.write_text(json.dumps(doc))
    return path


class TestFigures:
    def test_emits_all_four(self, tmp_path, config_path):
        out = tmp_path / "figs"
        assert main(["figures", "--config", str(config_path), "--out", str(out)]) == 0
        for name in ("fig5.csv", "fig6.csv", "fig7.csv", "fig8.csv"):
            assert (out / name).exists()

    def test_fig5_flat_at_reference_value(self, tmp_path, config_path):
        out = tmp_path / "figs"
        main(["figures", "--config", str(config_path), "--out", str(out)])
        comments, header, rows = read_series(out / "fig5.csv")
        assert comments and header == ["sweep_value", "metric", "value"]
        assert len(rows) == 7
        assert [r[1] for r in rows] == ["periodic_overhead"] * 7
        assert {r[2] for r in rows} == {"21020.0"}

    def test_fig6_constant_positive(self, tmp_path, config_path):
        out = tmp_path / "figs"
        main(["figures", "--config", str(config_path), "--out", str(out)])
        _, _, rows = read_series(out / "fig6.csv")
        values = {r[2] for r in rows}
        assert len(values) == 1
        assert float(values.pop()) > 0.0

    def test_fig7_ordering_and_monotonicity(self, tmp_path, config_path):
        out = tmp_path / "figs"
        main(["figures", "--config", str(config_path), "--out", str(out)])
        _, _, rows = read_series(out / "fig7.csv")
        sda = {float(r[0]): float(r[2]) for r in rows if r[1] == "processing_time_sda_ms"}
        hsca = {float(r[0]): float(r[2]) for r in rows if r[1] == "processing_time_hsca_ms"}
        assert set(sda) == set(hsca) and len(sda) == 9
        rates = sorted(sda)
        for rate in rates:
            assert sda[rate] < hsca[rate]
            assert hsca[rate] - sda[rate] == pytest.approx(1.0, abs=1e-9)  # one 1 ms hop
        assert all(sda[a] < sda[b] for a, b in zip(rates, rates[1:]))
        assert all(hsca[a] < hsca[b] for a, b in zip(rates, rates[1:]))

    def test_fig8_non_decreasing(self, tmp_path, config_path):
        out = tmp_path / "figs"
        main(["figures", "--config", str(config_path), "--out", str(out)])
        _, _, rows = read_series(out / "fig8.csv")
        values = [float(r[2]) for r in rows]
        sweep = [int(r[0]) for r in rows]
        assert sweep == sorted(sweep)
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_byte_identical_reruns(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["figures", "--config", str(config_path), "--out", str(out1)])
        main(["figures", "--config", str(config_path), "--out", str(out2)])
        for name in ("fig5.csv", "fig6.csv", "fig7.csv", "fig8.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_rows_sorted_by_sweep_value(self, tmp_path, config_path):
        out = tmp_path / "figs"
        main(["figures", "--config", str(config_path), "--out", str(out)])
        _, _, rows = read_series(out / "fig5.csv")
        sweeps = [float(r[0]) for r in rows]
        assert sweeps == sorted(sweeps)

    def test_unstable_sweep_point_is_config_error(self, tmp_path):
        doc = default_config().to_dict()
        doc["sweeps"]["arrival_rates"] = [100.0, 1000.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["figures", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


class TestValidate:
    def test_default_preset_passes(self, tmp_path, config_path):
        out = tmp_path / "val"
        code = main([
            "validate", "--config", str(config_path), "--out", str(out),
            "--target-events", "120000",
        ])
        assert code == 0
        text = (out / "validation_report.txt").read_text()
        assert "verdict: PASS" in text
        assert "UMTS" in text and "WIMAX" in text and "WLAN" in text

    def test_coarse_period_fails_per_type(self, tmp_path):
        doc = default_config().to_dict()
        doc["overhead"]["T"] = 4.0  # lam*T = 2 for every type
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "val"
        code = main(["validate", "--config", str(path), "--out", str(out),
                     "--target-events", "1000"])
        assert code == 1
        text = (out / "validation_report.txt").read_text()
        assert "T too coarse" in text

    def test_tiny_run_reports_insufficient_samples(self, tmp_path):
        doc = default_config().to_dict()
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "val"
        code = main(["validate", "--config", str(path), "--out", str(out),
                     "--target-events", "10"])
        assert code == 0
        text = (out / "validation_report.txt").read_text()
        assert "INSUFFICIENT SAMPLES" in text
        assert "FAIL" not in text.replace("verdict: PASS", "")


class TestScenario:
    def test_no_fault_run(self, tmp_path, config_path):
        out = tmp_path / "scen"
        assert main(["scenario", "--config", str(config_path), "--out", str(out)]) == 0
        rows = dict(
            line.split(",") for line in
            (out / "scenario_report.csv").read_text().splitlines()[1:]
        )
        assert "failover_latency[0]" not in rows
        ticks = int(1000.0 / 0.1 + 1e-9)
        assert int(rows["message_count.LoadReport"]) == 21 * ticks

    def test_fault_run_records_one_takeover(self, tmp_path):
        doc = default_config().to_dict()
        doc["sim"]["faults"] = [{"time": 10.0, "lmm_id": 1}]
        doc["sim"]["horizon"] = 200.0
        path = tmp_path / "fault.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "scen"
        assert main(["scenario", "--config", str(path), "--out", str(out)]) == 0
        text = (out / "scenario_report.csv").read_text()
        assert "message_count.Takeover,1" in text
        assert "failover_latency[0]" in text
        assert "failover_latency[1]" not in text

    def test_identical_seed_identical_files(self, tmp_path, short_config_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["scenario", "--config", str(short_config_path), "--out", str(out1)])
        main(["scenario", "--config", str(short_config_path), "--out", str(out2)])
        assert (out1 / "scenario_report.csv").read_bytes() == (
            out2 / "scenario_report.csv"
        ).read_bytes()

    def test_seed_override_changes_output(self, tmp_path, short_config_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["scenario", "--config", str(short_config_path), "--out", str(out1)])
        main(["scenario", "--config", str(short_config_path), "--out", str(out2),
              "--seed", "7"])
        assert (out1 / "scenario_report.csv").read_bytes() != (
            out2 / "scenario_report.csv"
        ).read_bytes()

    def test_trace_flag_writes_trace(self, tmp_path):
        doc = default_config().to_dict()
        doc["sim"]["horizon"] = 20.0
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "scen"
        assert main(["scenario", "--config", str(path), "--out", str(out),
                     "--trace"]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "time,kind,src,dst"
        assert len(lines) > 1
        reader = csv.reader(lines[1:])
        assert all(len(row) == 4 for row in reader)

    def test_unknown_fault_id_is_config_error(self, tmp_path):
        doc = default_config().to_dict()
        doc["sim"]["faults"] = [{"time": 1.0, "lmm_id": 50}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["scenario", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["figures", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_config_value(self, tmp_path):
        doc = default_config().to_dict()
        doc["types"]["umts"]["mu"] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["figures", "--config", str(path)]) == 2

    def test_nan_overhead_period_is_config_error(self, tmp_path, capsys):
        doc = default_config().to_dict()
        doc["overhead"]["T"] = float("nan")
        doc["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert main(["figures", "--config", str(path)]) == 2
        assert "overhead.T" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_infinite_horizon_is_config_error(self, tmp_path, capsys):
        doc = default_config().to_dict()
        doc["sim"]["horizon"] = float("inf")
        doc["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        assert main(["scenario", "--config", str(path)]) == 2
        assert "sim.horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,error", [
        (["validate", "--target-events", "-3"], "--target-events: must be >= 1, got -3"),
        (["validate", "--target-events", "0"], "--target-events: must be >= 1, got 0"),
        (["scenario", "--seed", "-5"], "--seed: must be >= 0, got -5"),
        (["validate", "--seed", "-1"], "--seed: must be >= 0, got -1"),
        (["figures", "--seed", str(2**63)],
         f"--seed: expected an integer in the int64 range, got {2**63}"),
        (["validate", "--target-events", str(2**63 - 1)],
         "--target-events: must keep validate work <= 1e+09 units, got 2.77e+19"),
    ], ids=["target_events-negative", "target_events-zero", "scenario-seed", "validate-seed",
            "seed-beyond-int64", "target_events-work"])
    def test_bad_override_is_config_error(self, tmp_path, capsys, argv, error):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not (tmp_path / "out").exists()

    def test_default_config_used_when_omitted(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["figures", "--out", "figs"]) == 0
        assert (tmp_path / "figs" / "fig5.csv").exists()
