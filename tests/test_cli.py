import csv
import hashlib
import json
import math

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


def _unstable_rate(doc):
    doc["sweeps"]["arrival_rates"] = [100.0, 1000.0]


def _too_many_lost_lines(doc):
    doc["reliability"]["k1_lines"] = 3
    doc["sweeps"]["reliability_lmm_counts"] = [3, 1]


def _coarse_umts(doc):
    doc["types"]["umts"]["lam"] = 20.0  # lam*T = 2


def _tiny_umts_mu(doc):
    # lam*T and (k2+1)*mu*T are valid, but lam/mu = 5e199 overflows the
    # occupancy recurrence at k = 2
    doc["types"]["umts"]["mu"] = 1e-200


class TestFailedFiguresWriteNothing:
    """A document that fails in any of the four series exits 2 before a
    single CSV is written, into a new or into a reused directory."""

    CASES = {
        "fig7_unstable_rate": (
            _unstable_rate,
            "config error: sweeps.arrival_rates value 1000.0: "
            "utilisation must satisfy 0 <= rho < 1, got rho=1\n",
        ),
        "fig8_lost_lines": (
            _too_many_lost_lines,
            "config error: sweeps.reliability_lmm_counts value 3: "
            "k1_lines must be in 1..2 (junction lines for n=3), got 3\n",
        ),
        "fig6_coarse_period": (
            _coarse_umts,
            "error: T too coarse for first-order model: lam*T = 2 >= 1\n",
        ),
        "fig6_overflowing_distribution": (
            _tiny_umts_mu,
            "config error: types.umts: occupancy distribution is not finite: "
            "lam/mu = 5e+199 overflows float at m = 60\n",
        ),
    }

    def run(self, tmp_path, capsys, name, out):
        edit, error = self.CASES[name]
        doc = default_config().to_dict()
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["figures", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", error)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_new_directory_is_not_created(self, tmp_path, capsys, name):
        out = tmp_path / "figs"
        self.run(tmp_path, capsys, name, out)
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_earlier_csvs_stay_untouched(self, tmp_path, capsys, name):
        out = tmp_path / "figs"
        out.mkdir()
        for fig in ("fig5.csv", "fig7.csv"):
            (out / fig).write_text(f"stale {fig}\n")
        self.run(tmp_path, capsys, name, out)
        assert sorted(p.name for p in out.iterdir()) == ["fig5.csv", "fig7.csv"]
        for fig in ("fig5.csv", "fig7.csv"):
            assert (out / fig).read_text() == f"stale {fig}\n"


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

    def test_overflowing_distribution_is_config_error(self, tmp_path, capsys):
        doc = default_config().to_dict()
        _tiny_umts_mu(doc)
        path = tmp_path / "tiny_mu.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "val"
        code = main(["validate", "--config", str(path), "--out", str(out),
                     "--target-events", "1000"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: types.umts: ")
        assert not (out / "validation_report.txt").exists()

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


def sweep_doc(top):
    """A dense figure sweep with the largest capacity ``top``; the kinds
    split it 75/25/100 % as in the benchmark documents, and lam/mu is
    about 0.44 m, so m = 10^4 takes the rescaling path of
    ``state_probabilities``."""
    doc = default_config().to_dict()
    T = 0.0937
    doc["overhead"] = {"T": T, "d": 1.31, "a_common": None}
    for kind, share, aps in (("umts", 0.75, 613), ("wimax", 0.25, 287), ("wlan", 1.0, 941)):
        m = int(top * share)
        k1, k2 = math.ceil(0.2913 * m), math.ceil(0.8117 * m)
        mu = 0.6173 / ((k2 + 1) * T)
        doc["types"][kind] = {"lam": 0.4421 * m * mu, "mu": mu, "m": m, "k1": k1, "k2": k2,
                              "ap_count": aps, "report_cost": 1.0}
    mu_serve = 1043.7
    doc["timing"].update(t1=7.3e-6, d_rl=431.9, d_ll=431.9, lambda_report=0.5 * mu_serve,
                         mu_serve=mu_serve)
    doc["hsca_timing"].update(t1=7.3e-6, d_rr=431.9, d_ris=431.9, d_ibi=431.9, mu=mu_serve)
    doc["reliability"].update(r_lmm=0.9137, r_c=0.9561)
    doc["sweeps"] = {
        "lmm_counts": list(range(1, 301)),
        "reliability_lmm_counts": list(range(3, 301)),
        "arrival_rates": [mu_serve * (0.01 + 0.94 * j / 299) for j in range(300)],
    }
    return doc


def weighted_traffic_doc():
    """Non-unit traffic weights, an explicit redundancy exponent, two lost
    lines and managers, and LMM counts on both sides of the log-space
    binomial limit (170)."""
    doc = default_config().to_dict()
    doc["reliability"].update(c_uniform=0.3, b_uniform=1 / 3, redundancy_exponent=2,
                              k1_lines=2, k2_lmms=2)
    doc["sweeps"]["reliability_lmm_counts"] = [2, 3, 4, 5, 7, 10, 99, 168, 169, 170, 171,
                                               172, 173, 250, 500, 1000, 4321]
    return doc


FIGURE_NAMES = ("fig5.csv", "fig6.csv", "fig7.csv", "fig8.csv")

# SHA-256 of each figure CSV, recorded from the per-point evaluation of
# every sweep: whole-sweep evaluation must write the same bytes
FIGURES_GOLDEN = {
    "baseline": (
        default_config().to_dict,
        dict(zip(FIGURE_NAMES, (
            "9822708b913bca51e159a0ed825ecbe110a986778429ea4b522b44b9709e4996",
            "90fdc2f8f9c3a5a0139b1b84bd62bba95bc0df07babc310f2677aafd36255ad5",
            "9081385712c5c537999c2684ceab057f7abbc47491053ae05b4550096c517e25",
            "b0b24087f5e667378fd12f92ccc374e3b7433fb32486d0c9d3fc6b3e4c3f40e4",
        ))),
    ),
    "sweep_m100": (
        lambda: sweep_doc(100),
        dict(zip(FIGURE_NAMES, (
            "8a88d9f308456d691f79cedc3250beec7a9c9164ce133151e25692aaafd23b9c",
            "d626ffecc5124c74b74f2a174987cb38f05e358b5e9117b5328bbaa7474410ef",
            "bd679edcd59015639e0c72f59026c8c6b900291b4cabdeb79f12ce88d502d846",
            "18a57ecc6490376be91faefaa7235c16fd73f77e66ad9a27e9f71f82e53c0854",
        ))),
    ),
    "sweep_m1000": (
        lambda: sweep_doc(1000),
        dict(zip(FIGURE_NAMES, (
            "8a88d9f308456d691f79cedc3250beec7a9c9164ce133151e25692aaafd23b9c",
            "01a4ccc5cc7086c17bb3a5fc2ff026c31e4ff293c9df7e6b0d2a79df17225665",
            "bd679edcd59015639e0c72f59026c8c6b900291b4cabdeb79f12ce88d502d846",
            "18a57ecc6490376be91faefaa7235c16fd73f77e66ad9a27e9f71f82e53c0854",
        ))),
    ),
    "sweep_m10000": (
        lambda: sweep_doc(10_000),
        dict(zip(FIGURE_NAMES, (
            "8a88d9f308456d691f79cedc3250beec7a9c9164ce133151e25692aaafd23b9c",
            "1e373eb8ef8aa7efd6378f8f4f7e7bebbc2c7f54ef32bb92d41236d82a13ecab",
            "bd679edcd59015639e0c72f59026c8c6b900291b4cabdeb79f12ce88d502d846",
            "18a57ecc6490376be91faefaa7235c16fd73f77e66ad9a27e9f71f82e53c0854",
        ))),
    ),
    "weighted_traffic": (
        weighted_traffic_doc,
        dict(zip(FIGURE_NAMES, (
            "9822708b913bca51e159a0ed825ecbe110a986778429ea4b522b44b9709e4996",
            "90fdc2f8f9c3a5a0139b1b84bd62bba95bc0df07babc310f2677aafd36255ad5",
            "9081385712c5c537999c2684ceab057f7abbc47491053ae05b4550096c517e25",
            "8024abca0d753aea93b84cda1bcf2bdcfcd23b7368a688cf962618108bc35bd8",
        ))),
    ),
}


class TestFiguresGolden:
    @pytest.mark.parametrize("name", sorted(FIGURES_GOLDEN))
    def test_figure_digests(self, tmp_path, name):
        build, digests = FIGURES_GOLDEN[name]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(build()))
        out = tmp_path / "figs"
        assert main(["figures", "--config", str(path), "--out", str(out)]) == 0
        got = {fig: hashlib.sha256((out / fig).read_bytes()).hexdigest() for fig in FIGURE_NAMES}
        assert got == digests
