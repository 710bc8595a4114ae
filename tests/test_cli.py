import csv
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sdlb import cli
from sdlb.cli import main
from sdlb.config import MAX_CAPACITY, MEMORY_BUDGET, ScenarioConfig, default_config
from sdlb.queueing import state_probabilities
from sdlb.reliability import MAX_LMMS


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

    def test_series_bytes(self, tmp_path):
        series = cli.MetricSeries(
            sweep_name="lmm_count",
            rows=[(50, "b", 0.25), (3, "a", 1.5), (50, "a", 2.0), (3, "a", 0.1),
                  (10, "b", 1e-20), (3.5, "a", -0.0)],
            provenance=("first formula", "second line"),
        )
        series.write(tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_text() == (
            "# first formula\n"
            "# second line\n"
            "# sweep variable: lmm_count\n"
            "sweep_value,metric,value\n"
            "3,a,0.1\n"
            "3,a,1.5\n"
            "3.5,a,-0.0\n"
            "10,b,1e-20\n"
            "50,a,2.0\n"
            "50,b,0.25\n"
        )

    def test_repeated_value_objects_print_like_each_row(self, tmp_path):
        # the writer formats a value once while the same object repeats on
        # consecutive rows; equal objects of another sign or type must not
        # take its text
        shared, zero, neg_zero = 0.1 + 0.2, 0.0, -0.0
        rows = [
            (5, "a", shared), (1, "a", shared), (1, "b", shared), (2, "a", 7.5),
            (2, "b", shared), (3, "a", zero), (3, "a", neg_zero), (3, "a", zero),
            (4, "a", 3), (4, "a", 3.0), (4, "a", 3), (zero, "c", 1.0),
            (neg_zero, "c", 1.0), (3.0, "c", shared), (6, "a", np.float64(shared)),
            (6, "b", shared), (np.float64(6.0), "b", np.float64(-0.0)),
        ]
        series = cli.MetricSeries(sweep_name="x", rows=rows)
        series.write(tmp_path / "s.csv")
        reference = "".join(f"{x},{metric},{v}\n" for x, metric, v in sorted(rows))
        text = (tmp_path / "s.csv").read_text()
        assert text == "# sweep variable: x\nsweep_value,metric,value\n" + reference
        assert "\n3,a,0.0\n3,a,-0.0\n3,a,0.0\n3.0,c,0.30000000000000004\n" in text
        assert "\n4,a,3\n4,a,3.0\n4,a,3\n" in text
        assert "\n0.0,c,1.0\n-0.0,c,1.0\n" in text

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


def _lost_managers_out_of_order(doc):
    doc["reliability"]["k2_lmms"] = 3
    doc["sweeps"]["reliability_lmm_counts"] = [300, 4, 2, 1]


def _huge_lmm_count(doc):
    doc["sweeps"]["reliability_lmm_counts"] = [3, 4_000_000_000, 0]


def _overflowing_traffic(doc):
    # each intensity is finite, but n'*c + 3n*b overflows a float
    doc["reliability"].update(c_uniform=1e308, b_uniform=1e308)


def _overflowing_copy_cost(doc):
    # d is finite, but 2 * d overflows a float
    doc["overhead"]["d"] = sys.float_info.max


def _overflowing_report_cost(doc):
    # a_i is finite, but a_i * A_i overflows a float
    doc["types"]["wimax"]["report_cost"] = sys.float_info.max


def _overflow_before_unstable_rate(doc):
    # the rate that breaks the rule comes after one whose time overflows
    doc["timing"]["t1"] = 1.7e308
    doc["sweeps"]["arrival_rates"] = [100.0, 1000.0]


def _overflowing_sda_time(doc):
    # t1 is finite, but t1 in ms overflows a float
    doc["timing"]["t1"] = 1.7e308


def _overflowing_hsca_time(doc):
    doc["hsca_timing"]["t1"] = 1.7e308


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
        "fig5_overflowing_copy_cost": (
            _overflowing_copy_cost,
            "config error: overhead: periodic overhead O_p must be finite, got inf "
            "(from overhead.T, overhead.d and types.*.report_cost * ap_count)\n",
        ),
        "fig5_overflowing_report_cost": (
            _overflowing_report_cost,
            "config error: overhead: periodic overhead O_p must be finite, got inf "
            "(from overhead.T, overhead.d and types.*.report_cost * ap_count)\n",
        ),
        "fig7_unstable_rate": (
            _unstable_rate,
            "config error: sweeps.arrival_rates value 1000.0: "
            "utilisation must satisfy 0 <= rho < 1, got rho=1\n",
        ),
        "fig7_overflowing_sda_time": (
            _overflowing_sda_time,
            "config error: sweeps.arrival_rates value 100.0: "
            "processing time from timing must be finite in ms, got inf\n",
        ),
        "fig7_overflow_before_unstable_rate": (
            _overflow_before_unstable_rate,
            "config error: sweeps.arrival_rates value 100.0: "
            "processing time from timing must be finite in ms, got inf\n",
        ),
        "fig7_overflowing_hsca_time": (
            _overflowing_hsca_time,
            "config error: sweeps.arrival_rates value 100.0: "
            "processing time from hsca_timing must be finite in ms, got inf\n",
        ),
        "fig8_lost_lines": (
            _too_many_lost_lines,
            "config error: sweeps.reliability_lmm_counts value 3: "
            "k1_lines must be in 1..2 (junction lines for n=3), got 3\n",
        ),
        "fig8_lost_managers_out_of_order": (
            _lost_managers_out_of_order,
            "config error: sweeps.reliability_lmm_counts value 2: "
            "k2_lmms must be in 1..2, got 3\n",
        ),
        "fig8_huge_lmm_count": (
            _huge_lmm_count,
            "config error: sweeps.reliability_lmm_counts value 4000000000: "
            "n must be <= 1000000, got 4000000000\n",
        ),
        "fig8_overflowing_traffic": (
            _overflowing_traffic,
            "config error: sweeps.reliability_lmm_counts value 3: "
            "total traffic intensity n'*c + 3n*b must be finite, got inf\n",
        ),
        "fig6_coarse_period": (
            _coarse_umts,
            "config error: types.umts: "
            "T too coarse for first-order model: lam*T = 2 >= 1\n",
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


SRC = Path(__file__).resolve().parents[1] / "src"

# ``sdlb`` on its arguments; stderr's last line is the exit code and the
# process's own peak RSS in KiB: ``VmHWM``, not ``ru_maxrss``, into which
# Linux carries the parent's high-water mark across exec
CHILD_WITH_PEAK_RSS = """
import sys
from sdlb.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, hwm, file=sys.stderr)
"""


def run_with_peak_rss(*args):
    """``sdlb`` on ``args`` in a fresh interpreter: the completed process, the
    exit code ``main`` returned and the child's own peak RSS in bytes."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", CHILD_WITH_PEAK_RSS, *args],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    code, rss = map(int, run.stderr.splitlines()[-1].split())
    return run, code, rss * 1024


def test_peak_rss_is_the_childs_own(tmp_path):
    # the parent's high-water mark rises by 64 MiB, touched so it is
    # resident; the child's reported peak must not carry it
    held = np.ones(64 * 2**20 // 8)
    with open("/proc/self/status") as status:
        parent = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    run, code, rss = run_with_peak_rss("figures", "--out", str(tmp_path / "figs"))
    assert code == 0, run.stderr
    assert 0 < rss < parent * 1024 - held.nbytes


def _capacity_kind(doc):
    # UMTS at m = MAX_CAPACITY with lam/mu near 1 and T = 1, on 3 cells
    doc["types"]["umts"].update(lam=0.5, mu=0.45, m=MAX_CAPACITY, k1=0, k2=1)
    doc["overhead"]["T"] = 1.0
    doc["topology"].update(grid_count=3, cells_per_grid=1)


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
        assert not out.exists()

    def test_overflowing_window_index_is_config_error(self, tmp_path, capsys):
        # horizon / T near 10^305: the int64 window indices would be garbage
        doc = default_config().to_dict()
        doc["types"]["wimax"]["lam"] = 1e-300
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "val"
        code = main(["validate", "--config", str(path), "--out", str(out),
                     "--target-events", "20000"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: types.wimax: horizon / window must be < 2**63, got ")
        # the derived horizon is named together with the settings it comes from
        assert err.endswith(
            "(from types.wimax.lam = 1e-300, sim.target_events = 20000, overhead.T = 0.1)\n")
        assert not (out / "validation_report.txt").exists()
        assert not out.exists()

    def test_largest_capacity_in_bounded_memory_and_output(self, tmp_path):
        # UMTS at m = MAX_CAPACITY with lam/mu near 1 and T = 1: the oracle
        # and the per-state checks run on the support (0..170), the cell
        # kernel's tallies on the occupancy reached. Run in a fresh
        # interpreter, so that its peak RSS is this run's alone
        doc = default_config().to_dict()
        _capacity_kind(doc)
        doc["sim"]["target_events"] = 20_000
        path = tmp_path / "capacity.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "val"
        run, code, rss = run_with_peak_rss("validate", "--config", str(path),
                                           "--target-events", "20000", "--out", str(out))
        assert code <= 1, run.stderr
        assert rss <= MEMORY_BUDGET
        lines = (out / "validation_report.txt").read_text().splitlines()
        assert len(lines) < 1000

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


def _no_wimax_traffic(doc):
    doc["types"]["wimax"]["lam"] = 0.0


def _coarse_period(doc):
    doc["overhead"]["T"] = 0.9  # refuses UMTS and WLAN, judges WiMax


# (edit of the baseline, SHA-256 of validation_report.txt, exit code) at
# --seed 1 --target-events 20000: pins every line of the file, the section
# headers and the no-traffic and refusal lines included
VALIDATION_REPORT_GOLDEN = {
    "baseline": (
        lambda doc: None,
        "07f58b9ae7edf8b2cf98bf75e31964e302550c7560c57b0712efa20868332479",
        1,
    ),
    "no_traffic": (
        _no_wimax_traffic,
        "8bda17696b8d842ea7785a1583165924ba30a1090161e9174498d9b57bf32357",
        1,
    ),
    "comparison_refused": (
        _coarse_period,
        "d1d034a783eb230e5240bd646396a4b6c4480cf8a20b1a2ed88b8bd5563f137d",
        1,
    ),
}


class TestValidationReportGolden:
    @pytest.mark.parametrize("name", sorted(VALIDATION_REPORT_GOLDEN))
    def test_report_digest(self, tmp_path, name):
        edit, digest, exit_code = VALIDATION_REPORT_GOLDEN[name]
        doc = default_config().to_dict()
        edit(doc)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "val"
        code = main(["validate", "--config", str(path), "--out", str(out),
                     "--seed", "1", "--target-events", "20000"])
        assert code == exit_code
        report = (out / "validation_report.txt").read_bytes()
        assert hashlib.sha256(report).hexdigest() == digest


# (edit of the baseline, SHA-256 of crossings.csv, kinds with rows) at the
# run of VALIDATION_REPORT_GOLDEN: a kind without traffic or whose
# comparison is refused has no rows
CROSSINGS_GOLDEN = {
    "baseline": (
        lambda doc: None,
        "45a463b8cab9c8d7182b48b8efc5019b818ae73a4f5af59998b145f5450a5187",
        ["UMTS", "WIMAX", "WLAN"],
    ),
    "no_traffic": (
        _no_wimax_traffic,
        "feae35d2edef53c8fb447cb0638bbe4ba625745a1a004f9ba29127520ee4fe5a",
        ["UMTS", "WLAN"],
    ),
    "comparison_refused": (
        _coarse_period,
        "fd859a7fce1cf1cf75f124f1670f136e4833c4cfada21ff3cb5d8637b337c2d0",
        ["WIMAX"],
    ),
}


def _validate(tmp_path, edit, *argv):
    """Exit code and output directory of ``sdlb validate`` on the edited baseline."""
    doc = default_config().to_dict()
    edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "val"
    return main(["validate", "--config", str(path), "--out", str(out), *argv]), out


class TestCrossings:
    @pytest.mark.parametrize("name", sorted(CROSSINGS_GOLDEN))
    def test_crossings_digest(self, tmp_path, capsys, name):
        edit, digest, kinds = CROSSINGS_GOLDEN[name]
        code, out = _validate(tmp_path, edit, "--seed", "1", "--target-events", "20000")
        assert code == 1
        path = out / "crossings.csv"
        assert capsys.readouterr().out.endswith(
            f"wrote {out / 'validation_report.txt'}\nwrote {path}\n")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        _, header, rows = read_series(path)
        assert header == ["kind", "crossing", "observed", "first_order", "exact", "ratio"]
        assert [row[:2] for row in rows] == [
            [kind, crossing] for kind in kinds for crossing in ("U->B", "B->O", "O->B", "B->U")]

    def test_baseline_first_order_gaps(self, tmp_path):
        # the gaps of ROADMAP item 2's table, which the simulator resolves
        # at 10^6 events per kind
        _, out = _validate(tmp_path, lambda doc: None, "--target-events", "2000")
        _, _, rows = read_series(out / "crossings.csv")
        ratio = {(kind, crossing): float(r) for kind, crossing, _, _, _, r in rows}
        assert round(ratio["UMTS", "U->B"], 3) == 0.979
        assert round(ratio["WIMAX", "B->O"], 3) == 0.985
        assert round(ratio["WLAN", "B->U"], 3) == 1.034
        for kind, crossing, _, first_order, exact, r in rows:
            assert float(r) == float(first_order) / float(exact)

    def test_impossible_crossing_leaves_ratio_empty(self, tmp_path):
        # k1 = 0: no occupancy lies below k1, so U->B is 0 both ways
        _, out = _validate(tmp_path, lambda doc: doc["types"]["wimax"].update(k1=0),
                           "--target-events", "2000")
        _, _, rows = read_series(out / "crossings.csv")
        assert ["WIMAX", "U->B", "0.0", "0.0", "0.0", ""] in rows


class TestOneLawPerKind:
    """A command builds each kind's stationary law once: the horizon, the
    first-order crossings, the judge, the exact oracle and the overhead
    all share it."""

    @pytest.mark.parametrize("edit", [lambda doc: None, _capacity_kind],
                             ids=["baseline", "capacity"])
    def test_validate(self, tmp_path, edit):
        state_probabilities.cache_clear()
        code, _ = _validate(tmp_path, edit, "--target-events", "2000")
        assert code <= 1
        assert state_probabilities.cache_info().misses == 3

    def test_figures(self, tmp_path):
        state_probabilities.cache_clear()
        assert main(["figures", "--out", str(tmp_path / "figs")]) == 0
        assert state_probabilities.cache_info().misses == 3


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

    def test_crash_exits_3_with_traceback(self, tmp_path, capsys, monkeypatch):
        def crash(cfg):
            raise RuntimeError("figure sweep exploded")

        monkeypatch.setattr(cli, "cmd_figures", crash)
        assert main(["figures", "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("Traceback")
        assert err.endswith("RuntimeError: figure sweep exploded\n")

    @pytest.mark.parametrize("command", ["figures", "validate", "scenario"])
    @pytest.mark.parametrize("target", ["taken", "taken/sub"], ids=["file", "below-file"])
    def test_output_dir_that_is_a_file_is_config_error(self, tmp_path, capsys, command,
                                                        target):
        (tmp_path / "taken").write_text("not a directory\n")
        out = tmp_path / target
        assert main([command, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: output_dir: cannot use {str(out)!r} ")
        assert "Traceback" not in err
        assert (tmp_path / "taken").read_text() == "not a directory\n"

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
    doc["overhead"] = {"T": T, "d": 1.31}
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
    """Non-unit traffic weights, two lost lines and managers, and LMM
    counts on both sides of the log-space binomial limit (170)."""
    doc = default_config().to_dict()
    doc["reliability"].update(c_uniform=0.3, b_uniform=1 / 3, k1_lines=2, k2_lmms=2)
    doc["sweeps"]["reliability_lmm_counts"] = [2, 3, 4, 5, 7, 10, 99, 168, 169, 170, 171,
                                               172, 173, 250, 500, 1000, 4321]
    return doc


def unordered_lists_doc():
    """Sweep lists out of order and with repeats, rates given as JSON ints
    among floats, K1 = 2 lost lines and K2 = 3 lost managers, and LMM
    counts up to MAX_LMMS."""
    doc = default_config().to_dict()
    doc["reliability"].update(k1_lines=2, k2_lmms=3)
    doc["sweeps"] = {
        "lmm_counts": [300, 5, 1, 5, 50, 1, MAX_LMMS, 2],
        "reliability_lmm_counts": [MAX_LMMS, 171, 3, 170, 7, 3, 4321, 171, 500, 6],
        "arrival_rates": [900, 100.0, 250, 100, 899.5, 250.0, 1, 500, 1e-3, 900],
    }
    return doc


def certain_reliability_doc(r_lmm, r_c):
    """r_lmm and r_c at 0 or 1, so that binomial_pmf's q = 0 and q = 1
    branches run above n = 170: K1 = 171 lines (all of n = 508's and
    510's) and K2 = 508 managers (all of n = 508) fail."""
    doc = default_config().to_dict()
    doc["reliability"].update(r_lmm=r_lmm, r_c=r_c, k1_lines=171, k2_lmms=508)
    doc["sweeps"]["reliability_lmm_counts"] = [600, 508, 510, MAX_LMMS, 508, 509]
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
            "b58354faced356bfe523d3ed58c8360e39d9bc463170bd031630dfffe4af4d9e",
        ))),
    ),
    # recorded from the per-point evaluation and per-item list decoding,
    # before fig 8 was scored once per sweep and the lists decoded in bulk
    "unordered_lists": (
        unordered_lists_doc,
        dict(zip(FIGURE_NAMES, (
            "5faa435383abb4c1b7bb84a6e4971f8fdcad13930cbe678fd09d408f813f5902",
            "65b3df12d4faf1727490111d63b00e61f8fbdd64f6aa13d1cc6b531aa3d5634e",
            "0bc5c7a02d9012e033942b87513805fc438e99293257ba1bab36ebfcbe8f8a3d",
            "70f6bd0cbac2339904b9cce655af5995f71a05284aabda3d9030792ed5c9a5cb",
        ))),
    ),
    "certain_r_lmm0_r_c1": (
        lambda: certain_reliability_doc(0.0, 1.0),
        dict(zip(FIGURE_NAMES, (
            "9822708b913bca51e159a0ed825ecbe110a986778429ea4b522b44b9709e4996",
            "90fdc2f8f9c3a5a0139b1b84bd62bba95bc0df07babc310f2677aafd36255ad5",
            "9081385712c5c537999c2684ceab057f7abbc47491053ae05b4550096c517e25",
            "f28d736cc269c85e8d31cc7ed8f95c3cd894f597acf4601b237d6068925beb9d",
        ))),
    ),
    "certain_r_lmm1_r_c0": (
        lambda: certain_reliability_doc(1.0, 0.0),
        dict(zip(FIGURE_NAMES, (
            "9822708b913bca51e159a0ed825ecbe110a986778429ea4b522b44b9709e4996",
            "90fdc2f8f9c3a5a0139b1b84bd62bba95bc0df07babc310f2677aafd36255ad5",
            "9081385712c5c537999c2684ceab057f7abbc47491053ae05b4550096c517e25",
            "dfb9b427386904f917194c7b1e18c14320c29eba47756a2ca35ccd4014099be3",
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


def heavy_scenario_doc():
    """The baseline with every kind near its upper threshold, one LMM
    fault and one border request, over 20 s: migrations and notices every
    tick."""
    doc = default_config().to_dict()
    for spec in doc["types"].values():
        spec.update(lam=8.0, mu=0.5, m=40, k1=12, k2=18)
    doc["sim"].update(horizon=20.0, faults=[{"time": 7.0, "lmm_id": 0}],
                      borders=[{"time": 2.5, "cell_id": 9}])
    return doc


def border_burst_doc():
    """The same traffic with LMM 1 failing and 20 border requests at 5.0 s,
    a report-tick and heartbeat instant: arrivals, departures and control
    events all queued, and control events sharing an instant."""
    doc = heavy_scenario_doc()
    doc["sim"].update(faults=[{"time": 7.0, "lmm_id": 1}],
                      borders=[{"time": 5.0, "cell_id": c} for c in range(20)])
    return doc


# SHA-256 of ``sdlb scenario``'s output files: the CLI must keep writing
# these bytes. The first two were recorded from the report tick that
# classified every changed cell, the border burst from the zone-table tick
SCENARIO_GOLDEN = {
    "baseline": (
        default_config().to_dict, [],
        {"scenario_report.csv":
         "8698ad85abd6a4b9fb1e3505fcd30df5ad37315529ade734fd7c112a68a64dd4"},
    ),
    "heavy_traced": (
        heavy_scenario_doc, ["--trace"],
        {"scenario_report.csv":
         "63ef47e6bd4db40dca14b66f955de4db7395c3455742d1061e82ab72ab9c8c89",
         "trace.csv": "b606b2d599f37af13bddd276824deba1ccd5ec2661d96722c60c18ca39694c19"},
    ),
    "border_burst_traced": (
        border_burst_doc, ["--trace"],
        {"scenario_report.csv":
         "35f3ad33002eeae93154b8e7d420b22aac4ab85fde4ef3ca75c33563be27f034",
         "trace.csv": "c3ebc52abd3c77f9fe33ee657b6a5b5a7be47470b7cf8f76de656fe18f1493d4"},
    ),
}


class TestScenarioGolden:
    @pytest.mark.parametrize("name", sorted(SCENARIO_GOLDEN))
    def test_output_digests(self, tmp_path, name):
        build, flags, digests = SCENARIO_GOLDEN[name]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(build()))
        out = tmp_path / "scen"
        assert main(["scenario", "--config", str(path), "--out", str(out), *flags]) == 0
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in digests}
        assert got == digests


def _load_tracing():
    """perfbench/tracing.py as a module, executed from its source text so
    that nothing is written next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


class TestBenchmarkHooks:
    """The benchmark finds sdlb's functions by name and swaps them out;
    moving or renaming one must not silently empty its metrics."""

    def test_traced_names_resolve(self):
        tracing = _load_tracing()
        for table in (tracing.TRACED, tracing.COUNTED):
            for layer, names in table.items():
                module = importlib.import_module(f"sdlb.{layer}")
                for name in names:
                    if "." in name:
                        cls_name, meth = name.split(".")
                        assert meth in vars(getattr(module, cls_name)), f"{layer}.{name}"
                    else:
                        assert callable(getattr(module, name, None)), f"{layer}.{name}"

    def test_traced_validate_records_each_kind(self, tmp_path):
        tracing = _load_tracing()
        tracer = tracing.Tracer(time.perf_counter)
        tracer.install(keep_results={"simkernel.validate_against_analytic"})
        try:
            main(["validate", "--out", str(tmp_path), "--target-events", "2000"])
        finally:
            tracer.uninstall()
        spans = Counter(span[0] for span in tracer.spans)
        assert spans["simkernel.run_cell_mc"] == 3
        assert spans["simkernel.validate_against_analytic"] == 3
        # one first-order value per crossing and judged kind: both output
        # files come from the one verdict
        assert spans["queueing.transition_probability"] == 12
        assert len(tracer.results) == 3

    def test_kernels_are_called_through_cli(self, tmp_path, monkeypatch):
        calls = Counter()

        def counting(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in ("run_cell_mc", "run_system_sim"):
            monkeypatch.setattr(cli, name, counting(name))
        doc = default_config().to_dict()
        _no_wimax_traffic(doc)
        doc["output_dir"] = str(tmp_path)
        doc["sim"].update(target_events=2000, horizon=20.0)
        cfg = ScenarioConfig.from_dict(doc)
        cli.cmd_validate(cfg)
        assert calls == {"run_cell_mc": 2}
        cli.cmd_scenario(cfg)
        assert calls == {"run_cell_mc": 2, "run_system_sim": 1}
