import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sdlb import cli
from sdlb.config import ScenarioConfig, default_config
from sdlb.timing import (
    HscaTimingParams,
    TimingParams,
    check_swept_rates,
    swept_processing_times,
    total_processing_time_hsca,
    total_processing_time_sda,
)


def sda_params(**kw):
    base = dict(
        t1=5e-6, d_rl=500.0, s_rl=5e5, d_ll=500.0, s_ll=5e5,
        lambda_report=500.0, mu_serve=1000.0,
    )
    base.update(kw)
    return TimingParams(**base)


def hsca_params(**kw):
    base = dict(
        t1=5e-6, d_rr=500.0, s_rr=5e5, d_ris=500.0, s_ris=5e5,
        d_ibi=500.0, s_ibi=5e5, rho_ra=0.5, rho_is=0.5, mu=1000.0,
    )
    base.update(kw)
    return HscaTimingParams(**base)


def mm1_sojourn_plus_wait(rho, mu):
    """One stage of the processing-time formulas: the M/M/1 sojourn
    W = 1/(mu(1-rho)) plus the wait in queue Wq = rho/(mu(1-rho))."""
    return 1.0 / (mu * (1.0 - rho)) + rho / (mu * (1.0 - rho))


class TestSdaProcessingTime:
    def test_queue_only(self):
        p = sda_params(t1=0.0, d_rl=0.0, d_ll=0.0, lambda_report=0.0)
        assert total_processing_time_sda(p) == pytest.approx(0.003, rel=1e-12)

    def test_reference_value_ms(self):
        # 1 ms per hop, rho = 0.5, mu = 1/ms: 0.005 + 1 + 9 + 1 ms
        assert total_processing_time_sda(sda_params()) * 1e3 == pytest.approx(
            11.005, rel=1e-12
        )

    def test_strictly_increasing_in_arrival_rate(self):
        values = [
            total_processing_time_sda(sda_params(lambda_report=r))
            for r in range(0, 1000, 50)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_stage_decomposition(self):
        p = sda_params(lambda_report=700.0)
        stage = mm1_sojourn_plus_wait(p.rho, p.mu_serve)
        stages = (
            p.t1
            + p.d_rl / p.s_rl
            + stage  # manager
            + p.d_ll / p.s_ll
            + stage  # first backup
            + stage  # second backup
        )
        assert total_processing_time_sda(p) == pytest.approx(stages, abs=1e-12)

    def test_unstable_rejected_at_construction(self):
        with pytest.raises(ValueError):
            sda_params(lambda_report=1000.0)
        with pytest.raises(ValueError):
            sda_params(s_rl=0.0)


class TestHscaProcessingTime:
    def test_zero_distances(self):
        p = hsca_params(t1=0.0, d_rr=0.0, d_ris=0.0, d_ibi=0.0, rho_ra=0.0,
                        rho_is=0.0, mu=1.0)
        assert total_processing_time_hsca(p) == pytest.approx(3.0, rel=1e-12)

    def test_reference_value_ms(self):
        assert total_processing_time_hsca(hsca_params()) * 1e3 == pytest.approx(
            12.005, rel=1e-12
        )

    def test_stage_decomposition(self):
        p = hsca_params(rho_ra=0.3, rho_is=0.7)
        stages = (
            p.t1
            + p.d_rr / p.s_rr
            + p.d_ris / p.s_ris
            + p.d_ibi / p.s_ibi
            + mm1_sojourn_plus_wait(p.rho_ra, p.mu)
            + 2 * mm1_sojourn_plus_wait(p.rho_is, p.mu)
        )
        assert total_processing_time_hsca(p) == pytest.approx(stages, abs=1e-12)

    def test_invalid_utilisation(self):
        with pytest.raises(ValueError):
            hsca_params(rho_is=1.0)


class TestMatchedComparison:
    def test_gap_is_one_hop_exactly(self):
        for rate in (100.0, 300.0, 500.0, 700.0, 900.0):
            sda = sda_params(lambda_report=rate)
            rho = rate / 1000.0
            hsca = hsca_params(rho_ra=rho, rho_is=rho)
            gap = total_processing_time_hsca(hsca) - total_processing_time_sda(sda)
            assert abs(gap - sda.d_ll / sda.s_ll) < 1e-12

    def test_sda_below_hsca(self):
        sda = sda_params()
        hsca = hsca_params()
        assert total_processing_time_sda(sda) < total_processing_time_hsca(hsca)

    def test_gap_constant_in_rho(self):
        gaps = []
        for rate in (100.0, 500.0, 900.0):
            rho = rate / 1000.0
            gaps.append(
                total_processing_time_hsca(hsca_params(rho_ra=rho, rho_is=rho))
                - total_processing_time_sda(sda_params(lambda_report=rate))
            )
        assert max(gaps) - min(gaps) < 1e-12

    def test_replace_keeps_validation(self):
        p = sda_params()
        with pytest.raises(ValueError):
            dataclasses.replace(p, lambda_report=1500.0)


def per_point(p, h, rate):
    """Both times at one rate through the parameter sets: what the sweep replaces."""
    rho = rate / h.mu
    return (total_processing_time_sda(dataclasses.replace(p, lambda_report=rate)),
            total_processing_time_hsca(dataclasses.replace(h, rho_ra=rho, rho_is=rho)))


class TestSweptProcessingTimes:
    def test_bit_identical_to_per_point(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = sda_params(t1=rng.uniform(0, 1e-5), d_rl=rng.uniform(1, 900),
                           d_ll=rng.uniform(1, 900), s_ll=rng.uniform(1e4, 1e6),
                           lambda_report=0.0, mu_serve=rng.uniform(10, 2000))
            h = hsca_params(t1=p.t1, d_ibi=rng.uniform(1, 900), mu=rng.uniform(10, 2000))
            rates = rng.uniform(0, min(p.mu_serve, h.mu), 50)
            sda, hsca = swept_processing_times(p, h, rates)
            expected = [per_point(p, h, rate) for rate in rates.tolist()]
            assert list(zip(sda.tolist(), hsca.tolist())) == expected

    @pytest.mark.parametrize("rate,mu,error", [
        (-1.0, 1000.0, "lambda_report must be >= 0, got -1.0"),
        (1000.0, 1000.0, "utilisation must satisfy 0 <= rho < 1, got rho=1"),
        (950.0, 900.0, "rho_ra must satisfy 0 <= rho < 1, got 1.05556"),
    ])
    def test_check_matches_the_parameter_sets(self, rate, mu, error):
        p, h = sda_params(), hsca_params(mu=mu)
        with pytest.raises(ValueError) as per_point_error:
            per_point(p, h, rate)
        with pytest.raises(ValueError) as swept_error:
            check_swept_rates(p, h, np.array([rate]))
        assert str(swept_error.value) == str(per_point_error.value) == error

    def test_check_passes_stable_rates(self):
        check_swept_rates(sda_params(), hsca_params(), np.array([0.0, 999.0]))


@st.composite
def swept_rate_cases(draw, finite=False):
    """(mu_serve, mu, rates): rates on, next to and past the ends of the
    interval that passes, mixed with valid ones."""
    mu_serve = draw(st.floats(1e-3, 1e6))
    mu = draw(st.sampled_from([mu_serve]) | st.floats(1e-3, 1e6))
    edges = [-1.0, -5e-324, -0.0, 0.0, 5e-324]
    for top in (mu_serve, mu):
        edges += [math.nextafter(top, 0.0), top, math.nextafter(top, math.inf), 2 * top]
    if not finite:
        edges += [math.nan, math.inf, -math.inf]
    rate = (st.sampled_from(edges) | st.floats(0.0, min(mu_serve, mu))
            | st.floats(allow_nan=not finite, allow_infinity=not finite))
    return mu_serve, mu, draw(st.lists(rate, max_size=8))


def raises_value_error(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError:
        return True
    return False


class TestCheckSweptRates:
    @given(swept_rate_cases())
    @example((1000.0, 900.0, [100.0, math.nan, 200.0]))
    @example((1000.0, 900.0, [100.0, -0.0, math.inf]))
    @example((900.0, 1000.0, [899.0, 900.0]))
    def test_fails_iff_some_rate_fails_alone(self, case):
        mu_serve, mu, rates = case
        p, h = sda_params(mu_serve=mu_serve, lambda_report=0.0), hsca_params(mu=mu)
        some = any(raises_value_error(per_point, p, h, rate) for rate in rates)
        assert raises_value_error(check_swept_rates, p, h, np.array(rates)) == some

    @settings(deadline=None)
    @given(swept_rate_cases(finite=True))
    @example((1000.0, 1000.0, [100.0, 1000.0, -1.0]))
    @example((1000.0, 900.0, [100.0, 950.0, 200.0, -1.0]))
    @example((900.0, 1000.0, [0.0, -0.0, 950.0, 80.0]))
    def test_figures_names_the_first_rate_that_fails_alone(self, case):
        mu_serve, mu, rates = case
        doc = default_config().to_dict()
        doc["timing"].update(mu_serve=mu_serve, lambda_report=0.0)
        doc["hsca_timing"]["mu"] = mu
        doc["sweeps"]["arrival_rates"] = rates or [0.0]
        cfg = ScenarioConfig.from_dict(doc)
        # the message of the per-value check, in list order
        error = None
        for rate in cfg.sweeps.arrival_rates:
            try:
                check_swept_rates(cfg.timing, cfg.hsca_timing, [rate])
            except ValueError as exc:
                error = f"config error: sweeps.arrival_rates value {rate}: {exc}\n"
                break
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp, "doc.json"), Path(tmp, "figs")
            path.write_text(json.dumps(doc))
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main(["figures", "--config", str(path), "--out", str(out)])
            if error is None:
                assert code == 0 and (out / "fig7.csv").exists()
            else:
                assert (code, stderr.getvalue()) == (2, error)
                assert not out.exists()

    def test_empty_sweep_passes(self):
        check_swept_rates(sda_params(), hsca_params(), np.array([]))
