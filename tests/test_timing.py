import dataclasses

import numpy as np
import pytest

from sdlb.timing import (
    HscaTimingParams,
    TimingParams,
    check_swept_rate,
    mm1_delay,
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


class TestMm1Delay:
    def test_empty_queue(self):
        assert mm1_delay(0.0, 1.0) == (0.0, 1.0)

    def test_half_utilisation(self):
        wait, service = mm1_delay(0.5, 1.0)
        assert wait == pytest.approx(1.0, rel=1e-14)
        assert service == pytest.approx(2.0, rel=1e-14)

    def test_heavy_utilisation(self):
        wait, service = mm1_delay(0.9, 2.0)
        assert wait == pytest.approx(4.5, rel=1e-14)
        assert service == pytest.approx(5.0, rel=1e-14)
        assert wait + service == pytest.approx((0.9 + 1) / (2 * 0.1), rel=1e-14)

    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="unstable queue"):
            mm1_delay(1.0, 1.0)
        with pytest.raises(ValueError, match="unstable queue"):
            mm1_delay(1.2, 1.0)
        with pytest.raises(ValueError):
            mm1_delay(0.5, 0.0)


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
        wait, service = mm1_delay(p.rho, p.mu_serve)
        stages = (
            p.t1
            + p.d_rl / p.s_rl
            + (wait + service)  # manager
            + p.d_ll / p.s_ll
            + (wait + service)  # first backup
            + (wait + service)  # second backup
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
        ra_wait, ra_service = mm1_delay(p.rho_ra, p.mu)
        is_wait, is_service = mm1_delay(p.rho_is, p.mu)
        stages = (
            p.t1
            + p.d_rr / p.s_rr
            + p.d_ris / p.s_ris
            + p.d_ibi / p.s_ibi
            + (ra_wait + ra_service)
            + 2 * (is_wait + is_service)
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
            check_swept_rate(p, h, rate)
        assert str(swept_error.value) == str(per_point_error.value) == error

    def test_check_passes_stable_rates(self):
        check_swept_rate(sda_params(), hsca_params(), 0.0)
        check_swept_rate(sda_params(), hsca_params(), 999.0)
