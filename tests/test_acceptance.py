"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Tolerances are pinned here, not configurable.
"""
import dataclasses
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from sdlb.config import default_config
from sdlb.overhead import nonperiodic_overhead, periodic_overhead
from sdlb.queueing import (
    SystemTypeParams,
    TransitionKind,
    state_probabilities,
    transition_probability,
)
from sdlb.reliability import integrated_reliability, uniform_reliability_params
from sdlb.simkernel import (
    LmmFault,
    SimScenario,
    horizon_for_events,
    run_cell_mc,
    run_system_sim,
)
from sdlb.timing import total_processing_time_hsca, total_processing_time_sda
from sdlb.topology import AccessNetworkKind, build_topology, max_junction_lines
from sdlb.validation import validate_against_analytic

UMTS = AccessNetworkKind.UMTS


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_flat_periodic_overhead():
    with criterion(1, "flat periodic overhead"):
        cfg = default_config()
        start = time.perf_counter()
        values = [periodic_overhead(cfg.overhead_params()).op for _ in cfg.sweeps.lmm_counts]
        elapsed = time.perf_counter() - start
        assert list(cfg.sweeps.lmm_counts) == [1, 50, 100, 150, 200, 250, 300]
        assert all(v == 21020.0 for v in values)
        assert np.var(values) == 0.0
        assert elapsed < 1.0


def test_criterion_2_flat_nonperiodic_overhead():
    with criterion(2, "flat non-periodic overhead"):
        cfg = default_config()
        start = time.perf_counter()
        values = [nonperiodic_overhead(cfg.overhead_params()) for _ in cfg.sweeps.lmm_counts]
        elapsed = time.perf_counter() - start
        assert values[0] > 0.0
        assert np.var(values) == 0.0
        assert len(set(values)) == 1
        assert elapsed < 1.0


def test_criterion_3_processing_time_ordering():
    with criterion(3, "processing-time ordering and gap"):
        cfg = default_config()
        start = time.perf_counter()
        sda_series = []
        hsca_series = []
        for rate in cfg.sweeps.arrival_rates:
            sda_series.append(
                total_processing_time_sda(
                    dataclasses.replace(cfg.timing, lambda_report=rate)
                )
            )
            rho = rate / cfg.hsca_timing.mu
            hsca_series.append(
                total_processing_time_hsca(
                    dataclasses.replace(cfg.hsca_timing, rho_ra=rho, rho_is=rho)
                )
            )
        elapsed = time.perf_counter() - start
        hop = cfg.timing.d_ll / cfg.timing.s_ll
        for sda, hsca in zip(sda_series, hsca_series):
            assert sda < hsca
            assert abs((hsca - sda) - hop) < 1e-12
        assert all(b > a for a, b in zip(sda_series, sda_series[1:]))
        assert all(b > a for a, b in zip(hsca_series, hsca_series[1:]))
        assert elapsed < 1.0


def exact_reference_reliability() -> Fraction:
    """Arbitrary-precision oracle for the n=3 reference configuration."""
    n = 3
    n_lines = max_junction_lines(n)
    r_lmm = Fraction(92, 100)
    r_c = Fraction(97, 100)
    p_lmm = 1 - (1 - r_lmm) ** n
    p_c = 1 - (1 - r_c) ** 2
    p1 = p_lmm * math.comb(n_lines, 1) * (1 - p_c) * p_c ** (n_lines - 1) * r_lmm**n
    p2 = (1 - p_lmm) * p_c * math.comb(n, 1) * (1 - r_lmm) * r_lmm ** (n - 1)
    l1 = Fraction(1)
    l2 = Fraction(n_lines + 3)
    total = Fraction(n_lines + 3 * n)
    return 1 - (p1 * l1 + p2 * l2) / total


def test_criterion_4_reliability_trend():
    with criterion(4, "reliability trend and reference value"):
        cfg = default_config()
        start = time.perf_counter()
        grid = list(cfg.sweeps.reliability_lmm_counts)
        scores = [
            integrated_reliability(
                uniform_reliability_params(
                    n, cfg.reliability.r_lmm, cfg.reliability.r_c,
                    k1_lines=1, k2_lmms=1,
                )
            )
            for n in grid
        ]
        elapsed = time.perf_counter() - start
        assert grid[0] == 3 and grid[-1] == 300
        assert all(b >= a for a, b in zip(scores, scores[1:]))
        oracle = float(exact_reference_reliability())
        assert abs(scores[0] - oracle) < 1e-4
        assert abs(oracle - 0.99983) < 1e-4
        assert elapsed < 1.0


def test_criterion_5_queueing_oracle_equivalence():
    with criterion(5, "Monte Carlo vs closed-form occupancy"):
        rng = np.random.default_rng(20240917)
        start = time.perf_counter()
        for i in range(20):
            lam = float(rng.uniform(0.2, 3.0))
            mu = float(rng.uniform(0.2, 3.0))
            m = int(rng.integers(1, 11))
            k1 = m // 3
            k2 = max(k1 + 1, (2 * m) // 3)
            p = SystemTypeParams(lam=lam, mu=mu, m=m, k1=k1, k2=k2)
            horizon = horizon_for_events(p, 1_000_000)
            report = run_cell_mc(p, horizon=horizon, window=0.1, seed=1000 + i)
            stats = report.per_type[UMTS]
            assert stats.events >= 1_000_000, f"set {i}: {stats.events} events"
            ana = state_probabilities(p).probs
            for k in range(m + 1):
                se = max(
                    float(stats.occupancy_se[k]),
                    math.sqrt(ana[k] * (1 - ana[k]) / stats.events),
                )
                assert abs(stats.occupancy_freq[k] - ana[k]) <= 3 * se, (
                    f"set {i} (lam={lam:.3f} mu={mu:.3f} m={m}) state {k}: "
                    f"emp={stats.occupancy_freq[k]:.3e} ana={ana[k]:.3e} se={se:.3e}"
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_6_first_order_transition_validation():
    with criterion(6, "first-order transition validation"):
        p = SystemTypeParams(lam=1.0, mu=1.0, m=4, k1=1, k2=3)
        T = 0.02  # lam*T = 0.02 <= 0.05
        horizon = 1.0e5
        report = run_cell_mc(p, horizon=horizon, window=T, seed=271828)
        stats = report.per_type[UMTS]
        nwin = stats.window_count
        for kind in TransitionKind:
            ana = transition_probability(p, T, kind)
            emp = stats.transition_counts[kind] / nwin
            band = max(0.10 * ana, 3 * math.sqrt(ana * (1 - ana) / nwin))
            assert abs(emp - ana) <= band, (
                f"{kind.value}: emp={emp:.4e} ana={ana:.4e} band={band:.2e}"
            )

        # negative control: the same series must not satisfy a wrong model
        wrong = SystemTypeParams(lam=1.0, mu=1.5, m=4, k1=1, k2=3)
        fooled = run_cell_mc(wrong, horizon=horizon, window=T, seed=271828)
        # claim the wrong series is the right one
        stats = fooled.per_type[UMTS]
        stats.params = dataclasses.replace(stats.params, mu=1.0)
        verdict = validate_against_analytic(stats)
        assert not verdict.passed


def test_criterion_7_protocol_invariants():
    with criterion(7, "protocol invariants"):
        topo = build_topology(3, 7)
        cfg = default_config()
        scenario = SimScenario(
            window=0.1,
            heartbeat_period=0.5,
            heartbeat_timeout=1.5,
            faults=(LmmFault(time=100.0, lmm_id=1),),
        )
        horizon = 1000.0  # 10^4 report ticks at T=0.1
        report = run_system_sim(topo, cfg.types, scenario, horizon, seed=cfg.seed)

        ticks = int(horizon / scenario.window + 1e-9)
        assert ticks == 10_000
        assert report.message_counts["LoadReport"] == topo.cell_count * ticks

        notices = report.message_counts.get("StateChangeNotice", 0)
        assert notices > 0
        assert report.message_counts.get("BBReplicate", 0) == 2 * notices

        assert report.message_counts["Takeover"] == 1
        assert len(report.failover_latencies) == 1
        latency = report.failover_latencies[0]
        assert 0.0 < latency <= scenario.heartbeat_timeout + scenario.heartbeat_period

        rerun = run_system_sim(topo, cfg.types, scenario, horizon, seed=cfg.seed)
        a = json.dumps(report.to_jsonable(), sort_keys=True).encode()
        b = json.dumps(rerun.to_jsonable(), sort_keys=True).encode()
        assert a == b


def test_criterion_8_perfect_hardware_identities():
    with criterion(8, "perfect-hardware and zero-traffic identities"):
        assert integrated_reliability(uniform_reliability_params(5, 1.0, 1.0)) == 1.0

        cfg = default_config()
        quiet = tuple(
            SystemTypeParams(lam=0.0, mu=t.mu, m=t.m, k1=t.k1, k2=t.k2,
                             ap_count=t.ap_count, report_cost=t.report_cost)
            for t in cfg.overhead_params().types
        )
        from sdlb.overhead import OverheadParams

        silent = OverheadParams(T=cfg.overhead.T, d=cfg.overhead.d, types=quiet)
        assert nonperiodic_overhead(silent) == 0.0

        dist = state_probabilities(quiet[0])
        assert dist.probs[0] == 1.0
        assert dist.probs[1:].sum() == 0.0
