import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from sdlb import reliability
from sdlb.reliability import (
    MAX_LMMS,
    ReliabilityParams,
    binomial_pmf,
    integrated_reliability,
    scenario_probabilities,
    swept_integrated_reliability,
    uniform_reliability_params,
)
from sdlb.topology import max_junction_lines


def exact_uniform_model(n, r_lmm, r_c, k1, k2, c_val, b_val, exponent=None):
    """Oracle: the same scenario model evaluated in exact rational arithmetic."""
    n_lines = max_junction_lines(n)
    e = n if exponent is None else exponent
    p_lmm = 1 - (1 - r_lmm) ** e
    p_c = 1 - (1 - r_c) ** 2
    p0 = p_lmm * p_c**n_lines * r_lmm**n
    p1 = (
        p_lmm
        * math.comb(n_lines, k1)
        * (1 - p_c) ** k1
        * p_c ** (n_lines - k1)
        * r_lmm**n
    )
    p2 = (
        (1 - p_lmm)
        * p_c**k2
        * math.comb(n, k2)
        * (1 - r_lmm) ** k2
        * r_lmm ** (n - k2)
    )
    l1 = k1 * c_val
    l2 = n_lines * c_val + k2 * 3 * b_val
    total = n_lines * c_val + n * 3 * b_val
    score = 1 - (p1 * l1 + p2 * l2) / total
    return p_lmm, p_c, p0, p1, p2, l1, l2, score


def array_traffic_sums(c, b, k1_lines, k2_lmms):
    """Oracle: (B, L1, L2) from arbitrary traffic arrays, c per junction
    line (length n') and b per inventory-manager pair (3 x n), summed by
    NumPy: all traffic, the first K1 lines', and all lines' plus the first
    K2 managers' inventory traffic."""
    c, b = np.asarray(c, dtype=float), np.asarray(b, dtype=float)
    c_sum = c.sum()
    return float(c_sum + b.sum()), float(c[:k1_lines].sum()), float(c_sum + b[:, :k2_lmms].sum())


def array_reliability(n, r_lmm, r_c, c, b, k1_lines=1, k2_lmms=1):
    """Oracle: R = 1 - (P0*L0 + P1*L1 + P2*L2) / B with the sums of
    ``array_traffic_sums`` and the probabilities of ``scenario_probabilities``."""
    assert np.shape(c) == (max_junction_lines(n),) and np.shape(b) == (3, n)
    s = scenario_probabilities(ReliabilityParams(r_lmm, r_c, n, k1_lines, k2_lmms, 1.0, 1.0))
    total, l1, l2 = array_traffic_sums(c, b, k1_lines, k2_lmms)
    return 1.0 - (s.p0 * s.l0 + s.p1 * l1 + s.p2 * l2) / total


def uniform_arrays(n, c_value=1.0, b_value=1.0):
    """The traffic arrays of n managers with every entry of c and of b equal."""
    return np.full(max_junction_lines(n), float(c_value)), np.full((3, n), float(b_value))


REF = exact_uniform_model(3, Fraction(92, 100), Fraction(97, 100), 1, 1, Fraction(1), Fraction(1))


class TestScenarioProbabilities:
    def test_reference_case_against_exact_oracle(self):
        p = uniform_reliability_params(3, 0.92, 0.97)
        s = scenario_probabilities(p)
        p_lmm, p_c, p0, p1, p2, l1, l2, _ = REF
        assert s.p_lmm == pytest.approx(float(p_lmm), rel=1e-12)
        assert s.p_c == pytest.approx(float(p_c), rel=1e-12)
        assert s.p0 == pytest.approx(float(p0), rel=1e-12)
        assert s.p1 == pytest.approx(float(p1), rel=1e-12)
        assert s.p2 == pytest.approx(float(p2), rel=1e-12)
        assert s.l0 == 0.0
        assert s.l1 == float(l1)
        assert s.l2 == float(l2)

    def test_reference_case_frozen_values(self):
        s = scenario_probabilities(uniform_reliability_params(3, 0.92, 0.97))
        assert s.p_lmm == pytest.approx(0.999488, abs=1e-9)
        assert s.p_c == pytest.approx(0.9991, abs=1e-12)
        assert s.p1 == pytest.approx(1.3996599324541748e-3, rel=1e-9)
        assert s.p2 == pytest.approx(1.039120269312e-4, rel=1e-9)

    @pytest.mark.parametrize("n", [15, 50, 100])
    def test_p2_does_not_cancel_to_zero(self, n):
        # 1 - P_lmm = (1-R)^n is below the float spacing near 1 from n = 15
        # at R = 0.92, so 1 - P_lmm computed from P_lmm would be 0
        s = scenario_probabilities(uniform_reliability_params(n, 0.92, 0.97))
        assert s.p2 > 0.0
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            r, r_c = mpmath.mpf(0.92), mpmath.mpf(0.97)
            p_c = 1 - (1 - r_c) ** 2
            exact = (1 - r) ** n * p_c * n * (1 - r) * r ** (n - 1)
        assert s.p2 == pytest.approx(float(exact), rel=1e-12)

    def test_perfect_hardware(self):
        s = scenario_probabilities(uniform_reliability_params(4, 1.0, 1.0))
        assert s.p1 == 0.0
        assert s.p2 == 0.0
        assert s.l0 == 0.0
        assert s.p0 == 1.0

    @pytest.mark.parametrize("kw,message", [
        # the total overflows: L2 read inf
        (dict(c_value=1e308, b_value=1e308), "must be finite, got inf"),
        # no traffic at all: L1 = L2 = 0.0 came back
        (dict(c_value=0.0, b_value=0.0), "zero traffic"),
    ])
    def test_refuses_the_traffic_integrated_reliability_refuses(self, kw, message):
        p = uniform_reliability_params(3, 0.9, 0.9, **kw)
        with pytest.raises(ValueError, match=message):
            integrated_reliability(p)
        with pytest.raises(ValueError, match=message):
            scenario_probabilities(p)

    def test_dead_managers(self):
        s = scenario_probabilities(uniform_reliability_params(3, 0.0, 0.97))
        assert s.p_lmm == 0.0  # 1 - (1-0)^n
        assert s.p0 == 0.0
        assert s.p1 == 0.0

    def test_loss_sums_use_leading_entries(self):
        # the array oracle loses the first K1 lines and the first K2
        # managers' three inventory pairs each
        c = np.array([5.0, 7.0, 11.0, 13.0])  # n=5 has 4 junction lines
        b = np.arange(15, dtype=float).reshape(3, 5)
        assert array_traffic_sums(c, b, 2, 2) == (36.0 + 105.0, 12.0, 36.0 + 33.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            uniform_reliability_params(3, 1.2, 0.9)
        with pytest.raises(ValueError):
            uniform_reliability_params(3, 0.9, 0.9, k1_lines=3)  # n=3 has 2 lines
        with pytest.raises(ValueError):
            uniform_reliability_params(3, 0.9, 0.9, k2_lmms=4)


class TestBinomialPmf:
    def test_log_comb_matches_factorials_small_n(self):
        from sdlb.reliability import _log_comb

        for n in range(21):
            for k in range(n + 1):
                assert math.exp(_log_comb(n, k)) == pytest.approx(
                    math.comb(n, k), rel=1e-10
                )

    def test_log_space_matches_exact_oracle_large_n(self):
        q = Fraction(3, 100)
        for k in (0, 1, 5, 100, 200):
            exact = float(math.comb(200, k) * q**k * (1 - q) ** (200 - k))
            assert binomial_pmf(200, k, 0.03) == pytest.approx(exact, rel=1e-9)

    def test_out_of_range_is_zero(self):
        assert binomial_pmf(5, 6, 0.5) == 0.0
        assert binomial_pmf(5, -1, 0.5) == 0.0

    def test_degenerate_probabilities_large_n(self):
        assert binomial_pmf(200, 0, 0.0) == 1.0
        assert binomial_pmf(200, 3, 0.0) == 0.0
        assert binomial_pmf(200, 200, 1.0) == 1.0

    @pytest.mark.parametrize("k", [1, 3])
    def test_log_space_error_at_the_lmm_cap(self, k):
        # the lgamma terms cancel more as n grows; at MAX_LMMS and the
        # scenario-2 failure probability q = 1/n the error stays below 1e-8
        mpmath = pytest.importorskip("mpmath")
        got = binomial_pmf(MAX_LMMS, k, 1 / MAX_LMMS)
        with mpmath.workdps(50):
            q = mpmath.mpf(1 / MAX_LMMS)
            exact = mpmath.binomial(MAX_LMMS, k) * q**k * (1 - q) ** (MAX_LMMS - k)
            assert abs((got - exact) / exact) <= 1e-8

    def test_no_overflow_huge_population(self):
        value = binomial_pmf(10_000, 5_000, 0.5)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(0.0079788, rel=1e-4)


class TestIntegratedReliability:
    def test_perfect_hardware_scores_one(self):
        assert integrated_reliability(uniform_reliability_params(5, 1.0, 1.0)) == 1.0

    def test_reference_case(self):
        score = integrated_reliability(uniform_reliability_params(3, 0.92, 0.97))
        assert score == pytest.approx(float(REF[-1]), rel=1e-12)
        assert score == pytest.approx(0.9998255254484445, abs=1e-13)

    def test_zero_traffic_rejected(self):
        p = uniform_reliability_params(3, 0.9, 0.9, c_value=0.0, b_value=0.0)
        with pytest.raises(ValueError, match="zero traffic"):
            integrated_reliability(p)

    def test_sweep_non_decreasing_on_figure_grid(self):
        scores = [
            integrated_reliability(uniform_reliability_params(n, 0.92, 0.97))
            for n in (3, 50, 100, 150, 200, 250, 300)
        ]
        assert all(b >= a for a, b in zip(scores, scores[1:]))
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_monotone_in_manager_reliability(self):
        scores = [
            integrated_reliability(uniform_reliability_params(3, r, 0.97))
            for r in (0.90, 0.92, 0.94)
        ]
        assert scores[0] < scores[1] < scores[2]

    def test_traffic_on_failed_line_lowers_score(self):
        # a failed-line entry is lost in both failure scenarios, so its
        # loss weight P1+P2 always beats the denominator dilution
        c, b = uniform_arrays(5)
        base = array_reliability(5, 0.9, 0.95, c, b)
        c[0] += 1.0
        assert array_reliability(5, 0.9, 0.95, c, b) < base

    def test_traffic_on_failed_manager_lowers_score_when_lines_never_fail(self):
        # with perfect lines only scenario 2 loses traffic, so extra load on
        # a failed manager strictly lowers the score
        c, b = uniform_arrays(5)
        base = array_reliability(5, 0.9, 1.0, c, b)
        b[1, 0] += 1.0
        assert array_reliability(5, 0.9, 1.0, c, b) < base

    def test_denominator_dilution_can_raise_score(self):
        # an entry lost only in the (rare) manager-failure scenario also
        # grows the total traffic, diluting the dominant line-failure loss;
        # the net effect can be a higher score
        c, b = uniform_arrays(5)
        base = array_reliability(5, 0.9, 0.95, c, b)
        b[1, 0] += 1.0  # manager 0 is in the failed set
        assert array_reliability(5, 0.9, 0.95, c, b) > base

    def test_safe_traffic_raises_score(self):
        # traffic on a manager outside the failed set only grows the total
        c, b = uniform_arrays(5)
        base = array_reliability(5, 0.9, 0.95, c, b)
        b[0, 4] += 10.0
        assert array_reliability(5, 0.9, 0.95, c, b) > base

    def test_large_n_stays_finite(self):
        score = integrated_reliability(uniform_reliability_params(1000, 0.92, 0.97))
        assert 0.0 <= score <= 1.0


class TestUniformIntegratedReliability:
    """Fig 8's whole sweep under uniform traffic: at every n the score and
    the error of the array oracle and of the params path."""

    WEIGHTS = [
        dict(),
        dict(c_value=0.3, b_value=1 / 3, k1_lines=2, k2_lmms=2),
        dict(c_value=0.0, b_value=2.5),
        dict(c_value=7.1, b_value=0.0, k2_lmms=3),
    ]

    @staticmethod
    def assert_matches_oracle(ns, r_lmm, r_c, c_value=1.0, b_value=1.0, **kw):
        # integer sums are exact, so unit weights match bit for bit; the
        # products n'*c and 3n*b are correctly rounded where the oracle's
        # sums are not, so other weights may differ in the last bits of R
        got = swept_integrated_reliability(ns, r_lmm, r_c, c_value=c_value, b_value=b_value, **kw)
        assert len(got) == len(ns)
        for n, g in zip(ns, got):
            w = array_reliability(n, r_lmm, r_c, *uniform_arrays(n, c_value, b_value), **kw)
            case = (n, r_lmm, r_c, c_value, b_value, kw)
            if c_value == b_value == 1.0:
                assert g == w, case
            else:
                assert math.isclose(1 - g, 1 - w, rel_tol=1e-12), case

    @pytest.mark.parametrize("kw", WEIGHTS)
    def test_matches_array_oracle(self, kw):
        # one sweep across the log-space binomial limit (170), out of order
        ns = [*range(3, 180), 301, 1000, 172, 3, 5]
        for r_lmm, r_c in ((0.92, 0.97), (0.5, 0.61), (1.0, 0.0)):
            self.assert_matches_oracle(ns, r_lmm, r_c, **kw)

    @pytest.mark.parametrize("weights", [dict(), dict(c_value=0.3, b_value=1 / 3)])
    @pytest.mark.parametrize("k2", [3, 5, 40, 171, 2731])
    def test_n_equal_to_k2_matches_array_oracle(self, k2, weights):
        # at n == K2 the lost managers are all of b, which NumPy sums as one
        # run; from 3*K2 > 8192 (its buffer) that run and the strided sum
        # of b[:, :K2] for n > K2 differ in the last bits. With dead managers
        # and perfect lines R = 1 - L2/B, which shows those bits.
        for r_lmm, r_c in ((0.9, 0.95), (0.0, 1.0)):
            self.assert_matches_oracle([k2 + 1, k2, 2 * k2, k2], r_lmm, r_c, k2_lmms=k2, **weights)

    def test_empty_sweep(self):
        assert swept_integrated_reliability([], 0.9, 0.9) == []

    @staticmethod
    def count_calls(monkeypatch, *names):
        """A Counter of the calls to each named function of the module."""
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(reliability, name, counted(name, getattr(reliability, name)))
        return calls

    def test_weights_checked_once_per_sweep(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "check_weights", "_check_traffic")
        swept_integrated_reliability(range(3, 300), 0.92, 0.97, c_value=0.5, b_value=2.0)
        assert calls == {"check_weights": 1, "_check_traffic": 1}

    def test_one_binomial_per_lmm_count_and_per_line_count(self, monkeypatch):
        # the scenario-1 binomial depends on n' alone and the scenario-2
        # one on n, so a sweep takes the first once per distinct n'
        calls = self.count_calls(monkeypatch, "binomial_pmf")
        ns = range(3, 301)
        swept_integrated_reliability(ns, 0.92, 0.97)
        assert calls["binomial_pmf"] == len(ns) + len({max_junction_lines(n) for n in ns})

    @pytest.mark.parametrize("n,kw", [
        (0, {}),
        (3, dict(k1_lines=3)),
        (3, dict(k2_lmms=4)),
        (3, dict(c_value=-1.0)),
        (3, dict(b_value=-1.0)),
        (3, dict(k2_lmms=0)),
        (3, dict(c_value=0.0, b_value=0.0)),
    ])
    def test_same_errors_as_params_path(self, n, kw):
        with pytest.raises(ValueError) as params_error:
            integrated_reliability(uniform_reliability_params(n, 0.9, 0.9, **kw))
        with pytest.raises(ValueError) as sweep_error:
            swept_integrated_reliability([n], 0.9, 0.9, **kw)
        assert str(sweep_error.value) == str(params_error.value)

    @pytest.mark.parametrize("ns,first,kw", [
        ([4, 300, 3], 4, dict(k2_lmms=5)),
        ([300, 2, 1, 0], 1, dict(k2_lmms=2)),
        ([3, 1], 3, dict(k1_lines=3)),
        ([1, 5], 1, dict(k2_lmms=2, c_value=0.0, b_value=0.0)),
        ([5, 1], 5, dict(k2_lmms=2, c_value=0.0, b_value=0.0)),
        ([7, -3, 0], -3, {}),
        ([3, MAX_LMMS + 1, 0], MAX_LMMS + 1, {}),
        ([3, 4], 3, dict(c_value=1e308, b_value=1e308)),
        ([3, 4], 3, dict(c_value=0.0, b_value=1e308)),
        # n' is not monotone in n: 6 has three lines, 5 has four
        ([6, 5, 4], 5, dict(c_value=5e307, b_value=0.0)),
    ])
    def test_first_failing_value_in_list_order(self, ns, first, kw):
        with pytest.raises(ValueError) as params_error:
            integrated_reliability(uniform_reliability_params(first, 0.9, 0.9, **kw))
        with pytest.raises(ValueError) as sweep_error:
            swept_integrated_reliability(ns, 0.9, 0.9, **kw)
        assert str(sweep_error.value) == str(params_error.value)

    @pytest.mark.parametrize("huge", [MAX_LMMS + 1, 4_000_000_000, 2**62])
    def test_lmm_count_above_the_cap_refused(self, huge):
        # both paths check the cap with the other per-n rules, before any n
        # is scored
        message = rf"^n must be <= {MAX_LMMS}, got {huge}$"
        with pytest.raises(ValueError, match=message):
            swept_integrated_reliability([3, huge, 5], 0.9, 0.9)
        with pytest.raises(ValueError, match=message):
            uniform_reliability_params(huge, 0.9, 0.9)
        with pytest.raises(ValueError, match=message):
            ReliabilityParams(0.9, 0.9, huge, 1, 1, 1.0, 1.0)

    def test_lmm_count_at_the_cap_accepted(self):
        (score,) = swept_integrated_reliability([MAX_LMMS], 0.92, 0.97)
        assert score == integrated_reliability(uniform_reliability_params(MAX_LMMS, 0.92, 0.97))
