import math
from fractions import Fraction

import numpy as np
import pytest

from sdlb.reliability import (
    ReliabilityParams,
    binomial_pmf,
    integrated_reliability,
    scenario_probabilities,
    uniform_integrated_reliability,
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

    def test_perfect_hardware(self):
        s = scenario_probabilities(uniform_reliability_params(4, 1.0, 1.0))
        assert s.p1 == 0.0
        assert s.p2 == 0.0
        assert s.l0 == 0.0
        assert s.p0 == 1.0

    def test_dead_managers(self):
        s = scenario_probabilities(uniform_reliability_params(3, 0.0, 0.97))
        assert s.p_lmm == 0.0  # 1 - (1-0)^n
        assert s.p0 == 0.0
        assert s.p1 == 0.0

    def test_redundancy_exponent_override(self):
        literal = scenario_probabilities(uniform_reliability_params(10, 0.92, 0.97))
        fixed = scenario_probabilities(
            uniform_reliability_params(10, 0.92, 0.97, redundancy_exponent=3)
        )
        assert literal.p_lmm == pytest.approx(1 - 0.08**10, rel=1e-12)
        assert fixed.p_lmm == pytest.approx(1 - 0.08**3, rel=1e-12)

    def test_loss_sums_use_leading_entries(self):
        c = np.array([5.0, 7.0, 11.0, 13.0])  # n=5 has 4 junction lines
        b = np.arange(15, dtype=float).reshape(3, 5)
        p = ReliabilityParams(r_lmm=0.9, r_c=0.95, n=5, k1_lines=2, k2_lmms=2, c=c, b=b)
        s = scenario_probabilities(p)
        assert s.l1 == 12.0
        assert s.l2 == pytest.approx(c.sum() + b[:, :2].sum())

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            uniform_reliability_params(3, 1.2, 0.9)
        with pytest.raises(ValueError):
            uniform_reliability_params(3, 0.9, 0.9, k1_lines=3)  # n=3 has 2 lines
        with pytest.raises(ValueError):
            uniform_reliability_params(3, 0.9, 0.9, k2_lmms=4)
        with pytest.raises(ValueError):
            ReliabilityParams(
                r_lmm=0.9, r_c=0.9, n=3, k1_lines=1, k2_lmms=1,
                c=np.ones(3), b=np.ones((3, 3)),  # wrong c length
            )


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
        base = uniform_reliability_params(5, 0.9, 0.95)
        c = base.c.copy()
        c[0] += 1.0
        bumped_line = ReliabilityParams(
            r_lmm=0.9, r_c=0.95, n=5, k1_lines=1, k2_lmms=1, c=c, b=base.b
        )
        assert integrated_reliability(bumped_line) < integrated_reliability(base)

    def test_traffic_on_failed_manager_lowers_score_when_lines_never_fail(self):
        # with perfect lines only scenario 2 loses traffic, so extra load on
        # a failed manager strictly lowers the score
        base = uniform_reliability_params(5, 0.9, 1.0)
        b = base.b.copy()
        b[1, 0] += 1.0
        bumped = ReliabilityParams(
            r_lmm=0.9, r_c=1.0, n=5, k1_lines=1, k2_lmms=1, c=base.c, b=b
        )
        assert integrated_reliability(bumped) < integrated_reliability(base)

    def test_denominator_dilution_can_raise_score(self):
        # an entry lost only in the (rare) manager-failure scenario also
        # grows the total traffic, diluting the dominant line-failure loss;
        # the net effect can be a higher score
        base = uniform_reliability_params(5, 0.9, 0.95)
        b = base.b.copy()
        b[1, 0] += 1.0  # manager 0 is in the failed set
        bumped = ReliabilityParams(
            r_lmm=0.9, r_c=0.95, n=5, k1_lines=1, k2_lmms=1, c=base.c, b=b
        )
        assert integrated_reliability(bumped) > integrated_reliability(base)

    def test_safe_traffic_raises_score(self):
        # traffic on a manager outside the failed set only grows the total
        base = uniform_reliability_params(5, 0.9, 0.95)
        b = base.b.copy()
        b[0, 4] += 10.0
        safer = ReliabilityParams(
            r_lmm=0.9, r_c=0.95, n=5, k1_lines=1, k2_lmms=1, c=base.c, b=b
        )
        assert integrated_reliability(safer) > integrated_reliability(base)

    def test_large_n_stays_finite(self):
        score = integrated_reliability(uniform_reliability_params(1000, 0.92, 0.97))
        assert 0.0 <= score <= 1.0


class TestUniformIntegratedReliability:
    """The fig 8 sweep point: the same score and the same errors as the
    params path, without building params."""

    @pytest.mark.parametrize("kw", [
        dict(),
        dict(c_value=0.3, b_value=1 / 3, redundancy_exponent=2, k1_lines=2, k2_lmms=2),
        dict(c_value=0.0, b_value=2.5),
        dict(c_value=7.1, b_value=0.0, k2_lmms=3),
    ])
    def test_bit_identical_to_params_path(self, kw):
        for n in (3, 4, 5, 7, 11, 169, 170, 171, 172, 301, 1000):
            for r_lmm, r_c in ((0.92, 0.97), (0.5, 0.61), (1.0, 0.0)):
                got = uniform_integrated_reliability(n, r_lmm, r_c, **kw)
                want = integrated_reliability(uniform_reliability_params(n, r_lmm, r_c, **kw))
                assert got == want or (math.isnan(got) and math.isnan(want)), (n, r_lmm, r_c)

    @pytest.mark.parametrize("n,kw", [
        (0, {}),
        (3, dict(k1_lines=3)),
        (3, dict(k2_lmms=4)),
        (3, dict(c_value=-1.0)),
        (3, dict(b_value=-1.0)),
        (3, dict(redundancy_exponent=0)),
        (3, dict(c_value=0.0, b_value=0.0)),
    ])
    def test_same_errors_as_params_path(self, n, kw):
        with pytest.raises(ValueError) as params_error:
            integrated_reliability(uniform_reliability_params(n, 0.9, 0.9, **kw))
        with pytest.raises(ValueError) as sweep_error:
            uniform_integrated_reliability(n, 0.9, 0.9, **kw)
        assert str(sweep_error.value) == str(params_error.value)
