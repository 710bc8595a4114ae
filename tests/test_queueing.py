import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sdlb.queueing import (
    FirstOrderValidityError,
    LoadState,
    OccupancyOverflowError,
    SystemTypeParams,
    TransitionKind,
    _zone,
    classify_load,
    prob_bb_update,
    prob_state_change,
    state_probabilities,
    transition_probability,
)


def naive_state_probs(lam, mu, m):
    """Oracle: explicit factorial evaluation, usable for small m only."""
    ratio = lam / mu
    terms = [ratio**k / math.factorial(k) for k in range(m + 1)]
    total = sum(terms)
    return [t / total for t in terms]


def loop_state_probs(lam, mu, m, limit=1e280):
    """Reference: the multiplicative recurrence as a plain loop over k,
    rescaling everything so far by the first term past ``limit`` and
    starting again from 1.0."""
    ratio = lam / mu
    terms = np.empty(m + 1)
    terms[0] = 1.0
    t = 1.0
    for k in range(1, m + 1):
        t *= ratio / k
        terms[k] = t
        if t > limit:
            terms[: k + 1] /= t
            t = 1.0
    return terms / terms.sum()


def first_rescale(ratio, limit=1e280):
    """The k at which the recurrence first passes ``limit``."""
    t, k = 1.0, 0
    while t <= limit:
        k += 1
        t *= ratio / k
    return k


def loop_cases():
    """(lam, mu, m) from 1 to 10^4 servers: ratios below 1, near m, far
    beyond m, and 1e150-1e300, which pass the rescale limit within one or
    two factors; plus fixed edge cases."""
    rng = random.Random(2012)
    cases = []
    for _ in range(240):
        m = int(10 ** rng.uniform(0, 4))
        ratio = rng.choice([
            rng.uniform(0.0, 1.0),
            m * rng.uniform(0.1, 1.5),
            m * 10 ** rng.uniform(1, 4),
            10 ** rng.uniform(150, 300),
        ])
        mu = 10 ** rng.uniform(-3, 3)
        cases.append((ratio * mu, mu, m))
    k = first_rescale(2000.0)  # the first rescale at the last k, and around it
    cases += [(2000.0, 1.0, m) for m in (k - 1, k, k + 1)]
    cases += [
        (0.0, 1.0, 10_000),
        (1e300, 1.0, 10_000),  # every k rescales; the early terms underflow
        (1e200, 1.0, 50),  # the product overflows to inf at k = 2
        (1e300, 1e-10, 20),  # lam/mu itself is inf
    ]
    return cases


def params(lam=1.0, mu=1.0, m=4, k1=1, k2=3, **kw):
    return SystemTypeParams(lam=lam, mu=mu, m=m, k1=k1, k2=k2, **kw)


class TestSystemTypeParams:
    def test_valid(self):
        p = params()
        assert p.m == 4

    @pytest.mark.parametrize(
        "kw",
        [
            dict(lam=-1.0),
            dict(mu=0.0),
            dict(mu=-2.0),
            dict(m=0),
            dict(k1=3, k2=3),
            dict(k1=-1),
            dict(k2=5),
            dict(ap_count=-1),
            dict(report_cost=-0.5),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            params(**kw)


class TestStateProbabilities:
    def test_empty_system(self):
        dist = state_probabilities(params(lam=0.0, mu=1.0, m=5, k1=1, k2=4))
        assert dist.probs.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_two_server_example(self):
        dist = state_probabilities(params(lam=1.0, mu=1.0, m=2, k1=1, k2=2))
        np.testing.assert_allclose(dist.probs, [0.4, 0.4, 0.2], rtol=1e-14)

    def test_symmetric_single_server(self):
        dist = state_probabilities(params(lam=1.0, mu=1.0, m=1, k1=0, k2=1))
        np.testing.assert_allclose(dist.probs, [0.5, 0.5], rtol=1e-14)

    def test_prob_at_out_of_range(self):
        dist = state_probabilities(params())
        assert dist.prob_at(-1) == 0.0
        assert dist.prob_at(5) == 0.0
        assert dist.prob_at(0) == dist.probs[0]

    @given(
        lam=st.floats(min_value=0.0, max_value=50.0),
        mu=st.floats(min_value=0.01, max_value=10.0),
        m=st.integers(min_value=2, max_value=200),
    )
    def test_normalisation(self, lam, mu, m):
        p = SystemTypeParams(lam=lam, mu=mu, m=m, k1=0, k2=m)
        dist = state_probabilities(p)
        assert abs(dist.probs.sum() - 1.0) <= 1e-12
        assert (dist.probs >= 0).all()

    @given(
        lam=st.floats(min_value=0.01, max_value=5.0),
        mu=st.floats(min_value=0.2, max_value=5.0),
        m=st.integers(min_value=1, max_value=20),
    )
    def test_recurrence_matches_factorial_oracle(self, lam, mu, m):
        p = SystemTypeParams(lam=lam, mu=mu, m=m, k1=0, k2=m)
        dist = state_probabilities(p)
        oracle = naive_state_probs(lam, mu, m)
        np.testing.assert_allclose(dist.probs, oracle, rtol=1e-10, atol=1e-300)

    @given(
        lam1=st.floats(min_value=0.1, max_value=5.0),
        bump=st.floats(min_value=0.1, max_value=5.0),
        mu=st.floats(min_value=0.2, max_value=5.0),
        m=st.integers(min_value=1, max_value=30),
    )
    def test_blocking_monotone_in_lam(self, lam1, bump, mu, m):
        base = SystemTypeParams(lam=lam1, mu=mu, m=m, k1=0, k2=m)
        more = SystemTypeParams(lam=lam1 + bump, mu=mu, m=m, k1=0, k2=m)
        assert state_probabilities(more).blocking >= state_probabilities(base).blocking - 1e-15

    def test_huge_m_stays_finite(self):
        p = SystemTypeParams(lam=5000.0, mu=1.0, m=10_000, k1=0, k2=10_000)
        dist = state_probabilities(p)
        assert np.isfinite(dist.probs).all()
        assert abs(dist.probs.sum() - 1.0) <= 1e-12
        # occupancy concentrates near the offered load (the distribution has
        # a two-point mode: term_5000 = term_4999 exactly)
        assert dist.probs.argmax() in (4999, 5000)

    @staticmethod
    def loop_results():
        """(params, plain-loop probabilities) for every loop case."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf/inf in the edge cases
            return [(params(lam=lam, mu=mu, m=m, k1=0, k2=1), loop_state_probs(lam, mu, m))
                    for lam, mu, m in loop_cases()]

    def test_bit_identical_to_plain_loop(self):
        mismatched = []
        for p, want in self.loop_results():
            finite = not np.isnan(want).any()
            if finite and state_probabilities(p).probs.tobytes() != want.tobytes():
                mismatched.append((p.lam, p.mu, p.m))
        assert mismatched == []

    def test_finite_refuses_exactly_the_overflowing_cases(self):
        refused = 0
        for p, want in self.loop_results():
            if np.isnan(want).any():
                assert np.isnan(want).all()
                with pytest.raises(OccupancyOverflowError) as err:
                    state_probabilities(p)
                assert err.value.params is p
                refused += 1
            else:
                state_probabilities(p)  # must not raise
        assert refused >= 2  # the inf-at-k = 2 and lam/mu = inf edge cases

    def test_loop_cases_reach_every_path(self):
        cases = loop_cases()
        sizes = [m for *_, m in cases]
        ratios = [lam / mu for lam, mu, _ in cases]
        assert len(cases) >= 200
        assert min(sizes) == 1 and max(sizes) == 10_000
        assert any(r < 1 for r in ratios)
        assert any(r > 10 * m for r, m in zip(ratios, sizes))
        assert math.inf in ratios
        assert first_rescale(2000.0) in sizes

    def test_huge_m_matches_arbitrary_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        m = 10_000
        ratio = mpmath.mpf(5000)
        logr = mpmath.log(ratio)
        logs = [k * logr - mpmath.log(mpmath.gamma(k + 1)) for k in range(m + 1)]
        mx = max(logs)
        weights = [mpmath.exp(v - mx) for v in logs]
        total = sum(weights)

        p = SystemTypeParams(lam=5000.0, mu=1.0, m=m, k1=0, k2=m)
        dist = state_probabilities(p)
        for k in (4999, 5000, 5001, 7500):
            oracle = float(weights[k] / total)
            assert dist.probs[k] == pytest.approx(oracle, rel=1e-12)


class TestClassifyLoad:
    def test_boundaries(self):
        assert classify_load(0, 1, 3) is LoadState.UNDER_LOADED
        assert classify_load(1, 1, 3) is LoadState.UNDER_LOADED
        assert classify_load(2, 1, 3) is LoadState.BALANCED
        assert classify_load(3, 1, 3) is LoadState.OVER_LOADED
        assert classify_load(4, 1, 3) is LoadState.OVER_LOADED

    @given(occ=st.integers(min_value=0, max_value=100))
    def test_total(self, occ):
        assert classify_load(occ, 30, 70) in LoadState


@st.composite
def zone_thresholds(draw):
    m = draw(st.integers(1, 300))
    k1 = draw(st.integers(0, m - 1))
    return m, k1, draw(st.integers(k1 + 1, m))


class TestZone:
    @given(case=zone_thresholds())
    @example(case=(40, 0, 40))  # k1 = 0, k2 = m
    @example(case=(40, 12, 13))  # k2 = k1 + 1
    @example(case=(1, 0, 1))
    def test_array_matches_int_rule(self, case):
        # the simulators' and the oracle's tables are _zone on np.arange(m + 1)
        m, k1, k2 = case
        want = [(k >= k1) + (k > k1) + (k >= k2) + (k > k2) for k in range(m + 1)]
        table = _zone(np.arange(m + 1), k1, k2)
        assert table.dtype.kind == "i"
        assert table.tolist() == want == [_zone(k, k1, k2) for k in range(m + 1)]


class TestTransitionProbability:
    def test_no_arrivals_gives_zero(self):
        p = params(lam=0.0)
        for kind in TransitionKind:
            assert transition_probability(p, 0.1, kind) == 0.0

    def test_under_to_balanced_example(self):
        p = params(lam=1.0, mu=1.0, m=2, k1=1, k2=2)
        got = transition_probability(p, 0.1, TransitionKind.UNDER_TO_BALANCED)
        # P_0 * lam*T with P_0 = 0.4 from the factorial oracle
        assert got == pytest.approx(0.04, rel=1e-12)

    def test_over_to_balanced_example(self):
        p = params()
        got = transition_probability(p, 0.1, TransitionKind.OVER_TO_BALANCED)
        oracle = naive_state_probs(1.0, 1.0, 4)[4] * 4 * 1.0 * 0.1 * (1 - 0.1)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(0.00554, abs=5e-6)

    def test_matches_factorial_oracle_componentwise(self):
        p = params(lam=0.8, mu=0.5, m=6, k1=2, k2=5)
        T = 0.05
        probs = naive_state_probs(0.8, 0.5, 6)
        expected = {
            TransitionKind.UNDER_TO_BALANCED: probs[1] * 0.8 * T * (1 - 1 * 0.5 * T),
            TransitionKind.BALANCED_TO_OVER: probs[4] * 0.8 * T * (1 - 4 * 0.5 * T),
            TransitionKind.OVER_TO_BALANCED: probs[6] * 6 * 0.5 * T * (1 - 0.8 * T),
            TransitionKind.BALANCED_TO_UNDER: probs[3] * 3 * 0.5 * T * (1 - 0.8 * T),
        }
        for kind, value in expected.items():
            assert transition_probability(p, T, kind) == pytest.approx(value, rel=1e-12)

    def test_boundary_indices_contribute_zero(self):
        # k2 = m: no occupancy above the upper threshold exists
        p = params(k1=1, k2=4, m=4)
        assert transition_probability(p, 0.01, TransitionKind.OVER_TO_BALANCED) == 0.0
        # k1 = 0: no occupancy below the lower threshold exists
        p = params(k1=0, k2=3)
        assert transition_probability(p, 0.01, TransitionKind.UNDER_TO_BALANCED) == 0.0

    def test_coarse_T_rejected_naming_lam(self):
        with pytest.raises(FirstOrderValidityError, match=r"lam\*T"):
            transition_probability(params(), 1.5, TransitionKind.UNDER_TO_BALANCED)

    def test_coarse_T_rejected_naming_mu(self):
        p = params(lam=0.1, mu=5.0, m=4, k1=1, k2=3)
        with pytest.raises(FirstOrderValidityError, match=r"\(k2\+1\)\*mu\*T"):
            transition_probability(p, 0.1, TransitionKind.OVER_TO_BALANCED)

    def test_nonpositive_T_rejected(self):
        with pytest.raises(ValueError):
            transition_probability(params(), 0.0, TransitionKind.UNDER_TO_BALANCED)

    @settings(max_examples=200)
    @given(
        lam=st.floats(min_value=0.0, max_value=3.0),
        mu=st.floats(min_value=0.05, max_value=2.0),
        m=st.integers(min_value=2, max_value=30),
        data=st.data(),
    )
    def test_in_unit_interval_under_preconditions(self, lam, mu, m, data):
        k1 = data.draw(st.integers(min_value=0, max_value=m - 1))
        k2 = data.draw(st.integers(min_value=k1 + 1, max_value=m))
        p = SystemTypeParams(lam=lam, mu=mu, m=m, k1=k1, k2=k2)
        limit = max(lam, (k2 + 1) * mu)
        T = 0.9 / limit if limit > 0 else 0.1
        for kind in TransitionKind:
            value = transition_probability(p, T, kind)
            assert 0.0 <= value <= 1.0


class TestProbStateChange:
    def test_zero_when_no_arrivals(self):
        assert prob_state_change(params(lam=0.0), 0.1) == 0.0

    def test_equals_sum_of_four(self):
        p = params()
        total = sum(transition_probability(p, 0.1, kind) for kind in TransitionKind)
        assert prob_state_change(p, 0.1) == pytest.approx(total, rel=1e-12)

    @given(
        lam=st.floats(min_value=0.0, max_value=3.0),
        mu=st.floats(min_value=0.05, max_value=2.0),
        m=st.integers(min_value=2, max_value=30),
    )
    def test_probability_range(self, lam, mu, m):
        p = SystemTypeParams(lam=lam, mu=mu, m=m, k1=m // 3, k2=max(m // 3 + 1, (2 * m) // 3))
        limit = max(lam, (p.k2 + 1) * mu)
        T = 0.9 / limit if limit > 0 else 0.1
        assert 0.0 <= prob_state_change(p, T) <= 1.0


class TestProbBbUpdate:
    def three_types(self, lam=0.5):
        return [
            (params(lam=lam, mu=1.0, m=6, k1=2, k2=5), 2),
            (params(lam=lam, mu=1.0, m=4, k1=1, k2=3), 1),
            (params(lam=lam, mu=1.0, m=8, k1=2, k2=6), 3),
        ]

    def test_zero_when_nothing_changes(self):
        per_type = [(params(lam=0.0), 5) for _ in range(3)]
        assert prob_bb_update(per_type, 0.1) == 0.0

    def test_matches_manual_product(self):
        per_type = self.three_types()
        T = 0.1
        manual = 1.0
        for p, count in per_type:
            manual *= (1.0 - prob_state_change(p, T)) ** count
        assert prob_bb_update(per_type, T) == pytest.approx(1.0 - manual, rel=1e-12)

    def test_collapses_to_one_for_huge_populations(self):
        per_type = [(p, 10_000_000) for p, _ in self.three_types()]
        assert prob_bb_update(per_type, 0.1) == 1.0

    def test_zero_ap_counts_contribute_nothing(self):
        (p1, _), (p2, _), (p3, _) = self.three_types()
        only_first = prob_bb_update([(p1, 4), (p2, 0), (p3, 0)], 0.1)
        expected = 1.0 - (1.0 - prob_state_change(p1, 0.1)) ** 4
        assert only_first == pytest.approx(expected, rel=1e-12)

    def test_requires_three_kinds(self):
        with pytest.raises(ValueError, match="three kinds"):
            prob_bb_update([(params(), 1)], 0.1)

    def test_negative_count_rejected(self):
        per_type = self.three_types()
        per_type[1] = (per_type[1][0], -1)
        with pytest.raises(ValueError):
            prob_bb_update(per_type, 0.1)
