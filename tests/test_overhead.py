import dataclasses

import pytest

from sdlb.overhead import (
    OverheadParams,
    even_bb_split,
    nonperiodic_overhead,
    periodic_overhead,
)
from sdlb.queueing import FirstOrderValidityError, SystemTypeParams, prob_state_change


def make_types(lam=0.5, mu=0.05, ap=(600, 900, 600), a=1.0):
    caps = [(60, 18, 48), (20, 6, 16), (80, 24, 64)]
    return tuple(
        SystemTypeParams(lam=lam, mu=mu, m=m, k1=k1, k2=k2, ap_count=ap_i, report_cost=a)
        for (m, k1, k2), ap_i in zip(caps, ap)
    )


class TestPeriodicOverhead:
    def test_reference_values(self):
        p = OverheadParams(T=0.1, d=1.0, types=make_types())
        out = periodic_overhead(p)
        assert out.o11 == pytest.approx(21000.0, rel=1e-14)
        assert out.o12 == pytest.approx(20.0, rel=1e-14)
        assert out.op == 21020.0

    def test_no_aps_no_backup_cost(self):
        p = OverheadParams(T=0.5, d=0.0, types=make_types(ap=(0, 0, 0)))
        assert periodic_overhead(p).op == 0.0

    def test_unit_example(self):
        p = OverheadParams(T=1.0, d=1.0, types=make_types(ap=(1, 1, 1)))
        assert periodic_overhead(p).op == 5.0

    def test_linear_in_ap_counts(self):
        base = OverheadParams(T=0.1, d=0.0, types=make_types(ap=(100, 200, 300)))
        double = OverheadParams(T=0.1, d=0.0, types=make_types(ap=(200, 400, 600)))
        assert periodic_overhead(double).op == pytest.approx(
            2 * periodic_overhead(base).op, rel=1e-14
        )

    def test_halving_T_doubles_components(self):
        p1 = OverheadParams(T=0.2, d=1.0, types=make_types())
        p2 = OverheadParams(T=0.1, d=1.0, types=make_types())
        a, b = periodic_overhead(p1), periodic_overhead(p2)
        assert b.o11 == pytest.approx(2 * a.o11, rel=1e-14)
        assert b.o12 == pytest.approx(2 * a.o12, rel=1e-14)
        assert b.op == pytest.approx(2 * a.op, rel=1e-14)

    def test_per_type_report_costs(self):
        types = make_types(ap=(1, 1, 1))
        types = (dataclasses.replace(types[0], report_cost=2.0), types[1], types[2])
        p = OverheadParams(T=1.0, d=0.0, types=types)
        assert periodic_overhead(p).op == 4.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            OverheadParams(T=0.0, d=1.0, types=make_types())
        with pytest.raises(ValueError):
            OverheadParams(T=0.1, d=-1.0, types=make_types())


class TestEvenBbSplit:
    def test_even_counts(self):
        first, second = even_bb_split(make_types())
        assert first == (300, 450, 300)
        assert second == (300, 450, 300)

    def test_odd_counts_favour_first(self):
        first, second = even_bb_split(make_types(ap=(601, 900, 7)))
        assert first == (301, 450, 4)
        assert second == (300, 450, 3)


class TestNonperiodicOverhead:
    def test_zero_arrivals_means_zero(self):
        p = OverheadParams(T=0.1, d=1.0, types=make_types(lam=0.0))
        assert nonperiodic_overhead(p) == 0.0

    def test_single_type_hand_expansion(self):
        # one AP of the first kind only: both replica terms collapse to the
        # same per-cell change probability and the split puts the AP first
        types = make_types(ap=(1, 0, 0))
        p = OverheadParams(T=0.1, d=1.0, types=types)
        pr = prob_state_change(types[0], 0.1)
        expected = (1.0 * pr + 1.0 * pr) / 0.1
        assert nonperiodic_overhead(p) == pytest.approx(expected, rel=1e-12)

    def test_positive_for_reference_types(self):
        p = OverheadParams(T=0.1, d=1.0, types=make_types())
        assert nonperiodic_overhead(p) > 0.0

    def test_halving_T_doubles(self):
        # scale rates with T so the per-window probabilities are unchanged
        t1 = OverheadParams(T=0.2, d=1.0, types=make_types(lam=0.25, mu=0.025))
        t2 = OverheadParams(T=0.1, d=1.0, types=make_types(lam=0.5, mu=0.05))
        assert nonperiodic_overhead(t2) == pytest.approx(
            2 * nonperiodic_overhead(t1), rel=1e-12
        )

    def test_first_order_violation_propagates(self):
        p = OverheadParams(T=3.0, d=1.0, types=make_types())
        with pytest.raises(FirstOrderValidityError):
            nonperiodic_overhead(p)
