import dataclasses
import hashlib
import io
import json
import math
import random
import sys
import tracemalloc
import warnings
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sdlb import queueing, simkernel, streams
from sdlb.config import MAX_CAPACITY, MEMORY_BUDGET, TopologySpec, default_config
from sdlb.queueing import (
    CROSSING_MOVES,
    FirstOrderValidityError,
    SystemTypeParams,
    TransitionKind,
    classify_load,
    crossing_probabilities,
    exact_zone_moves,
    state_probabilities,
    transition_probability,
)
from sdlb.simkernel import (
    BorderEvent,
    LmmFault,
    SimScenario,
    _arrival_thresholds,
    _walk,
    horizon_for_events,
    run_cell_mc,
    run_system_sim,
)
from sdlb.topology import AccessNetworkKind, Topology, build_topology
from sdlb.validation import QuantityCheck, report_section, validate_against_analytic

UMTS = AccessNetworkKind.UMTS


def params(lam=1.0, mu=1.0, m=4, k1=1, k2=3):
    return SystemTypeParams(lam=lam, mu=mu, m=m, k1=k1, k2=k2)


# ---------------------------------------------------------------------------
# oracle: exact window-transition probabilities via uniformisation
# ---------------------------------------------------------------------------


def transition_matrix(lam, mu, m, T):
    """e^(QT) for the loss-system generator, by the uniformised series."""
    rate = lam + m * mu
    Q = np.zeros((m + 1, m + 1))
    for k in range(m + 1):
        if k < m:
            Q[k, k + 1] = lam
        if k > 0:
            Q[k, k - 1] = k * mu
        Q[k, k] = -(lam * (k < m) + k * mu)
    U = np.eye(m + 1) + Q / rate
    terms = int(rate * T + 40 * math.sqrt(rate * T) + 60)
    out = np.zeros_like(U)
    factor = math.exp(-rate * T)
    acc = np.eye(m + 1)
    for j in range(terms):
        out += factor * acc
        acc = acc @ U
        factor *= rate * T / (j + 1)
    return out

def exact_crossing_probs(p, T):
    """Stationary probability of each directed threshold crossing over T."""
    pi = state_probabilities(p).probs
    joint = pi[:, None] * transition_matrix(p.lam, p.mu, p.m, T)
    k1, k2 = p.k1, p.k2
    return {
        TransitionKind.UNDER_TO_BALANCED: joint[:k1, k1:].sum(),
        TransitionKind.BALANCED_TO_OVER: joint[:k2, k2:].sum(),
        TransitionKind.OVER_TO_BALANCED: joint[k2 + 1:, : k2 + 1].sum(),
        TransitionKind.BALANCED_TO_UNDER: joint[k1 + 1:, : k1 + 1].sum(),
    }


# (lam, mu, m, k1, k2, T); rate * T runs from 0.01 to 560, past the
# 256 that one uniformization series covers. The oracle runs on the
# support 0..b: b = 0 at lam = 0, and b = 146 < m on the last two cases.
# On the last, both thresholds lie above b, so zones 1 to 4 hold no state
ORACLE_CASES = [
    (1.0, 1.0, 4, 1, 3, 0.02),
    (2.0, 0.5, 6, 2, 4, 0.3),
    (0.5, 0.05, 12, 3, 9, 0.1),
    (5.0, 1.0, 8, 0, 8, 1.0),
    (0.0, 1.0, 5, 1, 3, 0.5),
    (3.0, 2.0, 10, 4, 5, 0.0005),
    (100.0, 50.0, 6, 2, 5, 1.4),
    (0.5, 1.0, 200, 1, 3, 0.1),
    (0.5, 1.0, 200, 160, 180, 0.1),
]


class TestExactOracle:
    """exact_zone_moves against the dense uniformized e^(QT) above."""

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_zone_moves_match_dense_reference(self, case):
        *rest, T = case
        p = params(*rest)
        joint = state_probabilities(p).probs[:, None] * transition_matrix(p.lam, p.mu, p.m, T)
        zones = np.array([simkernel._zone(k, p.k1, p.k2) for k in range(p.m + 1)])
        moves = exact_zone_moves(p, T)
        assert len(moves) == 25
        assert math.fsum(moves) == pytest.approx(1.0, abs=1e-13)
        for a in range(5):
            for b in range(5):
                want = joint[np.ix_(zones == a, zones == b)].sum()
                assert moves[5 * a + b] == pytest.approx(want, rel=1e-11, abs=1e-15), (a, b)

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_crossings_match_dense_reference(self, case):
        *rest, T = case
        p = params(*rest)
        exact = dict(zip(TransitionKind, crossing_probabilities(exact_zone_moves(p, T))))
        for kind, want in exact_crossing_probs(p, T).items():
            assert exact[kind] == pytest.approx(want, rel=1e-11, abs=1e-15), kind

    def test_long_window_forgets_its_start(self):
        # r*T = 900: one series' first weight e^-900 is 0 in floats, so this
        # needs the split into pieces. At mu = 100 the chain forgets its
        # start within the window: each move is the product of two zone masses
        p = params(200.0, 100.0, 6, 2, 5)
        pi = state_probabilities(p).probs
        zones = np.array([simkernel._zone(k, p.k1, p.k2) for k in range(p.m + 1)])
        mass = [pi[zones == a].sum() for a in range(5)]
        moves = exact_zone_moves(p, 1.125)
        for a in range(5):
            for b in range(5):
                assert moves[5 * a + b] == pytest.approx(mass[a] * mass[b], rel=1e-12), (a, b)

    @pytest.mark.parametrize("kind", list(TransitionKind))
    def test_first_order_ratio_tends_to_one(self, kind):
        # the first-order formula is off by O(T): the gap shrinks tenfold
        # with T
        p = params(lam=2.0, mu=0.5, m=8, k1=2, k2=5)
        gaps = []
        for T in (1e-2, 1e-3, 1e-4, 1e-5):
            exact = crossing_probabilities(exact_zone_moves(p, T))[list(TransitionKind).index(kind)]
            gaps.append(abs(transition_probability(p, T, kind) / exact - 1.0))
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine < 0.2 * coarse
        assert gaps[-1] < 1e-4

    def test_capacity_past_the_support_changes_nothing(self):
        # m = 262 143 here ran for about 40 min: the series ran on all m + 1
        # states at the rate lam + m*mu. On the support, m past it is moot
        moves = [exact_zone_moves(params(0.5, 0.45, m, 0, 1), 1.0) for m in (1000, 5000)]
        assert moves[0] == moves[1]

    @pytest.mark.parametrize("T", [0.0, -0.1, math.inf, math.nan])
    def test_bad_window_is_refused(self, T):
        with pytest.raises(ValueError, match="^T must be finite and > 0, got "):
            exact_zone_moves(params(), T)

    def test_overflowing_uniformization_rate_is_refused(self):
        # m * mu overflows a float
        with pytest.raises(ValueError, match=r"^\(lam \+ m\*mu\) \* T must be finite, got inf$"):
            exact_zone_moves(params(mu=1e308), 0.1)


def report_bytes(report):
    return json.dumps(report.to_jsonable(), sort_keys=True).encode()


# ---------------------------------------------------------------------------
# single-cell Monte Carlo
# ---------------------------------------------------------------------------


class TestRunCellMc:
    def test_no_arrivals(self):
        report = run_cell_mc(params(lam=0.0), horizon=100.0, window=0.1, seed=7)
        stats = report.per_type[UMTS]
        assert stats.occupancy_freq[0] == 1.0
        assert stats.occupancy_freq[1:].sum() == 0.0
        assert all(v == 0 for v in stats.transition_counts.values())
        assert stats.window_count == 1000
        assert stats.arrivals == stats.departures == stats.blocked == 0

    def test_tallies_follow_the_occupancy_reached_not_m(self):
        # at MAX_CAPACITY with lam/mu near 1 the chain stays within a few
        # dozen states. The peak, about 9.3 MiB, is the O(m) arrays: the
        # rates, the zones and the two result arrays (2 MiB each). The
        # successor list grows only to the occupancies reachable: built to
        # m, its Python ints would add 10 MiB. Two (64, m + 1) float64 batch
        # tallies would take 256 MiB.
        p = params(lam=0.5, mu=0.45, m=MAX_CAPACITY, k1=0, k2=1)
        tracemalloc.start()
        try:
            stats = run_cell_mc(p, horizon_for_events(p, 20_000), 1.0, 1).per_type[UMTS]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13 * 2**20
        assert stats.events >= 20_000
        assert stats.occupancy_freq.shape == stats.occupancy_se.shape == (MAX_CAPACITY + 1,)
        top = np.flatnonzero(stats.occupancy_freq)[-1]
        assert 0 < top < 100
        assert not stats.occupancy_freq[top + 1:].any() and not stats.occupancy_se[top + 1:].any()

    def test_baseline_kind_keeps_one_chunk_of_draws(self):
        # the baseline WLAN kind at 10^6 events peaks near 1.17 MiB: a
        # chunk's exponentials take 512 KiB; its uniforms, drawn a block at
        # a time, are kept only as thresholds (64 KiB of int8), and a
        # chunk's arrays go before the next chunk is drawn. Keeping the
        # chunk's 512 KiB of uniforms and the last chunk's arrays peaked at
        # 1.87 MiB. Measured on a second call: the first also counts what
        # numpy loads lazily
        cfg = default_config()
        p = cfg.types[AccessNetworkKind.WLAN]
        horizon = horizon_for_events(p, 10**6)
        run_cell_mc(p, horizon, cfg.overhead.T, 1)
        tracemalloc.start()
        try:
            stats = run_cell_mc(p, horizon, cfg.overhead.T, 1).per_type[UMTS]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.events >= 10**6
        assert peak < 1.4 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_memory_of_a_chain_that_fills_to_m(self):
        # lam/mu = 1e6 fills the chain to MAX_CAPACITY, so the totals and one
        # chunk's batch tallies each reach 64 x (m + 1) float64, MEMORY_BUDGET
        # together, and the O(m) tables add about 23 MiB. Widening the totals
        # beside the chunk's tallies, or a last doubling that copies a nearly
        # full array, takes up to 2.1 times the budget
        p = params(lam=1e6, mu=1.0, m=MAX_CAPACITY, k1=0, k2=1)
        tracemalloc.start()
        try:
            stats = run_cell_mc(p, horizon_for_events(p, 400_000), 1e-7, 1).per_type[UMTS]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.occupancy_freq[MAX_CAPACITY] > 0
        assert peak <= 1.15 * MEMORY_BUDGET, f"{peak / MEMORY_BUDGET:.2f} x MEMORY_BUDGET"

    def test_occupancy_matches_closed_form(self):
        p = params(lam=1.0, mu=1.0, m=2, k1=1, k2=2)
        report = run_cell_mc(p, horizon=1.2e5, window=0.1, seed=42)
        stats = report.per_type[UMTS]
        assert stats.params is p
        ana = state_probabilities(p).probs
        for k in range(3):
            band = 3 * max(
                stats.occupancy_se[k],
                math.sqrt(ana[k] * (1 - ana[k]) / stats.events),
            )
            assert abs(stats.occupancy_freq[k] - ana[k]) <= band

    def test_blocking_matches_closed_form(self):
        p = params(lam=2.0, mu=1.0, m=3, k1=1, k2=3)
        report = run_cell_mc(p, horizon=6e4, window=0.1, seed=3)
        stats = report.per_type[UMTS]
        ana = state_probabilities(p).blocking
        emp = stats.blocked / stats.arrivals
        assert abs(emp - ana) <= 3 * math.sqrt(ana * (1 - ana) / stats.arrivals)

    def test_conservation_exact(self):
        report = run_cell_mc(params(), horizon=5e3, window=0.1, seed=11)
        stats = report.per_type[UMTS]
        assert stats.arrivals == stats.blocked + stats.departures + stats.in_system

    def test_deterministic(self):
        a = run_cell_mc(params(), horizon=2e3, window=0.05, seed=13)
        b = run_cell_mc(params(), horizon=2e3, window=0.05, seed=13)
        assert report_bytes(a) == report_bytes(b)

    def test_seed_changes_output(self):
        a = run_cell_mc(params(), horizon=2e3, window=0.05, seed=13)
        b = run_cell_mc(params(), horizon=2e3, window=0.05, seed=14)
        assert report_bytes(a) != report_bytes(b)

    def test_crossings_match_exact_oracle(self):
        p = params()
        T = 0.02
        horizon = 6e4
        report = run_cell_mc(p, horizon=horizon, window=T, seed=5)
        stats = report.per_type[UMTS]
        exact = exact_crossing_probs(p, T)
        nwin = stats.window_count
        assert nwin == int(horizon / T)
        for kind, target in exact.items():
            emp = stats.transition_counts[kind] / nwin
            sigma = math.sqrt(target * (1 - target) / nwin)
            assert abs(emp - target) <= 4 * sigma, kind

    def test_fine_window_matches_first_order_formula(self):
        # at lam*T = 0.01 the linearised up-crossing rate is within 10% of
        # the empirical per-window frequency
        from sdlb.queueing import transition_probability

        p = params()
        T = 0.01
        report = run_cell_mc(p, horizon=5e4, window=T, seed=8)
        stats = report.per_type[UMTS]
        ana = transition_probability(p, T, TransitionKind.UNDER_TO_BALANCED)
        emp = stats.transition_counts[TransitionKind.UNDER_TO_BALANCED] / stats.window_count
        assert abs(emp - ana) <= 0.10 * ana

    def test_window_count(self):
        report = run_cell_mc(params(), horizon=1000.0, window=0.25, seed=1)
        assert report.per_type[UMTS].window_count == 4000

    def test_window_longer_than_horizon(self):
        report = run_cell_mc(params(), horizon=10.0, window=50.0, seed=1)
        stats = report.per_type[UMTS]
        assert stats.window_count == 0
        assert all(v == 0 for v in stats.transition_counts.values())

    def test_horizon_for_events(self):
        p = params(lam=0.7, mu=1.3, m=5, k1=1, k2=4)
        horizon = horizon_for_events(p, 50_000)
        report = run_cell_mc(p, horizon=horizon, window=0.1, seed=2)
        assert report.per_type[UMTS].events >= 50_000

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            run_cell_mc(params(), horizon=0.0, window=0.1, seed=1)
        with pytest.raises(ValueError):
            run_cell_mc(params(), horizon=10.0, window=0.0, seed=1)
        with pytest.raises(ValueError):
            horizon_for_events(params(lam=0.0), 1000)

    @pytest.mark.parametrize("lam,horizon,window", [
        (1.0, 1e20, 0.1), (1e-300, 2.0**63, 1.0), (1.0, math.inf, 0.1), (1.0, 10.0, math.nan),
    ])
    def test_overflowing_window_index_refused(self, lam, horizon, window):
        # int64 window indices past 2**63 tallied garbage, with a cast warning
        with pytest.raises(ValueError, match=r"horizon / window must be < 2\*\*63"):
            run_cell_mc(params(lam=lam), horizon=horizon, window=window, seed=1)

    def test_largest_window_index_counted(self):
        report = run_cell_mc(params(lam=1e-300), horizon=2.0**62, window=1.0, seed=1)
        assert report.per_type[UMTS].window_count == 2**62


# ---------------------------------------------------------------------------
# bit identity of the cell kernel
# ---------------------------------------------------------------------------


def reference_cell_mc(p, horizon, window, seed, n_batches=64, chunk_size=1 << 16):
    """``run_cell_mc`` event by event: the same draws, the same float
    expressions in the same order, so the two reports must be equal bytes."""
    rng = np.random.default_rng(seed)
    occ_time = np.zeros(p.m + 1)
    batch_time = np.zeros((n_batches, p.m + 1))
    tallies = dict.fromkeys(TransitionKind, 0)
    moves = [0] * 25
    arrivals = blocked = events = nwin = 0
    t, k, jb, prev_b = 0.0, 0, 0, 0
    inv_w = 1.0 / window
    batch_len = horizon / n_batches
    inv_b = 1.0 / batch_len

    def interval(occ, bt, t, tn):
        occ[k] += tn - t
        bi = min(int(t * inv_b), n_batches - 1)
        bj = min(int(tn * inv_b), n_batches - 1)
        if bi == bj:
            bt[bi, k] += tn - t
        else:
            bt[bi, k] += (bi + 1) * batch_len - t
            for b in range(bi + 1, bj):
                bt[b, k] += batch_len
            bt[bj, k] += tn - bj * batch_len

    def boundary(tn):
        nonlocal jb, prev_b, nwin
        wj = int(tn * inv_w)
        if wj > jb:
            tallies[TransitionKind.UNDER_TO_BALANCED] += prev_b < p.k1 <= k
            tallies[TransitionKind.BALANCED_TO_OVER] += prev_b < p.k2 <= k
            tallies[TransitionKind.OVER_TO_BALANCED] += prev_b > p.k2 >= k
            tallies[TransitionKind.BALANCED_TO_UNDER] += prev_b > p.k1 >= k
            zp, zc = simkernel._zone(prev_b, p.k1, p.k2), simkernel._zone(k, p.k1, p.k2)
            if zp != zc:
                moves[5 * zp + zc] += 1
            prev_b = k
            nwin += wj - jb
            jb = wj

    done = p.lam <= 0
    while not done:
        exps = rng.exponential(size=chunk_size)
        unis = rng.random(size=chunk_size)
        occ_c = np.zeros(p.m + 1)
        bt_c = np.zeros((n_batches, p.m + 1))
        for e, u in zip(exps.tolist(), unis.tolist()):
            tot = p.lam + k * p.mu
            tn = t + e / tot
            if tn >= horizon:
                done = True
                break
            interval(occ_c, bt_c, t, tn)
            boundary(tn)
            t = tn
            events += 1
            if u * tot < p.lam:
                arrivals += 1
                blocked += k == p.m
                k += k < p.m
            else:
                k -= 1
        occ_time += occ_c
        batch_time += bt_c
    interval(occ_time, batch_time, t, horizon)
    boundary(horizon)

    se = (batch_time / batch_len).std(axis=0, ddof=1) / math.sqrt(n_batches)
    return {
        "occupancy_freq": (occ_time / horizon).tolist(),
        "occupancy_se": se.tolist(),
        "transition_counts": {kind.value: n for kind, n in tallies.items()},
        "window_count": nwin,
        "arrivals": arrivals,
        "departures": events - arrivals,
        "blocked": blocked,
        "in_system": k,
        "events": events,
        "zone_moves": moves,
    }


def lane_thresholds(m, loads, n, seed, blocked=()):
    """Thresholds of n events at lam/mu = loads[i] over the i-th of equal
    parts, then c = m + 1 (arrivals, blocked at the cap) over each
    (first event, length) of ``blocked``."""
    rng = np.random.default_rng(seed)
    c = np.empty(n, np.int64)
    for part, load in zip(np.array_split(np.arange(n), len(loads)), loads):
        tot = np.array([1.0 + j / load for j in range(m + 1)])
        below = np.concatenate(([0.0], tot, [np.nan]))
        c[part] = _arrival_thresholds(rng.random(part.size), below, 1.0, 1 / load)
    for lo, length in blocked:
        c[lo:lo + length] = m + 1
    return c


def lane_features(k0, c, up, s0):
    """What ``_lane_walk`` meets on thresholds c, found from ``_walk`` alone:
    (lane switches, runs of breaks, segments meeting neither lane).

    For each segment after the first, the lane the true path first equals
    (lane 0 on a tie) is its met lane. A switch is a segment whose met lane
    is not the previous segment's; a break, a segment whose met lane ends
    off that lane's start in the next segment; a run, two breaks in a row.
    """
    seg, lead = simkernel._SEG, simkernel._LEAD
    path, _ = _walk(k0, c, up)
    met, ended, starts = [], [], []
    for lo in range(seg, c.size - c.size % seg, seg):
        lanes = [_walk(s0 + q, c[lo - lead:lo + seg], up) for q in (0, 1)]
        a, b = (ks[lead:] for ks, _ in lanes)
        hit = np.flatnonzero((path[lo:lo + seg] == a) | (path[lo:lo + seg] == b))
        met.append(None if hit.size == 0 else int(path[lo + hit[0]] != a[hit[0]]))
        ended.append(None if hit.size == 0 else lanes[met[-1]][1])
        starts.append([int(a[0]), int(b[0])])
    breaks = [p is not None and s + 1 < len(met) and ended[s] != starts[s + 1][p]
              for s, p in enumerate(met)]
    return (sum(p is not None and q is not None and p != q for p, q in zip(met, met[1:])),
            sum(x and y for x, y in zip(breaks, breaks[1:])),
            met.count(None))


@st.composite
def lane_cases(draw):
    """(m, k0, s0, c) for ``_lane_walk``: thresholds at one to three loads
    in turn with runs of c = m + 1, over spans from none to several
    segments. Load changes and blocked runs make the path switch lanes,
    high loads make runs of breaks and segments that meet neither lane."""
    seg = simkernel._SEG
    m = draw(st.sampled_from([1, 2, 20, 300]))
    n = draw(st.one_of(st.integers(0, 2 * seg), st.integers(2 * seg, 7 * seg)))
    loads = draw(st.lists(st.sampled_from([0.5, 2.0, 10.0, 20.0, 40.0, 100.0]),
                          min_size=1, max_size=3))
    blocked = draw(st.lists(st.tuples(st.integers(0, n), st.integers(1, 3 * seg)), max_size=3))
    c = lane_thresholds(m, loads, n, draw(st.integers(0, 2**32 - 1)), blocked)
    k0 = draw(st.sampled_from([0, m // 2, m]))
    return m, k0, draw(st.integers(0, m - 1)), c


@st.composite
def window_cases(draw):
    """(zb, tn, inv_w, jb, prev_z) for ``_window_moves``: zones that stay,
    change at every event or vary at random, end times with repeats, and
    windows from far longer than the block to far shorter than an event."""
    n = draw(st.integers(1, 40))
    pattern = draw(st.sampled_from(["stay", "every", "random"]))
    zones = [draw(st.integers(0, 4))]
    for _ in range(n - 1):
        step = {"stay": 0, "every": draw(st.integers(1, 4)), "random": draw(st.integers(0, 4))}
        zones.append((zones[-1] + step[pattern]) % 5)
    t0 = draw(st.floats(0.0, 100.0))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.01, 0.3, 1.0, 2.5]), min_size=n, max_size=n))
    tn = t0 + np.cumsum(gaps)
    inv_w = draw(st.sampled_from([1e-3, 0.5, 1.0, 3.0, 10.0]))
    return np.array(zones), tn, inv_w, int(t0 * inv_w), draw(st.integers(0, 4))


# SHA-256 of ``report_bytes(run_cell_mc(...))``, recorded from the
# event-by-event kernel: every float in the report must stay bit-identical.
GOLDEN = {
    "baseline_umts": (
        params(lam=0.5, mu=0.05, m=60, k1=18, k2=48), 210000.0, 0.1, 43,
        "fb242f293cecd5d0a481a2234600ae723121ccb6340428537bff584bdd573a46",
    ),
    "baseline_wimax": (
        params(lam=0.5, mu=0.05, m=20, k1=6, k2=16), 210196.433806786, 0.1, 44,
        "553cbd4ee11f67ddf2e3f80df35c46b0bb9d8a0f3a9a7621602acdd69cc1b822",
    ),
    "baseline_wlan": (
        params(lam=0.5, mu=0.05, m=80, k1=24, k2=64), 210000.0, 0.1, 45,
        "57bd882325f54b501c94f04aa297671332a40179bcb0d4b43ba87ba24e23ab3a",
    ),
    "no_arrivals": (
        params(lam=0.0), 10.0, 0.1, 1,
        "b28e0f3ef99498bf7f96650d0649666cd1b127e594da457bed5b66a5b14965ff",
    ),
    "window_longer_than_horizon": (
        params(), 5.0, 7.0, 2,
        "e249b1f365d5a14f20c28ccd835c4811283a9f2a56ae4b35ae966199d43f87d3",
    ),
    "event_spans_batch_slices": (
        params(lam=0.2, mu=0.1, m=3, k1=1, k2=2), 3.2, 0.05, 3,
        "dcf897bcdd517c2bfba4eeaf8279200826e0ed0a4bdc56488c41d05e07d01981",
    ),
    "horizon_in_first_block": (
        params(), 100.0, 0.1, 4,
        "28208fa2afc1fbb529359c67860e56b618f080bb23b7b9a3e452952229e24510",
    ),
    "m1_heavy_blocking": (
        params(lam=20.0, mu=1.0, m=1, k1=0, k2=1), 2000.0, 0.1, 5,
        "f3e12ad1f61bc0c8220b3dddb4d714bb36c1d19c50bc1eddfcc69429b81758e5",
    ),
    "k1_zero": (
        params(lam=1.0, mu=1.0, m=4, k1=0, k2=2), 5000.0, 0.3, 6,
        "d5e8f34d9cbc78a7f8285ca8eebb4e97b3bb796fc5ddab28a61e6242b08670ca",
    ),
    # recorded from the kernel that tallied every event's window index and
    # batch slice: blocks within one batch slice and lane spans at the
    # baseline's 10^6 events, frequent zone moves, and loads off the lanes
    "baseline_wimax_1e6": (
        params(lam=0.5, mu=0.05, m=20, k1=6, k2=16), 1050982.16903393, 0.1, 44,
        "d7cde58f93f17def2357174366653848aa0d585a186263b6adcbab956ed5d2d9",
    ),
    "zone_rich": (
        params(lam=2.0, mu=0.2, m=20, k1=9, k2=11), 50000.0, 0.05, 46,
        "00dc69e8e41414cd56eebb738a0f59bcc00d8dafbda80dc6df476f2d0b4668e6",
    ),
    "off_lane_load_40": (
        params(lam=0.5, mu=0.0125, m=120, k1=30, k2=90), 200000.0, 0.1, 47,
        "76321d3520096849b4d77dbc6f02f995f3795a85951cbf39685142ecf98f5367",
    ),
    "off_lane_load_100": (
        params(lam=0.5, mu=0.005, m=120, k1=30, k2=90), 200000.0, 0.1, 48,
        "17627d0dab524764194de75d7c62a3222f0c94c0fd3864062f28559d901acefb",
    ),
}


class TestCellKernelBitIdentity:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_digest(self, name):
        p, horizon, window, seed, digest = GOLDEN[name]
        report = run_cell_mc(p, horizon=horizon, window=window, seed=seed)
        assert hashlib.sha256(report_bytes(report)).hexdigest() == digest
        assert report.per_type[UMTS].window_count == int(horizon / window)

    @pytest.mark.parametrize("lam,mu,m", [
        (0.5, 0.05, 60), (1.0, 1.0, 4), (1e20, 1.0, 3),
        (1e18, 1.0, 80), (5e-324, 1.0, 10), (1.0, 1e-300, 100), (1e300, 1e-10, 20),
    ])
    def test_arrival_thresholds_exact_at_rounding_edges(self, lam, mu, m):
        # uniforms within a few ulps of lam/tot[j], where comparing against
        # lam/u alone can disagree with the defining u*tot[j] < lam
        tot = np.array([lam + j * mu for j in range(m + 1)])
        edge = lam / tot
        u = edge[:, None] + np.arange(-4, 5) * np.spacing(edge)[:, None]
        u = np.append(np.clip(u.ravel(), 0.0, np.nextafter(1.0, 0.0)), 0.0)
        want = (u[:, None] * tot < lam).sum(axis=1)
        below = np.concatenate(([0.0], tot, [np.nan]))
        assert np.array_equal(_arrival_thresholds(u, below, lam, mu), want)

    @pytest.mark.parametrize("k0,m,s0", [
        (0, 3 * simkernel._BLOCK, None), (0, 9 * simkernel._BLOCK, 0),
        (100, 100 + simkernel._BLOCK // 2, None), (7, 7, None),
    ])
    def test_successor_list_grows_to_the_occupancies_reachable(self, k0, m, s0):
        # every event an arrival (c = m + 1, as u = 0 gives): the walk climbs
        # one state per event, the most any span can, up to the cap
        n = simkernel._LANE_MIN if s0 is not None else simkernel._BLOCK
        c = np.full(n, m + 1, simkernel._lane_dtype(m))
        up = []
        ks, k = simkernel._walk_span(k0, np.ones(n), c, math.inf, up, m, s0)
        assert ks.tolist() == [min(k0 + i, m) for i in range(n)] and k == min(k0 + n, m)
        assert up == [min(j + 1, m) for j in range(min(k0 + n, m) + 1)]

    @pytest.mark.parametrize("m", [1, 2, 20, 300])
    def test_walk_matches_plain_loop(self, m):
        rng = np.random.default_rng(m)
        up = [min(j + 1, m) for j in range(m + 1)]
        for k0 in (0, m, m // 2):
            # c >= 1 always (u * lam < lam); thresholds that mostly admit, so
            # the walk reaches the cap, where c = m + 1 is a blocked arrival
            c = rng.integers(1, m + 2, size=2000)
            c[rng.random(2000) < 0.5] = m + 1
            before, k = [], k0
            for ci in c.tolist():
                before.append(k)
                if k < ci:
                    k = min(k + 1, m)
                else:
                    k -= 1
            got, k_end = _walk(k0, c, up)
            assert got.tolist() == before and k_end == k
            assert got.dtype == np.int64
            assert min(before) >= 0 and max(before) == m
        # the cap: an arrival at k = m leaves k at m
        got, k_end = _walk(m, np.full(4, m + 1), up)
        assert got.tolist() == [m] * 4 and k_end == m
        # an empty block leaves k as it was
        got, k_end = _walk(m, np.zeros(0, np.int64), up)
        assert got.size == 0 and k_end == m

    @settings(max_examples=150, deadline=None)
    @given(case=lane_cases())
    # slow mixing: the path walks down from 300 and the lanes, started at
    # 0 and 1, stay there, so segment 1 meets no lane and is walked whole
    @example(case=(300, 300, 0, np.ones(4 * simkernel._SEG, np.int64)))
    def test_lane_walk_matches_walk(self, case):
        m, k0, s0, c = case
        up = [min(j + 1, m) for j in range(m + 1)]
        want, k_want = _walk(k0, c, up)
        got, k_got = simkernel._lane_walk(k0, c.astype(simkernel._lane_dtype(m)), up, m, s0)
        assert got.tolist() == want.tolist()
        assert k_got == k_want

    @pytest.mark.parametrize("m,loads,blocked,seed,meets", [
        # the path blocks at the cap before the next lanes start: it meets the other lane
        (20, (10.0,), ((5 * simkernel._SEG, 41),), 1, ["switch"]),
        # the path meets the lanes late, or never
        (120, (40.0,), (), 0, ["run of breaks", "miss"]),
        (60, (20.0,), (), 0, ["run of breaks"]),
        (300, (2.0, 100.0), (), 0, ["miss"]),
    ])
    def test_lane_walk_meets_switches_breaks_and_misses(self, m, loads, blocked, seed, meets):
        c = lane_thresholds(m, loads, 16 * simkernel._SEG, seed, blocked)
        up = [min(j + 1, m) for j in range(m + 1)]
        s0 = int(min(loads[0], m - 1))
        counts = dict(zip(["switch", "run of breaks", "miss"], lane_features(s0, c, up, s0)))
        assert all(counts[name] for name in meets), counts
        want_ks, want_k = _walk(s0, c, up)
        got_ks, got_k = simkernel._lane_walk(s0, c.astype(simkernel._lane_dtype(m)), up, m, s0)
        assert got_ks.tolist() == want_ks.tolist() and got_k == want_k

    @settings(max_examples=200, deadline=None)
    @given(case=window_cases())
    # a block past no boundary, one past a boundary at every event
    @example(case=(np.array([1, 2, 1]), np.array([5.0, 5.5, 6.0]), 1e-3, 0, 3))
    @example(case=(np.array([0, 4, 0, 4]), np.array([1.0, 2.0, 2.0, 3.0]), 1.0, 0, 2))
    def test_window_moves_match_event_by_event(self, case):
        zb, tn, inv_w, jb, prev_z = case
        want, jb_want, z_want = np.zeros(25, np.int64), jb, prev_z
        for z, t in zip(zb.tolist(), tn.tolist()):
            if int(t * inv_w) > jb_want:
                want[5 * z_want + z] += 1
                jb_want, z_want = int(t * inv_w), z
        moves = np.zeros(25, np.int64)
        assert simkernel._window_moves(moves, zb, tn, inv_w, jb, prev_z) == (jb_want, z_want)
        moves[::6] = want[::6] = 0  # run_cell_mc keeps no diagonal
        assert moves.tolist() == want.tolist()

    @settings(max_examples=200, deadline=None)
    @given(n_batches=st.sampled_from([2, 7, 64]), t0=st.floats(0.0, 10.0),
           gaps=st.lists(st.sampled_from([0.0, 1e-3, 0.05, 0.4, 3.0]), min_size=1, max_size=30))
    # a block within one batch slice; one whose last event alone crosses into the next
    @example(n_batches=2, t0=1.0, gaps=[1e-3] * 5)
    @example(n_batches=2, t0=4.0, gaps=[0.05, 0.05, 0.05, 3.0])
    def test_add_intervals_match_event_by_event(self, n_batches, t0, gaps):
        batch_len = 10.0 / n_batches  # a horizon of 10
        tn = t0 + np.cumsum(gaps)
        tp = np.concatenate(([t0], tn[:-1]))
        kb = np.arange(tn.size) % 4
        want_occ, want_bt = np.zeros(4), np.zeros((n_batches, 4))
        for k, t, t_end in zip(kb.tolist(), tp.tolist(), tn.tolist()):
            simkernel._add_interval(want_occ, want_bt, k, t, t_end, 1 / batch_len, batch_len)
        occ, bt = np.zeros(4), np.zeros((n_batches, 4))
        simkernel._add_intervals(occ, bt, kb, tp, tn, 1 / batch_len, batch_len)
        assert occ.tobytes() == want_occ.tobytes() and bt.tobytes() == want_bt.tobytes()

    @pytest.mark.parametrize("m,dtype", [
        (1, np.int8), (126, np.int8), (127, np.int16), (32766, np.int16), (32767, np.int32),
    ])
    def test_lane_dtype_holds_m_plus_one(self, m, dtype):
        assert simkernel._lane_dtype(m) is dtype

    def test_matches_event_by_event_reference(self, monkeypatch):
        rnd = random.Random(2024)
        for case in range(40):
            m = rnd.choice([1, 2, 3, 5, 8, 20])
            k1 = rnd.randrange(m)
            p = params(
                lam=rnd.choice([0.0, 1e-3, rnd.uniform(0.05, 5), rnd.uniform(5, 50)]),
                mu=rnd.choice([1e-4, rnd.uniform(0.05, 3), 10.0]),
                m=m, k1=k1, k2=rnd.randrange(k1 + 1, m + 1),
            )
            horizon = rnd.choice([1e-3, rnd.uniform(0.1, 10), rnd.uniform(10, 60)])
            window = rnd.choice([rnd.uniform(1e-3, 1), 2 * horizon, 1 / 3])
            n_batches = rnd.choice([2, 7, 64])
            chunk_size = rnd.choice([17, 1000, 1 << 16])
            monkeypatch.setattr(simkernel, "_BATCHES", n_batches)
            monkeypatch.setattr(simkernel, "_CHUNK", chunk_size)
            stats = run_cell_mc(p, horizon, window, seed=case).per_type[UMTS]
            got = {**stats.to_jsonable(), "zone_moves": stats.zone_moves}
            want = reference_cell_mc(p, horizon, window, case, n_batches, chunk_size)
            assert {key: got[key] for key in want} == want, (case, p, horizon, window)

    @pytest.mark.parametrize("p,horizon,chunk_size", [
        # the first chunk's lane span ends at a whole block before the horizon
        (params(lam=5.0, mu=0.5, m=20, k1=6, k2=16), 4000.0, 1 << 16),
        # whole chunks of lanes, with a part block and a part segment each
        (params(lam=5.0, mu=0.5, m=20, k1=6, k2=16), 9000.0, 20_000),
        # lam/mu = 20, the largest load with lanes: some segments meet neither lane
        (params(lam=4.0, mu=0.2, m=60, k1=18, k2=48), 6000.0, 40_000),
        # lam/mu = 200 on m = 3: the load capped at m is what counts
        (params(lam=20.0, mu=0.1, m=3, k1=1, k2=2), 1500.0, 50_000),
    ])
    def test_lane_spans_match_event_by_event_reference(self, monkeypatch, p, horizon,
                                                        chunk_size):
        spans = []
        lane_walk = simkernel._lane_walk
        monkeypatch.setattr(simkernel, "_lane_walk",
                            lambda k, c, *args: spans.append(c.size) or lane_walk(k, c, *args))
        monkeypatch.setattr(simkernel, "_BATCHES", 7)
        monkeypatch.setattr(simkernel, "_CHUNK", chunk_size)
        stats = run_cell_mc(p, horizon, 0.1, seed=8).per_type[UMTS]
        assert spans and min(spans) >= simkernel._LANE_MIN
        got = {**stats.to_jsonable(), "zone_moves": stats.zone_moves}
        want = reference_cell_mc(p, horizon, 0.1, 8, 7, chunk_size)
        assert {key: got[key] for key in want} == want


# ---------------------------------------------------------------------------
# full-system simulation
# ---------------------------------------------------------------------------


def small_types(lam=0.5, mu=0.05):
    return {
        AccessNetworkKind.UMTS: SystemTypeParams(lam=lam, mu=mu, m=60, k1=18, k2=48),
        AccessNetworkKind.WIMAX: SystemTypeParams(lam=lam, mu=mu, m=20, k1=6, k2=16),
        AccessNetworkKind.WLAN: SystemTypeParams(lam=lam, mu=mu, m=80, k1=24, k2=64),
    }


def uniform_types(lam, mu, m, k1, k2):
    return {kind: SystemTypeParams(lam=lam, mu=mu, m=m, k1=k1, k2=k2)
            for kind in AccessNetworkKind}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


BASELINE_TOPO = build_topology(3, 7)

# (topology, types, scenario knobs, horizon, seed, SHA-256 of ``report_bytes``,
# SHA-256 of the trace text), recorded from the per-cell report tick (the last three
# from per-LMM heartbeat and timeout events and per-request grant events):
# the reports and the order of every traced message must stay bit-identical.
# The traces marked re-recorded changed only in the destination of the
# Heartbeat lines sent after the first backup's failure; the reports did not.
SYSTEM_GOLDEN = {
    "baseline_fault_borders": (
        BASELINE_TOPO,
        small_types(),
        dict(faults=(LmmFault(time=30.0, lmm_id=1),),
             borders=(BorderEvent(time=12.34, cell_id=3), BorderEvent(time=50.0, cell_id=17))),
        100.0, 42,
        "0321c0f054daefcb46df5cbad2e58a02bf3cf04c41322a09d7572a3839acecb1",
        # trace re-recorded: lmm0's 141 beats from 30.0 s go to lmm2, not the dead lmm1
        "f625054bc7d419cd1dc0425fccbddec9493805bc0a30e904e56d0793c628b4df",
    ),
    "heavy_migrations": (
        BASELINE_TOPO,
        uniform_types(8.0, 0.5, 40, 12, 18),
        dict(faults=(LmmFault(time=7.0, lmm_id=0),)),
        20.0, 7,
        "411ba1d574b0cc3d4d557de0836730023305f57493f59e0c5921c96e53876490",
        # trace re-recorded: lmm2's 27 beats from 7.0 s go to lmm1, not the dead lmm0
        "c0111be27d922cee44ac91d70d790fe8f68a6cdbd2800bb8091d07021c49712e",
    ),
    "balancing_off": (
        BASELINE_TOPO,
        small_types(), dict(balancing_enabled=False), 100.0, 3,
        "3f8bc46a480cdd3b46149880addd4efb0864c5856f8c692965f9cd2a4e9b9085",
        "27507e461ba535a646774656e287e3c9e30ff1ac0acdeb6d446ba9e3e17d5cbd",
    ),
    "no_arrivals": (
        BASELINE_TOPO,
        small_types(lam=0.0), dict(faults=(LmmFault(time=4.0, lmm_id=2),)), 20.0, 1,
        "d1bf67f4ee6b6581a8607ebfdd9cc68bc15a2d66559ec39b36efd676331b0b59",
        # trace re-recorded: lmm1's 33 beats from 4.0 s go to lmm0, not the dead lmm2
        "a62eb9e4054aead0a1da0cdf7d81868a89ef6df996eb73bd7756e785e2b43536",
    ),
    # 0.5 and 1.0 are both report-tick and heartbeat times
    "tick_aligned_border_and_fault": (
        BASELINE_TOPO,
        uniform_types(2.0, 1.0, 4, 1, 3),
        dict(faults=(LmmFault(time=1.0, lmm_id=2),), borders=(BorderEvent(time=0.5, cell_id=0),)),
        10.0, 5,
        "febc489a9977368bfec95094c630a785032c59f63b1559b187b77c4c7a07609a",
        # trace re-recorded: lmm1's 19 beats from 1.0 s go to lmm0, not the dead lmm2
        "a94c6c39c4d5a9f4133ba72d06b038669cce43b9f8e5ba6336c5a36a2d48838b",
    ),
    "simultaneous_borders": (
        BASELINE_TOPO,
        uniform_types(2.0, 1.0, 4, 1, 3),
        dict(borders=(BorderEvent(time=2.0, cell_id=15), BorderEvent(time=2.0, cell_id=1))),
        10.0, 6,
        "ec9b26c4f05f46081d4604d31ddac9a5d827e94a3e480b7053f9639b12336aa4",
        "f29ba035254b6fc43f01d06db3ebe28b3ebd556a86adb636da2d26f4d263f255",
    ),
    # no beat precedes the fault: the takeover comes at heartbeat_timeout
    "fault_at_zero": (
        BASELINE_TOPO,
        uniform_types(2.0, 1.0, 4, 1, 3),
        dict(faults=(LmmFault(time=0.0, lmm_id=1),)),
        10.0, 8,
        "a859334f0cc5f77fb37668833aa424119d91286902bb1417d08ea4643cfee407",
        # trace re-recorded: lmm0's 20 beats go to lmm2, not the dead lmm1
        "efc9ea4132b683c92d2e2f97e9b53eebf2577d0b771b12f09ae4678320a505f3",
    ),
    # 2.5 is a report tick, a heartbeat and the takeover of LMM 1 (last
    # beat 1.0): the takeover precedes the borders, and cell 9 asks twice
    "borders_at_takeover_instant": (
        BASELINE_TOPO,
        uniform_types(2.0, 1.0, 4, 1, 3),
        dict(faults=(LmmFault(time=1.2, lmm_id=1),),
             borders=(BorderEvent(time=2.5, cell_id=9), BorderEvent(time=2.5, cell_id=4),
                      BorderEvent(time=2.5, cell_id=9))),
        10.0, 9,
        "2b17d81d00e7e3d4903f8fc8e1b520bcab930b127d0d0dde79f15f18398834ff",
        # trace re-recorded: lmm0's 18 beats from 1.5 s go to lmm2, not the dead lmm1
        "dc0ac94138a0255b5751e35b684804d4c5a958bc9402f9b7001c1d449fdf0f04",
    ),
    # beat times are chained float sums of 0.3, so none is a multiple of it
    "non_dyadic_beats": (
        BASELINE_TOPO,
        uniform_types(2.0, 1.0, 4, 1, 3),
        dict(heartbeat_period=0.3, heartbeat_timeout=0.9,
             faults=(LmmFault(time=2.5, lmm_id=2),)),
        10.0, 10,
        "c29d39103e99d7772c14970e27400b3cfe219aeaae75d1dda1ce45d519e623ac",
        # trace re-recorded: lmm1's 25 beats from 2.7 s go to lmm0, not the dead lmm2
        "a99386fd9645eb02d6498f8b5f80134cd3635b469ab89c77b2d7080c612239e5",
    ),
    # the only entry beyond 3 grids, so the only bit-level pin of the cell ->
    # grid mapping and the ring of backups: LMM 6 inherits grid 5, then
    # fails and LMM 7 inherits both; LMM 11's backup wraps to LMM 0; the
    # borders sit on grid edges, cell 47's neighbour grid wrapping to 0
    "ring_cascade_12x4": (
        build_topology(12, 4),
        uniform_types(2.0, 1.0, 4, 1, 3),
        dict(faults=(LmmFault(time=2.0, lmm_id=5), LmmFault(time=4.0, lmm_id=11),
                     LmmFault(time=5.0, lmm_id=6)),
             borders=(BorderEvent(time=1.5, cell_id=3), BorderEvent(time=4.0, cell_id=20),
                      BorderEvent(time=7.0, cell_id=47), BorderEvent(time=7.0, cell_id=24))),
        10.0, 11,
        "5277107a9b1e475f157ab6752c4aa1a470403609dea0f646b1c318cbfa6f568e",
        "c9c5f0ffbc6c923ecf8950dd0ca5e2c2e60f2970c14966f21ced70f3063baeab",
    ),
    # 210 cells near their upper threshold: about 205 changed cells per
    # tick, 536 migrations, 18 of them from an over-loaded stream that saw
    # no event since the previous tick; recorded from the report tick that
    # classified every kind of every changed cell
    "many_grids_heavy_balancing": (
        build_topology(30, 7),
        uniform_types(8.0, 0.5, 40, 12, 18),
        dict(faults=(LmmFault(time=2.0, lmm_id=13),), borders=(BorderEvent(time=3.0, cell_id=97),)),
        5.0, 13,
        "363b4ae7e0754d6cb661cf4e1e18e66952914ad256e61b934498f31f1a4cb724",
        "98a63f3f6e19d206f4c19ad109f8e3db770de965b206816ddcac4848aa31cce3",
    ),
    # UMTS stays over-loaded while WiMax and WLAN stay under-loaded, tick
    # after tick: 1678 migrations come with only 313 notices, so most come
    # from cells whose load states did not change that tick; recorded from
    # the report tick that re-read every changed cell's zones
    "persistent_imbalance": (
        BASELINE_TOPO,
        {AccessNetworkKind.UMTS: SystemTypeParams(lam=20.0, mu=0.5, m=40, k1=2, k2=4),
         AccessNetworkKind.WIMAX: SystemTypeParams(lam=0.2, mu=0.05, m=40, k1=30, k2=36),
         AccessNetworkKind.WLAN: SystemTypeParams(lam=0.2, mu=0.05, m=40, k1=30, k2=36)},
        dict(faults=(LmmFault(time=3.0, lmm_id=1),)),
        10.0, 19,
        "161a0dd218c2b65b1a64e5b596ef2fb4b3dcaeb8671669008ca3f77cba0898f3",
        "81f93afafea48e0d17c75ffb85df742c332d9f3ff29ae10b68c276344de0d652",
    ),
    # WiMax has no arrivals, so fewer streams wait on an arrival than hold
    # departures: its only sessions are the 138 that migrate in and leave;
    # this and the next entry were recorded from the single event heap
    "one_kind_idle": (
        BASELINE_TOPO,
        {AccessNetworkKind.UMTS: SystemTypeParams(lam=2.0, mu=1.0, m=4, k1=1, k2=3),
         AccessNetworkKind.WIMAX: SystemTypeParams(lam=0.0, mu=1.0, m=4, k1=1, k2=3),
         AccessNetworkKind.WLAN: SystemTypeParams(lam=3.0, mu=1.5, m=6, k1=2, k2=4)},
        dict(faults=(LmmFault(time=2.0, lmm_id=0),), borders=(BorderEvent(time=1.0, cell_id=5),)),
        10.0, 14,
        "2011f0a944f56c7195a897d8ee97453dd22cfdfbb46746f49a7cdbf06709bf36",
        "312d82ea6d791dac50092a92687469779d18695e7e032499649db8dd124ee13f",
    ),
    # the run ends before the first tick, heartbeat and border: no control
    # event falls inside it, and only arrivals and departures are traced
    "horizon_inside_first_window": (
        BASELINE_TOPO,
        uniform_types(40.0, 20.0, 4, 1, 3),
        dict(faults=(LmmFault(time=0.01, lmm_id=1),), borders=(BorderEvent(time=0.2, cell_id=2),)),
        0.05, 15,
        "384c58780532199b1a5ff0fcc8bb0c983c69637f453d031f75f77b3879fa2ea8",
        "4c495ec24d679521f84a4208a08da06ad90fda9503ed59a15ec666e67dd383fb",
    ),
}


def message_tally(trace: str) -> Counter:
    """Trace lines per kind, leaving out the Arrival and Departure events:
    what ``message_counts`` must hold."""
    kinds = Counter(line.split(",")[1] for line in trace.splitlines())
    del kinds["Arrival"], kinds["Departure"]
    return kinds


class TestSystemSimBitIdentity:
    @pytest.mark.parametrize("name", sorted(SYSTEM_GOLDEN))
    def test_golden_digest(self, name):
        topo, types, knobs, horizon, seed, report_digest, trace_digest = SYSTEM_GOLDEN[name]
        scenario = SimScenario(**knobs)
        buf = io.StringIO()
        traced = run_system_sim(topo, types, scenario, horizon, seed, trace=buf)
        plain = run_system_sim(topo, types, scenario, horizon, seed)
        assert report_bytes(traced) == report_bytes(plain)
        assert sha256(report_bytes(plain)) == report_digest
        assert sha256(buf.getvalue().encode()) == trace_digest
        assert message_tally(buf.getvalue()) == plain.message_counts

    @pytest.mark.parametrize("balancing", [True, False])
    @pytest.mark.parametrize("name", sorted(SYSTEM_GOLDEN))
    def test_zone_moves_count_the_notices(self, name, balancing):
        # a notice fires exactly on a tallied move between two load states
        topo, types, knobs, horizon, seed = SYSTEM_GOLDEN[name][:5]
        scenario = SimScenario(**{**knobs, "balancing_enabled": balancing})
        report = run_system_sim(topo, types, scenario, horizon, seed)
        state_changes = 0
        for stats in report.per_type.values():
            assert len(stats.zone_moves) == 25
            assert stats.zone_moves[::6] == [0] * 5
            state_changes += sum(
                n for move, n in enumerate(stats.zone_moves)
                if classify_load(move // 5, 1, 3) is not classify_load(move % 5, 1, 3)
            )
        assert state_changes == report.message_counts.get("StateChangeNotice", 0)


@pytest.fixture
def classify_calls(monkeypatch):
    """Counts calls of the load classification inside run_system_sim."""
    calls = [0]
    original = simkernel.classify_load

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(simkernel, "classify_load", counting)
    return calls


@st.composite
def thresholds_and_move(draw):
    """(k1, k2, prev, cur) with 0 <= k1 < k2 <= m and prev, cur in 0..m."""
    m = draw(st.integers(1, 200))
    k1 = draw(st.integers(0, m - 1))
    k2 = draw(st.integers(k1 + 1, m))
    occupancy = st.integers(0, m)
    return k1, k2, draw(occupancy), draw(occupancy)


class TestZones:
    """The report tick reads load states and crossings off zones."""

    @given(thresholds_and_move())
    @example((0, 1, 0, 1))  # k1 = 0 and k2 = m
    @example((0, 7, 7, 0))  # k1 = 0 and k2 = m, a drop across both
    @example((3, 9, 9, 2))  # k2 = m
    @example((0, 5, 2, 2))  # k1 = 0
    @settings(max_examples=500, deadline=None)
    def test_zone_decides_state_and_crossings(self, case):
        k1, k2, prev, cur = case
        zp, zc = queueing._zone(prev, k1, k2), queueing._zone(cur, k1, k2)
        assert classify_load(zp, 1, 3) is classify_load(prev, k1, k2)
        assert classify_load(zc, 1, 3) is classify_load(cur, k1, k2)
        crossed = queueing._crossings(prev, cur, k1, k2)
        assert queueing._crossings(zp, zc, 1, 3) == crossed
        # the zone moves each crossing sums, as the tallies and the oracle read them
        assert CROSSING_MOVES == (
            (1, 2, 3, 4), (3, 4, 8, 9, 13, 14), (20, 21, 22, 23), (10, 11, 15, 16, 20, 21))
        assert tuple(5 * zp + zc in moves for moves in CROSSING_MOVES) == crossed


# run_system_sim classifies the five zones once, at set-up, and the tick
# only reads the table
SETUP_CLASSIFICATIONS = 5


class TestReportTickScaling:
    def test_quiet_system_classifies_at_most_once_per_cell(self, classify_calls):
        for grids, cells, horizon in ((3, 3, 200.0), (12, 5, 20.0)):
            classify_calls[0] = 0
            topo = build_topology(grids, cells)
            report = run_system_sim(topo, small_types(lam=0.0), SimScenario(), horizon, 1)
            assert report.message_counts["LoadReport"] == grids * cells * int(horizon * 10)
            assert classify_calls[0] == SETUP_CLASSIFICATIONS

    def test_classifications_scale_with_events(self, classify_calls):
        # nearly every cell changes at every tick
        types = uniform_types(8.0, 0.5, 40, 12, 18)
        for horizon in (1.0, 20.0):
            classify_calls[0] = 0
            report = run_system_sim(BASELINE_TOPO, types, SimScenario(), horizon, 42)
            assert classify_calls[0] == SETUP_CLASSIFICATIONS
        assert sum(s.migrations_out for s in report.per_type.values()) > 0

    def test_queue_holds_one_report_tick(self):
        # a queue holding every tick at once peaks near 0.85 MB here (about
        # 145 B per tick); with one tick queued, the peak is the run's fixed
        # 0.12 MB. 5000 ticks, not more: tracemalloc finds each allocation's
        # line by scanning the line table of the run's long loop, 0.2 ms a tick
        quiet = small_types(lam=0.0)
        run_system_sim(BASELINE_TOPO, quiet, SimScenario(), 1.0, 1)  # lazy set-up
        tracemalloc.start()
        try:
            report = run_system_sim(BASELINE_TOPO, quiet, SimScenario(), 500.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.message_counts["LoadReport"] == BASELINE_TOPO.cell_count * 5000
        assert peak < 400_000


class TestHeartbeatScaling:
    @pytest.mark.parametrize("grids,cells,faults,horizon", [
        (3, 3, (), 100.0),
        (3, 3, (LmmFault(time=30.0, lmm_id=1),), 100.0),
        (12, 4, (LmmFault(time=2.0, lmm_id=5), LmmFault(time=4.0, lmm_id=11),
                 LmmFault(time=5.0, lmm_id=6)), 50.0),
    ], ids=["no_fault", "one_fault", "ring_of_12"])
    def test_backup_lookups_bounded_by_the_faults(self, monkeypatch, grids, cells, faults,
                                                  horizon):
        # the beats hold until a fault time passes, so every LMM looks up
        # its backups once per fault, plus once per takeover; rebuilding the
        # beats at every round looks them up 600, 460 and 922 times here
        calls = [0]
        original = Topology.backups

        def counting(self, lmm):
            calls[0] += 1
            return original(self, lmm)

        monkeypatch.setattr(Topology, "backups", counting)
        report = run_system_sim(build_topology(grids, cells), small_types(lam=0.0),
                                SimScenario(faults=faults), horizon, 1)
        takeovers = report.message_counts.get("Takeover", 0)
        assert takeovers == len(faults)
        assert calls[0] <= grids * (1 + len(faults)) + takeovers


class TestPerStreamState:
    @pytest.mark.parametrize("first", [4, 16, 64])
    @pytest.mark.parametrize("seed", [0, 7, 2012])
    def test_buffered_draws_equal_scalar_draws(self, seed, first):
        # one stream alternates scales, as its arrivals and services do;
        # from a first block of 4, refills come at draws 0, 4, 12, 28, 60,
        # 124, 188 and 252, so the blocks of 4, 8, 16, 32 and 64 and two
        # refills at 64 are all crossed; from 16 at 0, 16, 48, 112, 176 and
        # 240, from 64 at 0, 64, 128, 192 and 256. The first block is drawn
        # at 0 by the constructor, and the refill at ``first`` crosses to the
        # rebuilt generator
        scales = [2.0, 1 / 3, 1e-3, 0.05, 7.5, 1e12]
        state = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        draws = simkernel._Draws(state[None], [first])
        assert not draws.rngs
        scalar = np.random.default_rng(np.random.SeedSequence(seed))
        got, want = [], []
        for i in range(300):
            scale = scales[i % len(scales)]
            got.append(scale * draws.draw(0))
            want.append(scalar.exponential(scale))
        assert draws.block == [64]
        assert list(draws.rngs) == [0]
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @staticmethod
    def kept_draws(monkeypatch):
        """The ``_Draws`` of every run_system_sim call from here on."""
        made = []
        init = simkernel._Draws.__init__

        def keep(self, *args):
            init(self, *args)
            made.append(self)

        monkeypatch.setattr(simkernel._Draws, "__init__", keep)
        return made

    def test_first_block_covers_a_short_run(self, monkeypatch):
        # 700 cells x 10 s of baseline traffic: a stream draws about 11
        # times, so with a first block of 16 about one stream in eight
        # refills and builds its generator again (0.13 per stream);
        # blocks of 4, 8, 16 from the start would rebuild nearly every one
        made = self.kept_draws(monkeypatch)
        topo = build_topology(100, 7)
        report = run_system_sim(topo, small_types(), SimScenario(), 10.0, 3)
        streams_ = topo.cell_count * len(AccessNetworkKind)
        assert sum(s.arrivals for s in report.per_type.values()) > 2 * streams_
        assert 0 < len(made[0].rngs) <= 0.3 * streams_

    def test_streams_that_never_refill_hold_no_generator(self, monkeypatch):
        # 2100 baseline cells for a microsecond: no stream draws past its
        # first block. A generator kept per stream takes about 700 B of
        # Python objects, 1131 B per stream in all against 414 B without
        made = self.kept_draws(monkeypatch)
        topo = build_topology(300, 7)
        run_system_sim(BASELINE_TOPO, small_types(), SimScenario(), 1e-6, 1)  # lazy set-up
        tracemalloc.start()
        try:
            run_system_sim(topo, small_types(), SimScenario(), 1e-6, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert made[-1].rngs == {}
        assert peak < 700 * topo.cell_count * len(AccessNetworkKind)

    def test_memory_does_not_grow_with_the_horizon(self):
        # about 90 live sessions at any time and no over-loaded cell, so no
        # migration. A per-stream queue of every admitted id grows by some
        # 36 B per admission: 0.55 MB between these two runs
        topo = build_topology(3, 1)
        types = uniform_types(20.0, 2.0, 60, 1, 60)
        scenario = SimScenario(window=10.0, heartbeat_period=5.0, heartbeat_timeout=15.0)
        run_system_sim(topo, types, scenario, 10.0, 1)  # lazy set-up
        peaks = []
        for horizon in (25.0, 100.0):
            tracemalloc.start()
            try:
                report = run_system_sim(topo, types, scenario, horizon, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sum(s.migrations_in for s in report.per_type.values()) == 0
        assert sum(s.arrivals for s in report.per_type.values()) > 15_000
        assert peaks[1] < peaks[0] + 50_000


def spawned(seed, c, ki):
    return np.random.SeedSequence(seed, spawn_key=(c, ki))


@pytest.mark.filterwarnings("error")  # no uint32 wrap-around may warn
class TestBulkStreamSeeding:
    def assert_states_match(self, seed, n_cells, n_kinds=3):
        states = streams.stream_states(seed, n_cells, n_kinds)
        want = [spawned(seed, c, ki).generate_state(4, np.uint64)
                for c in range(n_cells) for ki in range(n_kinds)]
        assert states.dtype == np.uint64
        assert states.shape == (n_cells * n_kinds, 4)
        assert states.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1])
    def test_states_equal_seed_sequence(self, seed):
        self.assert_states_match(seed, 40)

    @pytest.mark.parametrize("seed", [2**64, 2**130 + 5])
    def test_seeds_longer_than_the_pool(self, seed):
        # 3 words are zero-padded to 4; 5 words mix their last into the pool
        self.assert_states_match(seed, 5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**63 - 1), st.integers(1, 60), st.integers(1, 4))
    def test_states_equal_seed_sequence_property(self, seed, n_cells, n_kinds):
        self.assert_states_match(seed, n_cells, n_kinds)

    @pytest.mark.parametrize("seed", [0, 2**32, 2**63 - 1])
    def test_generators_draw_as_default_rng(self, seed):
        for s, state in enumerate(streams.stream_states(seed, 7, 3)):
            built = streams.stream_rng(state)
            want = np.random.default_rng(spawned(seed, *divmod(s, 3)))
            assert (built.standard_exponential(100).tobytes()
                    == want.standard_exponential(100).tobytes())

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            streams.stream_states(-1, 1, 3)


class TestRunSystemSim:
    topo = build_topology(3, 3)

    def run(self, horizon=200.0, seed=42, types=None, trace=None, window=0.1,
            **scenario_kw):
        scenario = SimScenario(window=window, **scenario_kw)
        return run_system_sim(
            self.topo, types or small_types(), scenario, horizon, seed, trace=trace
        )

    def test_load_report_count_exact(self):
        report = self.run(horizon=200.0)
        assert report.message_counts["LoadReport"] == 9 * 2000

    def test_quiet_system_sends_no_notices(self):
        report = self.run(types=small_types(lam=0.0))
        assert report.message_counts.get("StateChangeNotice", 0) == 0
        assert report.message_counts.get("BBReplicate", 0) == 0

    def test_bb_replication_pairs(self):
        report = self.run(horizon=500.0)
        notices = report.message_counts.get("StateChangeNotice", 0)
        assert notices > 0
        assert report.message_counts.get("BBReplicate", 0) == 2 * notices

    def test_single_fault_single_takeover(self):
        report = self.run(faults=(LmmFault(time=20.0, lmm_id=1),))
        assert report.message_counts["Takeover"] == 1
        assert len(report.failover_latencies) == 1
        latency = report.failover_latencies[0]
        assert 0.0 < latency <= 1.5 + 0.5

    def test_two_faults_two_takeovers(self):
        buf = io.StringIO()
        report = self.run(
            faults=(LmmFault(time=20.0, lmm_id=0), LmmFault(time=60.0, lmm_id=2)),
            trace=buf,
        )
        assert report.message_counts["Takeover"] == 2
        assert len(report.failover_latencies) == 2
        assert all(0.0 < lat <= 2.0 for lat in report.failover_latencies)
        # LMM 2's first backup, LMM 0, is dead: grid 2 goes to LMM 1
        takeovers = [line.split(",")[2:] for line in buf.getvalue().splitlines()
                     if ",Takeover," in line]
        assert takeovers == [["lmm1", "lmm0"], ["lmm1", "lmm2"]]

    def test_beats_go_to_the_first_live_backup(self):
        # LMM 1 dies at 10 s: LMM 0 beats to its second backup, LMM 2; once
        # LMM 2 dies too, LMM 0 has no live backup and sends no beat
        buf = io.StringIO()
        report = self.run(horizon=30.0, trace=buf, faults=(LmmFault(time=10.0, lmm_id=1),
                                                           LmmFault(time=20.0, lmm_id=2)))
        beats = Counter((float(t) < 10.0, float(t) < 20.0, src, dst)
                        for t, kind, src, dst in (line.split(",")
                                                  for line in buf.getvalue().splitlines())
                        if kind == "Heartbeat")
        assert beats == {
            (True, True, "lmm0", "lmm1"): 19, (True, True, "lmm1", "lmm2"): 19,
            (True, True, "lmm2", "lmm0"): 19,
            (False, True, "lmm0", "lmm2"): 20, (False, True, "lmm2", "lmm0"): 20,
        }
        assert report.message_counts["Heartbeat"] == sum(beats.values())

    def test_both_backups_dead_leaves_grid_unanswered(self):
        faults = (LmmFault(time=10.0, lmm_id=1), LmmFault(time=10.0, lmm_id=2),
                  LmmFault(time=20.0, lmm_id=0))
        buf = io.StringIO()
        report = self.run(horizon=30.0, faults=faults, trace=buf)
        # LMM 0 inherits grids 1 and 2; at its fault both its backups are dead
        assert report.message_counts["Takeover"] == 2
        assert len(report.failover_latencies) == 2
        lines = [line.split(",") for line in buf.getvalue().splitlines()]
        assert max(float(t) for t, kind, *_ in lines if kind == "BalanceInfo") < 20.0
        assert max(float(t) for t, kind, *_ in lines if kind == "LoadReport") == 30.0

    @pytest.mark.parametrize("period,timeout,fault,horizon", [
        (0.001, 0.0015, 15.9995, 17.0),
        (0.3, 1.5, 32767.25, 32770.0),
    ])
    def test_takeover_after_late_last_beat(self, period, timeout, fault, horizon):
        # far from 0, (beat + timeout) - beat can round below the timeout
        topo = build_topology(3, 1)
        scenario = SimScenario(window=1.0, heartbeat_period=period, heartbeat_timeout=timeout,
                               faults=(LmmFault(time=fault, lmm_id=1),))
        report = run_system_sim(topo, small_types(lam=0.0), scenario, horizon, 1)
        counts = report.message_counts
        assert counts["Takeover"] == 1
        assert 0.0 <= report.failover_latencies[0] <= timeout + period
        # one cell per grid, so at most one report per tick goes unanswered
        bound = math.ceil((timeout + period) / scenario.window)
        assert counts["LoadReport"] - counts["BalanceInfo"] <= bound

    def test_live_lmms_are_not_taken_over_at_the_horizon(self):
        # the last beat's timeout lands inside the horizon's tick tolerance
        report = self.run(horizon=10.5 - 1e-11, heartbeat_timeout=0.5 + 1e-11)
        assert "Takeover" not in report.message_counts
        assert report.failover_latencies == []

    def test_fault_after_horizon_is_silent(self):
        report = self.run(faults=(LmmFault(time=500.0, lmm_id=1),), horizon=100.0)
        assert "Takeover" not in report.message_counts

    @pytest.mark.parametrize("schedules,error", [
        pytest.param({"faults": (LmmFault(time=1.0, lmm_id=9),)},
                     "faults[0].lmm_id must be in [0, 3), got 9", id="unknown_fault_id"),
        # neither time may silently win: either order is refused
        pytest.param({"faults": (LmmFault(time=2.0, lmm_id=1), LmmFault(time=5.0, lmm_id=1))},
                     "faults[1].lmm_id must not repeat faults[0].lmm_id, got 1",
                     id="repeated_fault_id"),
        pytest.param({"faults": (LmmFault(time=5.0, lmm_id=1), LmmFault(time=2.0, lmm_id=1))},
                     "faults[1].lmm_id must not repeat faults[0].lmm_id, got 1",
                     id="repeated_fault_id_earlier_second"),
        pytest.param({"borders": (BorderEvent(time=1.0, cell_id=99),)},
                     "borders[0].cell_id must be in [0, 9), got 99", id="unknown_border_cell"),
    ])
    def test_schedule_rule_refused(self, schedules, error):
        with pytest.raises(ValueError) as sim_error:
            self.run(**schedules)
        assert str(sim_error.value) == error
        # the parser applies the same rule to the same schedules, under sim.
        cfg = default_config()
        with pytest.raises(ValueError) as parse_error:
            dataclasses.replace(cfg, topology=TopologySpec(self.topo.lmm_count,
                                                           self.topo.cells_per_grid),
                                sim=dataclasses.replace(cfg.sim, **schedules))
        assert str(parse_error.value) == "sim." + error

    @pytest.mark.parametrize("field,build", [
        # a NaN fault time killed its LMM from t = 0 and was never taken over
        pytest.param("time", lambda x: LmmFault(time=x, lmm_id=1), id="fault"),
        # a NaN border time was silently dropped
        pytest.param("time", lambda x: BorderEvent(time=x, cell_id=1), id="border"),
        pytest.param("window", lambda x: SimScenario(window=x), id="window"),
        # a NaN period ran with no heartbeats
        pytest.param("heartbeat_period", lambda x: SimScenario(heartbeat_period=x),
                     id="heartbeat_period"),
        pytest.param("heartbeat_timeout", lambda x: SimScenario(heartbeat_timeout=x),
                     id="heartbeat_timeout"),
        # NaN failed converting the tick count to an int, inf overflowed
        pytest.param("horizon", lambda x: run_system_sim(BASELINE_TOPO, small_types(),
                                                         SimScenario(), x, 1), id="horizon"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_setting_refused(self, field, build, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            build(value)

    def test_overflowing_tick_count_refused(self):
        # 10 / 1e-320 is inf, which int() refused with a bare OverflowError
        with pytest.raises(ValueError, match=r"^horizon / window must be < 2\*\*63, got 10.0 / 1e-320$"):
            run_system_sim(build_topology(3, 7), small_types(), SimScenario(window=1e-320), 10.0, 1)

    def test_horizon_at_float_max_ends(self):
        # 21 cells * horizon is inf, and the occupancy frequencies were inf / inf = NaN
        scenario = SimScenario(window=1e305, heartbeat_period=1e307, heartbeat_timeout=1.5e307)
        with pytest.raises(ValueError, match=r"^cells \* horizon must be finite, "
                                             r"got 21 \* 1.7976931348623157e\+308$"):
            run_system_sim(BASELINE_TOPO, uniform_types(0.0, 1.0, 4, 1, 3), scenario,
                           sys.float_info.max, 1)

    @pytest.mark.parametrize("topo, horizon, faults, ticks", [
        # horizon + window * 1e-9 overflows: the run still stops at the horizon
        (Topology(lmm_count=1, cells_per_grid=1), sys.float_info.max, (), 1797),
        (BASELINE_TOPO, sys.float_info.max / 32, (LmmFault(time=1e306, lmm_id=1),), 56),
    ])
    def test_horizon_near_float_max_ends(self, topo, horizon, faults, ticks):
        scenario = SimScenario(window=1e305, heartbeat_period=1e305, heartbeat_timeout=1.5e305,
                               faults=faults)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_system_sim(topo, uniform_types(0.0, 1.0, 4, 1, 3), scenario, horizon, 1)
        assert report.message_counts["LoadReport"] == topo.cell_count * ticks
        assert report.message_counts.get("Takeover", 0) == len(faults)
        for stats in report.per_type.values():
            assert stats.occupancy_freq.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_border_exchange_counts(self):
        report = self.run(
            borders=(BorderEvent(time=5.0, cell_id=0), BorderEvent(time=9.0, cell_id=4))
        )
        assert report.message_counts["BorderRequest"] == 2
        assert report.message_counts["NeighborConsult"] == 2
        assert report.message_counts["BorderGrant"] == 2

    def test_deterministic(self):
        kw = dict(faults=(LmmFault(time=20.0, lmm_id=0),),
                  borders=(BorderEvent(time=5.0, cell_id=1),))
        a = self.run(**kw)
        b = self.run(**kw)
        assert report_bytes(a) == report_bytes(b)

    def test_conservation_with_migration(self):
        report = self.run(horizon=500.0)
        for stats in report.per_type.values():
            assert (
                stats.arrivals + stats.migrations_in
                == stats.blocked + stats.departures + stats.in_system
                + stats.migrations_out
            )
        # migrations cancel across kinds: the plain identity holds in aggregate
        totals = [
            sum(getattr(s, f) for s in report.per_type.values())
            for f in ("arrivals", "blocked", "departures", "in_system")
        ]
        assert totals[0] == totals[1] + totals[2] + totals[3]

    def test_conservation_plain_when_balancing_off(self):
        report = self.run(horizon=500.0, balancing_enabled=False)
        for stats in report.per_type.values():
            assert stats.migrations_in == stats.migrations_out == 0
            assert stats.arrivals == stats.blocked + stats.departures + stats.in_system

    def test_occupancy_tracks_closed_form_without_balancing(self):
        # with balancing off, each (cell, kind) chain is a plain loss system
        types = {
            kind: SystemTypeParams(lam=2.0, mu=1.0, m=4, k1=1, k2=3)
            for kind in AccessNetworkKind
        }
        report = self.run(horizon=1500.0, window=0.5, types=types,
                          balancing_enabled=False)
        ana = state_probabilities(types[UMTS]).probs
        for kind, stats in report.per_type.items():
            assert stats.params is types[kind]
            band = 3 * np.sqrt(ana * (1 - ana) / stats.events) + 1e-3
            assert (np.abs(stats.occupancy_freq - ana) <= band).all()

    def test_trace_times_non_decreasing(self):
        # and at equal times the lines follow the rank of the event behind them
        rank = {"Arrival": 0, "Departure": 1, "LoadReport": 2, "BalanceInfo": 2,
                "StateChangeNotice": 2, "BBReplicate": 2, "Heartbeat": 3, "Takeover": 4,
                "BorderRequest": 5, "NeighborConsult": 5, "BorderGrant": 5}
        buf = io.StringIO()
        self.run(horizon=50.0, trace=buf,
                 faults=(LmmFault(time=20.0, lmm_id=1),),
                 borders=(BorderEvent(time=5.0, cell_id=1),))
        keys = [(float(t), rank[kind]) for t, kind, *_ in
                (line.split(",") for line in buf.getvalue().splitlines())]
        assert keys, "trace should not be empty"
        assert all(b >= a for a, b in zip(keys, keys[1:]))
        # 5.0 s holds a tick, a heartbeat round and the border; 21.0 s a tick,
        # a round and the takeover of LMM 1 (last beat 19.5 s)
        at = defaultdict(set)
        for t, r in keys:
            at[t].add(r)
        assert {2, 3, 5} <= at[5.0] and {2, 3, 4} <= at[21.0]

    def test_heartbeats_without_fault_cause_no_takeover(self):
        report = self.run(horizon=100.0)
        assert "Takeover" not in report.message_counts
        assert report.failover_latencies == []

    def test_cascading_faults_leave_no_grid_unanswered(self):
        # LMM 2 inherits grid 1, then fails: its backup must take both grids
        scenario = SimScenario(faults=(LmmFault(time=10.0, lmm_id=1),
                                       LmmFault(time=20.0, lmm_id=2)))
        report = run_system_sim(BASELINE_TOPO, small_types(), scenario, 40.0, 42)
        counts = report.message_counts
        assert counts["LoadReport"] == 21 * 400
        # each fault may leave its grid's 7 cells unanswered for at most
        # heartbeat_timeout + heartbeat_period = 2.0 s, i.e. 20 ticks
        bound = 2 * 7 * round((scenario.heartbeat_timeout + scenario.heartbeat_period)
                              / scenario.window)
        assert counts["LoadReport"] - counts["BalanceInfo"] <= bound


@st.composite
def fault_schedules(draw):
    grids = draw(st.integers(3, 6))
    period = draw(st.sampled_from([0.25, 0.3, 0.5, 1 / 3]))
    timeout = period * draw(st.floats(1.01, 4.0))
    horizon = draw(st.floats(2.0, 12.0))
    beats = [period]
    while beats[-1] + period <= horizon:
        beats.append(beats[-1] + period)
    times = st.one_of(st.floats(0.0, horizon + 1.0), st.sampled_from([0.0, *beats]))
    # an LMM fails at most once
    faults = draw(st.lists(st.builds(LmmFault, time=times, lmm_id=st.integers(0, grids - 1)),
                           max_size=5, unique_by=lambda f: f.lmm_id))
    scenario = SimScenario(heartbeat_period=period, heartbeat_timeout=timeout,
                           faults=tuple(faults))
    return grids, draw(st.integers(1, 2)), scenario, horizon, draw(st.integers(0, 99))


class TestFailoverProperties:
    @settings(max_examples=60, deadline=None)
    @given(fault_schedules())
    def test_every_grid_is_answered_or_has_no_live_backup(self, case):
        grids, cells_per_grid, scenario, horizon, seed = case
        topo = build_topology(grids, cells_per_grid)
        buf = io.StringIO()
        report = run_system_sim(topo, small_types(lam=2.0, mu=1.0), scenario, horizon, seed,
                                trace=buf)
        bound = scenario.heartbeat_timeout + scenario.heartbeat_period
        fail_time = {f.lmm_id: f.time for f in scenario.faults}
        lines = [line.split(",") for line in buf.getvalue().splitlines()]
        times = [float(t) for t, *_ in lines]
        assert all(b >= a for a, b in zip(times, times[1:]))
        for (t, kind, src, dst), reply in zip(lines, lines[1:] + [None]):
            if kind != "LoadReport" or reply == [t, "BalanceInfo", dst, src]:
                continue
            lmm = int(dst.removeprefix("lmm"))
            f = fail_time.get(lmm, math.inf)
            assert f <= float(t), (t, dst)
            assert float(t) - f <= bound or all(
                fail_time.get(b, math.inf) <= f + scenario.heartbeat_timeout
                for b in topo.backups(lmm)
            ), (t, dst)
        assert all(0.0 <= lat <= bound for lat in report.failover_latencies)
        # a beat goes from a live LMM to its first live backup, or is not sent
        beats_at = defaultdict(set)
        for t, kind, src, dst in lines:
            if kind == "Heartbeat":
                beats_at[t].add(src)
                live = [b for b in topo.backups(int(src[3:]))
                        if float(t) < fail_time.get(b, math.inf)]
                assert float(t) < fail_time.get(int(src[3:]), math.inf), (t, src)
                assert live and dst == f"lmm{live[0]}", (t, src, dst)
        for t, senders in beats_at.items():
            alive = {lmm for lmm in range(grids) if float(t) < fail_time.get(lmm, math.inf)}
            assert senders == {f"lmm{lmm}" for lmm in alive
                               if any(b in alive for b in topo.backups(lmm))}, t
        assert message_tally(buf.getvalue()) == report.message_counts
        for stats in report.per_type.values():
            assert (stats.arrivals + stats.migrations_in
                    == stats.blocked + stats.departures + stats.in_system
                    + stats.migrations_out)


# ---------------------------------------------------------------------------
# validation harness
# ---------------------------------------------------------------------------


def baseline_wlan_seed_7():
    # the WLAN series of ``sdlb validate --seed 7``: it fails on
    # occupancy[25..26] and on transition[U->B] and [B->U]
    p = params(lam=0.5, mu=0.05, m=80, k1=24, k2=64)
    horizon = horizon_for_events(p, 1_000_000)
    kind = AccessNetworkKind.WLAN
    return run_cell_mc(p, horizon, 0.1, seed=10, kind=kind).per_type[kind]


def negative_control():
    # criterion 6: a mu = 1.5 series claimed as mu = 1.0
    stats = run_cell_mc(params(mu=1.5), horizon=1e5, window=0.02, seed=271828).per_type[UMTS]
    stats.params = dataclasses.replace(stats.params, mu=1.0)
    return stats


# (series builder, SHA-256 of ``ValidationVerdict.format()``): any change to
# a band, a status rule or a sample count shows here
VALIDATION_GOLDEN = {
    "baseline_wlan_seed_7": (
        baseline_wlan_seed_7,
        "7fdcdd7a1915d9f2199491f4b5fcbc4bf1887be43c5af8c2a601d65abb5ad0b2",
    ),
    "long_report": (
        lambda: run_cell_mc(params(), horizon=8e4, window=0.02, seed=42).per_type[UMTS],
        "0b8bd13a7185b229adc1510cbf9fdc922fa99ed721ee73159a7732db6676f128",
    ),
    "insufficient": (
        lambda: run_cell_mc(params(), horizon=5.0, window=0.02, seed=1).per_type[UMTS],
        "88dc64eebe2ec2bb5ab02c966867d0477f7b064e1a1d4b082d4ef46e14076485",
    ),
    "negative_control": (
        negative_control,
        "8ed68a0870bd1e1eda864b153eda19f21361f7655406bece8186f32d8b8a399a",
    ),
}


class TestValidateAgainstAnalytic:
    p = params(lam=1.0, mu=1.0, m=4, k1=1, k2=3)

    def long_series(self):
        return run_cell_mc(self.p, horizon=8e4, window=0.02, seed=42).per_type[UMTS]

    def mislabelled_series(self):
        # a mu = 1.5 series that claims to be of self.p
        wrong = params(lam=1.0, mu=1.5, m=4, k1=1, k2=3)
        stats = run_cell_mc(wrong, horizon=8e4, window=0.02, seed=42).per_type[UMTS]
        stats.params = dataclasses.replace(stats.params, mu=1.0)
        return stats

    def test_matched_run_passes(self):
        verdict = validate_against_analytic(self.long_series())
        assert verdict.passed
        assert any(c.status == "pass" for c in verdict.checks)

    def test_wrong_mu_fails(self):
        verdict = validate_against_analytic(self.mislabelled_series())
        assert not verdict.passed
        assert verdict.failures

    def test_coarse_T_propagates_validity_error(self):
        stats = run_cell_mc(self.p, horizon=100.0, window=1.5, seed=1).per_type[UMTS]
        with pytest.raises(FirstOrderValidityError):
            validate_against_analytic(stats)

    def test_tiny_run_marked_insufficient(self):
        stats = run_cell_mc(self.p, horizon=5.0, window=0.02, seed=1).per_type[UMTS]
        verdict = validate_against_analytic(stats)
        assert verdict.passed  # nothing fails...
        assert all(c.status == "insufficient samples" for c in verdict.checks)

    def test_z_of_judged_checks(self):
        # z is the deviation in units of band / 3: within 3 for a passing
        # check, beyond it for a failing one
        passed = validate_against_analytic(self.long_series())
        judged = [c for c in passed.checks if c.status == "pass"]
        assert judged and all(abs(c.z) <= 3 for c in judged)
        failed = validate_against_analytic(self.mislabelled_series()).failures
        assert failed and all(abs(c.z) > 3 for c in failed)

    def test_protocol_series_judged_per_kind(self):
        # each kind of a protocol run is judged as a cell-kernel series is.
        # Only the layout is pinned: a run that starts empty fails today's
        # bands on occupancy[0]
        scenario = SimScenario(window=0.1, balancing_enabled=False)
        report = run_system_sim(build_topology(3, 7), small_types(), scenario, 100.0, 1)
        crossings = [f"transition[{kind.value}]" for kind in TransitionKind]
        for kind, stats in report.per_type.items():
            checks = validate_against_analytic(stats).checks
            occupancy = [f"occupancy[{k}]" for k in range(stats.params.m + 1)]
            assert [c.name for c in checks] == [*occupancy, "blocking", *crossings]
            _, _, rows = report_section(kind, stats.params, stats.window, stats)
            assert [row.split(",")[:4] for row in rows] == [
                [kind.name, crossing.value, str(c.observed), str(c.expected)]
                for crossing, c in zip(TransitionKind, checks[-4:])
            ]

    # lam/mu near 1 at m = 5000: the stationary law's support ends at 170
    past_support = params(lam=0.5, mu=0.45, m=5000, k1=0, k2=1)

    def past_support_series(self):
        p = self.past_support
        return run_cell_mc(p, horizon_for_events(p, 20_000), 1.0, 1).per_type[UMTS]

    def test_states_past_the_support_are_judged_as_one(self):
        checks = validate_against_analytic(self.past_support_series()).checks
        occupancy = [c for c in checks if c.name.startswith("occupancy")]
        assert [c.name for c in occupancy] == [
            *(f"occupancy[{k}]" for k in range(171)), "occupancy[>170]"]
        assert checks[:len(occupancy)] == occupancy
        assert occupancy[-1].status == "insufficient samples"

    def test_time_past_the_support_fails(self):
        stats = self.past_support_series()
        freq = 0.99 * stats.occupancy_freq
        freq[-1] += 0.01  # at m, the last state past the support
        verdict = validate_against_analytic(dataclasses.replace(stats, occupancy_freq=freq))
        assert [c.status for c in verdict.checks if c.name == "occupancy[>170]"] == ["fail"]
        assert not verdict.passed

    @pytest.mark.parametrize("observed,expected,band,z", [
        (0.75, 0.5, 0.75, 1.0),
        (0.25, 0.5, 0.375, -2.0),
        (0.3, 0.3, 0.1, 0.0),
        (0.3, 0.3, 0.0, 0.0),
        (0.4, 0.3, 0.0, math.inf),
        (0.2, 0.3, 0.0, -math.inf),
    ])
    def test_z(self, observed, expected, band, z):
        check = QuantityCheck("x", "pass", observed, expected, band)
        assert check.z == z

    def test_format_mentions_verdict(self):
        text = validate_against_analytic(self.long_series()).format()
        assert "verdict: PASS" in text

    @pytest.mark.parametrize("name", sorted(VALIDATION_GOLDEN))
    def test_golden_verdict(self, name):
        build, digest = VALIDATION_GOLDEN[name]
        text = validate_against_analytic(build()).format()
        assert sha256(text.encode()) == digest

