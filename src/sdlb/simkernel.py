"""Seeded discrete-event Monte Carlo: cell-level chains and the full protocol.

Two simulators live here.

``run_cell_mc`` simulates one cell's birth-death chain (the M/M/m/m loss
system: arrivals at rate lam, departures at rate k*mu at occupancy k,
arrivals while full blocked and counted) and reports time-weighted
occupancy frequencies plus per-window zone moves. It is the empirical
oracle for the closed-form occupancy distribution and the first-order
transition probabilities. Both simulators tally the 25 zone moves
(``_zone``) between window boundaries; ``CROSSING_MOVES`` reads the four
threshold crossings off them: U->B when a window starts below k1 and ends
at or above it, B->O likewise around k2, and O->B and B->U mirror
them. Flips that cancel within a window are invisible, matching the
single-event regime the linearised formulas describe.

``run_system_sim`` executes the signalling protocol on a topology: every
report tick each cell's inventory sends a LoadReport to its serving LMM
and gets a BalanceInfo reply if that LMM is alive; a load-state change
since the previous tick triggers a StateChangeNotice to the bulletin
board, which immediately replicates to its two backups; scheduled border
events produce the request/consult/grant exchange. Every heartbeat period
each live LMM beats to its first live ring backup (with both backups dead
it sends no beat); one heartbeat timeout after a failed LMM's last beat,
that backup takes over every grid it served, inherited ones included
(with both backups dead, those grids go unanswered). The optional
mobile-agent policy migrates one session per cell per tick from the most
over-loaded kind to the least-occupied under-loaded kind. The report tick
is event-driven: it visits only the streams whose occupancy changed since
the previous tick, reads their load states off a per-kind zone table,
counts the reports of all others in bulk and queues the next tick; a
tick with no notice and no cell that can migrate does no more. The
cells that can migrate, those with an over-loaded and an under-loaded
kind, are kept as a set that only a tick's notices change. What the
LMMs' liveness decides, the answered grids and a heartbeat round's
beats, is recomputed only when a fault time has passed (the grids also
after a takeover). The control queue holds only events due at their own
time: zero-delay follow-ups (a tick's notices and replicas, an instant's
border grants) are emitted inline, in the order their ranks would give
them on it.

Each (cell, kind) pair is one stream: its occupancy, live sessions and
draws sit at one index of flat per-stream lists, and a session is
tracked only while it is live. A stream's draws are packed doubles
(``array('d')``) and its live sessions an ascending list of ids.

Determinism: one RNG stream per (cell, kind), the PCG64 stream of
``SeedSequence(seed, spawn_key=(cell, kind))``, so adding cells never
perturbs existing streams; the seed states of all streams are hashed in
one vectorised pass (``sdlb.streams``). Draws come in buffered blocks
that equal the scalar draws bit for bit; a stream's first block is sized
from the draws it is expected to make by the horizon and drawn at
set-up, so most streams never refill, and only those that do keep a
generator (``_Draws``). Events wait in three queues: each stream's next
arrival (time, stream), the departures (time, stream, session id), and
the control events, ticks, heartbeat rounds, takeovers and border
instants (time, rank, tick number or LMM id). The loop takes the
earliest head; at equal times an arrival goes first, then a departure,
then the control events by rank (``_TICK``, ``_HEARTBEAT``, ``_TAKEOVER``,
``_BORDER``), and within a queue ties break by ids. Identical inputs give
byte-identical reports.
"""
from __future__ import annotations

import bisect
import heapq
import math
import sys
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import IO

import numpy as np

from .queueing import (
    CROSSING_MOVES,
    LoadState,
    SystemTypeParams,
    TransitionKind,
    _zone,
    classify_load,
    state_probabilities,
)
from .topology import (
    AccessNetworkKind,
    BorderEvent,
    LmmFault,
    SimScenario,
    Topology,
    check_schedules,
)
# the judge is sdlb.validation's; it stays importable here because
# perfbench/tracing.py times validate_against_analytic as part of the
# simkernel layer and looks it up in this module
from .validation import validate_against_analytic  # noqa: F401

__all__ = [
    "BorderEvent",
    "CellStats",
    "LmmFault",
    "SimReport",
    "SimScenario",
    "horizon_for_events",
    "run_cell_mc",
    "run_system_sim",
]


# ---------------------------------------------------------------------------
# cell-level birth-death kernel
# ---------------------------------------------------------------------------

_CHUNK = 1 << 16  # events drawn at a time
_BATCHES = 64  # equal time slices for the batch-means standard errors
_BLOCK = 1 << 13  # events per vector stage and uniform draw: bounds the temporaries' memory
_SEG = 128  # events per lane segment
_LEAD = 64  # events a segment's lanes run before the segment starts
# Lanes pay where the chain forgets its start within the lead: where
# lam/mu, capped at m, is at most _LANE_LOAD. A lane span must also be
# long enough to repay its lockstep, whose cost is per step, not per event.
_LANE_LOAD = 20
_LANE_MIN = 2 * _BLOCK


def _arrival_thresholds(unis, below, lam, mu):
    """c[i] = #{j : unis[i] * tot[j] < lam}; event i is an arrival iff k < c[i].

    tot[j] = lam + j*mu, so the real-arithmetic guess ceil((lam/u - lam)/mu),
    clipped to 0..m+1, is off only by rounding; the predicate is monotone in
    j, so the fix-up steps each guess towards c, re-evaluating the exact
    expression, and no decision flips. ``below`` is tot padded, [0, *tot,
    NaN], so below[c] = tot[c - 1] and c stays in 0..m+1: u * 0 < lam
    always, u * NaN < lam never (inf warns at u = 0).
    """
    m = below.shape[0] - 3
    at = below[1:]  # at[c] = tot[c]
    with np.errstate(divide="ignore", over="ignore"):
        c = np.ceil(np.clip((lam / unis - lam) / mu, 0, m + 1)).astype(np.int64)
    while True:
        up = unis * at[c] < lam
        down = ~(unis * below[c] < lam)
        if not (up.any() or down.any()):
            return c
        c += up
        c -= down


def _window_moves(moves, zb, tn, inv_w, jb, prev_z):
    """Tally the zone moves at the window boundaries passed by events that
    spend their interval in zone zb[i] and end at tn[i], each from the zone
    at the boundary passed before; returns the new (jb, prev_z). Runs of one
    zone are read at their ends: a run's inner boundaries move no zone."""
    ends = np.append(np.flatnonzero(zb[1:] != zb[:-1]), zb.size - 1)
    wj = (tn[ends] * inv_w).astype(np.int64)
    cur = zb[ends[wj > np.concatenate(([jb], wj[:-1]))]]
    if cur.size:
        moves += np.bincount(5 * np.concatenate(([prev_z], cur[:-1])) + cur, minlength=25)
        prev_z = int(cur[-1])
    return int(wj[-1]), prev_z


def _walk(k, c, up):
    """Occupancy before each event, and after the last one.

    An event is an arrival iff k < c[i]; ``up[k]`` is the occupancy after an
    arrival at k, which stays at the capacity when blocked.
    """
    ks = np.fromiter(chain((k,), [k := (up[k] if k < ci else k - 1) for ci in c.tolist()]),
                     np.int64, c.size + 1)
    return ks[:-1], k


def _lane_dtype(m):
    """The smallest signed integer type that holds m + 1."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if m + 1 <= np.iinfo(t).max)


def _lane_walk(k, c, up, m, s0):
    """``_walk``'s occupancies, with every segment after the first read off lanes.

    The events are cut into segments of ``_SEG``. Segment s gets two lanes,
    paths started at s0 and s0 + 1 ``_LEAD`` events before it, and all
    lanes step in NumPy lockstep. A path is a function of its state and of
    the thresholds that follow, so once the true path, walked on from the
    previous segment's end, equals a lane at the same event, it is that
    lane to the segment's end. A step moves a path by one except a
    blocked arrival, so paths of unequal parity meet only through one;
    the lanes start one apart, so one of them has the true path's. One
    forward pass picks each segment's lane: a segment whose path starts
    on a lane takes it whole, and Python walks the others until they meet
    one, or to their end. The first segment, the events after the last
    whole one, and spans shorter than two segments are walked plainly.
    The dtype of ``c`` must hold m + 1.
    """
    n = c.size - c.size % _SEG
    if n < 2 * _SEG:
        return _walk(k, c, up)
    ks = np.empty(c.size, c.dtype)
    ks[:_SEG], k = _walk(k, c[:_SEG], up)
    segs = c[:n].reshape(-1, _SEG)
    # column s - 1: the thresholds of segment s's lead and of segment s
    cols = np.concatenate((segs[:-1, _SEG - _LEAD:].T, segs[1:].T))
    lanes = np.empty((_LEAD + _SEG + 1, 2, cols.shape[1]), c.dtype)
    lanes[0, 0], lanes[0, 1] = s0, s0 + 1
    one, cap = np.ones_like(lanes[0]), np.full_like(lanes[0], m)
    dep = np.empty(lanes.shape[1:], bool)
    d = dep.view(np.int8)  # 0 or 1: int8 lanes then step without a cast
    for cur, nxt, cj in zip(lanes, lanes[1:], cols):
        # nxt = min(cur + 1 - 2 * (cur >= cj), m): _walk's step
        np.greater_equal(cur, cj, out=dep)
        np.subtract(cur, d, out=nxt)
        np.subtract(nxt, d, out=nxt)
        np.add(nxt, one, out=nxt)
        np.minimum(nxt, cap, out=nxt)

    seg = lanes[_LEAD:].transpose(2, 1, 0)  # [segment - 1, lane, event]
    nseg = seg.shape[0]
    starts, ends = lanes[_LEAD].tolist(), lanes[-1].tolist()
    pick = [0] * nseg  # the lane each segment's path meets
    walks = []  # (first event, occupancies walked before meeting it)
    for s in range(nseg):
        if k == starts[0][s] or k == starts[1][s]:  # lanes that start alike are one path
            p = pick[s] = int(k != starts[0][s])
            k = ends[p][s]
            continue
        lo, walked = (s + 1) * _SEG, []
        a, b = seg[s, :, :_SEG].tolist()
        for ai, bi, ci in zip(a, b, segs[s + 1].tolist()):
            if k == ai or k == bi:
                p = pick[s] = int(k != ai)
                k = ends[p][s]
                break
            walked.append(k)
            k = up[k] if k < ci else k - 1
        walks.append((lo, walked))
    ks[_SEG:n].reshape(-1, _SEG)[...] = seg[np.arange(nseg), pick, :_SEG]
    for lo, walked in walks:
        ks[lo:lo + len(walked)] = walked
    ks[n:], k = _walk(k, c[n:], up)
    return ks, k


def _walk_span(k, exps, c, budget, up, m, s0):
    """Occupancies for the events of ``exps`` ahead, whose thresholds are ``c``.

    One block is walked plainly. With lanes (``s0`` not None) the span is
    as many blocks, the last possibly short, as surely end within
    ``budget``, the time left times lam (an event lasts exps[i] / tot[k]
    <= exps[i] / lam), if that repays the lanes; so no lane walks past
    the horizon. ``up[j]`` = min(j + 1, m) is first grown, in place, to
    every occupancy the span can reach: k plus its events, at most m.
    The dtype of ``c`` must hold m + 1.
    """
    n = 0
    if s0 is not None:
        sums = np.add.reduceat(exps, np.arange(0, exps.size, _BLOCK))
        n = min(int(np.searchsorted(np.cumsum(sums), budget)) * _BLOCK, exps.size)
    lanes = n >= _LANE_MIN
    top = min(k + (n if lanes else _BLOCK), m)
    if len(up) <= top:
        up += range(len(up) + 1, top + 2)
        up[-1] = min(top + 1, m)
    if not lanes:
        return _walk(k, c[:_BLOCK], up)
    return _lane_walk(k, c[:n], up, m, s0)


def _widen(a, width):
    """``a`` with zero columns appended up to ``width``."""
    out = np.zeros((*a.shape[:-1], width))
    out[..., :a.shape[-1]] = a
    return out


def _add_interval(occ, bt, k, t, tn, inv_b, batch_len):
    """Add the time [t, tn) spent at occupancy k to ``occ`` and to the
    batch slices it spans."""
    occ[k] += tn - t
    last = bt.shape[0] - 1
    bi = min(int(t * inv_b), last)
    bj = min(int(tn * inv_b), last)
    if bi == bj:
        bt[bi, k] += tn - t
    else:
        bt[bi, k] += (bi + 1) * batch_len - t
        bt[bi + 1:bj, k] += batch_len
        bt[bj, k] += tn - bj * batch_len


def _add_intervals(occ, bt, kb, tp, tn, inv_b, batch_len):
    """``_add_interval`` for every event of a block, summed in event order.

    Each event starts where the one before it ends (tp[1:] == tn[:-1]).
    The first event to end in each later batch slice is added alone; the
    runs between lie in one slice each. ``np.add.at`` is unbuffered and
    in index order, so each accumulator sees the same sequence of
    additions as an event-by-event loop.
    """
    last = bt.shape[0] - 1
    dt = tn - tp
    ends = tn * inv_b
    b = min(int(tp[0] * inv_b), last)
    # min(int(t * inv_b), last) >= j, for j <= last, iff t * inv_b >= j
    cross = np.searchsorted(ends, np.arange(b + 1, min(int(ends[-1]), last) + 1)).tolist()
    start = 0
    for i in [*dict.fromkeys(cross), len(kb)]:  # non-decreasing: deduped in order
        np.add.at(occ, kb[start:i], dt[start:i])
        np.add.at(bt[b], kb[start:i], dt[start:i])
        if i < len(kb):
            _add_interval(occ, bt, kb[i], float(tp[i]), float(tn[i]), inv_b, batch_len)
            b = min(int(ends[i]), last)
        start = i + 1


@dataclass
class CellStats:
    """Per-kind empirical statistics from a simulation run."""

    occupancy_freq: np.ndarray
    occupancy_se: np.ndarray | None
    # entry 5 * a + b: window boundaries at which the zone went from a to b
    # (0 on the diagonal); kept out of to_jsonable, which the goldens hash
    zone_moves: list[int]
    window_count: int
    arrivals: int
    departures: int
    blocked: int
    in_system: int
    # the parameters and report window the series was generated under,
    # whose closed forms the judge compares it with
    params: SystemTypeParams
    window: float
    migrations_in: int = 0
    migrations_out: int = 0

    @property
    def events(self) -> int:
        """Every arrival, blocked ones included, and every departure."""
        return self.arrivals + self.departures

    @property
    def transition_counts(self) -> dict[TransitionKind, int]:
        """The four threshold crossings, read off the zone moves."""
        moves = self.zone_moves
        return {kind: sum(moves[move] for move in crossing)
                for kind, crossing in zip(TransitionKind, CROSSING_MOVES)}

    def to_jsonable(self) -> dict:
        crossed, p = self.transition_counts, self.params
        return {
            "occupancy_freq": [float(x) for x in self.occupancy_freq],
            "occupancy_se": (
                None
                if self.occupancy_se is None
                else [float(x) for x in self.occupancy_se]
            ),
            "transition_counts": {kind.value: int(crossed[kind]) for kind in TransitionKind},
            "window_count": int(self.window_count),
            "arrivals": int(self.arrivals),
            "departures": int(self.departures),
            "blocked": int(self.blocked),
            "in_system": int(self.in_system),
            "events": int(self.events),
            "migrations_in": int(self.migrations_in),
            "migrations_out": int(self.migrations_out),
            "params": {"lam": p.lam, "mu": p.mu, "m": p.m, "k1": p.k1, "k2": p.k2,
                       "window": self.window},
        }


@dataclass
class SimReport:
    """Result of a simulation run; deterministic for a given seed."""

    per_type: dict[AccessNetworkKind, CellStats]
    message_counts: dict[str, int]
    failover_latencies: list[float]
    horizon: float
    seed: int

    def to_jsonable(self) -> dict:
        return {
            "per_type": {
                kind.name: stats.to_jsonable()
                for kind, stats in sorted(self.per_type.items())
            },
            "message_counts": dict(sorted(self.message_counts.items())),
            "failover_latencies": [float(x) for x in self.failover_latencies],
            "horizon": self.horizon,
            "seed": self.seed,
        }


# horizon_for_events asks for this many times the target, so that a run in
# steady state falls short of it only by a rare fluctuation; a run that
# spends much of its horizon filling from empty falls short by more
EVENT_MARGIN = 1.05


def horizon_for_events(p: SystemTypeParams, target_events: int) -> float:
    """Simulated time in which a chain in steady state is expected to make
    at least ``target_events`` jumps.

    In steady state events occur at rate lam*(2 - P_m): every arrival
    attempt is an event and every admitted arrival eventually departs.
    ``run_cell_mc`` starts empty, so a chain that needs much of the
    horizon to fill makes fewer: at lam 1e6, mu 1 and m = 262 143 it fills
    in about 0.304 s, and the 0.333 s horizon for 400 000 events yields
    383 374. Starting in pi, or judging the start-empty bias, would cover
    it (ROADMAP items 16 and 20).
    """
    if p.lam <= 0:
        raise ValueError("lam must be > 0 to target an event count")
    blocking = state_probabilities(p).blocking
    rate = p.lam * (2.0 - blocking)
    return target_events * EVENT_MARGIN / rate


def run_cell_mc(
    p: SystemTypeParams,
    horizon: float,
    window: float,
    seed: int,
    kind: AccessNetworkKind = AccessNetworkKind.UMTS,
) -> SimReport:
    """Simulate one cell's loss-system chain and report empirical stats.

    Occupancy frequencies are time-weighted over the full horizon; their
    standard errors come from ``_BATCHES`` equal time slices (batch
    means). Zone moves are tallied between consecutive window boundaries
    spaced ``window`` apart. Exponentials are drawn ``_CHUNK`` at a time;
    the chunk's uniforms follow them in the stream, drawn ``_BLOCK`` at a
    time and kept only as arrival thresholds. Identical seeds give
    bit-identical reports.

    The occupancy walk is read off lanes (``_lane_walk``) where lam/mu,
    capped at m, is at most ``_LANE_LOAD``, over spans of whole blocks that
    surely end before the horizon; elsewhere it is walked block by block.
    Both give the same occupancies. Zone moves are read at the ends of
    runs of one zone; horizon / window must be below 2**63 (int64 indices).
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    if window <= 0:
        raise ValueError(f"window must be > 0, got {window}")
    inv_w = 1.0 / window
    if not horizon * inv_w < 2**63:  # window indices are int64
        raise ValueError(f"horizon / window must be < 2**63, got {horizon} / {window}")

    rng = np.random.default_rng(seed)
    lam, m = p.lam, p.m
    # the tallies cover occupancies 0..width - 1, a bound on those reached
    # so far, and grow with it; the columns past it stay exact zeros
    width = 1
    occ_time = np.zeros(width)
    batch_time = np.zeros((_BATCHES, width))
    moves = np.zeros(25, np.int64)
    arrivals = blocked = events = 0
    t = 0.0
    k = 0
    zone = _zone(np.arange(m + 1), p.k1, p.k2)
    jb = 0  # index of the window boundary last passed
    prev_z = int(zone[0])  # zone at that boundary: the cell starts empty
    batch_len = horizon / _BATCHES
    inv_b = 1.0 / batch_len
    below = np.concatenate(([0.0], lam + np.arange(m + 1) * p.mu, [np.nan]))
    tot = below[1:-1]  # tot[k] = lam + k*mu
    up = []  # up[k] = min(k + 1, m), grown by _walk_span to the occupancies reachable
    load = min(lam / p.mu, m)
    s0 = int(min(load, m - 1)) if load <= _LANE_LOAD else None  # lanes start at the mode

    # Only the integer occupancy walk is sequential, and it is exact; every
    # float is computed by the same expression, in the same order, as an
    # event-by-event loop would, so reports are bit-identical to it.
    done = lam <= 0
    while not done:
        exps = rng.standard_exponential(size=_CHUNK)
        # the uniforms come next in the stream, a block at a time, kept only
        # as thresholds: event i is an arrival iff its k < cs[i]
        cs = np.empty(_CHUNK, _lane_dtype(m))
        for lo in range(0, _CHUNK, _BLOCK):
            part = cs[lo:lo + _BLOCK]
            part[:] = _arrival_thresholds(rng.random(size=part.size), below, lam, p.mu)
        # per-chunk partial sums, the only tallies that grow; the totals join them at its end
        occ_c = np.zeros(width)
        bt_c = np.zeros((_BATCHES, width))
        start, ks = 0, ()  # the walked span: its first event, occupancies
        for lo in range(0, _CHUNK, _BLOCK):
            if lo - start == len(ks):
                start = lo
                ks, k_span = _walk_span(k, exps[lo:], cs[lo:], (horizon - t) * lam, up, m, s0)
                top = max(int(ks.max()), k_span) + 1
                if top > width:
                    # past half of m + 1, all of it: no copy of a nearly full array
                    width = max(top, 2 * width)
                    width = m + 1 if 2 * width > m + 1 else width
                    occ_c, bt_c = _widen(occ_c, width), _widen(bt_c, width)
            i = lo - start
            c = cs[lo:lo + _BLOCK]
            kb = ks[i:i + _BLOCK].astype(np.int64, copy=False)
            k_end = int(ks[i + _BLOCK]) if i + _BLOCK < len(ks) else k_span
            tn = exps[lo:lo + _BLOCK] / tot[kb]
            tn[0] += t
            np.cumsum(tn, out=tn)
            n = int(np.searchsorted(tn, horizon))  # events ending before it
            if n < kb.size:
                done = True
                k_end = int(kb[n])
                kb, tn, c = kb[:n], tn[:n], c[:n]
            if n:
                tp = np.concatenate(([t], tn[:-1]))
                _add_intervals(occ_c, bt_c, kb, tp, tn, inv_b, batch_len)
                jb, prev_z = _window_moves(moves, zone[kb], tn, inv_w, jb, prev_z)
                admitted = kb < c
                arrivals += int(np.count_nonzero(admitted))
                blocked += int(np.count_nonzero(admitted & (kb == m)))
                events += n
                t = float(tn[-1])
            k = k_end
            if done:
                break
        occ_c[:occ_time.size] += occ_time  # b + a is a + b, bit for bit
        bt_c[:, :occ_time.size] += batch_time
        occ_time, batch_time = occ_c, bt_c
        del exps, cs, ks, kb, c, tn  # freed before the next chunk is drawn

    # the tail [t, horizon) at occupancy k
    _add_interval(occ_time, batch_time, k, t, horizon, inv_b, batch_len)
    jb, _ = _window_moves(moves, zone[[k]], np.array([horizon]), inv_w, jb, prev_z)
    moves[::6] = 0  # a boundary in an unchanged zone is no move

    # each column's std is its own: the columns past the width are 0.0
    batch_time /= batch_len  # in place: no full-size temporary
    se = batch_time.std(axis=0, ddof=1) / math.sqrt(_BATCHES)
    stats = CellStats(
        occupancy_freq=_widen(occ_time / horizon, m + 1),
        occupancy_se=_widen(se, m + 1),
        zone_moves=moves.tolist(),
        window_count=jb,
        arrivals=arrivals,
        departures=events - arrivals,
        blocked=blocked,
        in_system=k,
        params=p,
        window=window,
    )
    return SimReport(
        per_type={kind: stats},
        message_counts={},
        failover_latencies=[],
        horizon=horizon,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# full-system protocol simulation
# ---------------------------------------------------------------------------

_KIND_ORDER = tuple(AccessNetworkKind)
# the control events' same-time ranks, and the stop entry's, ranked last
_TICK, _HEARTBEAT, _TAKEOVER, _BORDER, _STOP = range(5)


class _Draws:
    """Buffered standard exponential draws, one buffer per RNG stream.

    ``exponential(scale)`` is ``scale * standard_exponential()``, and a
    block of n standard draws is the next n scalar ones, so ``scale *
    draw(s)`` is bit for bit what stream s's ``exponential(scale)`` would
    return. Buffers are ``array('d')``, 8 B a draw, reversed for
    ``pop()``, which returns the same Python float. Stream s's first
    block is ``first[s]`` draws, taken here from a generator built from
    its ``states`` row and then dropped; blocks then double up to 64, so a
    stream that draws little holds little. Only a stream's first refill
    builds its generator again, from the same row, skipping the first
    block; ``rngs`` keeps it from then on, so a stream that never refills
    holds none. Hot loops inline ``draw``: ``buf.pop() if buf else
    refill(s)``.
    """

    def __init__(self, states: np.ndarray, first: list[int]):
        from .streams import stream_rng  # loads numpy.random: see run_system_sim

        self.states, self.first = states, first
        self.rngs: dict[int, np.random.Generator] = {}
        self.bufs: list[array] = [
            array("d", stream_rng(state).standard_exponential(n)[::-1].tobytes())
            for state, n in zip(states, first)]
        self.block = [min(2 * n, 64) for n in first]

    def refill(self, s: int) -> float:
        """Refill stream s's empty buffer and take its first draw."""
        n = self.block[s]
        self.block[s] = min(2 * n, 64)
        rng = self.rngs.get(s)
        if rng is None:
            from .streams import stream_rng

            rng = self.rngs[s] = stream_rng(self.states[s])
            block = rng.standard_exponential(self.first[s] + n)[self.first[s]:]
        else:
            block = rng.standard_exponential(n)
        buf = self.bufs[s]
        buf.frombytes(block[::-1].tobytes())
        return buf.pop()

    def draw(self, s: int) -> float:
        buf = self.bufs[s]
        return buf.pop() if buf else self.refill(s)


def run_system_sim(
    topo: Topology,
    types: dict[AccessNetworkKind, SystemTypeParams],
    scenario: SimScenario,
    horizon: float,
    seed: int,
    trace: IO[str] | None = None,
) -> SimReport:
    """Run the full grid/LMM/bulletin-board protocol simulation.

    Every (cell, kind) pair is an independent loss-system chain driving
    the load states the protocol reacts to. See the module docstring for
    the three signalling flows. The trace sink, when given, receives one
    ``time,kind,src,dst`` line per message.
    """
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    for kind in _KIND_ORDER:
        if kind not in types:
            raise ValueError(f"missing SystemTypeParams for {kind.name}")
    n_lmm, n_cells = topo.lmm_count, topo.cell_count
    check_schedules(scenario.faults, scenario.borders, n_lmm, n_cells)
    fail_time = {fault.lmm_id: fault.time for fault in scenario.faults}
    if not n_cells * horizon < math.inf:  # the occupancy frequencies' denominator
        raise ValueError(f"cells * horizon must be finite, got {n_cells} * {horizon}")

    window = scenario.window
    if not horizon / window < 2**63:  # as run_cell_mc's window indices
        raise ValueError(f"horizon / window must be < 2**63, got {horizon} / {window}")
    n_ticks = int(horizon / window + 1e-9)
    # kept finite: the stop entry at the cutoff must sort before the infinite sentinels
    cutoff = min(horizon + window * 1e-9, sys.float_info.max)

    cells_per_grid = topo.cells_per_grid
    grid_of_cell = [c // cells_per_grid for c in range(n_cells)]
    params = [types[kind] for kind in _KIND_ORDER]
    names = [kind.name for kind in _KIND_ORDER]
    n_kinds = len(_KIND_ORDER)

    # Per-event state lives in flat lists indexed by stream s = c * n_kinds
    # + ki, which orders the (cell, kind) pairs as the tuples would.
    n_streams = n_cells * n_kinds
    # imported here: it loads numpy.random, which the other commands never need
    from .streams import stream_states

    # a stream draws about 2*lam*horizon + 1 times (an arrival and a
    # service per admission, plus the first arrival): its first block is
    # the power of two in 4..64 that covers that, so it covers most
    # streams' draws and most never refill
    first = []
    for p in params:
        n = 4
        while n < 64 and n < 2 * p.lam * horizon + 1:
            n *= 2
        first.append(n)
    draws = _Draws(stream_states(seed, n_cells, n_kinds), first * n_cells)
    bufs, refill = draws.bufs, draws.refill
    arr_scale = [1.0 / p.lam if p.lam > 0 else None for p in params] * n_cells
    svc_scale = [1.0 / p.mu for p in params] * n_cells
    cap = [p.m for p in params] * n_cells

    occ = [0] * n_streams
    last_t = [0.0] * n_streams
    occ_time = [[0.0] * (p.m + 1) for p in params]
    occ_row = occ_time * n_cells
    zones = [_zone(np.arange(p.m + 1), p.k1, p.k2).tolist() for p in params]
    zone_row = zones * n_cells
    zone_state = [classify_load(z, 1, 3) for z in range(5)]
    # a move from zone a to zone b is entry 5 * a + b of these and of moves
    fires = [zone_state[a] is not zone_state[b] for a in range(5) for b in range(5)]
    zone_at_tick = [z[0] for z in zones] * n_cells
    # streams whose occupancy changed since the previous report tick
    dirty: set[int] = set()
    # cells with an over-loaded and an under-loaded kind at the last tick
    both: set[int] = set()

    # live session ids of each stream, ascending: ids are global and only
    # grow, and admission and migration both append a fresh one, so the
    # oldest is first
    live: list[list[int]] = [[] for _ in range(n_streams)]
    next_sid = 0

    arrivals = [0] * n_streams
    departures = [0] * n_streams
    blocked = [0] * n_streams
    mig_in = [0] * n_kinds
    mig_out = [0] * n_kinds
    # zone changes between consecutive ticks
    moves = [[0] * 25 for _ in range(n_kinds)]
    moves_row = moves * n_cells
    ticks = 0
    n_balance = n_notices = n_beats = n_border = 0
    failover: list[float] = []  # one entry per takeover

    serving = list(range(n_lmm))
    # faults no heartbeat round has seen yet, the earliest last
    unseen = sorted(((f, lmm) for lmm, f in fail_time.items()), reverse=True)
    last_round = 0.0
    # which grids get a BalanceInfo changes only when a fault time passes or
    # a takeover moves a grid, so the tick recounts them only then
    answered: list[bool] = []
    n_answered = 0
    recount_at = -math.inf
    # a heartbeat round's beats change only when a fault time passes
    beats: list[tuple[int, int]] = []
    rebuild_at = -math.inf
    border_cells: dict[float, list[int]] = {}
    for border in scenario.borders:
        if border.time <= horizon:
            border_cells.setdefault(border.time, []).append(border.cell_id)
    bb = f"bb{topo.bb_primary}"
    OVER, UNDER = LoadState.OVER_LOADED, LoadState.UNDER_LOADED

    # Three queues, merged by their heads: ``arr`` holds each stream's next
    # arrival (time, s), ``dep`` the departures (time, s, sid), ``ctl`` the
    # control events (time, rank, i), i a tick's number or a takeover's LMM
    # id, else 0; no two entries of a queue share a key. Arrivals and
    # departures are queued only up to the horizon; ``ctl`` ends with a
    # stop entry at the cutoff, ranked after every kind, so its head time
    # never passes the cutoff and the infinite sentinels of the other two
    # never pop.
    arr: list[tuple[float, int]] = [(math.inf, n_streams)]
    dep: list[tuple[float, int, int]] = [(math.inf, n_streams, 0)]
    ctl: list[tuple[float, int, int]] = [(cutoff, _STOP, 0)]
    push = heapq.heappush
    pop = heapq.heappop
    replace = heapq.heapreplace
    bisect_left = bisect.bisect_left

    def emit(t: float, kind: str, src: str, dst: str):
        trace.write(f"{t!r},{kind},{src},{dst}\n")

    def alive(lmm: int, t: float) -> bool:
        return t < fail_time.get(lmm, math.inf)

    def live_backup(lmm: int, t: float) -> int | None:
        """Where lmm beats and who takes it over: its first live backup."""
        for backup in topo.backups(lmm):
            if alive(backup, t):
                return backup
        return None

    def next_fault(t: float) -> float:
        """The first fault time after t: what ``alive`` says at t holds until then."""
        return min((f for f in fail_time.values() if f > t), default=math.inf)

    # initial events, heapified once: the keys are unique, so the pops come
    # in the same order as from pushes
    for s in range(n_streams):
        if arr_scale[s] is not None:
            ta = arr_scale[s] * draws.draw(s)
            if ta <= horizon:
                arr.append((ta, s))
    # one report tick on the queue at a time: tick i pushes tick i + 1
    if n_ticks:
        ctl.append((window, _TICK, 1))
    if scenario.heartbeat_period <= horizon:
        ctl.append((scenario.heartbeat_period, _HEARTBEAT, 0))
    for tr in border_cells:
        ctl.append((tr, _BORDER, 0))
    heapq.heapify(arr)
    heapq.heapify(ctl)
    next_ctl = ctl[0][0]
    balancing = scenario.balancing_enabled

    def migrate_one(c: int, t: float):
        nonlocal next_sid
        base = c * n_kinds
        row = occ[base:base + n_kinds]
        states = [zone_state[z] for z in zone_at_tick[base:base + n_kinds]]
        # the scan calls this with an OVER (occ >= k2 >= 1) and an UNDER (occ <= k1 < m) kind
        src = min((-row[ki], ki) for ki in range(n_kinds) if states[ki] is OVER)[1]
        dst = min((row[ki], ki) for ki in range(n_kinds) if states[ki] is UNDER)[1]
        s, d = base + src, base + dst
        # with occupancy > 0 the source has a live session: move its oldest
        del live[s][0]
        occ_row[s][occ[s]] += t - last_t[s]
        last_t[s] = t
        occ[s] -= 1
        occ_row[d][occ[d]] += t - last_t[d]
        last_t[d] = t
        occ[d] += 1
        dirty.add(s)
        dirty.add(d)
        # re-admit under a fresh id so the stale departure event can never
        # match again, even if the session later migrates back
        new_sid = next_sid
        next_sid += 1
        live[d].append(new_sid)
        mig_out[src] += 1
        mig_in[dst] += 1
        buf = bufs[d]
        td = t + svc_scale[d] * (buf.pop() if buf else refill(d))
        if td <= horizon:
            push(dep, (td, d, new_sid))

    # At equal times an arrival comes first, then a departure, then the
    # control events by rank
    while True:
        t, s = arr[0]
        if t <= dep[0][0] and t <= next_ctl:
            arrivals[s] += 1
            if trace is not None:
                c, ki = divmod(s, n_kinds)
                emit(t, "Arrival", "mn", f"cell{c}.{names[ki]}")
            k = occ[s]
            buf = bufs[s]  # refill extends this array in place
            if k >= cap[s]:
                blocked[s] += 1
            else:
                occ_row[s][k] += t - last_t[s]
                last_t[s] = t
                occ[s] = k + 1
                dirty.add(s)
                live[s].append(next_sid)
                td = t + svc_scale[s] * (buf.pop() if buf else refill(s))
                if td <= horizon:
                    push(dep, (td, s, next_sid))
                next_sid += 1
            ta = t + arr_scale[s] * (buf.pop() if buf else refill(s))
            if ta <= horizon:
                replace(arr, (ta, s))
            else:
                pop(arr)
            continue

        if dep[0][0] <= next_ctl:
            t, s, sid = pop(dep)
            # a missing id is stale: the session migrated kinds. The index
            # past the end raises, where a len() check would cost every
            # departure
            sessions = live[s]
            i = bisect_left(sessions, sid)
            try:
                if sessions[i] != sid:
                    continue
            except IndexError:
                continue
            del sessions[i]
            k = occ[s]
            occ_row[s][k] += t - last_t[s]
            last_t[s] = t
            occ[s] = k - 1
            dirty.add(s)
            departures[s] += 1
            if trace is not None:
                c, ki = divmod(s, n_kinds)
                emit(t, "Departure", f"cell{c}.{names[ki]}", "mn")
            continue

        t, ekind, s = pop(ctl)
        if ekind == _TICK:
            # every cell reports; a grid whose serving LMM is dead is not answered
            ticks += 1
            if s < n_ticks:
                push(ctl, ((s + 1) * window, _TICK, s + 1))
            if t >= recount_at:
                answered = [alive(lmm, t) for lmm in serving]
                n_answered = cells_per_grid * sum(answered)
                recount_at = next_fault(t)
            n_balance += n_answered
            if trace is not None:
                for c in range(n_cells):
                    lmm = serving[grid_of_cell[c]]
                    emit(t, "LoadReport", f"ri{c}", f"lmm{lmm}")
                    if answered[grid_of_cell[c]]:
                        emit(t, "BalanceInfo", f"lmm{lmm}", f"ri{c}")
            # A stream with no event since the previous tick is skipped: its
            # zone was reported then
            notices = []
            for s in dirty:
                prev, cur = zone_at_tick[s], zone_row[s][occ[s]]
                if cur != prev:
                    zone_at_tick[s] = cur
                    move = 5 * prev + cur
                    moves_row[s][move] += 1
                    if fires[move]:
                        notices.append(s)
            dirty.clear()
            # A cell migrates when it has both an over-loaded and an
            # under-loaded kind, which zones rising with occupancy put on top
            # and at the bottom. Only a notice changes that, so only the
            # cells of notices are re-read. Session ids are global, so cells
            # go in order
            if notices:
                notices.sort()  # (cell, kind) order is the notice order
                n_notices += len(notices)
                if balancing:
                    for c in {s // n_kinds for s in notices}:
                        zs = zone_at_tick[c * n_kinds:(c + 1) * n_kinds]
                        if zone_state[max(zs)] is OVER and zone_state[min(zs)] is UNDER:
                            both.add(c)
                        else:
                            both.discard(c)
            if both:
                for c in sorted(both):
                    migrate_one(c, t)
            # the zero-delay notices, in (cell, kind) order, then their
            # replicas, in (cell, kind, backup) order: queued at t they
            # would come right after the tick, before any other event at t
            if trace is not None:
                for s in notices:
                    emit(t, "StateChangeNotice", f"lmm{serving[grid_of_cell[s // n_kinds]]}", bb)
                for _ in notices:
                    for backup in topo.bb_backups:
                        emit(t, "BBReplicate", bb, f"bb{backup}")

        elif ekind == _HEARTBEAT:
            # every live LMM with a live backup beats to it, in id order:
            # per-LMM chains of period-spaced beats would all share these times
            if t >= rebuild_at:
                beats = [(lmm, backup) for lmm in range(n_lmm) if alive(lmm, t)
                         and (backup := live_backup(lmm, t)) is not None]
                rebuild_at = next_fault(t)
            n_beats += len(beats)
            if trace is not None:
                for lmm, backup in beats:
                    emit(t, "Heartbeat", f"lmm{lmm}", f"lmm{backup}")
            # an LMM that failed since the previous round beat last then, and
            # no later beat resets the timeout that beat started
            while unseen and unseen[-1][0] <= t:
                takeover = last_round + scenario.heartbeat_timeout
                push(ctl, (takeover, _TAKEOVER, unseen.pop()[1]))
            last_round = t
            tb = t + scenario.heartbeat_period
            if tb <= horizon:
                push(ctl, (tb, _HEARTBEAT, 0))

        elif ekind == _TAKEOVER:
            # the first live backup inherits every grid the dead LMM serves,
            # inherited ones too; with none alive they stay unanswered
            lmm = s
            backup = live_backup(lmm, t)
            if backup is not None:
                if trace is not None:
                    emit(t, "Takeover", f"lmm{backup}", f"lmm{lmm}")
                failover.append(t - fail_time[lmm])
                serving = [backup if g == lmm else g for g in serving]
                recount_at = -math.inf

        elif ekind == _BORDER:
            # all requests and consults at t, then all grants, each in cell
            # order: queued, every grant would pop after every request, and
            # serving cannot change in between, as _TAKEOVER ranks before
            cells_at = sorted(border_cells[t])
            n_border += len(cells_at)
            if trace is not None:
                for c in cells_at:
                    g = grid_of_cell[c]
                    emit(t, "BorderRequest", f"ma{c}", bb)
                    emit(t, "NeighborConsult", f"lmm{serving[g]}", f"lmm{serving[(g + 1) % n_lmm]}")
                for c in cells_at:
                    emit(t, "BorderGrant", f"lmm{serving[(grid_of_cell[c] + 1) % n_lmm]}", f"ma{c}")

        else:
            break  # the stop entry: every event up to the cutoff is done
        next_ctl = ctl[0][0]

    # close out occupancy accounting at the horizon
    for s in range(n_streams):
        occ_row[s][occ[s]] += horizon - last_t[s]

    per_type: dict[AccessNetworkKind, CellStats] = {}
    total_time = n_cells * horizon
    for ki, kind in enumerate(_KIND_ORDER):
        n_arr, n_dep = sum(arrivals[ki::n_kinds]), sum(departures[ki::n_kinds])
        per_type[kind] = CellStats(
            occupancy_freq=np.array(occ_time[ki]) / total_time,
            occupancy_se=None,
            zone_moves=moves[ki],
            window_count=ticks * n_cells,
            arrivals=n_arr,
            departures=n_dep,
            blocked=sum(blocked[ki::n_kinds]),
            in_system=sum(map(len, live[ki::n_kinds])),
            params=types[kind],
            window=window,
            migrations_in=mig_in[ki],
            migrations_out=mig_out[ki],
        )

    counts = {"LoadReport": ticks * n_cells, "BalanceInfo": n_balance,
              "StateChangeNotice": n_notices, "BBReplicate": n_notices * len(topo.bb_backups),
              "Heartbeat": n_beats, "Takeover": len(failover), "BorderRequest": n_border,
              "NeighborConsult": n_border, "BorderGrant": n_border}
    return SimReport(
        per_type=per_type,
        # a message kind is listed once it has been sent
        message_counts={name: n for name, n in counts.items() if n},
        failover_latencies=failover,
        horizon=horizon,
        seed=seed,
    )
