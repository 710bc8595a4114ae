"""Erlang-loss cell model and first-order load-state transition probabilities.

Each cell of access-network type i is an independent M/M/m/m loss system:
Poisson arrivals at rate lam, exponential service at rate mu per occupied
server, m servers and no waiting room, so arrivals that find the cell full
are blocked. The stationary occupancy distribution is

    P_0 = [ sum_{j=0..m} (lam/mu)^j / j! ]^-1
    P_k = (lam/mu)^k / k! * P_0

evaluated with the multiplicative recurrence term_k = term_{k-1}*(lam/mu)/k
(never explicit factorials) so large m stays finite.

A cell's load state is classified against two occupancy thresholds:
under-loaded at or below k1, over-loaded at or above k2, balanced between.
Over a short reporting window T the probability of the occupancy crossing
a threshold is linearised to first order in T:

    up-cross of k1  (under -> balanced):  P_{k1-1} * lam*T * [1 - (k1-1)*mu*T]
    up-cross of k2  (balanced -> over):   P_{k2-1} * lam*T * [1 - (k2-1)*mu*T]
    down-cross of k2 (over -> balanced):  P_{k2+1} * (k2+1)*mu*T * (1 - lam*T)
    down-cross of k1 (balanced -> under): P_{k1+1} * (k1+1)*mu*T * (1 - lam*T)

Occupancy indices outside 0..m contribute zero, so the formulas stay total
when a threshold touches the boundary (e.g. the down-cross of k2 is 0 when
k2 = m, and the up-cross of k1 is 0 when k1 = 0). The linearisation is only
meaningful while lam*T < 1 and (k2+1)*mu*T < 1; violations raise
FirstOrderValidityError instead of silently clamping.

``crossing_probabilities(exact_zone_moves(p, T))`` gives the crossings
without the linearisation, from the chain's transient law by
uniformization; the figures keep the first-order formulas.

``SystemTypeParams`` is defined in ``sdlb.params``, so that parsing a
scenario document does not load this module. NumPy is imported by the
functions that compute with it, so importing this module does not load it.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .params import SystemTypeParams

if TYPE_CHECKING:  # only for annotations
    import numpy as np

__all__ = [
    "CROSSING_MOVES",
    "FirstOrderValidityError",
    "LoadState",
    "OccupancyOverflowError",
    "StateDistribution",
    "SystemTypeParams",
    "TransitionKind",
    "bb_update_probability",
    "classify_load",
    "crossing_probabilities",
    "exact_zone_moves",
    "prob_bb_update",
    "prob_state_change",
    "state_probabilities",
    "transition_probability",
]

# rescale threshold for the recurrence accumulator; far below float max so
# the running sum cannot overflow either
_RESCALE_LIMIT = 1e280
# uniformization: the most Poisson mean (rate * time) one series covers, so
# that its first weight exp(-mean) stays a normal float; and the bound on
# the Poisson tail each series drops
_UNIFORM_MEAN = 256.0
_POISSON_TAIL = 1e-18
# the oracle runs on the chain's support: the states up to the first one
# above which pi holds less than this
_SUPPORT_TAIL = 1e-300


class FirstOrderValidityError(ValueError):
    """The reporting window T is too coarse for the first-order model of
    ``params``."""

    def __init__(self, params: SystemTypeParams, message: str):
        super().__init__(f"T too coarse for first-order model: {message}")
        self.params = params


class OccupancyOverflowError(ValueError):
    """The occupancy distribution of ``params`` is not finite: one step of
    the recurrence passes the float range even from a rescaled term."""

    def __init__(self, params: SystemTypeParams):
        super().__init__(
            f"occupancy distribution is not finite: lam/mu = {params.lam / params.mu:g} "
            f"overflows float at m = {params.m}"
        )
        self.params = params


class LoadState(Enum):
    UNDER_LOADED = "under"
    BALANCED = "balanced"
    OVER_LOADED = "over"


# module-level: an enum attribute lookup costs several int compares
_UNDER, _BALANCED, _OVER = LoadState.UNDER_LOADED, LoadState.BALANCED, LoadState.OVER_LOADED


def classify_load(occupancy: int, k1: int, k2: int) -> LoadState:
    """Total classification: <=k1 under, >=k2 over, balanced otherwise."""
    if occupancy <= k1:
        return _UNDER
    if occupancy >= k2:
        return _OVER
    return _BALANCED


class TransitionKind(Enum):
    UNDER_TO_BALANCED = "U->B"
    BALANCED_TO_OVER = "B->O"
    OVER_TO_BALANCED = "O->B"
    BALANCED_TO_UNDER = "B->U"


def _crossings(prev, cur, k1, k2):
    """Directed threshold crossings from occupancy or zone ``prev`` to ``cur``.

    Returns (U->B, B->O, O->B, B->U), the order of ``TransitionKind``, as
    bools; ``CROSSING_MOVES`` is built from it on zones (ints).
    """
    return (
        (prev < k1) & (k1 <= cur),
        (prev < k2) & (k2 <= cur),
        (prev > k2) & (k2 >= cur),
        (prev > k1) & (k1 >= cur),
    )


def _zone(k, k1, k2):
    """0 below k1, 1 at k1, 2 between, 3 at k2, 4 above k2, elementwise on an array k:
    ``classify_load`` and ``_crossings`` on zones with k1 = 1, k2 = 3 equal those on k."""
    return 4 - (k < k1) - (k <= k1) - (k < k2) - (k <= k2)


# the zone moves 5 * a + b (``_zone`` a to b over a window) that each
# crossing sums, in ``TransitionKind`` order: the one rule by which the
# simulators' tallies and the exact oracle are read
CROSSING_MOVES = tuple(
    tuple(move for move in range(25) if _crossings(*divmod(move, 5), 1, 3)[i])
    for i in range(len(TransitionKind))
)


@dataclass(frozen=True)
class StateDistribution:
    """Stationary occupancy distribution; probs[k] for k in 0..m."""

    probs: np.ndarray

    @property
    def m(self) -> int:
        return len(self.probs) - 1

    def prob_at(self, k: int) -> float:
        """P_k, with indices outside 0..m contributing zero."""
        if 0 <= k <= self.m:
            return float(self.probs[k])
        return 0.0

    @property
    def blocking(self) -> float:
        return float(self.probs[-1])


def state_probabilities(p: SystemTypeParams) -> StateDistribution:
    """Stationary M/M/m/m occupancy probabilities.

    Uses the multiplicative recurrence with on-the-fly rescaling, so the
    result is finite and normalised for m up to 10^4 and beyond. Each run
    of the recurrence starts from 1.0 and is one cumulative product of the
    factors (lam/mu)/k: the same products, in the same order, as a loop
    over k. A run ends at the first term past the rescale limit. Where
    that term is inf, the rescaling divides inf by inf, as the loop does,
    and every probability would be nan; that case raises
    OccupancyOverflowError.
    """
    import numpy as np

    factors = p.lam / p.mu / np.arange(1, p.m + 1)
    terms = np.empty(p.m + 1)
    terms[0] = 1.0
    start, width = 1, 64
    # a block runs on past its first crossing, where it may overflow; the
    # next run recomputes those terms
    with np.errstate(over="ignore", invalid="ignore"):
        while start <= p.m:
            run = terms[start : start + width]
            np.multiply.accumulate(factors[start - 1 : start - 1 + width], out=run)
            k = start + int(np.argmax(run > _RESCALE_LIMIT))
            if terms[k] > _RESCALE_LIMIT:
                # relative weights are all that matter; shrink everything so far
                terms[: k + 1] /= terms[k]
                start = k + 1
            elif start + width > p.m:
                break
            else:
                width *= 2  # no crossing yet: redo the run over a longer block
    total = terms.sum()
    if math.isnan(total):
        raise OccupancyOverflowError(p)
    return StateDistribution(probs=terms / total)


def _check_first_order(p: SystemTypeParams, T: float):
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T}")
    lam_t = p.lam * T
    if lam_t >= 1:
        raise FirstOrderValidityError(p, f"lam*T = {lam_t:g} >= 1")
    mu_t = (p.k2 + 1) * p.mu * T
    if mu_t >= 1:
        raise FirstOrderValidityError(p, f"(k2+1)*mu*T = {mu_t:g} >= 1")


def _transition(
    p: SystemTypeParams, T: float, kind: TransitionKind, dist: StateDistribution
) -> float:
    lam_t = p.lam * T
    if kind is TransitionKind.UNDER_TO_BALANCED:
        return dist.prob_at(p.k1 - 1) * lam_t * (1.0 - (p.k1 - 1) * p.mu * T)
    if kind is TransitionKind.BALANCED_TO_OVER:
        return dist.prob_at(p.k2 - 1) * lam_t * (1.0 - (p.k2 - 1) * p.mu * T)
    if kind is TransitionKind.OVER_TO_BALANCED:
        return dist.prob_at(p.k2 + 1) * (p.k2 + 1) * p.mu * T * (1.0 - lam_t)
    if kind is TransitionKind.BALANCED_TO_UNDER:
        return dist.prob_at(p.k1 + 1) * (p.k1 + 1) * p.mu * T * (1.0 - lam_t)
    raise ValueError(f"unknown transition kind: {kind!r}")


def transition_probability(
    p: SystemTypeParams, T: float, kind: TransitionKind
) -> float:
    """First-order probability of one directed load-state transition in T."""
    _check_first_order(p, T)
    return _transition(p, T, kind, state_probabilities(p))


def exact_zone_moves(p: SystemTypeParams, T: float) -> list[float]:
    """Exact probability of each zone move over a window T, in steady state.

    Entry 5*a + b is the probability that the occupancy sits in zone a
    (``_zone``) at a window's start and in zone b at its end: pi
    restricted to zone a, stepped by the transition matrix P(T), summed
    over zone b. That is the layout of ``CellStats.zone_moves``, but the
    diagonal here holds the probability of ending in the starting zone
    (the simulators tally it as 0), so the 25 entries sum to 1.

    The chain runs on its support 0..b, b the first state above which
    pi holds less than ``_SUPPORT_TAIL``, with arrivals at b blocked, so
    the cost follows b, not m. Started from pi, the two chains part only
    where the start lies above b or an arrival finds b within T; that has
    probability at most pi(> b) + lam*T*pi_b = pi(> b) + (b+1)*mu*T*pi_{b+1},
    below (1 + (b+1)*mu*T) * ``_SUPPORT_TAIL``, and that bounds how far
    the cap moves an entry.

    P(T) comes by uniformization (Jensen 1953; Stewart 1994, ch. 8): with
    r = lam + b*mu and U = I + Q/r, P(t) = sum_j e^{-rt} (rt)^j / j! U^j,
    a sum of non-negative terms. The five restricted rows of pi are
    stepped through U together, one tridiagonal product per term. T is
    split into pieces with r*t at most ``_UNIFORM_MEAN``; each piece's
    series runs past 2*r*t terms and stops once the Poisson mass it
    drops is below ``_POISSON_TAIL``, so an entry is low by at most that
    much per piece.
    """
    if not 0 < T < math.inf:
        raise ValueError(f"T must be finite and > 0, got {T}")
    m, lam, mu = p.m, p.lam, p.mu
    full = (lam + m * mu) * T  # judged on all of m, whatever the cap below
    if not full < math.inf:
        raise ValueError(f"(lam + m*mu) * T must be finite, got {full}")
    import numpy as np

    pi = state_probabilities(p).probs
    above = np.append(np.cumsum(pi[:0:-1])[::-1], 0.0)  # above[j]: pi's mass above j
    b = int(np.argmax(above < _SUPPORT_TAIL))
    # a support of one state (lam = 0) still has a positive rate
    rate = lam + max(b, 1) * mu
    k = np.arange(b + 1)
    zones = _zone(k, p.k1, p.k2)
    rows = np.zeros((5, b + 1))
    rows[zones, k] = pi[:b + 1]
    # U's diagonals: up from k < b, down from k > 0, and the rest stays;
    # each exit rate rounds to at most rate, so stay >= 0
    up, down = lam / rate, k[1:] * mu / rate
    stay = 1.0 - (np.where(k < b, lam, 0.0) + k * mu) / rate
    pieces = max(1, math.ceil(rate * T / _UNIFORM_MEAN))
    mean = rate * T / pieces
    for _ in range(pieces):
        weight = math.exp(-mean)
        term, out, j = rows, weight * rows, 0
        # past j + 1 > 2 * mean the weights fall by half or more per term,
        # so the mass after term j is at most 2 * weight
        while not (j + 1 > 2 * mean and 2 * weight < _POISSON_TAIL):
            nxt = term * stay
            nxt[:, 1:] += term[:, :-1] * up
            nxt[:, :-1] += term[:, 1:] * down
            j += 1
            weight *= mean / j
            term = nxt
            out += weight * term
        rows = out
    moves = np.stack([rows[:, zones == b].sum(axis=1) for b in range(5)], axis=1)
    return moves.ravel().tolist()


def crossing_probabilities(moves: Sequence[float]) -> list[float]:
    """The probability of each directed threshold crossing, in the order
    of ``TransitionKind``, from the 25 zone moves of ``exact_zone_moves``:
    like the simulators' tallies, it compares a window's two ends. The
    first-order ``transition_probability`` tends to it as T -> 0."""
    return [math.fsum(moves[move] for move in crossing) for crossing in CROSSING_MOVES]


def prob_state_change(p: SystemTypeParams, T: float) -> float:
    """Probability that a cell's load state changes within a window T.

    Sum of the four directed transition probabilities; under the validity
    preconditions the sum is a probability.
    """
    _check_first_order(p, T)
    dist = state_probabilities(p)
    total = sum(_transition(p, T, kind, dist) for kind in TransitionKind)
    if total > 1.0 + 1e-12:
        raise AssertionError(f"state-change probability {total} > 1")
    return min(total, 1.0)


def prob_bb_update(
    per_type: list[tuple[SystemTypeParams, int]], T: float
) -> float:
    """Probability that a bulletin-board replica receives an update in T.

    per_type lists (params, ap_count_under_this_replica) for the three
    access-network kinds; see ``bb_update_probability``.
    """
    return bb_update_probability(
        [prob_state_change(params, T) for params, _ in per_type],
        [a_count for _, a_count in per_type],
    )


def bb_update_probability(changes: Sequence[float], ap_counts: Sequence[int]) -> float:
    """A replica over ap_counts[i] APs of kind i, each of which changes load
    state with probability changes[i], is updated unless none of its APs
    changed:  1 - prod_i (1 - Pr_i)^{A_i}."""
    if len(ap_counts) != 3:
        raise ValueError(f"AP counts must cover the three kinds, got {len(ap_counts)}")
    stay = 1.0
    for pr, a_count in zip(changes, ap_counts):
        if a_count < 0:
            raise ValueError(f"AP count must be >= 0, got {a_count}")
        stay *= (1.0 - pr) ** a_count
    return 1.0 - stay
