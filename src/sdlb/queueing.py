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
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "FirstOrderValidityError",
    "LoadState",
    "OccupancyOverflowError",
    "StateDistribution",
    "SystemTypeParams",
    "TransitionKind",
    "bb_update_probability",
    "classify_load",
    "prob_bb_update",
    "prob_state_change",
    "state_probabilities",
    "transition_probability",
]

# rescale threshold for the recurrence accumulator; far below float max so
# the running sum cannot overflow either
_RESCALE_LIMIT = 1e280


class FirstOrderValidityError(ValueError):
    """The reporting window T is too coarse for the first-order model."""


class OccupancyOverflowError(ValueError):
    """The occupancy distribution of ``params`` is not finite: one step of
    the recurrence passes the float range even from a rescaled term."""

    def __init__(self, params: SystemTypeParams):
        super().__init__(
            f"occupancy distribution is not finite: lam/mu = {params.lam / params.mu:g} "
            f"overflows float at m = {params.m}"
        )
        self.params = params


@dataclass(frozen=True)
class SystemTypeParams:
    """Per-access-network-type parameters.

    lam: arrival rate (1/s), mu: per-server service rate (1/s), m: cell
    capacity in servers, k1/k2: lower/upper load thresholds with
    0 <= k1 < k2 <= m, ap_count: number of APs of this type, report_cost:
    signalling cost of one load report.
    """

    lam: float
    mu: float
    m: int
    k1: int
    k2: int
    ap_count: int = 0
    report_cost: float = 1.0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.mu <= 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0 <= self.k1 < self.k2 <= self.m:
            raise ValueError(
                f"thresholds must satisfy 0 <= k1 < k2 <= m, got k1={self.k1}, "
                f"k2={self.k2}, m={self.m}"
            )
        if self.ap_count < 0:
            raise ValueError(f"ap_count must be >= 0, got {self.ap_count}")
        if self.report_cost < 0:
            raise ValueError(f"report_cost must be >= 0, got {self.report_cost}")


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
        raise FirstOrderValidityError(
            f"T too coarse for first-order model: lam*T = {lam_t:g} >= 1"
        )
    mu_t = (p.k2 + 1) * p.mu * T
    if mu_t >= 1:
        raise FirstOrderValidityError(
            f"T too coarse for first-order model: (k2+1)*mu*T = {mu_t:g} >= 1"
        )


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
