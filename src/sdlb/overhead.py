"""Signalling-overhead models for the semi-distributed architecture.

Periodic overhead is the fixed-schedule load reporting every T seconds:
each AP's resource inventory reports to its LMM (cost a_i per report) and
the LMM copies its state to its two backups (cost d per copy):

    O_11 = (1/T) * sum_i a_i * A_i
    O_12 = (1/T) * 2 * d
    O_p  = O_11 + O_12

Non-periodic overhead is the state-change-triggered bulletin-board traffic:

    O_np = (1/T) * [ a * sum_i A_i * Pr_i  +  d * sum_{j=1,2} Pr_j ]

where Pr_i is the per-window state-change probability of a type-i cell and
Pr_j the probability that backup replica j receives at least one update.
Neither quantity depends on the number of LMMs, which is the headline
property of this architecture: overhead is flat in the network size.

Costs are unitless "signalling units per second"; the reference scenario
normalises a_i = d = 1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .queueing import SystemTypeParams, bb_update_probability, prob_state_change

__all__ = [
    "OverheadBreakdown",
    "OverheadParams",
    "check_period_and_cost",
    "even_bb_split",
    "nonperiodic_overhead",
    "periodic_overhead",
]


def check_period_and_cost(T: float, d: float, a_common: float | None):
    """The rules every overhead model puts on the report period, the
    LMM-to-backup copy cost and the common report cost."""
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T}")
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    if a_common is not None and a_common < 0:
        raise ValueError(f"a_common must be >= 0, got {a_common}")


@dataclass(frozen=True)
class OverheadParams:
    """T: reporting period (s); d: LMM-to-backup transfer cost; types: the
    three per-kind parameter sets; a_common: report cost used for the
    non-periodic sum (defaults to the first type's report_cost)."""

    T: float
    d: float
    types: tuple[SystemTypeParams, SystemTypeParams, SystemTypeParams]
    a_common: float | None = None

    def __post_init__(self):
        check_period_and_cost(self.T, self.d, self.a_common)
        if len(self.types) != 3:
            raise ValueError(f"exactly three type parameter sets required, got {len(self.types)}")

    @property
    def report_cost(self) -> float:
        return self.types[0].report_cost if self.a_common is None else self.a_common


@dataclass(frozen=True)
class OverheadBreakdown:
    """Overhead components in units per second; op = o11 + o12."""

    o11: float
    o12: float
    op: float


def periodic_overhead(p: OverheadParams) -> OverheadBreakdown:
    """Fixed-schedule reporting overhead; independent of the LMM count."""
    o11 = sum(t.report_cost * t.ap_count for t in p.types) / p.T
    o12 = 2.0 * p.d / p.T
    return OverheadBreakdown(o11=o11, o12=o12, op=o11 + o12)


def even_bb_split(
    types: tuple[SystemTypeParams, ...],
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Split each type's AP count evenly over the two BB replicas.

    Odd counts give the extra AP to the first replica.
    """
    first = tuple(t.ap_count - t.ap_count // 2 for t in types)
    second = tuple(t.ap_count // 2 for t in types)
    return first, second  # type: ignore[return-value]


def nonperiodic_overhead(p: OverheadParams) -> float:
    """State-change-triggered bulletin-board overhead, units per second.

    Each type's APs are split evenly over the two backup replicas
    (``even_bb_split``). Like the periodic part, the result does not
    depend on the LMM count.
    """
    pr = [prob_state_change(t, p.T) for t in p.types]
    report_sum = sum(t.ap_count * pr_i for t, pr_i in zip(p.types, pr))
    replica_sum = sum(bb_update_probability(pr, counts) for counts in even_bb_split(p.types))
    return (p.report_cost * report_sum + p.d * replica_sum) / p.T
