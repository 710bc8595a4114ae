"""The judge of ``sdlb validate``: a simulated cell against the closed forms.

``validate_against_analytic`` compares one ``run_cell_mc`` series with
the closed-form occupancy distribution, blocking probability and
first-order transition probabilities, one ``QuantityCheck`` per quantity.
``report_section`` writes one kind's part of ``validation_report.txt``: a
header line with the kind's parameters, then its checks and verdict, or
a line saying that it had no traffic or that the comparison was refused.
``report_text`` joins the sections into the file's text. Every line of
that file is written here; the kernels are run by the caller.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .queueing import (
    FirstOrderValidityError,
    SystemTypeParams,
    TransitionKind,
    state_probabilities,
    transition_probability,
)
from .topology import AccessNetworkKind

if TYPE_CHECKING:  # only for annotations: simkernel imports this module
    from .simkernel import CellStats, SimReport

__all__ = [
    "QuantityCheck",
    "ValidationVerdict",
    "report_section",
    "report_text",
    "validate_against_analytic",
]


@dataclass(frozen=True)
class QuantityCheck:
    name: str
    status: str  # "pass" | "fail" | "insufficient samples"
    observed: float
    expected: float
    band: float

    @property
    def z(self) -> float:
        """(observed - expected) / (band / 3): 0 when the two are equal,
        +-inf when the band is 0 and they differ. Not printed."""
        diff = self.observed - self.expected
        if diff == 0:
            return 0.0
        return diff / (self.band / 3) if self.band else math.copysign(math.inf, diff)


@dataclass
class ValidationVerdict:
    checks: list[QuantityCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def failures(self) -> list[QuantityCheck]:
        return [c for c in self.checks if c.status == "fail"]

    def format(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(
                f"{c.status.upper():>20}  {c.name:<24} observed={c.observed:.6g} "
                f"expected={c.expected:.6g} band={c.band:.3g}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"verdict: {verdict} ({len(self.failures)} failing)")
        return "\n".join(lines)


# A check is "insufficient samples" when its quantity is expected and seen
# fewer than MIN_EXPECTED_COUNT times, or its run has fewer than MIN_EVENTS
# events. A crossing rate passes within CROSSING_TOL relative even where
# 3 sigma is tighter: the formulas are first-order in lam*T.
MIN_EVENTS = 1000
MIN_EXPECTED_COUNT = 10.0
CROSSING_TOL = 0.10


def _judge(
    name: str, emp: float, ana: float, n: int, observed: float, floor: float, too_few: bool
) -> QuantityCheck:
    """One check: ``emp`` against ``ana`` within max(floor, 3 binomial sigma)
    over ``n`` samples, of which ``observed`` were seen."""
    band = max(floor, 3.0 * math.sqrt(max(ana * (1.0 - ana), 0.0) / max(n, 1)))
    if too_few or max(ana * n, observed) < MIN_EXPECTED_COUNT:
        status = "insufficient samples"
    else:
        status = "pass" if abs(emp - ana) <= band else "fail"
    return QuantityCheck(name=name, status=status, observed=emp, expected=ana, band=band)


def _matches(stats: CellStats, p: SystemTypeParams, window: float) -> bool:
    """Whether ``stats`` was simulated under ``p`` with windows of ``window``."""
    return (
        stats.lam == p.lam
        and stats.mu == p.mu
        and stats.m == p.m
        and stats.k1 == p.k1
        and stats.k2 == p.k2
        and stats.window == window
    )


def validate_against_analytic(
    report: SimReport, p: SystemTypeParams, T: float
) -> ValidationVerdict:
    """Compare a simulated series against the closed-form model.

    Every quantity is judged by ``_judge`` with its own sample count and
    band floor: occupancy frequencies over events, floored by 3 batch-means
    standard errors; blocking over arrivals; the four per-window
    transition frequencies over windows, floored by CROSSING_TOL relative.
    Raises if no simulated series matches the analytic parameters, and
    propagates the first-order validity error for a too-coarse T.
    """
    stats = next((s for s in report.per_type.values() if _matches(s, p, T)), None)
    if stats is None:
        raise ValueError(
            "refusing comparison: no simulated series matches the analytic parameters"
        )

    # raises FirstOrderValidityError before any comparison if T is too coarse
    analytic_tr = {
        kind: transition_probability(p, T, kind) for kind in TransitionKind
    }
    dist = state_probabilities(p)
    events = stats.events
    too_few = events < MIN_EVENTS

    checks = []
    for k in range(p.m + 1):
        emp = float(stats.occupancy_freq[k])
        batch_se = float(stats.occupancy_se[k]) if stats.occupancy_se is not None else 0.0
        checks.append(_judge(f"occupancy[{k}]", emp, float(dist.probs[k]), events,
                             emp * events, 3.0 * batch_se, too_few))
    if stats.arrivals > 0:
        checks.append(_judge("blocking", stats.blocked / stats.arrivals, dist.blocking,
                             stats.arrivals, stats.blocked, 0.0, too_few))
    nwin = stats.window_count
    crossed = stats.transition_counts
    for kind in TransitionKind:
        ana = analytic_tr[kind]
        count = crossed[kind]
        checks.append(_judge(f"transition[{kind.value}]", count / nwin if nwin else 0.0,
                             ana, nwin, count, CROSSING_TOL * ana, too_few))
    return ValidationVerdict(checks=checks)


def report_section(
    kind: AccessNetworkKind, p: SystemTypeParams, T: float, report: SimReport | None
) -> tuple[str, bool]:
    """One kind's section of the report and whether it passed.

    ``report`` is None for a kind without traffic, which passes. A
    comparison refused for a too-coarse T fails.
    """
    header = f"== {kind.name}: lam={p.lam} mu={p.mu} m={p.m} k1={p.k1} k2={p.k2} T={T}"
    if report is None:
        return f"{header}\nno traffic: nothing to validate", True
    try:
        verdict = validate_against_analytic(report, p, T)
    except FirstOrderValidityError as exc:
        return f"{header}\ncomparison refused: {exc}", False
    return f"{header}\n{verdict.format()}", verdict.passed


def report_text(sections: list[str]) -> str:
    """The text of ``validation_report.txt``: the sections, blank-line separated."""
    return "\n\n".join(sections) + "\n"
