"""Integrated-reliability model: failure scenarios, traffic losses, score.

Three failure scenarios are weighed by the traffic they lose:

  scenario 0 - nothing is broken:
      P0 = P_lmm * P_c^n' * R_lmm^n,  L0 = 0
  scenario 1 - K1 junction lines are down:
      P1 = P_lmm * C(n', K1) * (1-P_c)^K1 * P_c^(n'-K1) * R_lmm^n
      L1 = sum of the traffic on the K1 lost lines
  scenario 2 - K2 LMMs are down:
      P2 = (1-P_lmm) * P_c^K2 * C(n, K2) * (1-R_lmm)^K2 * R_lmm^(n-K2)
      L2 = all junction-line traffic + the inventory traffic of the K2
           broken managers

with P_lmm = 1 - (1-R_lmm)^n (redundancy of the manager pool) and
P_c = 1 - (1-R_c)^2 (each manager reaches its backups over two lines).
n' = floor(n/3) + n % 3 + 1 junction lines exist for n managers.

The integrated score weighs the loss of each scenario by its probability,
normalised by the total carried traffic B:

      R = 1 - (P0*L0 + P1*L1 + P2*L2) / B

Binomial factors are evaluated in log space once the population exceeds
170 (where the intermediate coefficient would overflow a float). The
score is not clamped: values outside [0, 1] signal abusive parameters,
not a bug.

1 - P_lmm is evaluated as (1-R_lmm)^n itself, not as 1 minus P_lmm, so
P2 stays nonzero until that power underflows.

Only uniform traffic is modelled: every junction line carries c and
every inventory-manager pair b, so the traffic sums are the products
B = n'*c + 3n*b, L1 = K1*c and L2 = n'*c + 3*K2*b.
``swept_integrated_reliability`` scores fig 8's whole sweep from them and
from ``_scenarios``, which computes the terms of the line count n' alone
(P_c^n' and the scenario-1 binomial) once per distinct n'.
``integrated_reliability`` is the sweep of one point, and
``scenario_probabilities`` takes L1 and L2 from the same products, with
the same traffic checks (``_traffic``). No
command calls these two, ``uniform_reliability_params`` or
``ReliabilitySpec.params_for``; they stay because the benchmark's tracer
(``perfbench/tracing.py``) looks each of them up by name.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .params import check_reliabilities, check_weights
from .topology import max_junction_lines

__all__ = [
    "ReliabilityParams",
    "ScenarioProbabilities",
    "check_reliabilities",
    "check_weights",
    "integrated_reliability",
    "scenario_probabilities",
    "swept_integrated_reliability",
    "uniform_reliability_params",
]

# largest population for which C(n, k) is safely computed directly
_DIRECT_COMB_LIMIT = 170

# largest manager count: binomial_pmf's log-space branch loses digits to the
# cancellation of its lgamma terms as n grows. At q = 1/n its relative error
# is 1.8e-9 at this cap (k = 3), 3.8e-6 at 10^10 and 0.3 at 10^14.
MAX_LMMS = 10**6


def _log_comb(n: int, k: int) -> float:
    """log C(n, k) via lgamma; used above the direct-evaluation limit."""
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def binomial_pmf(trials: int, failures: int, fail_prob: float) -> float:
    """C(trials, failures) * q^failures * (1-q)^(trials-failures).

    Direct for small populations, log space for large ones.
    """
    if not 0 <= failures <= trials:
        return 0.0
    q = fail_prob
    if trials <= _DIRECT_COMB_LIMIT:
        return math.comb(trials, failures) * q**failures * (1.0 - q) ** (trials - failures)
    if q == 0.0:
        return 1.0 if failures == 0 else 0.0
    if q == 1.0:
        return 1.0 if failures == trials else 0.0
    logp = (
        _log_comb(trials, failures)
        + failures * math.log(q)
        + (trials - failures) * math.log1p(-q)
    )
    return math.exp(logp)


def _check_failures(n: int, k1_lines: int, k2_lmms: int) -> int:
    """n' for n managers, once n is at most MAX_LMMS, K1 fits n' and K2
    fits n."""
    if n > MAX_LMMS:
        raise ValueError(f"n must be <= {MAX_LMMS}, got {n}")
    n_lines = max_junction_lines(n)
    if not 1 <= k1_lines <= n_lines:
        raise ValueError(
            f"k1_lines must be in 1..{n_lines} (junction lines for n={n}), got {k1_lines}"
        )
    if not 1 <= k2_lmms <= n:
        raise ValueError(f"k2_lmms must be in 1..{n}, got {k2_lmms}")
    return n_lines


@dataclass(frozen=True)
class ReliabilityParams:
    """r_lmm / r_c: per-manager and per-junction-line reliabilities;
    n: manager count; k1_lines / k2_lmms: how many lines / managers fail
    in scenarios 1 and 2; c_value: the traffic intensity of each junction
    line; b_value: that of each of the 3 x n inventory-manager pairs."""

    r_lmm: float
    r_c: float
    n: int
    k1_lines: int
    k2_lmms: int
    c_value: float
    b_value: float

    def __post_init__(self):
        check_reliabilities(self.r_lmm, self.r_c)
        _check_failures(self.n, self.k1_lines, self.k2_lmms)
        check_weights(c=self.c_value, b=self.b_value)

    @property
    def n_lines(self) -> int:
        return max_junction_lines(self.n)


@dataclass(frozen=True)
class ScenarioProbabilities:
    """Scenario probabilities and their traffic losses; l0 is always 0."""

    p_lmm: float
    p_c: float
    p0: float
    p1: float
    p2: float
    l0: float
    l1: float
    l2: float


def _traffic(
    n: int, n_lines: int, k1_lines: int, k2_lmms: int, c_value: float, b_value: float,
    first: bool,
) -> tuple[float, float, float]:
    """(B, L1, L2) under uniform traffic: all n' lines and 3n inventory
    pairs, the K1 lost lines, and all lines plus the 3*K2 pairs of the K2
    lost managers. Traffic that is negative, zero or not finite is refused.

    The weights are the same at every n of a sweep, so they are checked
    only at its ``first`` n; with n' >= 1 and 3n >= 3, c + b > 0 makes
    every B > 0. B is checked at each n; L1 <= L2 <= B, so that covers
    all three.
    """
    if first:
        check_weights(c=c_value, b=b_value)
        _check_traffic(c_value + b_value)
    c_sum = n_lines * c_value
    total = c_sum + 3 * n * b_value
    if not math.isfinite(total):
        raise ValueError(f"total traffic intensity n'*c + 3n*b must be finite, got {total}")
    return total, k1_lines * c_value, c_sum + 3 * k2_lmms * b_value


def _scenarios(
    r_lmm: float, r_c: float, ns: Sequence[int], n_lines: Sequence[int],
    k1_lines: int, k2_lmms: int,
) -> Iterator[tuple[float, float, float, float, float]]:
    """(P_lmm, P_c, P0, P1, P2) of the three failure scenarios for each n
    of ``ns``, whose line counts are ``n_lines``; P_c^n' and the scenario-1
    binomial are computed once per distinct n'."""
    p_c = 1.0 - (1.0 - r_c) ** 2
    r_fail = 1.0 - r_lmm
    p_c_k2 = p_c**k2_lmms
    line_terms = {}
    for n, lines in zip(ns, n_lines):
        if lines not in line_terms:
            line_terms[lines] = p_c**lines, binomial_pmf(lines, k1_lines, 1.0 - p_c)
        p_c_lines, line_pmf = line_terms[lines]
        all_down = r_fail**n  # 1 - P_lmm, without the cancellation
        p_lmm = 1.0 - all_down
        r_pow_n = r_lmm**n
        p0 = p_lmm * p_c_lines * r_pow_n
        p1 = p_lmm * line_pmf * r_pow_n
        p2 = all_down * p_c_k2 * binomial_pmf(n, k2_lmms, r_fail)
        yield p_lmm, p_c, p0, p1, p2


def _check_traffic(total: float):
    if total <= 0:
        raise ValueError("zero traffic: total traffic intensity must be > 0")


def scenario_probabilities(p: ReliabilityParams) -> ScenarioProbabilities:
    """Evaluate the three failure scenarios for one (K1, K2) choice."""
    _, l1, l2 = _traffic(
        p.n, p.n_lines, p.k1_lines, p.k2_lmms, p.c_value, p.b_value, first=True)
    ((p_lmm, p_c, p0, p1, p2),) = _scenarios(
        p.r_lmm, p.r_c, [p.n], [p.n_lines], p.k1_lines, p.k2_lmms)
    return ScenarioProbabilities(
        p_lmm=p_lmm, p_c=p_c, p0=p0, p1=p1, p2=p2, l0=0.0, l1=l1, l2=l2
    )


def integrated_reliability(p: ReliabilityParams) -> float:
    """1 minus the traffic-weighted expected loss fraction."""
    (score,) = swept_integrated_reliability(
        [p.n], p.r_lmm, p.r_c, p.k1_lines, p.k2_lmms, p.c_value, p.b_value)
    return score


def swept_integrated_reliability(
    ns: Sequence[int],
    r_lmm: float,
    r_c: float,
    k1_lines: int = 1,
    k2_lmms: int = 1,
    c_value: float = 1.0,
    b_value: float = 1.0,
) -> list[float]:
    """R = 1 - (P0*L0 + P1*L1 + P2*L2) / B, with L0 = 0, for each n of
    ``ns`` under uniform traffic.

    Every n is checked, in list order, before any is scored. The total B
    is checked at every n, because n' does not grow with n (n = 5 has
    four lines, n = 6 three).
    """
    check_reliabilities(r_lmm, r_c)
    c_value, b_value = float(c_value), float(b_value)
    n_lines, sums = [], []
    for n in ns:
        n_lines.append(_check_failures(n, k1_lines, k2_lmms))
        sums.append(_traffic(
            n, n_lines[-1], k1_lines, k2_lmms, c_value, b_value, first=not sums))
    return [
        1.0 - (p1 * l1 + p2 * l2) / total
        for (total, l1, l2), (_, _, _, p1, p2) in zip(
            sums, _scenarios(r_lmm, r_c, ns, n_lines, k1_lines, k2_lmms))
    ]


def uniform_reliability_params(
    n: int,
    r_lmm: float,
    r_c: float,
    k1_lines: int = 1,
    k2_lmms: int = 1,
    c_value: float = 1.0,
    b_value: float = 1.0,
) -> ReliabilityParams:
    """Params with uniform traffic: every line carries c_value, every
    inventory-manager pair b_value."""
    return ReliabilityParams(r_lmm, r_c, n, k1_lines, k2_lmms, c_value, b_value)
