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

Fig 8 is scored once per sweep. ``swept_integrated_reliability`` checks
every n of the sweep (``_check_failures``, ``_traffic``) before it scores
any, then takes the probabilities from ``_scenarios``. That computes the
terms of the line count n' alone (P_c^n' and the scenario-1 binomial)
once per distinct n', and each binomial over its whole list with
``binomial_pmfs``, which computes the terms of K and q alone once.
``binomial_pmf``, ``integrated_reliability`` and ``scenario_probabilities``
are the same code on a list of one. No command calls the last two,
``uniform_reliability_params`` or ``ReliabilitySpec.params_for``; they
stay because the benchmark's tracer (``perfbench/tracing.py``) looks
each of them up by name.
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


def binomial_pmfs(ns: Sequence[int], k: int, q: float) -> list[float]:
    """C(n, k) * q^k * (1-q)^(n-k) for each n of ``ns``.

    Direct for small populations, log space for large ones. The terms of
    k and q alone (q^k, 1-q, lgamma(k+1), k*log q, log1p(-q)) are computed
    once per sweep; the logarithms only if some n is scored in log space,
    so a q outside [0, 1] fails where the one-point formula would.
    """
    if k < 0:
        return [0.0] * len(ns)
    # q^k serves only n <= _DIRECT_COMB_LIMIT, and so only k within it
    q_k = q**k if k <= _DIRECT_COMB_LIMIT else None
    p = 1.0 - q
    if q != 0.0 and q != 1.0 and max(ns, default=-1) >= max(k, _DIRECT_COMB_LIMIT + 1):
        lgamma_k, k_log_q, log_p = math.lgamma(k + 1), k * math.log(q), math.log1p(-q)
    comb, lgamma, exp = math.comb, math.lgamma, math.exp
    out = []
    for n in ns:
        if n < k:
            out.append(0.0)
        elif n <= _DIRECT_COMB_LIMIT:
            out.append(comb(n, k) * q_k * p ** (n - k))
        elif q == 0.0:
            out.append(1.0 if k == 0 else 0.0)
        elif q == 1.0:
            out.append(1.0 if k == n else 0.0)
        else:
            out.append(exp(lgamma(n + 1) - lgamma_k - lgamma(n - k + 1) + k_log_q
                           + (n - k) * log_p))
    return out


def binomial_pmf(trials: int, failures: int, fail_prob: float) -> float:
    """C(trials, failures) * q^failures * (1-q)^(trials-failures)."""
    (pmf,) = binomial_pmfs([trials], failures, fail_prob)
    return pmf


def _check_failures(ns: Sequence[int], k1_lines: int, k2_lmms: int) -> list[int]:
    """n' for each n of ``ns``, once every n is at most MAX_LMMS, K1 fits
    its n' and K2 fits it; else the first n that breaks a rule is named."""
    n_lines = [n // 3 + n % 3 + 1 for n in ns]  # max_junction_lines of n >= 1
    if ns and not (1 <= k2_lmms <= min(ns) and max(ns) <= MAX_LMMS
                   and 1 <= k1_lines <= min(n_lines)):
        for n in ns:
            if n > MAX_LMMS:
                raise ValueError(f"n must be <= {MAX_LMMS}, got {n}")
            lines = max_junction_lines(n)
            if not 1 <= k1_lines <= lines:
                raise ValueError(
                    f"k1_lines must be in 1..{lines} (junction lines for n={n}), got {k1_lines}"
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
        _check_failures([self.n], self.k1_lines, self.k2_lmms)
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
    ns: Sequence[int], n_lines: Sequence[int], k1_lines: int, k2_lmms: int, c_value: float,
    b_value: float,
) -> tuple[list[float], float, list[float]]:
    """B and L2 for each n of ``ns``, whose line counts are ``n_lines``, and
    L1, under uniform traffic: all n' lines and 3n inventory pairs, all
    lines plus the 3*K2 pairs of the K2 lost managers, and the K1 lost
    lines. Traffic that is negative, zero or not finite is refused.

    With n' >= 1 and 3n >= 3, c + b > 0 makes every B > 0. B is checked
    at each n; L1 <= L2 <= B, so that covers all three.
    """
    check_weights(c=c_value, b=b_value)
    _check_traffic(c_value + b_value)
    c_sums = [lines * c_value for lines in n_lines]
    totals = [c_sum + 3 * n * b_value for c_sum, n in zip(c_sums, ns)]
    if not all(map(math.isfinite, totals)):
        total = next(t for t in totals if not math.isfinite(t))
        raise ValueError(f"total traffic intensity n'*c + 3n*b must be finite, got {total}")
    k2_pairs = 3 * k2_lmms * b_value
    return totals, k1_lines * c_value, [c_sum + k2_pairs for c_sum in c_sums]


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
    distinct = list(dict.fromkeys(n_lines))
    line_terms = dict(zip(distinct, zip([p_c**lines for lines in distinct],
                                        binomial_pmfs(distinct, k1_lines, 1.0 - p_c))))
    for n, lines, pmf in zip(ns, n_lines, binomial_pmfs(ns, k2_lmms, r_fail)):
        p_c_lines, line_pmf = line_terms[lines]
        all_down = r_fail**n  # 1 - P_lmm, without the cancellation
        p_lmm = 1.0 - all_down
        r_pow_n = r_lmm**n
        yield (p_lmm, p_c, p_lmm * p_c_lines * r_pow_n, p_lmm * line_pmf * r_pow_n,
               all_down * p_c_k2 * pmf)


def _check_traffic(total: float):
    if total <= 0:
        raise ValueError("zero traffic: total traffic intensity must be > 0")


def scenario_probabilities(p: ReliabilityParams) -> ScenarioProbabilities:
    """Evaluate the three failure scenarios for one (K1, K2) choice."""
    ns, n_lines = [p.n], [p.n_lines]
    _, l1, (l2,) = _traffic(ns, n_lines, p.k1_lines, p.k2_lmms, p.c_value, p.b_value)
    ((p_lmm, p_c, p0, p1, p2),) = _scenarios(p.r_lmm, p.r_c, ns, n_lines, p.k1_lines, p.k2_lmms)
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

    Every n is checked before any is scored. The total B is checked at
    every n, because n' does not grow with n (n = 5 has four lines, n = 6
    three). A refused sweep names the first n, in list order, that breaks
    its own rules or whose traffic is refused.
    """
    check_reliabilities(r_lmm, r_c)
    c_value, b_value = float(c_value), float(b_value)
    try:
        n_lines = _check_failures(ns, k1_lines, k2_lmms)
        totals, l1, l2s = _traffic(ns, n_lines, k1_lines, k2_lmms, c_value, b_value)
    except ValueError:
        for n in ns:
            _traffic([n], _check_failures([n], k1_lines, k2_lmms), k1_lines, k2_lmms,
                     c_value, b_value)
        raise
    return [
        1.0 - (p1 * l1 + p2 * l2) / total
        for total, l2, (_, _, _, p1, p2) in zip(
            totals, l2s, _scenarios(r_lmm, r_c, ns, n_lines, k1_lines, k2_lmms))
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
