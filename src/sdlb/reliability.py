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

with P_lmm = 1 - (1-R_lmm)^n (redundancy of the manager pool; the exponent
can be overridden, see ReliabilityParams.redundancy_exponent) and
P_c = 1 - (1-R_c)^2 (each manager reaches its backups over two lines).
n' = floor(n/3) + n % 3 + 1 junction lines exist for n managers.

The integrated score weighs the loss of each scenario by its probability,
normalised by the total carried traffic B:

      R = 1 - (P0*L0 + P1*L1 + P2*L2) / B

Binomial factors are evaluated in log space once the population exceeds
170 (where the intermediate coefficient would overflow a float). The
score is not clamped: values outside [0, 1] signal abusive parameters,
not a bug.

The score is one function of the traffic sums B, L1 and L2 as numbers;
``integrated_reliability`` takes them from the params' arrays and
``uniform_integrated_reliability`` (a sweep point of fig 8) from uniform
arrays it sums the same way, without building params.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .topology import max_junction_lines

__all__ = [
    "ReliabilityParams",
    "ScenarioProbabilities",
    "check_reliabilities",
    "check_weights",
    "integrated_reliability",
    "scenario_probabilities",
    "uniform_integrated_reliability",
    "uniform_reliability_params",
]

# largest population for which C(n, k) is safely computed directly
_DIRECT_COMB_LIMIT = 170


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


def check_reliabilities(r_lmm: float, r_c: float):
    """Both reliabilities are probabilities."""
    for name, v in (("r_lmm", r_lmm), ("r_c", r_c)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {v}")


def _check_failures(n: int, k1_lines: int, k2_lmms: int) -> int:
    """n' for n managers, once K1 fits n' and K2 fits n."""
    n_lines = max_junction_lines(n)
    if not 1 <= k1_lines <= n_lines:
        raise ValueError(
            f"k1_lines must be in 1..{n_lines} (junction lines for n={n}), got {k1_lines}"
        )
    if not 1 <= k2_lmms <= n:
        raise ValueError(f"k2_lmms must be in 1..{n}, got {k2_lmms}")
    return n_lines


def check_weights(redundancy_exponent: int | None, **lowest: float):
    """Each traffic intensity, named with its lowest value, must be >= 0;
    an explicit redundancy exponent must be >= 1."""
    for name, low in lowest.items():
        if low < 0:
            raise ValueError(f"{name} must be >= 0, got {low}")
    if redundancy_exponent is not None and redundancy_exponent < 1:
        raise ValueError(f"redundancy_exponent must be >= 1, got {redundancy_exponent}")


@dataclass(frozen=True)
class ReliabilityParams:
    """r_lmm / r_c: per-manager and per-junction-line reliabilities;
    n: manager count; k1_lines / k2_lmms: how many lines / managers fail
    in scenarios 1 and 2; c: junction-line traffic intensities (length
    n'); b: 3 x n inventory-to-manager traffic intensities.

    redundancy_exponent overrides the exponent of the manager-pool
    redundancy term 1 - (1-r_lmm)^n (None keeps the literal n)."""

    r_lmm: float
    r_c: float
    n: int
    k1_lines: int
    k2_lmms: int
    c: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    redundancy_exponent: int | None = None

    def __post_init__(self):
        check_reliabilities(self.r_lmm, self.r_c)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        n_lines = _check_failures(self.n, self.k1_lines, self.k2_lmms)
        c = np.asarray(self.c, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b", b)
        if c.shape != (n_lines,):
            raise ValueError(f"c must have shape ({n_lines},), got {c.shape}")
        if b.shape != (3, self.n):
            raise ValueError(f"b must have shape (3, {self.n}), got {b.shape}")
        check_weights(self.redundancy_exponent, c=float(c.min()), b=float(b.min()))

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


def _traffic_sums(c: np.ndarray, b: np.ndarray, k1_lines: int, k2_lmms: int):
    """(B, L1, L2): all traffic, the first K1 lines', and all lines' plus
    the first K2 managers' inventory traffic."""
    c_sum = c.sum()
    return (
        float(c_sum + b.sum()),
        float(c[:k1_lines].sum()),
        float(c_sum + b[:, :k2_lmms].sum()),
    )


def _scenarios(
    r_lmm: float, r_c: float, n: int, n_lines: int, k1_lines: int, k2_lmms: int,
    redundancy_exponent: int | None,
) -> tuple[float, float, float, float, float]:
    """(P_lmm, P_c, P0, P1, P2) of the three failure scenarios."""
    exponent = n if redundancy_exponent is None else redundancy_exponent
    p_lmm = 1.0 - (1.0 - r_lmm) ** exponent
    p_c = 1.0 - (1.0 - r_c) ** 2
    r_pow_n = r_lmm**n

    p0 = p_lmm * p_c**n_lines * r_pow_n
    p1 = p_lmm * binomial_pmf(n_lines, k1_lines, 1.0 - p_c) * r_pow_n
    p2 = (1.0 - p_lmm) * p_c**k2_lmms * binomial_pmf(n, k2_lmms, 1.0 - r_lmm)
    return p_lmm, p_c, p0, p1, p2


def _score(scenarios: tuple[float, ...], total: float, l1: float, l2: float) -> float:
    """R = 1 - (P0*L0 + P1*L1 + P2*L2) / B with L0 = 0, from the
    probabilities of ``_scenarios`` and the sums of ``_traffic_sums``."""
    if total <= 0:
        raise ValueError("zero traffic: total traffic intensity must be > 0")
    _, _, p0, p1, p2 = scenarios
    return 1.0 - (p0 * 0.0 + p1 * l1 + p2 * l2) / total


def scenario_probabilities(p: ReliabilityParams) -> ScenarioProbabilities:
    """Evaluate the three failure scenarios for one (K1, K2) choice."""
    p_lmm, p_c, p0, p1, p2 = _scenarios(
        p.r_lmm, p.r_c, p.n, p.n_lines, p.k1_lines, p.k2_lmms, p.redundancy_exponent
    )
    _, l1, l2 = _traffic_sums(p.c, p.b, p.k1_lines, p.k2_lmms)
    return ScenarioProbabilities(
        p_lmm=p_lmm, p_c=p_c, p0=p0, p1=p1, p2=p2, l0=0.0, l1=l1, l2=l2
    )


def integrated_reliability(p: ReliabilityParams) -> float:
    """1 minus the traffic-weighted expected loss fraction."""
    return _score(
        _scenarios(p.r_lmm, p.r_c, p.n, p.n_lines, p.k1_lines, p.k2_lmms,
                   p.redundancy_exponent),
        *_traffic_sums(p.c, p.b, p.k1_lines, p.k2_lmms),
    )


def uniform_integrated_reliability(
    n: int,
    r_lmm: float,
    r_c: float,
    k1_lines: int = 1,
    k2_lmms: int = 1,
    c_value: float = 1.0,
    b_value: float = 1.0,
    redundancy_exponent: int | None = None,
) -> float:
    """``integrated_reliability(uniform_reliability_params(...))`` with the
    same arguments: the same checks, sums and score, without the params."""
    check_reliabilities(r_lmm, r_c)
    n_lines = _check_failures(n, k1_lines, k2_lmms)
    check_weights(redundancy_exponent, c=float(c_value), b=float(b_value))
    c = np.full(n_lines, float(c_value))
    b = np.full((3, n), float(b_value))
    return _score(
        _scenarios(r_lmm, r_c, n, n_lines, k1_lines, k2_lmms, redundancy_exponent),
        *_traffic_sums(c, b, k1_lines, k2_lmms),
    )


def uniform_reliability_params(
    n: int,
    r_lmm: float,
    r_c: float,
    k1_lines: int = 1,
    k2_lmms: int = 1,
    c_value: float = 1.0,
    b_value: float = 1.0,
    redundancy_exponent: int | None = None,
) -> ReliabilityParams:
    """Params with uniform traffic: every line carries c_value, every
    inventory-manager pair b_value."""
    return ReliabilityParams(
        r_lmm=r_lmm,
        r_c=r_c,
        n=n,
        k1_lines=k1_lines,
        k2_lmms=k2_lmms,
        c=np.full(max_junction_lines(n), float(c_value)),
        b=np.full((3, n), float(b_value)),
        redundancy_exponent=redundancy_exponent,
    )
