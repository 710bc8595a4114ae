"""The parameter types a scenario document decodes into, with their range
rules.

``SystemTypeParams`` is the per-kind cell model of ``sdlb.queueing``,
``TimingParams`` and ``HscaTimingParams`` are the processing-time
parameters of ``sdlb.timing``, and ``check_period_and_cost``,
``check_reliabilities`` and ``check_weights`` are the rules that
``sdlb.overhead`` and ``sdlb.reliability`` put on their inputs. Those
modules import them from here and re-export them, so each is one object
wherever it is imported from. Only plain-float checks live here, so
parsing a document (``sdlb.config``) loads none of the models.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "HscaTimingParams",
    "SystemTypeParams",
    "TimingParams",
    "check_period_and_cost",
    "check_reliabilities",
    "check_weights",
]


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


def _check_speed(name: str, value: float):
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")


def _check_nonneg(name: str, value: float):
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def _check_utilisation(rho: float):
    if not 0 <= rho < 1:
        raise ValueError(f"utilisation must satisfy 0 <= rho < 1, got rho={rho:g}")


def _check_rho(name: str, rho: float):
    if not 0 <= rho < 1:
        raise ValueError(f"{name} must satisfy 0 <= rho < 1, got {rho:g}")


@dataclass(frozen=True)
class TimingParams:
    """t1: inventory collect/store time (s); d_rl, d_ll: link lengths;
    s_rl, s_ll: link speeds; lambda_report / mu_serve: report arrival and
    service rates at the manager stages (rho = lambda_report/mu_serve)."""

    t1: float
    d_rl: float
    s_rl: float
    d_ll: float
    s_ll: float
    lambda_report: float
    mu_serve: float

    def __post_init__(self):
        _check_nonneg("t1", self.t1)
        _check_nonneg("d_rl", self.d_rl)
        _check_nonneg("d_ll", self.d_ll)
        _check_speed("s_rl", self.s_rl)
        _check_speed("s_ll", self.s_ll)
        _check_nonneg("lambda_report", self.lambda_report)
        _check_speed("mu_serve", self.mu_serve)
        _check_utilisation(self.rho)

    @property
    def rho(self) -> float:
        return self.lambda_report / self.mu_serve


@dataclass(frozen=True)
class HscaTimingParams:
    """Baseline-architecture parameters: three links (statistics-allotter,
    allotter-server, server-backup) and two utilisations (allotter rho_ra,
    information server rho_is) sharing one service rate mu."""

    t1: float
    d_rr: float
    s_rr: float
    d_ris: float
    s_ris: float
    d_ibi: float
    s_ibi: float
    rho_ra: float
    rho_is: float
    mu: float

    def __post_init__(self):
        _check_nonneg("t1", self.t1)
        for name in ("d_rr", "d_ris", "d_ibi"):
            _check_nonneg(name, getattr(self, name))
        for name in ("s_rr", "s_ris", "s_ibi", "mu"):
            _check_speed(name, getattr(self, name))
        for name in ("rho_ra", "rho_is"):
            _check_rho(name, getattr(self, name))


def check_period_and_cost(T: float, d: float):
    """The rules every overhead model puts on the report period and the
    LMM-to-backup copy cost."""
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T}")
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")


def check_reliabilities(r_lmm: float, r_c: float):
    """Both reliabilities are probabilities."""
    for name, v in (("r_lmm", r_lmm), ("r_c", r_c)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {v}")


def check_weights(**lowest: float):
    """Each traffic intensity, named with its lowest value, must be >= 0."""
    for name, low in lowest.items():
        if low < 0:
            raise ValueError(f"{name} must be >= 0, got {low}")
