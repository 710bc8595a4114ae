"""Accumulated processing-time models.

A load report in the semi-distributed architecture is collected by the
resource inventory (t1), propagated to the LMM (d_rl/s_rl), processed
through three identical M/M/1 stages (the LMM and its two backups), with
one LMM-to-backup propagation hop (d_ll/s_ll). Each stage contributes
(rho+1)/(mu*(1-rho)), as the published model has it. That is the M/M/1
sojourn W = 1/(mu*(1-rho)), which already holds the wait in queue, plus
that wait Wq = rho/(mu*(1-rho)) once more (Kleinrock, Queueing Systems
vol. 1, sec. 3.2); the figures keep it:

    T_sda = t1 + d_rl/s_rl + 3*(rho+1)/(mu*(1-rho)) + d_ll/s_ll

The hierarchical baseline routes a report through three propagation hops
and an allotter stage plus a doubled information-server stage:

    T_hsca = t1 + d_rr/s_rr + d_ris/s_ris + d_ibi/s_ibi
             + (rho_ra+1)/(mu*(1-rho_ra)) + 2*(rho_is+1)/(mu*(1-rho_is))

With matched parameters the two differ by exactly one propagation hop, so
the gap is d/s at every utilisation. All times are seconds internally;
d/s is treated as an opaque per-hop transfer delay (the reference scenario
makes each hop 1 ms).

Both formulas use only + - * /, so applied to an array of utilisations
(``swept_processing_times``) each element rounds exactly as the scalar
evaluation does.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HscaTimingParams",
    "TimingParams",
    "check_swept_rate",
    "mm1_delay",
    "swept_processing_times",
    "total_processing_time_hsca",
    "total_processing_time_sda",
]


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


def mm1_delay(rho: float, mu: float) -> tuple[float, float]:
    """(Wq, W) of one M/M/1 stage: the wait in queue rho/(mu*(1-rho)) and
    the whole sojourn 1/(mu*(1-rho)), wait and service together.

    Their sum (rho+1)/(mu*(1-rho)) is the per-stage term of the processing
    time formulas; it counts the wait twice.
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if not 0 <= rho < 1:
        raise ValueError(f"unstable queue: rho = {rho:g} not in [0, 1)")
    denom = mu * (1.0 - rho)
    return rho / denom, 1.0 / denom


def _sda(p: TimingParams, rho):
    queue = 3.0 * (rho + 1.0) / (p.mu_serve * (1.0 - rho))
    return p.t1 + p.d_rl / p.s_rl + queue + p.d_ll / p.s_ll


def _hsca(p: HscaTimingParams, rho_ra, rho_is):
    hops = p.d_rr / p.s_rr + p.d_ris / p.s_ris + p.d_ibi / p.s_ibi
    ra = (rho_ra + 1.0) / (p.mu * (1.0 - rho_ra))
    is_ = 2.0 * (rho_is + 1.0) / (p.mu * (1.0 - rho_is))
    return p.t1 + hops + ra + is_


def total_processing_time_sda(p: TimingParams) -> float:
    """End-to-end report processing time (s) for the semi-distributed path."""
    return _sda(p, p.rho)


def total_processing_time_hsca(p: HscaTimingParams) -> float:
    """End-to-end report processing time (s) for the hierarchical baseline."""
    return _hsca(p, p.rho_ra, p.rho_is)


def check_swept_rate(p: TimingParams, h: HscaTimingParams, rate: float):
    """What the two parameter sets check when a report rate sets
    lambda_report and rho_ra = rho_is = rate / h.mu."""
    _check_nonneg("lambda_report", rate)
    _check_utilisation(rate / p.mu_serve)
    _check_rho("rho_ra", rate / h.mu)


def swept_processing_times(
    p: TimingParams, h: HscaTimingParams, rates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both processing times (s) at each report rate, with rho = rate / mu
    on each side; every rate must pass ``check_swept_rate``."""
    rho = rates / h.mu
    return _sda(p, rates / p.mu_serve), _hsca(h, rho, rho)
