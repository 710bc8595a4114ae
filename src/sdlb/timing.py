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
evaluation does. NumPy is imported by ``check_swept_rates`` only, so
importing this module does not load it. Both parameter sets are defined
in ``sdlb.params``, so that parsing a scenario document does not load
this module.
"""
from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from .params import HscaTimingParams, TimingParams

if TYPE_CHECKING:  # only for annotations
    import numpy as np

__all__ = [
    "HscaTimingParams",
    "TimingParams",
    "check_swept_rates",
    "swept_processing_times",
    "total_processing_time_hsca",
    "total_processing_time_sda",
]


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


def check_swept_rates(p: TimingParams, h: HscaTimingParams, rates):
    """Raise the ValueError of the two parameter sets if some rate of
    ``rates``, set as lambda_report and as rho_ra = rho_is = rate / h.mu,
    breaks their rules.

    The rates that pass form an interval: rate >= 0, rate/mu_serve < 1 and
    rate/h.mu < 1, and correctly rounded division by a positive number is
    monotone. So all pass when the least and the greatest do, and only
    those two are built. NaN fails, and NumPy's ``min``/``max`` carry it to
    both ends.
    """
    import numpy as np

    rates = np.asarray(rates)
    if rates.size:
        for rate in (rates.min().item(), rates.max().item()):
            dataclasses.replace(p, lambda_report=rate)
            dataclasses.replace(h, rho_ra=rate / h.mu, rho_is=rate / h.mu)


def swept_processing_times(
    p: TimingParams, h: HscaTimingParams, rates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both processing times (s) at each report rate, with rho = rate / mu
    on each side; the rates must pass ``check_swept_rates``."""
    rho = rates / h.mu
    return _sda(p, rates / p.mu_serve), _hsca(h, rho, rho)
