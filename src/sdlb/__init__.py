"""Semi-distributed load balancing for heterogeneous wireless networks:
closed-form overhead/timing/reliability models, a seeded discrete-event
simulator of the underlying protocol, and figure-reproduction sweeps.

The simulator's names are looked up in ``sdlb.simkernel`` on first use
(PEP 562), so ``import sdlb`` and parsing a scenario document do not load
NumPy."""

from .config import ConfigError, ScenarioConfig, default_config, load_config
from .overhead import (
    OverheadBreakdown,
    OverheadParams,
    nonperiodic_overhead,
    periodic_overhead,
)
from .queueing import (
    FirstOrderValidityError,
    LoadState,
    OccupancyOverflowError,
    StateDistribution,
    SystemTypeParams,
    TransitionKind,
    classify_load,
    prob_bb_update,
    prob_state_change,
    state_probabilities,
    transition_probability,
)
from .reliability import (
    ReliabilityParams,
    ScenarioProbabilities,
    integrated_reliability,
    scenario_probabilities,
    uniform_reliability_params,
)
from .timing import (
    HscaTimingParams,
    TimingParams,
    mm1_delay,
    total_processing_time_hsca,
    total_processing_time_sda,
)
from .topology import (
    AccessNetworkKind,
    BorderEvent,
    LmmFault,
    SimScenario,
    Topology,
    build_topology,
    max_junction_lines,
)
from .validation import ValidationVerdict, validate_against_analytic

__version__ = "0.1.0"

_SIMKERNEL_NAMES = {"CellStats", "SimReport", "horizon_for_events", "run_cell_mc", "run_system_sim"}


def __getattr__(name: str):
    if name in _SIMKERNEL_NAMES:
        from . import simkernel

        return getattr(simkernel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
